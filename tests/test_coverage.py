"""The sweep's per-axis coverage: a growing union of disjoint half-open
intervals, in each element type the engines use."""

import random

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from torusgaps.tournament import _FloatCoverage

DTYPES = (np.float64, np.int64)
ends = st.integers(min_value=0, max_value=2 ** 40)  # exact in float64 too


def naive_overlaps(intervals, s, e):
    return any(max(s, a) < min(e, b) for a, b in intervals)


def intervals(cov):
    return [(int(s), int(e)) for s, e in zip(cov.starts, cov.ends)]


def insert(cov, s, e):
    cov.insert_many(np.array([s], dtype=cov.starts.dtype),
                    np.array([e], dtype=cov.starts.dtype))


def overlaps(cov, s, e):
    dt = cov.starts.dtype
    return bool(cov.query(np.array([s], dtype=dt), np.array([e], dtype=dt))[0])


def test_insert_merges_touching_and_overlapping():
    for dtype in DTYPES:
        cov = _FloatCoverage(dtype)
        insert(cov, 10, 30)
        insert(cov, 30, 50)
        assert intervals(cov) == [(10, 50)]
        insert(cov, 5, 20)
        assert intervals(cov) == [(5, 50)]
        insert(cov, 70, 80)
        assert len(cov.starts) == 2
        insert(cov, 40, 75)
        assert intervals(cov) == [(5, 80)]
        assert cov.starts.dtype == cov.ends.dtype == dtype


def test_empty_inserts_and_queries_are_ignored():
    for dtype in DTYPES:
        cov = _FloatCoverage(dtype)
        insert(cov, 50, 50)
        assert len(cov.starts) == 0
        assert not overlaps(cov, 20, 20)
        insert(cov, 20, 40)
        assert not overlaps(cov, 30, 30)


def test_half_open_touch_is_not_overlap():
    for dtype in DTYPES:
        cov = _FloatCoverage(dtype)
        insert(cov, 20, 40)
        assert not overlaps(cov, 40, 60)
        assert not overlaps(cov, 0, 20)
        assert overlaps(cov, 39, 41)
        assert overlaps(cov, 0, 21)


def test_works_with_fraction_endpoints():
    # A fraction x / 12 enters the coverage as its lattice residue on
    # Z/L, L = 12 s: int64 for small L, Python ints once L >= 2**62.
    for scale, dtype in ((1, np.int64), (2 ** 70, object)):
        cov = _FloatCoverage(dtype)
        insert(cov, 4 * scale, 6 * scale)  # [1/3, 1/2)
        assert overlaps(cov, 5 * scale, 7 * scale)
        assert not overlaps(cov, 6 * scale, 8 * scale)
        insert(cov, 6 * scale, 8 * scale)
        assert intervals(cov) == [(4 * scale, 8 * scale)]
        assert cov.starts.dtype == dtype


def test_randomized_against_naive_oracle():
    for dtype in DTYPES:
        rng = random.Random(4821)
        cov = _FloatCoverage(dtype)
        kept = []
        for _ in range(600):
            s = rng.randrange(0, 950)
            e = s + rng.randrange(0, 300)
            q1, q2 = sorted((rng.randrange(1000), rng.randrange(1000)))
            assert overlaps(cov, q1, q2) == naive_overlaps(kept, q1, q2)
            insert(cov, s, e)
            if s < e:
                kept.append((s, e))
            assert cov.starts.dtype == cov.ends.dtype == dtype
            starts = cov.starts.tolist()
            assert starts == sorted(starts)
            assert all(a < b for a, b in intervals(cov))
            # disjoint with real gaps (touching neighbours were merged)
            assert all(cov.ends[i] < cov.starts[i + 1] for i in range(len(starts) - 1))


@given(st.lists(st.tuples(ends, ends), max_size=30),
       st.lists(st.tuples(ends, ends), max_size=10))
def test_total_measure_matches_sorted_union(pairs, queries):
    norm = [(min(a, b), max(a, b)) for a, b in pairs if a != b]
    merged = []
    for s, e in sorted(norm):
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    for dtype in DTYPES:
        cov = _FloatCoverage(dtype)
        if norm:  # one batch insert of everything
            cov.insert_many(np.array([s for s, _ in norm], dtype=dtype),
                            np.array([e for _, e in norm], dtype=dtype))
        assert intervals(cov) == merged
        assert cov.starts.dtype == dtype
        qs = np.array([min(a, b) for a, b in queries], dtype=dtype)
        qe = np.array([max(a, b) for a, b in queries], dtype=dtype)
        got = cov.query(qs, qe).tolist()
        assert got == [naive_overlaps(norm, s, e) for s, e in zip(qs, qe)]


def test_two_row_query_equals_the_row_queries():
    # The sweep queries both arc components of an axis at once, as (2, k)
    # arrays; each row reads as its own 1-D query, from empty coverage on
    # and with empty components [2 unit, 2 unit) among the queries.
    rng = random.Random(1313)
    for dtype, unit in ((np.float64, 1000), (np.int64, 1000), (object, 2 ** 70)):
        cov = _FloatCoverage(dtype)
        for _ in range(12):
            k = rng.randrange(12)
            s = [[rng.randrange(unit) for _ in range(k)] for _ in range(2)]
            e = [[min(x + rng.randrange(-unit // 10, unit // 3), unit) for x in row]
                 for row in s]
            for row_s, row_e in zip(s, e):
                for i in rng.sample(range(k), k // 4):
                    row_s[i] = row_e[i] = 2 * unit
            qs, qe = np.array(s, dtype=dtype), np.array(e, dtype=dtype)
            got = cov.query(qs, qe)
            assert got.shape == (2, k)
            assert got.tolist() == [cov.query(qs[0], qe[0]).tolist(),
                                    cov.query(qs[1], qe[1]).tolist()]
            cov.insert_many(qs.ravel(), qe.ravel())

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from reference import circle_norm, exhaustive_profile, signed_deviation
from test_tournament import generator_kinds
from torusgaps.denominators import (
    PRIMARY_DISTINCT_BOUND_2D,
    _Table,
    approximation_profile,
    primary_count_bound,
    secondary_distinct_bound,
    undercut_bound,
)
from torusgaps.numerics import EPSILON, kronecker_instance
from torusgaps.tournament import survivors_brute, survivors_sweep


def table_of(alphas, n):
    """The denominator table that the profile reads, with rows q = 1..n and
    at least two (an instance needs an edge); row q does not depend on n."""
    return _Table(kronecker_instance(alphas, max(n, 2)), EPSILON)


def test_classify_mixed_signs():
    rec = table_of([0.75, 0.25], 1).record(1)
    assert rec.signs == "+-"
    assert rec.deviations == pytest.approx((0.25, -0.25))


def test_classify_symmetric_pair_angle_and_length():
    rec = table_of([0.75, 0.75], 1).record(1)
    assert rec.angle == pytest.approx(math.pi / 4)
    assert rec.length == pytest.approx(math.sqrt(2 * 0.0625))


def test_classify_integral_multiple():
    # 2 a is an integer: the circle point 0, deviation -1/2, sign '-'.
    for alpha in (0.5, Fraction(1, 2)):
        rec = table_of([alpha], 2).record(2)
        assert rec.deviations == (-0.5,)
        assert rec.signs == "-"
        assert rec.length == 0.0
        assert rec.angle is None


def test_classify_zero_deviation_counts_as_positive():
    assert table_of([0.5], 1).record(1).signs == "+"
    assert table_of([Fraction(1, 2)], 1).record(1).signs == "+"


def test_records_match_scalar_circle_reading():
    # Every row of the table, and so every profile record, has the
    # deviations, signs and length of the scalar reading by
    # ``signed_deviation`` (bit for bit in floating mode, exactly in exact
    # mode).
    rng = np.random.default_rng(3)
    for i in range(24):
        m = 1 + i % 3
        if i % 2:
            alphas = [Fraction(int(rng.integers(1, d)), int(d))
                      for d in rng.integers(2, 10 ** 6, size=m)]
        else:
            alphas = rng.random(m).tolist()
        n = int(rng.integers(2, 300))
        table = table_of(alphas, n)
        eps = 0 if i % 2 else 1e-9
        for q in range(1, n + 1):
            rec = table.record(q)
            devs = tuple(signed_deviation(q * a) for a in alphas)
            assert rec.q == q
            assert rec.deviations == devs
            assert all(type(d) is type(e) for d, e in zip(rec.deviations, devs))
            assert rec.length == math.sqrt(float(sum(circle_norm(q * a) ** 2
                                                     for a in alphas)))
            assert rec.signs == "".join("+" if -eps <= d < 0.5 - eps else "-"
                                        for d in devs)
        profile = approximation_profile(alphas, n)
        for rec in profile.primary + profile.secondary:
            assert table.record(rec.q) == rec


@pytest.mark.parametrize("alphas", [[0.31, 0.47], [Fraction(5, 17), Fraction(3, 11)]])
def test_reported_lengths_are_python_floats(alphas):
    # Lengths leave the instance's arrays as floats, never numpy scalars,
    # so every repr reads the same in both modes.
    n = 40
    for report in (survivors_sweep(alphas, n), survivors_brute(alphas, n)):
        values = (report.distinct_lengths + report.survivor_lengths
                  + [ln for ln, _ in report.witnesses])
        assert values and all(type(v) is float for v in values)
    profile = approximation_profile(alphas, n)
    records = profile.primary + profile.secondary + [table_of(alphas, n).record(7)]
    values = [profile.q1_length, profile.q2_length, profile.q2_strict_length]
    assert all(type(v) is float for v in values + [r.length for r in records])


def test_sign_rows_same_opposite_neither():
    # Row q's signs against row 1's, compared as the profile compares them:
    # the type is the same where no axis differs, opposite where every axis
    # does, and neither where some but not all do.
    table = table_of([0.75, 0.25], 5)
    differs = table.pos != table.pos[0]
    assert [table.record(q).signs for q in (1, 3, 5)] == ["+-", "-+", "+-"]
    assert differs[2].all() and not differs[4].any()
    table = table_of([0.75, 0.75, 0.25], 2)
    differs = table.pos != table.pos[0]
    assert [table.record(q).signs for q in (1, 2)] == ["++-", "+++"]
    assert differs[1].any() and not differs[1].all()


def exhaustive_q1(alphas, n):
    """Independent oracle: smallest index attaining the scan minimum."""
    lengths = [math.sqrt(sum(circle_norm(q * a) ** 2 for a in alphas))
               for q in range(1, n // 2 + 1)]
    best = min(lengths)
    return lengths.index(best) + 1, best


def q1_of(alphas, n):
    profile = approximation_profile(alphas, n)
    return profile.q1, profile.q1_length


def test_find_q1_scan():
    assert q1_of([0.3], 10) == (3, pytest.approx(0.1))
    assert q1_of([0.5], 4) == (2, pytest.approx(0.0))
    q1, l1 = q1_of([0.3, 0.3], 10)
    assert q1 == 3
    assert l1 == pytest.approx(0.1 * math.sqrt(2))


def test_find_q1_matches_exhaustive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 80))
        alphas = rng.random(m).tolist()
        assert q1_of(alphas, n)[0] == exhaustive_q1(alphas, n)[0]


def test_find_q1_validation():
    with pytest.raises(ValueError):
        approximation_profile([0.3], 1)


def test_find_primary_example():
    primary = approximation_profile([0.3], 10).primary
    assert [r.q for r in primary] == [10]
    assert primary[0].length == pytest.approx(0.0)


def test_find_q2_example_and_pool():
    profile = approximation_profile([0.3], 10)
    assert (profile.q2, profile.q2_length) == (7, pytest.approx(0.1))
    # deviation of q=5 is exactly 0, which classifies as '+' like q1 itself
    assert profile.q1_perp == [1, 4, 7]


def test_find_q2_empty_pool():
    profile = approximation_profile([0.1], 4)
    assert profile.q1 == 1 and profile.q1_perp == []
    assert profile.q2 is None and profile.q2_length is None
    assert profile.secondary == [] and profile.undercut is None


def test_find_q2_exact_matches_float():
    fracs = [Fraction(5, 17), Fraction(3, 13)]
    floats = [float(f) for f in fracs]
    n = 24
    exact, floating = approximation_profile(fracs, n), approximation_profile(floats, n)
    assert exact.q1 == floating.q1
    assert exact.q2 == floating.q2
    assert exact.q2_strict == floating.q2_strict


def test_find_secondary_example_and_empty_case():
    profile = approximation_profile([0.3], 10)
    assert (profile.q1, profile.q2) == (3, 7)
    assert [r.q for r in profile.secondary] == [10]
    # q2 exists but nothing of opposite type sits in (n - q1, n]
    profile = approximation_profile([Fraction(1, 4)], 4)
    assert (profile.q1, profile.q2, profile.q2_length) == (1, 3, pytest.approx(0.25))
    assert profile.secondary == []


def test_undercut_count_example():
    profile = approximation_profile([0.3], 10)
    assert (profile.q1, profile.q2, profile.undercut) == (3, 7, 0)


def test_bound_formulas():
    assert primary_count_bound(1) == 2
    assert primary_count_bound(2) == 16
    assert primary_count_bound(3) == 64
    assert undercut_bound(2) == 1
    assert undercut_bound(3) == 27
    assert secondary_distinct_bound(2) == 4
    assert secondary_distinct_bound(3) == 8 * 28
    assert PRIMARY_DISTINCT_BOUND_2D == 5
    for fn in (primary_count_bound, undercut_bound, secondary_distinct_bound):
        with pytest.raises(ValueError):
            fn(0)


def test_angle_tangent_consistency():
    rng = np.random.default_rng(7)
    for _ in range(200):
        alphas = rng.random(2).tolist()
        n = int(rng.integers(1, 50))
        table = table_of(alphas, n)
        for q in range(1, n + 1):
            rec = table.record(q)
            dx, dy = rec.deviations
            if abs(dx) > 1e-9:
                assert math.tan(rec.angle) == pytest.approx(dy / dx, rel=1e-9,
                                                            abs=1e-9)
            assert -math.pi < rec.angle <= math.pi


def _consistency_instances():
    """Floats, small-denominator rationals exact and as floats, and wide
    lattices (L > 2**32, so exact keys L^2 l^2 pass 2**63), m = 1..3."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        yield rng.random(m).tolist(), int(rng.integers(4, 60))
    for i in range(30):
        m = 1 + i % 3
        fracs = [Fraction(int(rng.integers(1, d)), int(d))
                 for d in rng.integers(2, 40, size=m)]
        n = int(rng.integers(4, 300))
        yield fracs, n
        yield [float(f) for f in fracs], n
    for i in range(9):
        m = 1 + i % 3
        fracs = [Fraction(int(rng.integers(1, d)), int(d))
                 for d in rng.integers(2 ** 33, 2 ** 40, size=m)]
        yield fracs, int(rng.integers(2, 2000))


def test_profile_consistency_with_individual_operations():
    wide = 0
    for alphas, n in _consistency_instances():
        profile = approximation_profile(alphas, n)
        want = exhaustive_profile(alphas, n)
        assert profile.q1 == want["q1"]
        assert profile.q1_length == pytest.approx(want["q1_length"])
        assert [r.q for r in profile.primary] == want["primary"]
        assert profile.q1_perp == want["q1_perp"]
        assert profile.q2 == want["q2"]
        assert profile.q2_strict == want["q2_strict"]
        assert [r.q for r in profile.secondary] == want["secondary"]
        assert profile.undercut == want["undercut"]
        if isinstance(alphas[0], Fraction):
            L = math.lcm(*(a.denominator for a in alphas))
            wide += L > 2 ** 32 and want["max_key"] * L * L > 2 ** 63
    assert wide == 9


def test_q1_minimality_is_directly_assertable():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 100))
        alphas = rng.random(2).tolist()
        q1, l1 = q1_of(alphas, n)
        for q in range(1, n // 2 + 1):
            assert l1 <= math.sqrt(sum(circle_norm(q * a) ** 2 for a in alphas)) + 1e-9


def test_profile_bounds_random_smoke():
    rng = np.random.default_rng(31)
    for m in (1, 2, 3):
        for _ in range(40):
            n = int(rng.integers(2, 120))
            profile = approximation_profile(rng.random(m).tolist(), n)
            assert len(profile.primary) <= primary_count_bound(m)
            if m == 2:
                assert profile.primary_distinct <= PRIMARY_DISTINCT_BOUND_2D
            if profile.undercut is not None:
                assert profile.undercut <= undercut_bound(m)
            if profile.secondary:
                assert profile.secondary_distinct <= secondary_distinct_bound(m)


def test_strict_opposite_pool_variant_is_reported():
    profile = approximation_profile([0.31, 0.47], 30)
    assert profile.q2 is not None
    # the strict pool is a subset, so its champion can only be weakly longer
    if profile.q2_strict is not None:
        assert profile.q2_strict_length >= profile.q2_length - 1e-9


def record_cases():
    """36 seeded instances, n <= 300: two at each m = 1..3 of each kind of
    ``generator_kinds``."""
    rng = random.Random(2324)
    kinds = generator_kinds(rng)
    return [(kind, [kinds[kind]() for _ in range(m)], rng.randrange(2, 301))
            for kind in sorted(kinds) for m in (1, 2, 3) for _ in range(2)]


def records_digest(alphas, n):
    """The first 16 hex digits of the sha256 of every row of the table as a
    record, followed by the profile."""
    table = _Table(kronecker_instance(alphas, n), EPSILON)
    text = repr([table.record(q) for q in range(1, n + 1)])
    text += repr(approximation_profile(alphas, n))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Records pinned before ``_Table.record`` read its deviations through
# ``numerics``, for the cases of record_cases() in order.
RECORD_DIGESTS = """
    300c1946ae2adc72 263e87874f4a47c8 dd987e59d4d4575b e909c12d56dd2220 c525d953796331e0
    87fbed3a1f06df3a 6808ded3848e9465 2b51b9738f01d507 eb96ee8073de768a 6712ff8b7a9651a6
    ee2b7437660bca56 0174ecccebfeb17d 572639a41ff546e5 b95da75ce3060419 8f814481e77b38f6
    9ace4432c7e81939 f5bb14b6117079ed 7fd834a3963e430e 8245d3b36fce9a27 bd8de9558491a673
    ad1320f918acb2db 19a4e1d4a8c8d7c3 e8a3ff8de3d9e4b2 caa6671f1bb09a42 8c9f0d6c27475ab2
    2edac31ab7c2357e 66f7f46f54e2d498 33f8f8ba6668425f cd94822ed835dd21 6d193045fee759af
    e33b428e113af4cb b2014cbdfa614215 dfae5892ed7417b4 4930d3b6f4b3cc1f a67f8d0157df176b
    56b90b9be17a4f52
""".split()


def test_records_match_pinned_digests():
    cases = record_cases()
    assert len(cases) == len(RECORD_DIGESTS) == 36
    changed = [(kind, a, n) for (kind, a, n), want in zip(cases, RECORD_DIGESTS)
               if records_digest(a, n) != want]
    assert changed == []

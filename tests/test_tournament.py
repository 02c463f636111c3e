import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from reference import (circle_norm, geodesic, reference_survivors, single_linkage,
                       three_gap_closed_form)
from torusgaps import tournament
from torusgaps.denominators import approximation_profile
from torusgaps.gaps import _assemble, chung_graham_gaps, gap_spectrum, geelen_simpson_gaps
from torusgaps import numerics
from torusgaps.numerics import (Instance, clusters, coerce_components, edges_fit,
                                kronecker_instance, points_fit, survivors_fit)
from torusgaps.tournament import (
    _axis_components,
    _brute,
    _judging,
    _sweep,
    survivor_bound,
    survivors_brute,
    survivors_sweep,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def test_survivor_bound_constants():
    assert survivor_bound(1) == 3
    assert survivor_bound(2) == 11
    assert survivor_bound(3) == 290
    assert survivor_bound(4) == 16 * (81 + 16 + 1) + 2
    with pytest.raises(ValueError):
        survivor_bound(0)


def as_groups(order, starts):
    """``clusters``' (order, starts) as lists of indices, one per group."""
    return [order[a:b].tolist() for a, b in zip(starts[:-1], starts[1:])]


def engines(inst, epsilon=1e-9):
    """Sweep and brute reports for an explicit instance."""
    return _sweep(inst, epsilon), _brute(inst, epsilon)


def float_instance(columns, keys):
    """An instance with arbitrary points (one list per axis) and arbitrary
    keys for q = 1..n-1, to place arcs and lengths independently."""
    points = np.array(columns, dtype=float).T
    keys = np.array(keys, dtype=float)
    return Instance(points, keys, keys, 1.0)


def test_three_point_instance_keeps_wrapping_long_edge():
    # Points 0.3, 0.6, 0.9: the q=2 edge joins 0.3 and 0.9 through 0, so its
    # arc only touches the two shorter arcs at closed endpoints and survives.
    for report in (survivors_brute([0.3], 3), survivors_sweep([0.3], 3)):
        assert report.survivors == [(1, 2), (1, 3), (2, 3)]
        assert report.distinct_lengths == pytest.approx([0.3, 0.4])


def test_single_edge_always_survives():
    report = survivors_sweep([0.123, 0.456, 0.789], 2)
    assert report.distinct_count == 1
    assert report.witnesses[0][1] == (1, 2)
    report2 = survivors_sweep([0.3, 0.4], 2)
    assert report2.distinct_lengths == pytest.approx([0.5])


def test_golden_ratio_five_points():
    report = survivors_brute([GOLDEN], 5)
    assert report.distinct_count <= 3
    expect = sorted(circle_norm(q * GOLDEN) for q in (2, 3))
    assert report.distinct_lengths == pytest.approx(expect)
    assert survivors_sweep([GOLDEN], 5).survivors == report.survivors


def test_zero_length_edges_survive_and_defeat_nothing():
    report = survivors_sweep([0.5, 0.5], 4)
    assert 0.0 in report.distinct_lengths
    brute = survivors_brute([0.5, 0.5], 4)
    assert brute.survivors == report.survivors


def test_build_edges_zero_length_edge():
    # Points 0.5, 0, 0.5: the q=2 edge joins coincident points, so it has
    # length 0 and an empty arc; it survives, and the two half-circle edges
    # too.
    for alpha, exact in ((0.5, False), (Fraction(1, 2), True)):
        inst = kronecker_instance([alpha], 3)
        assert inst.lengths[:2].tolist() == [0.5, 0.0]
        unit, shrink = inst.unit, (0 if exact else 1e-9 / 2)
        parts = _axis_components(inst.points[0:1, 0], inst.points[2:3, 0], unit, shrink)
        assert [int(c[0]) if exact else float(c[0]) for c in parts] == [2 * unit] * 4
        for report in (survivors_sweep([alpha], 3), survivors_brute([alpha], 3)):
            assert report.survivors == [(1, 2), (1, 3), (2, 3)]
            assert dict(zip(report.survivors, report.survivor_lengths)) == {
                (1, 2): 0.5, (1, 3): 0.0, (2, 3): 0.5}


def first_unfit(fit, m):
    """The smallest n that breaks a size rule at m, found by bisection on
    the rule itself, so nothing is allocated."""
    lo, hi = 1, 2
    while fit(hi, m):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fit(mid, m) else (lo, mid)
    return hi


def test_brute_edge_rule_replaces_the_cap():
    # n = 201 was past the brute force's old fixed cap of 200.
    assert survivors_brute([0.3], 201).survivors == survivors_sweep([0.3], 201).survivors
    # The edge rule stops the brute force where its points still fit.
    for m in (1, 2, 3):
        n = first_unfit(edges_fit, m)
        assert edges_fit(n - 1, m) and points_fit(n, m)
        assert first_unfit(points_fit, m) > 10 ** 6


@pytest.mark.parametrize("call", [
    lambda: survivors_sweep([0.3, 0.2, 0.1], 10 ** 12),
    lambda: survivors_sweep([Fraction(1, 3), Fraction(2, 7)], 10 ** 12),
    lambda: approximation_profile([0.3, 0.2], 10 ** 12),
    lambda: gap_spectrum(0.3, 10 ** 12),
    lambda: gap_spectrum(Fraction(1, 3), 10 ** 12),
    lambda: survivors_brute([0.3], first_unfit(edges_fit, 1)),
    lambda: survivors_brute([0.3, 0.2, 0.1], first_unfit(edges_fit, 3)),
    lambda: chung_graham_gaps(0.3, [0.1, 0.2], [1, first_unfit(points_fit, 1)]),
    lambda: geelen_simpson_gaps(0.3, 0.4, 10 ** 5, 10 ** 5),
    lambda: geelen_simpson_gaps(Fraction(1, 3), Fraction(2, 7), 10 ** 5, 10 ** 5),
], ids=["sweep", "sweep_exact", "profile", "gaps", "gaps_exact", "brute_m1", "brute_m3",
        "shifted_copies", "two_generators", "two_generators_exact"])
def test_size_rule_refuses_before_allocating(call):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large"):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_survivor_rule_bounds_the_report(monkeypatch):
    # At a = 1/2 every edge survives: n = 400 keeps 79,800 survivors, about
    # 20 MB at the rule's charge, while a generic float keeps about n.
    # Under a 1 MiB budget the points of n = 400 fit, the float's report
    # fits, and the sweep refuses a = 1/2 as its survivors pass the budget,
    # before it builds the report.
    monkeypatch.setattr(numerics, "MEMORY_BUDGET", 2 ** 20)
    assert points_fit(400, 1)
    report = survivors_sweep([GOLDEN], 400)
    assert survivors_fit(report.survivor_count)
    for half in (Fraction(1, 2), 0.5):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="n=400 is too large at m=1: its survivors"):
                survivors_sweep([half], 400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
    monkeypatch.undo()
    assert survivors_sweep([Fraction(1, 2)], 400).survivor_count == 79_800


@pytest.mark.parametrize("alpha", [math.e - 2.0, Fraction(4813, 7919)], ids=str)
def test_sweep_matches_three_gap_closed_form_past_the_brute_force(alpha):
    # On the circle S is the set of distinct circular gaps <= 1/2 (the
    # three distance theorem), which the closed form gives at any n; n =
    # 6000 is past the brute force's edge rule.  The rational's denominator
    # exceeds n, so its points are distinct.
    n = 6000
    assert not edges_fit(n, 1)
    report = survivors_sweep([alpha], n)
    want = sorted(g for g in three_gap_closed_form(alpha, n) if 2 * g <= 1)
    if report.exact:
        assert sorted({circle_norm((k - j) * alpha) for j, k in report.survivors}) == want
    else:
        assert report.distinct_lengths == pytest.approx([float(g) for g in want],
                                                        rel=0, abs=1e-9)


def test_report_metadata():
    r = survivors_sweep([0.31, 0.47], 10)
    assert r.mode == "sweep"
    assert r.survivor_count + r.defeated_count == 45
    assert r.survivor_count == len(r.survivors)
    assert r.distinct_lengths == sorted(r.distinct_lengths)
    for ln, edge in r.witnesses:
        assert edge in r.survivors
    assert survivors_brute([0.31, 0.47], 10).mode == "brute"


def test_survivor_lengths_come_from_difference_lengths():
    alphas = [0.357, 0.781]
    n = 40
    r = survivors_sweep(alphas, n)
    table = {q: math.hypot(circle_norm(q * alphas[0]), circle_norm(q * alphas[1]))
             for q in range(1, n)}
    for (j, k), ln in zip(r.survivors, r.survivor_lengths):
        assert ln == pytest.approx(table[k - j], abs=1e-12)


def test_build_edges_lengths_by_difference():
    # Points 0.3, 0.6, 0.9, 0.2, in both modes: six edges whose length is
    # a function of q = k - j alone.
    expect = {1: 0.3, 2: 0.4, 3: 0.1}
    for alpha, exact in ((0.3, False), (Fraction(3, 10), True)):
        inst = kronecker_instance([alpha], 4)
        assert inst.lengths[:3] == pytest.approx([0.3, 0.4, 0.1], abs=1e-12)
        for q in expect:
            assert inst.lengths[q - 1] == pytest.approx(circle_norm(q * 0.3), abs=1e-12)
        for r in (survivors_sweep([alpha], 4), survivors_brute([alpha], 4)):
            assert r.survivor_count + r.defeated_count == 6
            for (j, k), ln in zip(r.survivors, r.survivor_lengths):
                assert ln == pytest.approx(expect[k - j], abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sweep_matches_brute_on_random_instances(m):
    rng = np.random.default_rng(100 + m)
    for _ in range(25):
        n = int(rng.integers(2, 80))
        alphas = rng.random(m).tolist()
        swept = survivors_sweep(alphas, n)
        brute = survivors_brute(alphas, n)
        assert swept.survivors == brute.survivors
        assert swept.distinct_lengths == pytest.approx(brute.distinct_lengths)


def test_bound_holds_on_random_instances():
    rng = np.random.default_rng(77)
    for m in (1, 2, 3):
        for _ in range(20):
            n = int(rng.integers(2, 60))
            r = survivors_sweep(rng.random(m).tolist(), n)
            assert r.distinct_count <= survivor_bound(m)


def test_exact_mode_agrees_with_brute_and_float():
    alphas = [Fraction(5, 17), Fraction(3, 11)]
    n = 20
    exact_sweep = survivors_sweep(alphas, n)
    assert exact_sweep.exact
    exact_brute = survivors_brute(alphas, n)
    assert exact_sweep.survivors == exact_brute.survivors
    floating = survivors_sweep([float(a) for a in alphas], n)
    assert not floating.exact
    assert exact_sweep.survivors == floating.survivors


def test_edge_order_does_not_change_the_outcome():
    # Reversing the point order (j -> n + 1 - j) maps every edge to one with
    # the same arcs and length, so the engines meet each group's edges in
    # the opposite order; the outcome must map the same way.
    n = 12
    for alphas in ([0.31, 0.47], [Fraction(5, 17), Fraction(3, 11)]):
        inst = kronecker_instance(alphas, n)
        flipped = Instance(inst.points[::-1].copy(), inst.keys, inst.lengths, inst.unit)
        base = survivors_sweep(alphas, n).survivors
        mirrored = sorted((n + 1 - k, n + 1 - j) for j, k in base)
        for report in engines(flipped):
            assert report.survivors == mirrored


def test_added_shorter_overlapping_edge_defeats_a_survivor():
    # Points 0.1, 0.5, 0.2: the q=2 edge's arc [0.1, 0.2) lies inside the
    # q=1 edge (1, 2) with arc [0.1, 0.5).
    points = [[0.1, 0.5, 0.2]]
    for report in engines(float_instance(points, [0.3, 0.4])):
        assert report.survivors == [(1, 2), (2, 3)]
    # Made shorter than q=1, the intruder defeats (1, 2) and survives.
    for report in engines(float_instance(points, [0.3, 0.05])):
        assert report.survivors == [(1, 3), (2, 3)]


def test_equal_length_edges_do_not_defeat_each_other():
    # Points 0.1, 0.3, 0.2: all three arcs overlap pairwise.  With equal
    # keys nobody is strictly shorter, so all survive; with q=1 shorter,
    # both q=1 edges defeat the q=2 edge and still not each other.
    points = [[0.1, 0.3, 0.2]]
    for report in engines(float_instance(points, [0.2, 0.2])):
        assert report.survivor_count == 3
    for report in engines(float_instance(points, [0.2, 0.3])):
        assert report.survivors == [(1, 2), (2, 3)]


def test_defeat_requires_only_one_overlapping_axis():
    # The q=1 edges overlap the q=2 edge on axis 0 only.
    points = [[0.1, 0.2, 0.15], [0.5, 0.6, 0.9]]
    for report in engines(float_instance(points, [0.1, 0.5])):
        assert report.survivors == [(1, 2), (2, 3)]
        assert report.defeated_count == 1


def test_each_axis_judges_the_edges_the_others_leave():
    # Points 0.0, 0.1, 0.7, 0.2 on one axis and 0.1, 0.7, 0.2, 0.3 on the
    # other: the q=1 arcs defeat the q=2 edge (1, 3) on the first axis alone
    # and (2, 4) on the second alone.  On an axis whose q=2 edges join
    # coincident points, q=2 loses nothing.
    x, y, z = [0.0, 0.1, 0.7, 0.2], [0.1, 0.7, 0.2, 0.3], [0.0, 0.5, 0.0, 0.5]
    for columns in ([x, y], [y, x], [z, x, y]):
        for report in engines(float_instance(columns, [0.1, 0.2, 0.3])):
            assert report.survivors == [(1, 2), (2, 3), (3, 4)]


def test_validation_of_engine_inputs():
    for engine in (survivors_sweep, survivors_brute):
        with pytest.raises(ValueError):
            engine([0.4], 1)
        with pytest.raises(ValueError):
            engine([], 5)


def test_build_edges_validation():
    # An instance needs at least one edge (n >= 2) and one generator, in
    # both modes; non-finite generators are refused too.
    for alpha in (0.3, Fraction(3, 10)):
        for engine in (survivors_sweep, survivors_brute):
            with pytest.raises(ValueError):
                engine([alpha], 1)
            with pytest.raises(ValueError):
                engine([alpha], 0)
    with pytest.raises(ValueError):
        coerce_components([])
    with pytest.raises(ValueError):
        coerce_components([0.3, math.inf])


def test_exact_mode_randomized_equivalence():
    rng = random.Random(314)
    for _ in range(15):
        m = rng.randint(1, 2)
        n = rng.randint(2, 22)
        alphas = [Fraction(rng.randint(1, 29), rng.randint(2, 30)) for _ in range(m)]
        swept = survivors_sweep(alphas, n)
        brute = survivors_brute(alphas, n)
        assert swept.exact and brute.exact
        assert swept.survivors == brute.survivors
        assert swept.distinct_lengths == brute.distinct_lengths


@pytest.mark.parametrize("alpha", [0.98, 0.51, 0.02, 0.499999, 0.957113])
def test_wrap_heavy_instances_agree(alpha):
    # generators near 0, 1/2 and 1 produce many wrapped geodesics
    for n in (5, 12, 23):
        swept = survivors_sweep([alpha], n)
        brute = survivors_brute([alpha], n)
        assert swept.survivors == brute.survivors
        assert swept.distinct_count <= 3


def test_zero_epsilon_is_allowed():
    swept = survivors_sweep([0.31, 0.47], 15, epsilon=0.0)
    brute = survivors_brute([0.31, 0.47], 15, epsilon=0.0)
    assert swept.survivors == brute.survivors


# Exact instances on the lattice Z/L, across the element types it can take.
LATTICE_CASES = {
    # L = 7 (2**64 + 13) > 2**62: object arrays of Python ints
    "object": ([Fraction(12345678901234567891, 2 ** 64 + 13), Fraction(5, 7)], object),
    # 2**31 < L = 3 * 2**40 < 2**62
    "int64_wide": ([Fraction(1234567890123, 3 * 2 ** 40), Fraction(987654321, 2 ** 40)],
                   np.int64),
    # L = 2**62 - 1: k * p_r passes 2**63 long before k = n
    "int64_top": ([Fraction(2 ** 61 + 1, 2 ** 62 - 1)], np.int64),
    "integers": ([0, 3], np.int64),  # L = 1: every point is 0
    "negative": ([Fraction(-1, 3), Fraction(-7, 5)], np.int64),
    "non_reduced": ([Fraction(4, 6), Fraction(10, 25)], np.int64),
    "m3": ([Fraction(5, 17), Fraction(3, 11), Fraction(7, 13)], np.int64),
}


@pytest.mark.parametrize("case", sorted(LATTICE_CASES))
def test_exact_lattice_engines_agree_with_reference(case):
    alphas, dtype = LATTICE_CASES[case]
    n = 12
    inst = kronecker_instance([Fraction(a) for a in alphas], n)
    assert inst.exact and inst.points.dtype == dtype
    assert ((inst.points >= 0) & (inst.points < inst.unit)).all()
    swept = survivors_sweep(alphas, n)
    brute = survivors_brute(alphas, n)
    assert swept.exact and brute.exact
    assert swept.survivors == brute.survivors == reference_survivors(alphas, n)
    assert swept.distinct_lengths == brute.distinct_lengths
    assert swept.survivor_lengths == brute.survivor_lengths


def test_lattice_special_generators():
    # Integer generators put every point at 0: all edges have length 0.
    r = survivors_sweep([0, 3], 6)
    assert r.survivor_count == 15 and r.distinct_lengths == [0.0]
    # -1/3 = 2/3 and -7/5 = 3/5 mod 1; 4/6 is 2/3.
    same = survivors_sweep([Fraction(2, 3), Fraction(3, 5)], 12).survivors
    assert survivors_sweep([Fraction(-1, 3), Fraction(-7, 5)], 12).survivors == same
    assert survivors_sweep([Fraction(4, 6), Fraction(3, 5)], 12).survivors == same


@pytest.mark.parametrize("L", [12, 2 ** 62 - 1, 2 ** 70 + 1])
def test_lattice_arcs_match_geodesic(L):
    rng = random.Random(L % 1000)
    pairs = [(0, 0), (0, L // 2), (L // 4, L // 4 + L // 2), (L - 1, 0)]
    pairs += [(rng.randrange(L), rng.randrange(L)) for _ in range(200)]
    dtype = np.int64 if L < 2 ** 62 else object
    pj = np.array([x for x, _ in pairs], dtype=dtype)
    pk = np.array([y for _, y in pairs], dtype=dtype)
    c1s, c1e, c2s, c2e = _axis_components(pj, pk, L, 0)
    assert {c.dtype for c in (c1s, c1e, c2s, c2e)} == {np.dtype(dtype)}
    for i, (x, y) in enumerate(pairs):
        got = [(int(s), int(e)) for s, e in ((c1s[i], c1e[i]), (c2s[i], c2e[i]))
               if s != 2 * L]
        want = [(s * L, e * L) for s, e in geodesic(Fraction(x, L), Fraction(y, L)).parts()]
        assert sorted(got) == sorted(want)


def test_instance_holds_arrays():
    # Floating keys are the float64 lengths array itself; exact keys are
    # Python ints in an object array, exact past 2**63 on int64 points
    # (L = 2**40 + 15) and on object points (L > 2**62), with float64
    # lengths.
    inst = kronecker_instance([0.31, 0.47], 30)
    assert inst.keys is inst.lengths and inst.lengths.dtype == np.float64
    for alphas, points in (([Fraction(5, 2 ** 40 + 15), Fraction(1, 3)], np.int64),
                           ([Fraction(12345678901234567891, 2 ** 64 + 13)], object)):
        inst = kronecker_instance(alphas, 30)
        assert inst.points.dtype == points
        assert inst.keys.dtype == object and inst.lengths.dtype == np.float64
        assert all(type(k) is int for k in inst.keys)
        assert max(inst.keys) > 2 ** 63
        L = inst.unit
        for q in (1, 7, 30):
            want = sum(min(q * a % 1 * L, L - q * a % 1 * L) ** 2 for a in alphas)
            assert inst.keys[q - 1] == want


def test_exact_keys_group_in_exact_order():
    # Lattice keys reach m (L/2)^2, past 2**63 once L > 2**32; as float64,
    # keys on both sides of 2**63 would tie.
    for keys, order, starts in (
            ([2 ** 63 + 5, 5, 2 ** 63 + 1, 2 ** 63 + 1, 2 ** 200], [1, 2, 3, 0, 4],
             [0, 1, 3, 4, 5]),
            ([Fraction(1, 3), Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)],
             [3, 0, 2, 1], [0, 1, 3, 4]),
            ([], [], [0]),
            ([2 ** 64], [0], [0, 1])):
        got_order, got_starts = clusters(np.array(keys, dtype=object), 0)
        assert got_order.tolist() == order and got_starts.tolist() == starts
        assert got_starts.dtype == np.int64


def test_clusters_chain_by_single_linkage():
    # 0, 0.6 eps and 1.2 eps are one cluster: each step is within eps,
    # although the ends are 1.2 eps apart.
    eps = 1e-9
    keys = np.array([0.0, 0.6 * eps, 1.2 * eps])
    assert as_groups(*clusters(keys, eps)) == [[0, 1, 2]]
    # Edge grouping: edges of three such lengths form one tie group.
    points = np.array([[0.0], [0.1], [0.2], [0.3]])
    inst = Instance(points, keys, keys, 1.0)
    assert as_groups(*_judging(inst, eps)[-1]) == [[0, 1, 2]]
    # Distinct gaps: circular gaps 0, 0.6 eps, 1.2 eps and 1 - 1.8 eps.  The
    # chain is one cluster at 0 and is dropped as zero; only 1 - 1.8 eps
    # remains.
    points = np.array([0.3, 0.3, 0.3 + 0.6 * eps, 0.3 + 1.8 * eps])
    spectrum = _assemble(points, list(range(4)), eps, True, 1.0)
    assert spectrum.gaps == pytest.approx([0.0, 0.6 * eps, 1.2 * eps, 1 - 1.8 * eps],
                                          rel=0, abs=1e-15)
    assert spectrum.distinct_gaps == pytest.approx([1 - 1.8 * eps], rel=0, abs=1e-15)


@st.composite
def tied_arrays(draw):
    """(values, tol): float64 chains whose steps are ties, at, just under
    and just over the tolerance, or wide; int64 values with small and wide
    steps; object arrays of ints around 2**63.  Shuffled."""
    kind = draw(st.sampled_from(["float", "int64", "object"]))
    if kind == "float":
        tol = 1e-9
        steps = st.sampled_from([0.0, tol, math.nextafter(tol, 0),
                                 math.nextafter(tol, 1), 0.5 * tol, 0.25])
        base = draw(st.sampled_from([0.0, 0.3]))
        values = np.cumsum([base] + draw(st.lists(steps, max_size=30)))
    elif kind == "int64":
        tol = draw(st.sampled_from([0, 1, 2]))
        ints = st.integers(0, 6) | st.integers(0, 2 ** 62 - 1)
        values = np.array(draw(st.lists(ints, max_size=30)), dtype=np.int64)
    else:
        tol = 0
        ints = st.integers(2 ** 63 - 3, 2 ** 63 + 3) | st.sampled_from([5, 2 ** 200])
        values = np.array(draw(st.lists(ints, max_size=30)), dtype=object)
    return np.array(draw(st.permutations(values.tolist())), dtype=values.dtype), tol


@given(tied_arrays())
def test_clusters_match_the_single_linkage_reference(case):
    values, tol = case
    assert as_groups(*clusters(values, tol)) == single_linkage(values.tolist(), tol)


# The brute force judges edges in row blocks of 256 against chunks of their
# prefix.  From n = 30 on an instance has 435+ edges: several row blocks,
# each scanned in several chunks.
TILED_CASES = {
    # L = 7 (2**64 + 13) > 2**62: object arrays
    "object": (LATTICE_CASES["object"][0], 32),
    "m3": ([Fraction(5, 17), Fraction(3, 11), Fraction(7, 13)], 36),
    "float": ([0.357, 0.781], 40),
}


@pytest.mark.parametrize("case", sorted(TILED_CASES))
def test_tiled_brute_agrees_with_reference(case):
    alphas, n = TILED_CASES[case]
    brute = survivors_brute(alphas, n)
    assert brute.survivors == reference_survivors(alphas, n)
    assert survivors_sweep(alphas, n).survivors == brute.survivors


def test_tiled_brute_tie_groups_straddle_row_blocks():
    # Keys depend on q mod 4 alone, so the 780 edges at n = 40 fall into
    # three tie groups (180, 200 and 400 edges), and row blocks start inside
    # groups, where some rows have an empty prefix and others do not.
    n = 40
    inst = kronecker_instance([Fraction(1, 4), Fraction(1, 2)], n)
    sizes = [sum(n - 1 - qi for qi in g)
             for g in as_groups(*clusters(inst.keys[: n - 1], 0))]
    bounds = np.cumsum([0] + sizes)
    assert len(sizes) == 3
    assert any(lo < b < hi for lo, hi in zip(bounds, bounds[1:])
               for b in range(tournament._ROWS, int(bounds[-1]), tournament._ROWS))
    want = reference_survivors([Fraction(1, 4), Fraction(1, 2)], n)
    for alphas in ([Fraction(1, 4), Fraction(1, 2)], [0.25, 0.5]):
        assert survivors_brute(alphas, n).survivors == want


def test_tiled_brute_survivors_scan_full_prefix():
    # Near the golden ratio at m = 1, about n edges survive, most of them
    # longer than the shortest edge: each scanned every shorter edge.
    alphas, n = [Fraction(233, 377)], 40
    brute = survivors_brute(alphas, n)
    scanned = sum(ln > brute.distinct_lengths[0] for ln in brute.survivor_lengths)
    assert brute.survivor_count >= n - 2 and scanned >= n // 2
    assert brute.survivors == reference_survivors(alphas, n)


def test_tiny_tiles_give_the_same_reports(monkeypatch):
    # Shrunk tiles put block and chunk boundaries everywhere: inside tie
    # groups, at prefix ends, and at one live row per chunk.
    cases = [(LATTICE_CASES[c][0], 12) for c in sorted(LATTICE_CASES)]
    cases += [([0.31, 0.47], 25), ([0.98], 23), ([Fraction(1, 4), Fraction(1, 2)], 17)]
    want = [survivors_brute(a, n) for a, n in cases]
    for rows, tile, first, grow in ((1, 1, 1, 1), (5, 11, 1, 2), (7, 21, 3, 3)):
        monkeypatch.setattr(tournament, "_ROWS", rows)
        monkeypatch.setattr(tournament, "_TILE", tile)
        monkeypatch.setattr(tournament, "_FIRST", first)
        monkeypatch.setattr(tournament, "_GROW", grow)
        for (a, n), report in zip(cases, want):
            assert survivors_brute(a, n) == report


def test_brute_memory_stays_bounded():
    # n = 200 at m = 3 has 19,900 edges; their full pairwise overlap
    # matrix would take 1.6 GB, one tile at most 0.26 MB.
    alphas = np.random.default_rng(5).random(3).tolist()
    tracemalloc.start()
    try:
        report = survivors_brute(alphas, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.survivor_count + report.defeated_count == 19_900
    assert peak < 16 * 2 ** 20


# Instances where every edge of some q is defeated before its last axis.  Its
# arcs on the later axes still enter the coverage, and on all but
# "quarter_half" they defeat edges of later groups that no other axis
# reaches.  The rational cases and "quarter_half" have tie groups of several
# q; "object_m3" has L > 2**62.
SETTLED_CASES = {
    "float_m2": ([0.4, 0.13], 13),
    "float_m3": ([0.07, 0.92, 0.43], 15),
    "rational_m2": ([Fraction(8, 5), Fraction(6, 7)], 16),
    "rational_m3": ([Fraction(3, 7), Fraction(3, 11), Fraction(1, 11)], 16),
    "object_m3": ([Fraction(1141649525607255382187, 2 ** 64 + 13), Fraction(8, 7),
                   Fraction(6, 13)], 11),
    "quarter_half": ([Fraction(1, 4), Fraction(1, 2)], 17),
}


@pytest.mark.parametrize("case", sorted(SETTLED_CASES))
def test_one_query_per_q_and_one_insert_per_group(case, monkeypatch):
    alphas, n = SETTLED_CASES[case]
    m = len(alphas)
    queries, inserts = [], []
    query, insert = tournament._Cells.query, tournament._Cells.insert

    def counted_query(cells, lo, hi, wrap):
        queries.append(lo.shape)
        return query(cells, lo, hi, wrap)

    def counted_insert(cells, lo, hi, wrap):
        inserts.append(lo.shape)
        insert(cells, lo, hi, wrap)

    monkeypatch.setattr(tournament._Cells, "query", counted_query)
    monkeypatch.setattr(tournament._Cells, "insert", counted_insert)
    swept = survivors_sweep(alphas, n)
    monkeypatch.undo()
    # Each q is judged on all its axes by one query of its (m, n - q) arcs,
    # and each tie group enters the coverage by one insert of all its arcs.
    groups = as_groups(*_judging(kronecker_instance(alphas, n), 1e-9)[-1])
    assert queries == [(m, n - 1 - qi) for group in groups for qi in group]
    assert inserts == [(m, sum(n - 1 - qi for qi in group)) for group in groups]
    several = case.startswith(("rational", "quarter"))
    assert any(len(group) > 1 for group in groups) == several
    assert swept.survivors == survivors_brute(alphas, n).survivors
    assert swept.survivors == reference_survivors(alphas, n)


def test_sweep_memory_stays_bounded():
    # n = 3000 at m = 3 has 4,498,500 edges: one (n^2 / 2, m) array of them
    # would take about 100 MB.  The sweep holds (m, n) arrays and the arcs
    # of one tie group at a time.
    alphas = np.random.default_rng(5).random(3).tolist()
    tracemalloc.start()
    try:
        report = survivors_sweep(alphas, 3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.survivor_count + report.defeated_count == 4_498_500
    assert peak < 8 * 2 ** 20


# Sweep reports pinned at commit 272a1c7, before the sweep's coverage moved
# to rank space: the first 16 hex digits of the sha256 of each report's repr
# followed by its survivors and survivor_lengths, for the cases of
# parity_cases() in order.
PARITY_DIGESTS = """
    1c0095da0b025998 b643fcd88c705b82 b3cb72d888e232da e1e8da42a12e299d 6149ff7cdbca1d67
    5c6e82a9123f45e1 21e939c87be95546 a009022ba01208b2 34d217fbbcef7c81 0ced794624bc5e9c
    a7d6e8c1096b4779 8a50a90449e3e41f ef89b7c3862ff074 4b475e61b5ce851f 48a5c4691443d628
    af46ac423b5f81a1 8adf3b6f59a95b66 601f193e1494c9ca 579d79d875cc6991 25f055c184ed893c
    8dc5b505b559e7c2 d1261a74c5fbf97c 2b89b0ae0f4fb792 138f3dbeaf9724af 948ea4bada567eff
    f095d780ce703235 638efd9ba86261e9 0da0c04178ae582b 9549bde1a65bbd17 d236589404f16bdf
    36bb19bcaec68148 55b8e10bb72dde10 40134875b35393a5 e68374b633bcdeac 2942749067217194
    b007f3b9fad986ea 8b6f5e4b58505e6c ac1e4edf83aaf3c9 dbfef77c32f630a4 0e61e2ffb4515680
    a6619a4dbe4a52ee a6e85ac905ff861f 5a7cf0ecb19c4a6f 5cff3934548f1ab8 74be96da86a3293d
    411418a2334fcf8a fd73c48814e4def6 cba12d045985e595 3b9a470af7b1d141 b70447f9c34174a7
    179338fe14bb7847 f280a442085c5dd7 85afcf710333e54a d5525e5c3feb59fa 75cc591f963c4f68
    836cef327d9aa185 6112d79e0f4d5094 5cea970c1ed49d61 2a7c2296570ca18c 5551c151e6b15d1e
    61a978411b73f923 e9f65021f28a44f2 d46c452677a5e99f ad6f2a56b9a38a63 232abc37087d209e
    59c581e4667b5760 96dbf4b467083ed1 4d90de7c2e52dad3 54eeb6f8fd80e7ee bfcd032bbf1dc691
    9f8d5986b2e8b4af da0a8c33ab2c3bdc fd63511a107f186d 8fdea5d393d5523a f1d2b7bb67e8001f
    437716327a46166a 1512365683b5d8a3 33e13f05f0932b20 2ec7a8c156744b98 d422901b769a6ea9
    4bb60c0aaf235846 9985879839390960 ce9613716f89c1d4 406607d1331fae9c 1ca227bffa0e8427
    9ee052a104aa2647 975c577a4fcbd7ce 4be9fce03a184237 1ba2f5650264d4b2 aaf4aa70685ff22c
""".split()


def generator_kinds(rng):
    """The six kinds of generator of the pinned digests, each a function that
    draws one component in (0, 1) from ``rng``.  The wide lattice has
    L = 2**64 + 13 (a prime), past int64."""

    def rational(d):
        return Fraction(rng.randrange(1, d), d)

    return {
        "float": lambda: rng.random(),
        "rational": lambda: rational(rng.randrange(2, 10_000)),
        "float_of_rational": lambda: float(rational(rng.randrange(2, 400))),
        "two_decimal": lambda: rng.randrange(1, 100) / 100,
        "small_denominator": lambda: rational(rng.randrange(2, 13)),
        "wide_lattice": lambda: rational(2 ** 64 + 13),
    }


def parity_cases():
    """90 seeded instances, n <= 300: five at each m = 1..3 of each kind of
    ``generator_kinds``.  Small denominators come with n past them."""
    rng = random.Random(1616)
    kinds = generator_kinds(rng)
    cases = []
    for kind in sorted(kinds):
        for m in (1, 2, 3):
            for _ in range(5):
                lo = 13 if kind == "small_denominator" else 2
                n = rng.randrange(lo, 301)
                cases.append((kind, [kinds[kind]() for _ in range(m)], n))
    return cases


def report_digest(report):
    text = repr(report) + repr(report.survivors) + repr(report.survivor_lengths)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_sweep_reports_match_pinned_digests():
    cases = parity_cases()
    assert len(cases) == len(PARITY_DIGESTS) == 90
    assert all(kronecker_instance(a, n).points.dtype == object
               for kind, a, n in cases if kind == "wide_lattice")
    changed = [(kind, a, n) for (kind, a, n), want in zip(cases, PARITY_DIGESTS)
               if report_digest(survivors_sweep(a, n)) != want]
    assert changed == []


# Near-degenerate floats: one-decimal values moved 1e-10 to 3e-9 off, so the
# points gather in clusters whose cells are at or below the tolerance and an
# overlap can span several such cells.  The sweep and the brute force read
# one tolerance rule, so they agree here as everywhere.
NEAR_DEGENERATE = [
    ((0.7999999999,), 96), ((0.7999999999,), 54), ((0.5999999999,), 108),
    ((0.3000000001,), 121), ((0.6999999999,), 42), ((0.6999999999,), 139),
    ((0.2, 0.9000000001), 84), ((0.2999999999, 0.3), 16),
    ((0.200000001, 0.8000000001), 158), ((0.500000001, 0.3999999999), 156),
    ((0.1000000001, 0.3), 189), ((0.399999999, 0.7999999999, 0.3), 86),
    ((0.3999999999, 0.3, 0.5000000001), 62), ((0.7999999999, 0.199999997, 0.7), 189),
]


@pytest.mark.parametrize("alphas,n", NEAR_DEGENERATE)
def test_sweep_equals_brute_on_near_degenerate_floats(alphas, n):
    swept, brute = survivors_sweep(alphas, n), survivors_brute(alphas, n)
    assert swept.survivors == brute.survivors
    assert swept.distinct_lengths == brute.distinct_lengths


# Half coordinates: two points exactly half a circle apart on an axis are
# joined by two geodesics, and the engines take the plain one (the wrap test
# is strict).  At (1/4, 1/2), n = 15, that reading keeps 61 survivors, and a
# non-strict wrap test keeps 65; both engines would flip together, so only
# the literal reference tells them apart.
HALF_COORDINATES = [([Fraction(1, 4), Fraction(1, 2)], 15), ([0.25, 0.5], 15)]


@pytest.mark.parametrize("alphas,n", HALF_COORDINATES)
def test_half_coordinates_follow_the_reference_geodesic(alphas, n):
    want = reference_survivors([Fraction(a) for a in alphas], n)
    assert len(want) == 61
    assert survivors_sweep(alphas, n).survivors == want
    assert survivors_brute(alphas, n).survivors == want


# Floats of rationals with coincident points: the edges between them have
# arcs narrower than the tolerance, whose shrunk ends cross.  Such an arc is
# empty (``_arcs`` takes hi = max(lo, hi)); read as a reversed range, it
# would defeat edges, and the float sweep would keep fewer survivors than
# exact mode and the brute force.
FLOATS_OF_RATIONALS = [
    ([Fraction(8, 9), Fraction(7, 10)], 35), ([Fraction(16, 19), Fraction(4, 5)], 37),
    ([Fraction(1, 3), Fraction(12, 13)], 39), ([Fraction(2, 3), Fraction(1, 2)], 39),
]


@pytest.mark.parametrize("alphas,n", FLOATS_OF_RATIONALS)
def test_floats_of_rationals_keep_the_exact_survivors(alphas, n):
    floats = [float(a) for a in alphas]
    swept = survivors_sweep(floats, n)
    assert swept.survivors == survivors_sweep(alphas, n).survivors
    assert swept.survivors == survivors_brute(floats, n).survivors

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import three_gap_closed_form
from test_tournament import generator_kinds
from torusgaps.gaps import chung_graham_gaps, gap_spectrum, geelen_simpson_gaps
from torusgaps.numerics import kronecker_instance


def brute_circular_gaps(points):
    """Independent oracle: sorted circular neighbour differences."""
    pts = sorted(points)
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    gaps.append(1 - pts[-1] + pts[0])
    return pts, gaps


def test_gap_spectrum_basic_example():
    spec = gap_spectrum(0.3, 3)
    assert spec.points == pytest.approx([0.3, 0.6, 0.9])
    assert spec.gaps == pytest.approx([0.3, 0.3, 0.3, 0.1])
    assert sorted(spec.distinct_gaps) == pytest.approx([0.1, 0.3])


def test_gap_spectrum_exact_third():
    spec = gap_spectrum(Fraction(1, 3), 2)
    assert spec.exact
    assert spec.gaps == [Fraction(1, 3)] * 3
    assert spec.distinct_gaps == [Fraction(1, 3)]
    assert spec.gap_sum() == 1


def test_gap_spectrum_single_point():
    spec = gap_spectrum(0.73, 1)
    assert spec.gaps == pytest.approx([0.73, 0.27])


def test_gap_spectrum_labels_are_the_sorting_permutation():
    spec = gap_spectrum(0.618, 5)
    expect = sorted(range(1, 6), key=lambda k: (k * 0.618) % 1.0)
    assert spec.labels == expect


@pytest.mark.parametrize("alpha", [0.3819660112501051, Fraction(13, 31),
                                   Fraction(5, 2 ** 70 + 1)])
def test_gap_spectrum_points_are_the_instance_column(alpha):
    # The spectrum sorts the one Kronecker point set the engines judge.
    n = 40
    inst = kronecker_instance([alpha], n)
    column = sorted(inst.points[:, 0].tolist())
    if inst.exact:
        column = [Fraction(x, inst.unit) for x in column]
    for circular in (False, True):
        assert gap_spectrum(alpha, n, circular=circular).points == column


def test_gap_spectrum_circular_flag():
    spec = gap_spectrum(0.3, 3, circular=True)
    _, gaps = brute_circular_gaps([(k * 0.3) % 1 for k in (1, 2, 3)])
    assert spec.gaps == pytest.approx(gaps)
    assert len(spec.gaps) == 3


def test_gap_spectrum_rational_coincident_points():
    # n exceeding the denominator repeats circle points; zero gaps are
    # recorded but never show up among the distinct values.
    spec = gap_spectrum(Fraction(1, 3), 5)
    assert spec.gap_sum() == 1
    assert 0 in spec.gaps
    assert spec.distinct_gaps == [Fraction(1, 3)]
    # Coincident points keep label order.
    spec = gap_spectrum(Fraction(2, 7), 60)
    assert spec.labels == sorted(range(1, 61), key=lambda k: (k * 2 % 7, k))


def test_gap_spectrum_validation():
    with pytest.raises(ValueError):
        gap_spectrum(0.3, 0)
    with pytest.raises(ValueError):
        gap_spectrum(math.inf, 3)


def test_chung_graham_single_copy_reduces_to_gap_spectrum():
    merged = chung_graham_gaps(0.3, [0.0], [3], circular=False)
    plain = gap_spectrum(0.3, 3, circular=False)
    assert merged.points == pytest.approx(plain.points)
    assert merged.gaps == pytest.approx(plain.gaps)


def test_chung_graham_two_shifted_copies():
    spec = chung_graham_gaps(0.3, [0.0, 0.05], [3, 3])
    assert len(spec.points) == 6
    assert spec.distinct_count <= 6  # 3d with d = 2
    linear = chung_graham_gaps(0.3, [0.0, 0.05], [3, 3], circular=False)
    assert len(linear.gaps) == 7
    pts, gaps = brute_circular_gaps(
        [(k * 0.3 + lam) % 1 for lam in (0.0, 0.05) for k in (1, 2, 3)])
    assert spec.points == pytest.approx(pts)
    assert spec.gaps == pytest.approx(gaps)


def test_chung_graham_quarter_lattice():
    spec = chung_graham_gaps(0.5, [0.0, 0.25], [2, 2])
    assert sorted(spec.points) == pytest.approx([0.0, 0.25, 0.5, 0.75])
    assert spec.distinct_gaps == pytest.approx([0.25])


def test_chung_graham_validation():
    with pytest.raises(ValueError):
        chung_graham_gaps(0.3, [], [])
    with pytest.raises(ValueError):
        chung_graham_gaps(0.3, [0.1], [2, 3])
    with pytest.raises(ValueError):
        chung_graham_gaps(0.3, [0.1], [0])


def test_geelen_simpson_k1_free_reduction():
    spec = geelen_simpson_gaps(0.77, 0.3, 1, 3)
    pts, gaps = brute_circular_gaps([0.0, 0.3, 0.6])
    assert spec.points == pytest.approx(pts)
    assert spec.gaps == pytest.approx(gaps)


def test_geelen_simpson_small_instance_bound():
    spec = geelen_simpson_gaps(0.31, 0.47, 3, 4)
    pts, gaps = brute_circular_gaps(
        [(0.31 * k1 + 0.47 * k2) % 1 for k1 in range(3) for k2 in range(4)])
    assert spec.points == pytest.approx(pts)
    assert spec.gaps == pytest.approx(gaps)
    assert spec.distinct_count <= 3 + 3


def test_geelen_simpson_quarter_lattice():
    spec = geelen_simpson_gaps(0.5, 0.25, 2, 2)
    assert sorted(spec.points) == pytest.approx([0.0, 0.25, 0.5, 0.75])
    assert spec.distinct_gaps == pytest.approx([0.25])


def test_geelen_simpson_exact_mode():
    spec = geelen_simpson_gaps(Fraction(1, 5), Fraction(1, 7), 3, 3)
    assert spec.exact
    assert spec.gap_sum() == 1


# Exact inputs run on the lattice Z/L: int64 residues while L < 2**62,
# Python ints past it.
WIDE = Fraction(2 ** 40 + 3, 2 ** 41 + 5)  # 2**31 < L < 2**62
HUGE = Fraction(2 ** 64 - 57, 2 ** 64 + 13)  # L > 2**62


@settings(max_examples=60)
@given(st.fractions(min_value=0, max_value=1, max_denominator=60),
       st.integers(min_value=1, max_value=40))
@example(WIDE, 37)
@example(HUGE, 37)
@example(Fraction(3, 2 ** 62 - 1), 40)
def test_gap_sum_is_exactly_one_in_exact_mode(alpha, n):
    for circular in (False, True):
        assert gap_spectrum(alpha, n, circular=circular).gap_sum() == 1


def exact_points(kind, alpha, beta):
    """The point set of each construction, in Fraction arithmetic."""
    if kind == "plain":
        return [(k * alpha) % 1 for k in range(1, 30)]
    if kind == "shifted":
        return [(k * alpha + lam) % 1 for lam, n in ((0, 9), (beta, 13), (1 - beta, 7))
                for k in range(1, n + 1)]
    return [(k1 * alpha + k2 * beta) % 1 for k1 in range(5) for k2 in range(6)]


@pytest.mark.parametrize("kind", ["plain", "shifted", "two"])
@pytest.mark.parametrize("alpha, beta", [
    (WIDE, Fraction(7, 2 ** 41 + 5)),
    (HUGE, Fraction(5, 2 ** 64 + 13)),
    (HUGE, Fraction(1, 3)),
], ids=["wide", "huge", "huge-mixed"])
def test_exact_constructions_on_wide_lattices(kind, alpha, beta):
    L = math.lcm(alpha.denominator, beta.denominator)
    assert 2 ** 31 < L < 2 ** 62 if alpha == WIDE else L > 2 ** 62
    if kind == "plain":
        spec = gap_spectrum(alpha, 29, circular=True)
    elif kind == "shifted":
        spec = chung_graham_gaps(alpha, [0, beta, 1 - beta], [9, 13, 7])
    else:
        spec = geelen_simpson_gaps(alpha, beta, 5, 6)
    pts, gaps = brute_circular_gaps(exact_points(kind, alpha, beta))
    assert spec.exact
    assert spec.points == pts and spec.gaps == gaps
    assert spec.distinct_gaps == sorted(set(g for g in gaps if g != 0))
    values = spec.points + spec.gaps + spec.distinct_gaps
    assert all(type(v) is Fraction for v in values)
    assert spec.gap_sum() == 1
    if kind == "plain":
        linear = gap_spectrum(alpha, 29)
        assert linear.gaps == [pts[0], *gaps[:-1], 1 - pts[-1]]
        assert linear.gap_sum() == 1


def test_three_gap_bound_random_smoke():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        alpha = float(rng.random())
        n = int(rng.integers(1, 200))
        spec = gap_spectrum(alpha, n)
        assert spec.distinct_count <= 3
        assert sum(spec.gaps) == pytest.approx(1.0, abs=1e-12)
        assert sorted(spec.labels) == list(range(1, n + 1))


# Generators for the closed-form check: floats (read exactly, as their dyadic
# values) and rationals whose denominators exceed every n checked, one of
# them on a lattice past int64.
THREE_GAP_ALPHAS = [
    (math.sqrt(5.0) - 1.0) / 2.0,
    math.sqrt(2.0) - 1.0,
    math.e - 2.0,
    0.0123456789,
    Fraction(271_828, 1_000_003),
    Fraction(99_991, 199_999),
    Fraction(2 ** 64 - 59, 2 ** 65 + 13),
]


@pytest.mark.parametrize("alpha", THREE_GAP_ALPHAS, ids=str)
def test_gap_spectrum_matches_three_gap_closed_form(alpha):
    # The whole multiset of circular gaps, up to n = 10**5: exactly on the
    # lattice, within float rounding otherwise.
    for n in (1, 2, 3, 5, 8, 13, 100, 1000, 10 ** 5):
        spec = gap_spectrum(alpha, n, circular=True)
        want = three_gap_closed_form(alpha, n)
        if spec.exact:
            assert Counter(spec.gaps) == want
            assert spec.distinct_gaps == sorted(want)
        else:
            expanded = sorted(float(g) for g, count in want.items() for _ in range(count))
            assert np.allclose(sorted(spec.gaps), expanded, rtol=0, atol=1e-9)
            assert spec.distinct_gaps == pytest.approx(sorted(map(float, want)), abs=1e-9)


def test_gap_spectrum_matches_three_gap_closed_form_randomized():
    # Small n, where the convergent that decides the form changes often.
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(1, 300)
        d = rng.randrange(n + 1, 5000)
        alpha = Fraction(rng.randrange(1, 3 * d), d)
        if alpha.denominator > n:
            assert Counter(gap_spectrum(alpha, n, circular=True).gaps) == \
                three_gap_closed_form(alpha, n)
        x = rng.random()
        want = three_gap_closed_form(x, n)
        got = sorted(gap_spectrum(x, n, circular=True).gaps)
        expanded = sorted(float(g) for g, count in want.items() for _ in range(count))
        assert np.allclose(got, expanded, rtol=0, atol=1e-9)


def test_three_gap_closed_form_refuses_coincident_points():
    with pytest.raises(ValueError):
        three_gap_closed_form(Fraction(3, 7), 7)


def spectrum_cases():
    """54 seeded constructions: three of each of the plain spectrum (n <= 300),
    d <= 4 shifted copies (n_i <= 100) and two-generator sets (n1, n2 <= 30)
    for each kind of ``generator_kinds``, every component of one kind."""
    rng = random.Random(2323)
    kinds = generator_kinds(rng)
    cases = []
    for kind in sorted(kinds):
        draw = kinds[kind]
        for _ in range(3):
            cases.append((gap_spectrum, draw(), rng.randrange(1, 301)))
            d = rng.randrange(1, 5)
            cases.append((chung_graham_gaps, draw(), [draw() for _ in range(d)],
                          [rng.randrange(1, 101) for _ in range(d)]))
            cases.append((geelen_simpson_gaps, draw(), draw(), rng.randrange(1, 31),
                          rng.randrange(1, 31)))
    return cases


def spectrum_digest(construct, *args):
    """The first 16 hex digits of the sha256 of a construction's spectra in
    both conventions: each repr followed by its points and labels."""
    text = ""
    for circular in (False, True):
        spec = construct(*args, circular=circular)
        text += repr(spec) + repr(spec.points) + repr(spec.labels)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Spectra pinned before the shifted copies and two-generator sets were built
# through ``numerics``, for the cases of spectrum_cases() in order.
SPECTRUM_DIGESTS = """
    e33133bc779190c9 e371c3ccb47eab24 9d0eb81a64e6a0f0 8a3d2d1afde442fe cde8fde920fff863
    0740412e0468b452 bacaaf365dd4b926 b06681d44e360c49 767ffe8fe2e9dc14 6b28af99f41c8d1c
    0ea192bc593f9a43 3166d5082f916c71 5eee7cad29b80c6b ed065fbe998b6c6b 92d11e0c848c526b
    e3883903afbb53d4 c489d66303efed32 ab48e77e7efcecf7 9431d05f993fceff 6a3e873ec5955b26
    8e6753185e0d6736 271b79d6aef22d82 def0b2da0ea74c3d 976104299325ff78 ba8c6cec99ec02cc
    6c1bdf03f0b51453 cdb7bff3387f028c b45e0468bf75eef3 847f630bb8a54b4d 096dd5d763cf9b9e
    19ecb54737a5c3a5 983a2251f38b1951 88c78fe1c63f419c 7f2f6561303a6744 6ed358e0d0711fa2
    ec94323bffbe9a1d bb846693b355c3e0 c341283983cd79ed b185c387c1bacf09 fa36ff419d3d9406
    3a978848711191db 8aa5480655de6569 f1db363245cca142 12eb742140869803 da8fc3d20dca7294
    c4e4422b2467665d 70db3d4c541468d0 5066f9d34223932d fadd6fecf0ae96d4 86f869ab497cfdb1
    21c88a058134fc2a be6413b02306b1d9 ff1421a49cffd6d8 7c1f01610f7f13a9
""".split()


def test_spectra_match_pinned_digests():
    cases = spectrum_cases()
    assert len(cases) == len(SPECTRUM_DIGESTS) == 54
    changed = [case for case, want in zip(cases, SPECTRUM_DIGESTS)
               if spectrum_digest(*case) != want]
    assert changed == []


def test_a_point_rounding_up_to_one_wraps_to_zero():
    # -3e-17 mod 1 rounds to exactly 1.0: the circle guard puts that point
    # at 0, so the spectrum stays on [0, 1) and its gaps sum to 1.
    spec = gap_spectrum(-3e-17, 4, circular=True)
    assert all(0.0 <= x < 1.0 for x in spec.points)
    assert spec.gaps == [0.9999999999999999, 0.0, 0.0, 1.1102230246251565e-16]

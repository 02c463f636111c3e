import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import (Arc, ArcKind, circle_norm, fractional_part, geodesic,
                       signed_deviation)

fracs = st.fractions(min_value=-20, max_value=20, max_denominator=500)
unit_fracs = st.fractions(min_value=0, max_value=Fraction(499, 500), max_denominator=500)


def test_fractional_part_examples():
    assert fractional_part(2.75) == pytest.approx(0.75)
    assert fractional_part(-0.25) == pytest.approx(0.75)
    assert fractional_part(3.0) == 0.0
    assert fractional_part(Fraction(11, 4)) == Fraction(3, 4)


def test_fractional_part_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            fractional_part(bad)


def test_fractional_part_stays_below_one():
    # -1e-20 % 1.0 rounds to 1.0 in plain float arithmetic
    assert 0.0 <= fractional_part(-1e-20) < 1.0


def test_circle_norm_examples():
    assert circle_norm(0.6) == pytest.approx(0.4)
    assert circle_norm(0.5) == 0.5
    assert circle_norm(7.25) == pytest.approx(0.25)


def test_signed_deviation_examples():
    assert signed_deviation(0.75) == pytest.approx(0.25)
    assert signed_deviation(0.25) == pytest.approx(-0.25)
    assert signed_deviation(0.5) == 0.0


@given(fracs)
def test_circle_norm_range_and_reflection(x):
    v = circle_norm(x)
    assert 0 <= v <= Fraction(1, 2)
    assert circle_norm(-x) == v


@given(fracs, st.integers(min_value=-5, max_value=5))
def test_circle_norm_periodicity(x, k):
    assert circle_norm(x + k) == circle_norm(x)


@given(fracs)
def test_deviation_shift_consistency(x):
    assert signed_deviation(x) + Fraction(1, 2) == fractional_part(x)
    assert -Fraction(1, 2) <= signed_deviation(x) < Fraction(1, 2)


def test_geodesic_examples():
    a = geodesic(0.2, 0.6)
    assert a.kind is ArcKind.PLAIN and (a.lo, a.hi) == (0.2, 0.6)
    b = geodesic(0.9, 0.2)
    assert b.kind is ArcKind.WRAPPED
    assert b.parts() == ((0, 0.2), (0.9, 1))
    assert geodesic(0.3, 0.3).kind is ArcKind.EMPTY


def test_geodesic_antipodal_takes_plain_branch():
    a = geodesic(Fraction(1, 4), Fraction(3, 4))
    assert a.kind is ArcKind.PLAIN
    assert a.measure() == Fraction(1, 2)


def test_geodesic_rejects_non_circle_points():
    with pytest.raises(ValueError):
        geodesic(1.0, 0.5)
    with pytest.raises(ValueError):
        geodesic(0.5, -0.1)


@given(unit_fracs, unit_fracs)
def test_geodesic_measure_is_circle_distance(p, q):
    arc = geodesic(p, q)
    d = abs(p - q)
    assert arc.measure() == min(d, 1 - d)


def test_overlap_examples():
    assert not Arc.plain(0.1, 0.3).overlaps(Arc.plain(0.3, 0.5))
    assert Arc.plain(0.1, 0.4).overlaps(Arc.plain(0.3, 0.5))
    assert Arc.wrapped(0.2, 0.9).overlaps(Arc.plain(0.15, 0.3))


def test_overlap_wrapped_against_grid_oracle():
    # Point-membership on a fine grid is an independent overlap oracle.
    w = Arc.wrapped(0.2, 0.9)
    p = Arc.plain(0.15, 0.3)
    grid = [i / 10000 for i in range(10000)]
    shared = [x for x in grid if w.contains(x) and p.contains(x)]
    assert bool(shared) == w.overlaps(p)
    untouched = Arc.plain(0.35, 0.6)
    shared = [x for x in grid if w.contains(x) and untouched.contains(x)]
    assert not shared and not w.overlaps(untouched)


@given(unit_fracs, unit_fracs, unit_fracs, unit_fracs)
def test_overlap_symmetric_and_reflexive(p1, q1, p2, q2):
    a, b = geodesic(p1, q1), geodesic(p2, q2)
    assert a.overlaps(b) == b.overlaps(a)
    if a.kind is not ArcKind.EMPTY:
        assert a.overlaps(a)
    assert not a.overlaps(Arc.empty())


def test_plain_degenerate_bounds_collapse_to_empty():
    assert Arc.plain(0.3, 0.3).kind is ArcKind.EMPTY
    assert Arc.wrapped(0, 1).kind is ArcKind.EMPTY
    with pytest.raises(ValueError):
        Arc.plain(0.5, 0.4)


def test_wrapped_with_zero_low_part_has_single_component():
    a = Arc.wrapped(0, 0.8)
    assert a.parts() == ((0.8, 1),)
    assert a.measure() == pytest.approx(0.2)

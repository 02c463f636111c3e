"""Metamorphic properties of the survivor sweep and the approximation
profile: rewrites of the generator that leave every length ||q a_r|| and
every overlap in place must leave the answer in place.

* permuting the axes (floating and exact mode);
* a_r -> 1 - a_r, the reflection x -> 1 - x of axis r (exact mode);
* a_r -> a_r + 1, which moves no point (exact mode).

Each must keep the survivor edges, ``distinct_count``, q1 and q2, and the
distinct lengths (exactly on the lattice, within the tolerance on floats).
Instances where some {q a_r} is 0 or 1/2 for q <= n are skipped: the sign
rule fixes the sign of such a deviation, so the reflection does not flip it,
and an arc of length exactly 1/2 is not reflected onto itself.  The axes'
cells sit side by side in the sweep's one rank space, so these properties
also guard the offsets between axes.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from torusgaps.denominators import approximation_profile
from torusgaps.tournament import survivors_sweep

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def sign_fixed(alphas, n):
    """Whether some {q a_r}, q <= n, is 0 or 1/2 (read exactly)."""
    return any((2 * q * Fraction(a)) % 1 == 0 for a in alphas for q in range(1, n + 1))


def answer(alphas, n):
    report = survivors_sweep(alphas, n)
    profile = approximation_profile(alphas, n)
    return report, (report.survivors, report.distinct_count, profile.q1, profile.q2)


def assert_same(alphas, rewritten, n):
    report, invariants = answer(alphas, n)
    other, other_invariants = answer(rewritten, n)
    assert other_invariants == invariants
    if report.exact:
        assert other.distinct_lengths == report.distinct_lengths
    else:
        assert other.distinct_lengths == pytest.approx(report.distinct_lengths,
                                                       rel=0, abs=1e-9)


@st.composite
def rationals(draw, n, m):
    """m generators whose denominators exceed n: small ones, and one past
    int64 now and then."""
    alphas = []
    for _ in range(m):
        d = draw(st.integers(n + 1, 5000) | st.just(2 ** 64 + 13))
        alphas.append(Fraction(draw(st.integers(1, d - 1)), d))
    return alphas


@st.composite
def exact_instances(draw):
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, 3))
    alphas = draw(rationals(n, m))
    assume(not sign_fixed(alphas, n))
    return alphas, n


@st.composite
def float_instances(draw):
    n = draw(st.integers(2, 60))
    m = draw(st.integers(2, 3))
    alphas = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=m, max_size=m))
    assume(not sign_fixed(alphas, n))
    return alphas, n


@SETTINGS
@given(exact_instances(), st.randoms(use_true_random=False))
def test_permuting_axes_exact(instance, rng):
    alphas, n = instance
    rewritten = alphas[:]
    rng.shuffle(rewritten)
    assert_same(alphas, rewritten, n)


@SETTINGS
@given(float_instances(), st.randoms(use_true_random=False))
def test_permuting_axes_float(instance, rng):
    alphas, n = instance
    rewritten = alphas[:]
    rng.shuffle(rewritten)
    assert_same(alphas, rewritten, n)


@SETTINGS
@given(exact_instances(), st.data())
def test_reflecting_an_axis(instance, data):
    alphas, n = instance
    r = data.draw(st.integers(0, len(alphas) - 1))
    rewritten = alphas[:r] + [1 - alphas[r]] + alphas[r + 1:]
    assert_same(alphas, rewritten, n)


@SETTINGS
@given(exact_instances(), st.data())
def test_shifting_an_axis_by_one(instance, data):
    alphas, n = instance
    r = data.draw(st.integers(0, len(alphas) - 1))
    rewritten = alphas[:r] + [alphas[r] + 1] + alphas[r + 1:]
    assert_same(alphas, rewritten, n)

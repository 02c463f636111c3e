"""Arithmetic on the unit circle R/Z, one scalar at a time.

A circle point is a fractional part in [0, 1), and the distance from a
real number to the nearest integer is its circle norm (at most 1/2).  The
array forms of these readings live in ``numerics`` (the Kronecker points)
and ``tournament`` (the geodesic arcs of an edge).

All functions work on floats and on exact rationals (``int``/``Fraction``)
alike; with exact inputs every operation here is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from .numerics import Real

__all__ = ["circle_norm", "fractional_part", "signed_deviation"]


def _check_finite(x: Real) -> None:
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"non-finite input: {x!r}")


def fractional_part(x: Real) -> Real:
    """{x} = x - floor(x), a point of [0, 1).  Exact for rational inputs.

    Floating inputs just below an integer can round to the integer itself
    (e.g. -1e-20 -> 1.0); those wrap to 0.0 so the result stays in [0, 1).
    """
    _check_finite(x)
    if isinstance(x, Rational):
        return x - math.floor(x)
    f = x - math.floor(x)
    return 0.0 if f >= 1.0 else f


def circle_norm(x: Real) -> Real:
    """Distance from x to the nearest integer: min({x}, 1 - {x}), in [0, 1/2]."""
    f = fractional_part(x)
    return min(f, 1 - f)


def signed_deviation(x: Real) -> Real:
    """{x} - 1/2, the signed offset from the circle's midpoint, in [-1/2, 1/2)."""
    f = fractional_part(x)
    return f - Fraction(1, 2) if isinstance(f, Rational) else f - 0.5

"""Arithmetic on the unit circle R/Z.

A circle point is a fractional part in [0, 1).  The distance between two
points is the length of the shorter of the two arcs joining them (at most
1/2), and the *geodesic* is that shorter arc itself, kept half-open so a
partition of the circle into arcs counts every point exactly once.  An arc
whose short side passes through 0 is stored in wrapped form.

All functions work on floats and on exact rationals (``int``/``Fraction``)
alike; with exact inputs every operation here is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational

from .numerics import Real

__all__ = [
    "Arc",
    "ArcKind",
    "circle_norm",
    "fractional_part",
    "geodesic",
    "signed_deviation",
]


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


class ArcKind(Enum):
    EMPTY = "empty"
    PLAIN = "plain"
    WRAPPED = "wrapped"


@dataclass(frozen=True)
class Arc:
    """A half-open arc of the circle.

    * ``PLAIN``:   the set [lo, hi), with 0 <= lo < hi <= 1
    * ``WRAPPED``: the set [0, lo) u [hi, 1), an arc passing through 0
    * ``EMPTY``:   the empty set

    Constructed as a geodesic, a plain arc has measure <= 1/2 and a wrapped
    arc measure < 1/2; the constructors themselves accept any valid bounds.
    """

    kind: ArcKind
    lo: Real = 0
    hi: Real = 0

    @staticmethod
    def empty() -> "Arc":
        return Arc(ArcKind.EMPTY)

    @staticmethod
    def plain(lo: Real, hi: Real) -> "Arc":
        if not (0 <= lo <= hi <= 1):
            raise ValueError(f"invalid plain arc bounds [{lo}, {hi})")
        if lo == hi:
            return Arc(ArcKind.EMPTY)
        return Arc(ArcKind.PLAIN, lo, hi)

    @staticmethod
    def wrapped(lo: Real, hi: Real) -> "Arc":
        if not (0 <= lo <= hi <= 1):
            raise ValueError(f"invalid wrapped arc bounds [0,{lo}) u [{hi},1)")
        if lo == 0 and hi == 1:
            return Arc(ArcKind.EMPTY)
        return Arc(ArcKind.WRAPPED, lo, hi)

    def parts(self) -> tuple[tuple[Real, Real], ...]:
        """Nonempty half-open component intervals of [0, 1)."""
        if self.kind is ArcKind.EMPTY:
            return ()
        if self.kind is ArcKind.PLAIN:
            return ((self.lo, self.hi),)
        out = []
        if self.lo > 0:
            out.append((0, self.lo))
        if self.hi < 1:
            out.append((self.hi, 1))
        return tuple(out)

    def measure(self) -> Real:
        return sum((e - s for s, e in self.parts()), 0)

    def contains(self, x: Real) -> bool:
        return any(s <= x < e for s, e in self.parts())

    def overlaps(self, other: "Arc") -> bool:
        """Do the point sets intersect?  Arcs sharing only a closed endpoint
        do not overlap (half-open semantics)."""
        for s1, e1 in self.parts():
            for s2, e2 in other.parts():
                if max(s1, s2) < min(e1, e2):
                    return True
        return False


def geodesic(p: Real, q: Real) -> Arc:
    """The shorter half-open arc joining circle points p and q.

    With m = min(p, q) and M = max(p, q): the arc is [m, M) when
    M - m <= 1/2, and [0, m) u [M, 1) otherwise.  Antipodal pairs
    (M - m exactly 1/2) take the plain branch.  Coincident points give
    the empty arc.
    """
    for v in (p, q):
        _check_finite(v)
        if not (0 <= v < 1):
            raise ValueError(f"geodesic endpoint {v!r} is not a circle point in [0, 1)")
    if p == q:
        return Arc.empty()
    m, M = (p, q) if p < q else (q, p)
    if M - m <= 0.5:
        return Arc.plain(m, M)
    return Arc.wrapped(m, M)


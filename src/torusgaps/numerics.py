"""Shared numeric plumbing: dual-mode coercion, the integer lattice and the
Kronecker instance on it, the one size rule (``points_fit`` and
``edges_fit``, checked before anything is allocated, and
``survivors_fit``, checked as the sweep finds survivors), the one
clustering rule, integer roots.

Every quantity in this package lives in one of two numeric modes:

* floating point, with a configurable comparison tolerance ``epsilon``;
* exact rationals, used when every input component is an ``int`` or a
  ``fractions.Fraction``.  In exact mode all comparisons are literal and
  ``epsilon`` is ignored.  Kronecker points are then stored as integers on
  the lattice Z/L, L the common denominator, so exact arithmetic runs on
  integer arrays instead of Fractions.

The Kronecker point set is built in one place: ``kronecker_points`` writes
out the points of k = 1..n, and ``kronecker_instance``, the one constructor
of an ``Instance``, adds each difference's key and length, all as arrays.
The survivor engines, the denominator table, the gap spectrum and the SVG
rendering read these instead of repeating the formula.

``clusters`` is the package's only grouping rule for values that compare
equal at the working tolerance: survivor length groups, distinct gaps and
distinct denominator lengths all slice its ``(order, starts)`` arrays.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence, Union

import numpy as np

Real = Union[int, float, Fraction]

# The default comparison tolerance of floating mode.
EPSILON = 1e-9


def frac_array(x: np.ndarray) -> np.ndarray:
    """Elementwise fractional part in [0, 1).

    np.mod(x, 1.0) can round to exactly 1.0 for inputs just below an
    integer; those wrap to 0.0 so every value is a valid circle point.
    """
    f = np.mod(x, 1.0)
    f[f >= 1.0] = 0.0
    return f


def coerce_components(values: Sequence[Real]) -> tuple[list[Real], bool]:
    """Normalize a vector of generators to a single numeric mode.

    Returns ``(components, exact)``.  If every component is exact the values
    are passed through as Fractions; otherwise everything is coerced to float.
    """
    values = list(values)
    if not values:
        raise ValueError("empty generator vector")
    if all(isinstance(v, Rational) for v in values):
        return [Fraction(v) for v in values], True
    out = []
    for v in values:
        f = float(v)
        if not math.isfinite(f):
            raise ValueError(f"non-finite generator component: {v!r}")
        out.append(f)
    return out, False


# The size rule: a call may use MEMORY_BUDGET bytes; a point coordinate (n m
# of them) costs _POINT_BYTES, a brute-force edge coordinate (n(n - 1)/2 m)
# _EDGE_BYTES, and a survivor the sweep reports _SURVIVOR_BYTES: the largest
# tracemalloc peaks measured, rounded up.
MEMORY_BUDGET = 2 ** 32
_POINT_BYTES = 1024
_EDGE_BYTES = 256
_SURVIVOR_BYTES = 256


def points_fit(n: int, m: int) -> bool:
    """Whether n points on m axes fit the memory budget (safe for any n)."""
    return n * m * _POINT_BYTES <= MEMORY_BUDGET


def edges_fit(n: int, m: int) -> bool:
    """Whether the brute force's n(n - 1)/2 edges on m axes fit the budget."""
    return n < 2 or n * (n - 1) // 2 * m * _EDGE_BYTES <= MEMORY_BUDGET


def survivors_fit(count: int) -> bool:
    """Whether a report of ``count`` undefeated edges fits the budget.  The
    sweep checks its running count, since only the sweep finds it."""
    return count * _SURVIVOR_BYTES <= MEMORY_BUDGET


def too_large(n: int, m: int, what: str) -> ValueError:
    return ValueError(f"n={n} is too large at m={m}: its {what} would exceed "
                      f"the {MEMORY_BUDGET >> 30} GiB memory budget")


# Lattice moduli below this keep every residue, 2L and differences of
# residues inside int64; larger ones use object arrays of Python ints.
_INT64_LATTICE = 2 ** 62


@dataclass(frozen=True)
class Instance:
    """The points ({k a_1}, ..., {k a_m}), k = 1..n, as an (n, m) array
    ``points``, with the comparison key and display length of each
    difference q = 1..n (``keys[q - 1]``, ``lengths[q - 1]``), all held as
    arrays.  ``kronecker_instance`` is its one constructor.

    Floating mode: points are float64 in [0, 1), ``unit`` is 1.0 and
    ``keys`` is the float64 ``lengths`` array itself, each entry the length
    sqrt(sum_r ||q a_r||^2).

    Exact mode: with L the lcm of the denominators and a_r = p_r / L,
    points are the residues k p_r mod L in [0, L) (int64 when L < 2**62,
    else an object array of Python ints), ``unit`` is L, each key is the
    exact integer sum_r min(x, L - x)^2 = L^2 l(q)^2 in an object array,
    and ``lengths`` is float64."""

    points: np.ndarray
    keys: np.ndarray
    lengths: np.ndarray
    unit: float | int

    @property
    def exact(self) -> bool:
        return self.points.dtype.kind != "f"


def lattice(comps: list[Fraction]) -> tuple[int, list[int], type]:
    """Exact components on the integer lattice Z/L: L the lcm of the
    denominators, each a_r as its residue p_r = a_r L mod L, and the array
    element type that keeps residues and their differences exact."""
    L = math.lcm(*(a.denominator for a in comps))
    steps = [a.numerator * (L // a.denominator) % L for a in comps]
    return L, steps, np.int64 if L < _INT64_LATTICE else object


def kronecker_points(comps: list[Real], exact: bool,
                     n: int) -> tuple[np.ndarray, float | int]:
    """(points, unit): the (n, m) Kronecker points of k = 1..n for coerced
    components, floats in [0, 1) with unit 1.0, or lattice residues
    k p_r mod L with unit L.  n must be >= 1 and pass the size rule."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not points_fit(n, len(comps)):
        raise too_large(n, len(comps), "points")
    k = np.arange(1, n + 1)[:, None]
    if not exact:
        return frac_array(k * np.asarray(comps, dtype=float)[None, :]), 1.0
    L, steps, dtype = lattice(comps)
    points = k.astype(object) * np.array(steps, dtype=object)[None, :] % L
    return points.astype(dtype, copy=False), L


def kronecker_instance(alphas: Sequence[Real], n: int) -> Instance:
    """The Kronecker instance of k = 1..n: the one place a point set, its
    keys and its lengths are built.  An instance needs an edge: n >= 2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    comps, exact = coerce_components(alphas)
    P, unit = kronecker_points(comps, exact, n)
    if not exact:
        norms = np.minimum(P, 1.0 - P)
        lengths = np.sqrt((norms * norms).sum(axis=1))
        return Instance(P, lengths, lengths, 1.0)
    d = np.minimum(P, unit - P).astype(object)
    keys = (d * d).sum(axis=1)
    lengths = np.sqrt((keys / (unit * unit)).astype(float))
    return Instance(P, keys, lengths, unit)


def valid_epsilon(x) -> bool:
    """A tolerance is a finite real >= 0.  Written as one chained
    comparison so NaN, inf and ints too large for a float all fail it
    without an OverflowError."""
    return 0 <= x <= sys.float_info.max


def ceil_sqrt(n: int) -> int:
    """Smallest integer s with s*s >= n."""
    if n < 0:
        raise ValueError("ceil_sqrt of a negative number")
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def clusters(values: np.ndarray, tol) -> tuple[np.ndarray, np.ndarray]:
    """Single-linkage clusters of the array ``values`` as ``(order, starts)``:
    the stable argsort, and the int64 boundaries in it: 0, each position
    where the sorted step exceeds ``tol`` (0 in exact mode: only equal
    values tie) and ``len(values)``.  Cluster g is
    ``order[starts[g]:starts[g + 1]]``, ascending with ties by index, so it
    starts at its minimum.  A chain of steps within ``tol`` is one cluster
    even when its ends lie further apart.  Numpy sorts object arrays (exact
    keys, Fractions) by Python comparison.  Never pass a list: numpy would
    turn ints on both sides of 2**63 into float64 and misorder them."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    brk = np.ones(len(values) + 1, dtype=bool)
    brk[1:-1] = ranked[1:] - ranked[:-1] > tol
    return order, np.flatnonzero(brk)

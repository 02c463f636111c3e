"""Shared numeric plumbing: dual-mode coercion, the circle in both modes
and the Kronecker instance on it, the one size rule (``points_fit`` and
``edges_fit``, checked before anything is allocated, and ``survivors_fit``,
checked as the sweep finds survivors), the one tolerance rule, the one
clustering rule, integer roots.  A sweep's memory does not grow with its
number of trials, so trials have no size rule.

Every quantity in this package lives in one of two numeric modes:

* floating point, with a configurable comparison tolerance ``epsilon``;
* exact rationals, used when every input component is an ``int`` or a
  ``fractions.Fraction``.  In exact mode all comparisons are literal
  (``tolerance`` gives 0) and ``epsilon`` is only checked.  Kronecker
  points are then stored as integers on the lattice Z/L, L the common
  denominator, so exact arithmetic runs on integer arrays, not Fractions.

Every point set is built in one place, which alone knows the two circles
(float [0, 1) and the lattice Z/L): ``circle_steps`` puts components on
the circle, ``wrap`` reduces integer combinations of them onto it and
``as_reals`` reads circle values back as floats or Fractions.
``kronecker_points`` writes out the points of k = 1..n, and
``kronecker_instance``, the one constructor of an ``Instance``, adds each
difference's key and length, all as arrays.  The survivor engines, the
denominator table, the gap spectra and the SVG rendering read these.

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
# _EDGE_BYTES and a survivor the sweep reports _SURVIVOR_BYTES: the largest
# tracemalloc peaks, rounded up.
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


def circle_steps(comps: list[Real], exact: bool) -> tuple[np.ndarray, float | int]:
    """(steps, unit): coerced components as a float64 array with unit 1.0,
    or as an object array of the residues p_r = a_r L mod L with unit L,
    the lcm of the denominators.  Object steps keep integer combinations
    of them exact at any L."""
    if not exact:
        return np.array(comps, dtype=float), 1.0
    L = math.lcm(*(a.denominator for a in comps))
    return np.array([a.numerator * (L // a.denominator) % L for a in comps],
                    dtype=object), L


def wrap(x: np.ndarray, unit: float | int) -> np.ndarray:
    """Combinations of steps reduced onto the circle of length ``unit``.
    Floats land in [0, 1): np.mod can round to exactly 1.0 just below an
    integer, and such a point is 0.  Lattice values land in [0, L), as
    int64 below _INT64_LATTICE."""
    if isinstance(unit, float):
        f = np.mod(x, unit)
        f[f >= unit] = 0.0
        return f
    x = x % unit
    return x.astype(np.int64) if unit < _INT64_LATTICE else x


def as_reals(values: np.ndarray, unit: float | int) -> list:
    """Circle values read back as reals: floats divided by the unit, lattice
    integers as the Fractions x / L."""
    if isinstance(unit, float):
        return (values / unit).tolist()
    return [Fraction(x, unit) for x in values.tolist()]


def kronecker_points(comps: list[Real], exact: bool,
                     n: int) -> tuple[np.ndarray, float | int]:
    """(points, unit): the (n, m) Kronecker points {k a_r} of k = 1..n for
    coerced components, as ``wrap`` leaves them.  n must be >= 1 and pass
    the size rule."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not points_fit(n, len(comps)):
        raise too_large(n, len(comps), "points")
    steps, unit = circle_steps(comps, exact)
    return wrap(np.arange(1, n + 1)[:, None] * steps, unit), unit


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


def tolerance(epsilon, exact: bool):
    """``epsilon`` in floating mode, the int 0 in exact mode (so lattice
    arrays shifted by it stay integer); a bad epsilon is refused in both."""
    if not valid_epsilon(epsilon):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    return 0 if exact else epsilon


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

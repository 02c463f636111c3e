"""Sign types and champion denominators of simultaneous approximation.

For a generator vector (a_1, ..., a_m), every integer q gets a length
l(q) = sqrt(sum_r ||q a_r||^2) and an m-vector of signs, '+' on axis r
when {q a_r} - 1/2 >= 0.  Two integers are of the *same* type when their
sign vectors agree and of *opposite* type when every sign flips.

The machinery extracted here drives the counting arguments behind the
survivor bounds:

* q1 - the smallest minimizer of l over [1, floor(n/2)];
* primary denominators - q in (floor(n/2), n] beating l(q1);
* q1_perp - the q <= n - q1 whose type differs from q1's, and q2, the
  smallest minimizer of l over that pool;
* secondary denominators - q in (n - q1, n] of type opposite to q1
  beating l(q2);
* the undercut count - how many q below q1 beat l(q2).

Each has a proof-supplied ceiling (``primary_count_bound`` etc.);
``profile_checks`` pairs every counted quantity of a profile with its
ceiling, and is the one place those comparisons are decided.

All of it comes from one table of rows q = 1..n, read off the same
``numerics.Instance`` the tournament engines judge and held as arrays: an
(n, m) sign matrix and a vector of comparison keys (exact lattice integers
in exact mode).  Each champion is one masked expression over a slice of
them - the q1_perp pool is the rows whose signs differ from q1's on any
axis, the opposite type differs on every axis.  ``approximation_profile``
returns every champion at once, and its ``DenominatorRecord`` entries are
rows of that table.  Distinct lengths are counted with ``numerics.clusters``.

Floating mode applies the comparison tolerance throughout: strictly
shorter means shorter by more than epsilon, minimizer ties within epsilon
resolve to the smallest q, and the sign rule is guarded at both of its
discontinuities - a deviation within epsilon of zero counts as
non-negative, and a fractional part within epsilon of 1 counts as the
circle point 0 (deviation -1/2, sign '-').  This keeps floating runs on
rational inputs in lockstep with exact mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numerics import EPSILON, Instance, ceil_sqrt, clusters, kronecker_instance

__all__ = [
    "ApproximationProfile",
    "DenominatorRecord",
    "approximation_profile",
    "primary_count_bound",
    "profile_checks",
    "secondary_distinct_bound",
    "undercut_bound",
    "PRIMARY_DISTINCT_BOUND_2D",
]

# Distinct primary lengths on the 2-torus (hexagon degeneracy argument).
PRIMARY_DISTINCT_BOUND_2D = 5


def primary_count_bound(m: int) -> int:
    """Ceiling on the number of primary denominators: (2 ceil(sqrt(m)))^m."""
    if m < 1:
        raise ValueError("dimension must be >= 1")
    return (2 * ceil_sqrt(m)) ** m


def undercut_bound(m: int) -> int:
    """Ceiling on |{q < q1 : l(q) < l(q2)}|: 1 on the 2-torus, and
    ceil(sqrt(2m))^m in general dimension."""
    if m < 1:
        raise ValueError("dimension must be >= 1")
    if m == 2:
        return 1
    return ceil_sqrt(2 * m) ** m


def secondary_distinct_bound(m: int) -> int:
    """Ceiling on the number of distinct secondary lengths: 4 on the
    2-torus, ceil(sqrt(m))^m * (ceil(sqrt(2m))^m + 1) in general."""
    if m < 1:
        raise ValueError("dimension must be >= 1")
    if m == 2:
        return 4
    return ceil_sqrt(m) ** m * (ceil_sqrt(2 * m) ** m + 1)


@dataclass(frozen=True)
class DenominatorRecord:
    """Integer q with its per-axis deviations {q a_r} - 1/2, sign vector,
    length, and (on the 2-torus) the angle of the deviation vector."""

    q: int
    deviations: tuple
    signs: str
    length: float
    angle: float | None = None


def _angle(devs) -> float | None:
    if len(devs) != 2:
        return None
    theta = math.atan2(float(devs[1]), float(devs[0]))
    return math.pi if theta == -math.pi else theta


class _Table:
    """Rows q = 1..n (row q at index q - 1), read off the same ``Instance``
    the tournament engines judge, so they agree across modules by
    construction.  The instance's arrays are read in place: its points,
    its comparison keys (float64 lengths in floating mode, the exact lattice
    integers L^2 l(q)^2 in exact mode, so every comparison stays exact past
    2**63) and its display lengths.  The table adds ``pos``, the (n, m)
    sign matrix, True where the sign is '+'; on the lattice
    {q a_r} - 1/2 >= 0 reads as 2 x >= L.

    A row becomes a ``DenominatorRecord``, sign string and all, only
    through ``record``."""

    def __init__(self, inst: Instance, epsilon: float):
        self.exact = inst.exact
        self.tol = 0 if self.exact else epsilon
        self.points, self.unit = inst.points, inst.unit
        self.keys, self.lengths = inst.keys, inst.lengths
        if self.exact:
            self.pos = 2 * inst.points >= inst.unit
        else:
            dev = inst.points - 0.5
            self.pos = (dev >= -epsilon) & (dev < 0.5 - epsilon)

    def record(self, q: int) -> DenominatorRecord:
        """Row q: deviations x - 1/2 of its points (x/L - 1/2 on the lattice)."""
        row = self.points[q - 1].tolist()
        if self.exact:
            L = self.unit
            devs = tuple(Fraction(2 * x - L, 2 * L) for x in row)
        else:
            devs = tuple(x - 0.5 for x in row)
        signs = "".join("+" if p else "-" for p in self.pos[q - 1])
        return DenominatorRecord(q, devs, signs, self.length(q), _angle(devs))

    def length(self, q: int) -> float:
        return float(self.lengths[q - 1])

    def smallest_minimizer(self, qs: np.ndarray) -> int:
        """The first of the ascending ``qs`` whose key is within tol of
        their minimum."""
        keys = self.keys[qs - 1]
        return int(qs[np.argmax(keys <= keys.min() + self.tol)])

    def distinct(self, qs: np.ndarray) -> int:
        """Number of length clusters among the given q."""
        return len(clusters(self.keys[qs - 1], self.tol)[1]) - 1


@dataclass
class ApproximationProfile:
    """Everything the counting checks need for one instance.

    ``q2`` is taken over the type-differs pool ``q1_perp``; the fully
    flipped variant is reported alongside so the two readings of the pool
    stay observable."""

    m: int
    n: int
    q1: int
    q1_length: float
    q1_perp: list[int]
    q2: int | None
    q2_length: float | None
    q2_strict: int | None
    q2_strict_length: float | None
    primary: list[DenominatorRecord]
    secondary: list[DenominatorRecord]
    undercut: int | None
    primary_distinct: int
    secondary_distinct: int


def approximation_profile(alphas, n: int, *,
                          epsilon: float = EPSILON) -> ApproximationProfile:
    """One-pass extraction of q1, q2 (both pool variants), the primary and
    secondary denominators, their distinct-length counts, and the undercut
    count."""
    return _profile(_Table(kronecker_instance(alphas, n), epsilon))


def _profile(table: _Table) -> ApproximationProfile:
    """The approximation profile of a table of rows q = 1..n, n >= 2: each
    champion is one masked expression over a slice of the table's arrays."""
    n = len(table.lengths)
    keys, tol = table.keys, table.tol
    h = n // 2
    q1 = table.smallest_minimizer(np.arange(1, h + 1))
    primary = h + 1 + np.flatnonzero(keys[h:] < keys[q1 - 1] - tol)

    # Axis by axis, whether q's sign differs from q1's, for q = 1..n; the
    # type is opposite where every axis differs.
    differs = table.pos != table.pos[q1 - 1]
    opposite = differs.all(axis=1)
    pool = 1 + np.flatnonzero(differs[:n - q1].any(axis=1))
    strict_pool = 1 + np.flatnonzero(opposite[:n - q1])
    q2 = table.smallest_minimizer(pool) if pool.size else None
    q2_strict = table.smallest_minimizer(strict_pool) if strict_pool.size else None

    secondary = np.zeros(0, dtype=int)
    undercut: int | None = None
    if q2 is not None:
        ref2 = keys[q2 - 1] - tol
        secondary = n - q1 + 1 + np.flatnonzero(opposite[n - q1:]
                                                & (keys[n - q1:] < ref2))
        undercut = int(np.count_nonzero(keys[:q1 - 1] < ref2))

    return ApproximationProfile(
        m=table.points.shape[1],
        n=n,
        q1=q1,
        q1_length=table.length(q1),
        q1_perp=pool.tolist(),
        q2=q2,
        q2_length=table.length(q2) if q2 is not None else None,
        q2_strict=q2_strict,
        q2_strict_length=table.length(q2_strict) if q2_strict is not None else None,
        primary=[table.record(q) for q in primary.tolist()],
        secondary=[table.record(q) for q in secondary.tolist()],
        undercut=undercut,
        primary_distinct=table.distinct(primary),
        secondary_distinct=table.distinct(secondary),
    )


def profile_checks(profile: ApproximationProfile) -> list[tuple[str, int, int]]:
    """The counting checks that apply to a profile, as (name, value, bound):
    the primary count always, the distinct primary lengths on the 2-torus,
    the undercut count when q2 exists, and the distinct secondary lengths
    when there are secondary denominators."""
    m = profile.m
    checks = [("primary_count", len(profile.primary), primary_count_bound(m))]
    if m == 2:
        checks.append(("primary_distinct", profile.primary_distinct,
                       PRIMARY_DISTINCT_BOUND_2D))
    if profile.undercut is not None:
        checks.append(("undercut", profile.undercut, undercut_bound(m)))
    if profile.secondary:
        checks.append(("secondary_distinct", profile.secondary_distinct,
                       secondary_distinct_bound(m)))
    return checks

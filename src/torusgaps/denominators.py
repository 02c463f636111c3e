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

Each has a proof-supplied ceiling (``primary_count_bound`` etc.) that the
experiment harness checks empirically.

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
from enum import Enum
from fractions import Fraction

from .circle import fractional_part
from .numerics import (Real, ceil_sqrt, coerce_components, distinct_values,
                       kronecker_instance)

__all__ = [
    "ApproximationProfile",
    "DenominatorRecord",
    "TypeRelation",
    "approximation_profile",
    "classify",
    "find_primary",
    "find_q1",
    "find_q2",
    "find_secondary",
    "primary_count_bound",
    "secondary_distinct_bound",
    "undercut_bound",
    "undercut_count",
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


class TypeRelation(Enum):
    SAME = "same"
    OPPOSITE = "opposite"
    NEITHER = "neither"  # differs in some coordinates but not all


@dataclass(frozen=True)
class DenominatorRecord:
    """Integer q with its per-axis deviations {q a_r} - 1/2, sign vector,
    length, and (on the 2-torus) the angle of the deviation vector."""

    q: int
    deviations: tuple
    signs: str
    length: float
    sqlen: Real
    angle: float | None = None


def _flip(signs: str) -> str:
    return "".join("-" if c == "+" else "+" for c in signs)


def _signs_of(devs, exact: bool, epsilon: float) -> str:
    if exact:
        return "".join("+" if d >= 0 else "-" for d in devs)
    return "".join("+" if -epsilon <= d < 0.5 - epsilon else "-" for d in devs)


def _angle(devs) -> float | None:
    if len(devs) != 2:
        return None
    theta = math.atan2(float(devs[1]), float(devs[0]))
    return math.pi if theta == -math.pi else theta


def _record(q: int, comps, exact: bool, epsilon: float) -> DenominatorRecord:
    devs = []
    sq: Real = Fraction(0) if exact else 0.0
    for a in comps:
        f = fractional_part(q * a)
        norm = min(f, 1 - f)
        sq += norm * norm
        devs.append(f - Fraction(1, 2) if exact else f - 0.5)
    return DenominatorRecord(
        q=q,
        deviations=tuple(devs),
        signs=_signs_of(devs, exact, epsilon),
        length=math.sqrt(float(sq)),
        sqlen=sq,
        angle=_angle(devs),
    )


def classify(q: int, alphas, *, epsilon: float = 1e-9) -> DenominatorRecord:
    """Deviations, sign type, length and angle of a single denominator."""
    if q < 1:
        raise ValueError("q must be >= 1")
    comps, exact = coerce_components(alphas)
    return _record(q, comps, exact, epsilon)


def relation(q1: int, q2: int, alphas, *, epsilon: float = 1e-9) -> TypeRelation:
    """Compare the sign types of two denominators."""
    a = classify(q1, alphas, epsilon=epsilon).signs
    b = classify(q2, alphas, epsilon=epsilon).signs
    if a == b:
        return TypeRelation.SAME
    if b == _flip(a):
        return TypeRelation.OPPOSITE
    return TypeRelation.NEITHER


class _Table:
    """Per-q lengths, comparison keys and sign types for q = 1..n, read off
    the same ``Instance`` the tournament engines judge, so lengths agree
    across modules by construction.  Exact keys are the lattice integers
    L^2 l(q)^2, and {q a_r} - 1/2 >= 0 reads as 2 x >= L there."""

    def __init__(self, comps, exact: bool, n: int, epsilon: float):
        self.exact = exact
        self.epsilon = epsilon
        self.comps = comps
        inst = kronecker_instance(comps, exact, n)
        self.lengths = inst.lengths
        self.keys = inst.keys
        if exact:
            pos = 2 * inst.points >= inst.unit
        else:
            dev = inst.points - 0.5
            pos = (dev >= -epsilon) & (dev < 0.5 - epsilon)
        self.signs = ["".join("+" if p else "-" for p in row) for row in pos]

    def length(self, q: int) -> float:
        return self.lengths[q - 1]

    def key(self, q: int):
        """Comparison key: the exact lattice key, or the float length."""
        return self.keys[q - 1]

    def sign(self, q: int) -> str:
        return self.signs[q - 1]

    def strictly_below(self, q: int, ref_key) -> bool:
        if self.exact:
            return self.key(q) < ref_key
        return self.key(q) < ref_key - self.epsilon

    def smallest_minimizer(self, qs: list[int]) -> int:
        keys = [self.key(q) for q in qs]
        mn = min(keys)
        if self.exact:
            return min(q for q, k in zip(qs, keys) if k == mn)
        return min(q for q, k in zip(qs, keys) if k <= mn + self.epsilon)


def _prepared(alphas, n: int, epsilon: float, *qs: int) -> _Table:
    comps, exact = coerce_components(alphas)
    if n < 2:
        raise ValueError("n must be >= 2")
    for q in qs:
        if not 1 <= q <= n:
            raise ValueError(f"denominator {q} outside [1, n={n}]")
    return _Table(comps, exact, n, epsilon)


def find_q1(alphas, n: int, *, epsilon: float = 1e-9) -> tuple[int, float]:
    """Smallest q in [1, floor(n/2)] minimizing l(q), with its length."""
    table = _prepared(alphas, n, epsilon)
    half = n // 2
    q1 = table.smallest_minimizer(list(range(1, half + 1)))
    return q1, table.length(q1)


def find_primary(alphas, n: int, q1: int, *, epsilon: float = 1e-9) -> list[DenominatorRecord]:
    """All q in (floor(n/2), n] with l(q) strictly below l(q1)."""
    table = _prepared(alphas, n, epsilon, q1)
    ref = table.key(q1)
    found = [q for q in range(n // 2 + 1, n + 1) if table.strictly_below(q, ref)]
    return [_record(q, table.comps, table.exact, epsilon) for q in found]


def _perp_pool(table: _Table, n: int, q1: int, strict_opposite: bool) -> list[int]:
    base = table.sign(q1)
    flipped = _flip(base)
    pool = []
    for q in range(1, n - q1 + 1):
        s = table.sign(q)
        if (s == flipped) if strict_opposite else (s != base):
            pool.append(q)
    return pool


def find_q2(alphas, n: int, q1: int, *, epsilon: float = 1e-9,
            strict_opposite: bool = False) -> tuple[int, float] | None:
    """Smallest minimizer of l over the q <= n - q1 whose type differs from
    q1's (``strict_opposite=True`` restricts the pool to fully flipped
    types).  Returns None when the pool is empty."""
    table = _prepared(alphas, n, epsilon, q1)
    pool = _perp_pool(table, n, q1, strict_opposite)
    if not pool:
        return None
    q2 = table.smallest_minimizer(pool)
    return q2, table.length(q2)


def find_secondary(alphas, n: int, q1: int, q2: int, *,
                   epsilon: float = 1e-9) -> list[DenominatorRecord]:
    """All q in (n - q1, n] of type opposite to q1 with l(q) strictly below l(q2)."""
    table = _prepared(alphas, n, epsilon, q1, q2)
    flipped = _flip(table.sign(q1))
    ref = table.key(q2)
    found = [q for q in range(n - q1 + 1, n + 1)
             if table.sign(q) == flipped and table.strictly_below(q, ref)]
    return [_record(q, table.comps, table.exact, epsilon) for q in found]


def undercut_count(alphas, n: int, q1: int, q2: int, *, epsilon: float = 1e-9) -> int:
    """|{q : 1 <= q < q1, l(q) strictly below l(q2)}|."""
    table = _prepared(alphas, n, epsilon, q1, q2)
    ref = table.key(q2)
    return sum(1 for q in range(1, q1) if table.strictly_below(q, ref))


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


def approximation_profile(alphas, n: int, *, epsilon: float = 1e-9) -> ApproximationProfile:
    """One-pass extraction of q1, q2 (both pool variants), the primary and
    secondary denominators, their distinct-length counts, and the undercut
    count."""
    table = _prepared(alphas, n, epsilon)
    comps, exact = table.comps, table.exact
    m = len(comps)

    q1 = table.smallest_minimizer(list(range(1, n // 2 + 1)))
    ref1 = table.key(q1)
    primary_q = [q for q in range(n // 2 + 1, n + 1) if table.strictly_below(q, ref1)]
    primary = [_record(q, comps, exact, epsilon) for q in primary_q]

    pool = _perp_pool(table, n, q1, strict_opposite=False)
    strict_pool = _perp_pool(table, n, q1, strict_opposite=True)
    q2 = table.smallest_minimizer(pool) if pool else None
    q2_strict = table.smallest_minimizer(strict_pool) if strict_pool else None

    secondary: list[DenominatorRecord] = []
    undercut: int | None = None
    if q2 is not None:
        ref2 = table.key(q2)
        flipped = _flip(table.sign(q1))
        secondary_q = [q for q in range(n - q1 + 1, n + 1)
                       if table.sign(q) == flipped and table.strictly_below(q, ref2)]
        secondary = [_record(q, comps, exact, epsilon) for q in secondary_q]
        undercut = sum(1 for q in range(1, q1) if table.strictly_below(q, ref2))

    def distinct_count(records: list[DenominatorRecord]) -> int:
        if not records:
            return 0
        keys = [r.sqlen for r in records] if exact else [r.length for r in records]
        return len(distinct_values(keys, epsilon, exact))

    return ApproximationProfile(
        m=m,
        n=n,
        q1=q1,
        q1_length=table.length(q1),
        q1_perp=pool,
        q2=q2,
        q2_length=table.length(q2) if q2 is not None else None,
        q2_strict=q2_strict,
        q2_strict_length=table.length(q2_strict) if q2_strict is not None else None,
        primary=primary,
        secondary=secondary,
        undercut=undercut,
        primary_distinct=distinct_count(primary),
        secondary_distinct=distinct_count(secondary),
    )

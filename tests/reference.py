"""Slow reference readings that the tests compare the package against.

Each reads a definition literally, one scalar at a time, with scalar
arithmetic on the unit circle R/Z (``fractional_part``, ``circle_norm``,
``signed_deviation``): half-open geodesic arcs on the circle (``Arc``,
``ArcKind``, ``geodesic``), the defeat relation over every pair of edges
(``reference_survivors``), the approximation profile's definitions
(``exhaustive_profile``) and single-linkage clustering in Python
(``single_linkage``).  The scalar functions work on floats and on exact
rationals (``int``/``Fraction``) alike, exactly on the latter.  None of it
is used by the package itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational

from torusgaps.numerics import Real


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


def reference_survivors(alphas, n):
    """The defeat relation read literally on Fractions, with ``geodesic``
    arcs: an edge survives iff no edge of strictly smaller squared length
    overlaps it on some axis."""
    pts = [[fractional_part(k * a) for a in alphas] for k in range(1, n + 1)]
    sq = {q: sum(circle_norm(q * a) ** 2 for a in alphas) for q in range(1, n)}
    edges = [(j, k) for j in range(1, n) for k in range(j + 1, n + 1)]
    arcs = {(j, k): [geodesic(pj, pk) for pj, pk in zip(pts[j - 1], pts[k - 1])]
            for j, k in edges}
    return [e for e in edges
            if not any(sq[o[1] - o[0]] < sq[e[1] - e[0]]
                       and any(x.overlaps(y) for x, y in zip(arcs[e], arcs[o]))
                       for o in edges)]


def exhaustive_profile(alphas, n, eps=1e-9):
    """Independent oracle: the profile's definitions read straight off
    per-q scalar circle arithmetic (signs by ``signed_deviation`` with the
    same epsilon guards).  Floating lengths come from ``circle_norm`` and
    compare within eps; exact inputs (all Fractions) compare the squared
    ``circle_norm`` Fractions at tolerance 0."""
    exact = all(isinstance(a, Fraction) for a in alphas)
    eps = 0 if exact else eps
    key = {}
    for q in range(1, n + 1):
        sq = sum(circle_norm(q * a) ** 2 for a in alphas)
        key[q] = sq if exact else math.sqrt(sq)
    sign = {q: "".join("+" if -eps <= d < 0.5 - eps else "-"
                       for d in (signed_deviation(q * a) for a in alphas))
            for q in range(1, n + 1)}

    def smallest_minimizer(qs):
        best = min(key[q] for q in qs)
        return min(q for q in qs if key[q] <= best + eps)

    def flip(s):
        return s.translate(str.maketrans("+-", "-+"))

    q1 = smallest_minimizer(range(1, n // 2 + 1))
    primary = [q for q in range(n // 2 + 1, n + 1) if key[q] < key[q1] - eps]
    pool = [q for q in range(1, n - q1 + 1) if sign[q] != sign[q1]]
    strict_pool = [q for q in range(1, n - q1 + 1) if sign[q] == flip(sign[q1])]
    q2 = smallest_minimizer(pool) if pool else None
    q2_strict = smallest_minimizer(strict_pool) if strict_pool else None
    secondary, undercut = [], None
    if q2 is not None:
        secondary = [q for q in range(n - q1 + 1, n + 1)
                     if sign[q] == flip(sign[q1]) and key[q] < key[q2] - eps]
        undercut = sum(key[q] < key[q2] - eps for q in range(1, q1))
    length = math.sqrt(key[q1]) if exact else key[q1]
    return {"q1": q1, "q1_length": length, "primary": primary, "q1_perp": pool,
            "q2": q2, "q2_strict": q2_strict, "secondary": secondary,
            "undercut": undercut, "max_key": max(key.values())}


def three_gap_closed_form(alpha: Real, n: int) -> dict[Fraction, int]:
    """The n circular gaps of {k alpha}, k = 1..n, as {gap: multiplicity},
    from the explicit three distance theorem of P. Alessandri and
    V. Berthé ("Three distance theorems and combinatorics on words",
    Enseign. Math. 44, 1998).

    With q_k the convergent denominators of alpha and eta_k = |q_k alpha -
    p_k| (q_{-1} = 0, eta_{-1} = 1), take the k with q_k + q_{k-1} <= n <
    q_{k+1} + q_k and write n - q_{k-1} = r q_k + s, 0 <= s < q_k.  The
    gaps are then n - q_k of eta_k, s of eta_{k-1} - r eta_k and q_k - s of
    eta_{k-1} - (r - 1) eta_k.  Exact: a float is read as its dyadic value.
    The points must be distinct, so a rational's denominator must exceed n.
    """
    x = Fraction(alpha) % 1
    if x.denominator <= n:
        raise ValueError("the points of a rational with denominator <= n coincide")
    q_prev, q, eta_prev, eta = 0, 1, Fraction(1), x
    while True:
        a = eta_prev // eta  # the next partial quotient
        if n < a * q + q_prev + q:
            break
        q_prev, q, eta_prev, eta = q, a * q + q_prev, eta, eta_prev - a * eta
    r, s = divmod(n - q_prev, q)
    gaps: dict[Fraction, int] = {}
    for gap, count in ((eta, n - q), (eta_prev - r * eta, s),
                       (eta_prev - (r - 1) * eta, q - s)):
        if count:
            gaps[gap] = gaps.get(gap, 0) + count
    return gaps


def single_linkage(values: list, tol) -> list[list[int]]:
    """Single-linkage clusters of a list of values as lists of indices, in
    Python: sorted ascending with ties by index, and a new cluster wherever
    the step from the previous value exceeds ``tol``.  ``numerics.clusters``
    must give these groups."""
    order = sorted(range(len(values)), key=values.__getitem__)
    groups: list[list[int]] = [[order[0]]] if order else []
    for prev, cur in zip(order, order[1:]):
        if values[cur] - values[prev] > tol:
            groups.append([])
        groups[-1].append(cur)
    return groups

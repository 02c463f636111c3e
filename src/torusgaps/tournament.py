"""Undefeated-edge distance sets for Kronecker sequences on the m-torus.

The players are the edges of the complete graph on the points
({j a_1}, ..., {j a_m}), 1 <= j <= n.  An edge's length is the Euclidean
torus distance sqrt(sum_r ||q a_r||^2) with q = k - j, so it depends only
on the index difference q.  An edge is *defeated* when some strictly
shorter edge's projection overlaps its own on at least one coordinate
axis; the set S of lengths of undefeated edges stays below a
dimension-dependent ceiling (``survivor_bound``) no matter how large n is.

Two independent engines compute S:

* ``survivors_sweep`` processes edges in ascending length groups and tests
  each edge's per-axis arcs against the union of all strictly shorter
  arcs.  "Some shorter edge overlaps on some axis" distributes over the
  union, so one coverage structure per axis replaces all pairwise tests.
* ``survivors_brute`` applies the defeat relation pairwise and serves as
  the oracle for the sweep.  It lays out all edges in (group, q, j) order,
  so an edge's possible defeaters are the prefix below its group, and
  tests blocks of edges against chunks of that prefix, component pair by
  component pair; an edge stops at the first chunk that defeats it, so only
  the survivors scan their whole prefix.  No coverage structure and no
  order beyond the grouping: the relation read literally, in bounded tiles.

Both run vectorized over one ``numerics.Instance`` in either numeric
mode.  Floating mode works on float64 points in [0, 1).  Exact mode works
on the integer lattice Z/L (L the common denominator), with int64 arrays,
or object arrays of Python ints once L >= 2**62; there the arithmetic is
exact and every comparison literal.  The circle has length ``unit``
(1.0 or L) in both.

Edges whose lengths agree within the tolerance (exactly, in exact mode)
form one group and never defeat each other (the relation is strictly
"shorter beats longer"); a group's arcs enter the coverage only after the
whole group is judged.  In floating mode every arc part is shrunk by half
the tolerance at both ends, on the judged side and the opponent side
alike, so intersections of measure below the tolerance (floating-point
artefacts on rational inputs, where exact arithmetic gives empty arcs or
exact endpoint touches) never count as defeats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import EPSILON, Instance, ceil_sqrt, clusters, kronecker_instance

__all__ = [
    "SurvivorReport",
    "survivor_bound",
    "survivors_brute",
    "survivors_sweep",
]

# The default largest n of the brute-force oracle.
ORACLE_CAP = 200


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

def survivor_bound(m: int) -> int:
    """Ceiling on the number of distinct undefeated-edge lengths in dimension m.

    3 on the circle and 11 on the 2-torus; for m >= 3 the general counting
    argument gives ceil(sqrt(m))^m * (ceil(sqrt(2m))^m + 2^m + 1) + 2,
    which evaluates to 290 at m = 3.  The variant with ceil(sqrt(m)) in
    place of ceil(sqrt(2m)) inside the parenthesis gives 138 at m = 3.
    """
    if m < 1:
        raise ValueError("dimension must be >= 1")
    if m == 1:
        return 3
    if m == 2:
        return 11
    return ceil_sqrt(m) ** m * (ceil_sqrt(2 * m) ** m + 2 ** m + 1) + 2


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class SurvivorReport:
    """The undefeated-edge length set S with witnesses.

    ``distinct_lengths`` lists one representative per surviving length
    cluster, ascending and separated by more than the tolerance;
    ``witnesses`` pairs each representative with one surviving edge of that
    length.  ``survivors`` is the full undefeated edge list (sorted by
    (j, k)), with ``survivor_lengths`` aligned to it."""

    distinct_lengths: list[float]
    witnesses: list[tuple[float, tuple[int, int]]]
    survivor_count: int
    defeated_count: int
    mode: str
    survivors: list[tuple[int, int]] = field(repr=False)
    survivor_lengths: list[float] = field(repr=False)
    exact: bool = False

    @property
    def distinct_count(self) -> int:
        return len(self.distinct_lengths)


def _assemble_report(alive: list[tuple[int, float, int, int]], total_edges: int,
                     mode: str, exact: bool) -> SurvivorReport:
    """alive: (group_id, length, j, k) for each undefeated edge."""
    survivors = sorted((j, k) for _, _, j, k in alive)
    lengths_by_edge = {(j, k): ln for _, ln, j, k in alive}
    by_group: dict[int, list[tuple[float, int, int]]] = {}
    for gid, ln, j, k in alive:
        by_group.setdefault(gid, []).append((ln, j, k))
    distinct = []
    witnesses = []
    for gid in sorted(by_group):
        entries = by_group[gid]
        rep = min(ln for ln, _, _ in entries)
        wit = min((j, k) for ln, j, k in entries if ln == rep)
        distinct.append(rep)
        witnesses.append((rep, wit))
    return SurvivorReport(
        distinct_lengths=distinct,
        witnesses=witnesses,
        survivor_count=len(survivors),
        defeated_count=total_edges - len(survivors),
        mode=mode,
        survivors=survivors,
        survivor_lengths=[lengths_by_edge[e] for e in survivors],
        exact=exact,
    )


# ---------------------------------------------------------------------------
# Vectorized engines
# ---------------------------------------------------------------------------

class _FloatCoverage:
    """Disjoint sorted half-open intervals with batch queries and batch
    insert-with-merge, in the element type of the instance (float64, int64
    or object); merging touching intervals is exact as point sets."""

    __slots__ = ("starts", "ends")

    def __init__(self, dtype) -> None:
        self.starts = np.empty(0, dtype=dtype)
        self.ends = np.empty(0, dtype=dtype)

    def query(self, qs: np.ndarray, qe: np.ndarray) -> np.ndarray:
        if len(self.starts) == 0:
            return np.zeros(qs.shape, dtype=bool)
        i = np.searchsorted(self.starts, qs, side="right")
        k = len(self.starts)
        # Out-of-range neighbours (index -1, or k clipped to k - 1) are read
        # but masked out.
        hit = (self.ends[i - 1] > qs) & (i > 0)
        hit |= (self.starts[np.minimum(i, k - 1)] < qe) & (i < k)
        hit &= qs < qe  # queries that shrank to nothing never overlap
        return hit

    def insert_many(self, s: np.ndarray, e: np.ndarray) -> None:
        keep = s < e
        if not keep.any():
            return
        s = np.concatenate([self.starts, s[keep]])
        e = np.concatenate([self.ends, e[keep]])
        order = np.argsort(s, kind="stable")
        s, e = s[order], e[order]
        reach = np.maximum.accumulate(e)
        first = np.empty(len(s), dtype=bool)
        first[0] = True
        first[1:] = s[1:] > reach[:-1]
        starts_at = np.flatnonzero(first)
        last_of_run = np.append(starts_at[1:], len(s)) - 1
        self.starts = s[starts_at]
        self.ends = reach[last_of_run]


def _axis_components(pj: np.ndarray, pk: np.ndarray, unit, shrink):
    """Half-open components of the geodesics between paired points on a
    circle of length ``unit``, each shrunk by ``shrink`` at both ends.

    Elementwise: pj and pk have one shape, such as (cnt, m) for cnt edges
    on all m axes at once, and so do the returned (c1s, c1e, c2s, c2e), in
    the points' element type; components that are empty (or vanish under
    shrinking) carry the sentinel 2*unit, so they never register an
    overlap in vectorized comparisons."""
    # Scalars of the unit's own type keep np.where on its fast paths.
    zero, sent, top = 0 * unit, 2 * unit, unit - shrink
    if pj.dtype == object:  # two Python-int scalars would select int64
        top = np.asarray(top, dtype=object)
    # The arc wraps when 2 (hi - lo) > unit: hi - lo > 1/2 on floats, and
    # hi - lo > floor(L/2) on the lattice, where hi - lo is an integer.
    half = unit / 2 if isinstance(unit, float) else unit // 2
    lo = np.minimum(pj, pk)
    hi = np.maximum(pj, pk)
    wrap = (hi - lo) > half
    c1s = np.where(wrap, zero, lo) + shrink
    c1e = np.where(wrap, lo, hi) - shrink
    c2s = np.where(wrap, hi + shrink, sent)
    c2e = np.where(wrap, top, sent)
    bad1 = c1s >= c1e
    c1s = np.where(bad1, sent, c1s)
    c1e = np.where(bad1, sent, c1e)
    bad2 = c2s >= c2e
    c2s = np.where(bad2, sent, c2s)
    c2e = np.where(bad2, sent, c2e)
    return c1s, c1e, c2s, c2e


def _judging(inst: Instance, epsilon: float):
    """(points, n, unit, shrink, groups) of an instance's edges: exact
    instances group by equal keys and shrink nothing."""
    P = inst.points
    n = P.shape[0]
    tol, shrink = (0, 0) if inst.exact else (epsilon, epsilon / 2)
    return P, n, inst.unit, shrink, clusters(inst.keys[: n - 1].tolist(), tol)


def _sweep(inst: Instance, epsilon: float) -> SurvivorReport:
    """Each q's arcs are built once for all axes, as (2, n - q, m) starts and
    ends (component, edge, axis), and each axis takes one query for both
    components.  Once every edge of q is defeated, its remaining axes go
    unqueried; its arcs on all axes still enter the coverages with the
    group, so later groups meet the same coverages either way."""
    P, n, unit, shrink, groups = _judging(inst, epsilon)
    m = P.shape[1]
    coverages = [_FloatCoverage(P.dtype) for _ in range(m)]
    alive: list[tuple[int, float, int, int]] = []
    for gid, group in enumerate(groups):
        pending: list[tuple[np.ndarray, np.ndarray]] = []
        for qi in group:
            q = qi + 1
            cnt = n - q
            arcs = np.array(_axis_components(P[:cnt], P[q:], unit, shrink))
            starts, ends = arcs[0::2], arcs[1::2]
            pending.append((starts, ends))
            defeated = np.zeros(cnt, dtype=bool)
            for r, cov in enumerate(coverages):
                if r and defeated.all():
                    break  # settled; its arcs on every axis still go in below
                hit = cov.query(starts[..., r], ends[..., r])
                defeated |= hit[0] | hit[1]
            ln = float(inst.lengths[qi])
            for idx in np.flatnonzero(~defeated):
                alive.append((gid, ln, int(idx) + 1, int(idx) + 1 + q))
        for r, cov in enumerate(coverages):
            cov.insert_many(np.concatenate([s[..., r] for s, _ in pending], axis=None),
                            np.concatenate([e[..., r] for _, e in pending], axis=None))
    return _assemble_report(alive, n * (n - 1) // 2, "sweep", inst.exact)


# Tiling of the brute force.  Edges are judged _ROWS at a time against
# chunks of their prefix.  A defeated edge nearly always overlaps one of the
# first few edges of its prefix (the shortest), so the first chunk is _FIRST
# edges wide and each later one _GROW times wider, up to _TILE judged x
# prefix pairs: a tile's overlap matrix holds at most 2 * 2 * _TILE booleans.
_ROWS = 256
_TILE = 256 * 256
_FIRST = 16
_GROW = 4


def _brute(inst: Instance, epsilon: float) -> SurvivorReport:
    P, n, unit, shrink, groups = _judging(inst, epsilon)
    m = P.shape[1]
    # Edges ordered by (group, q, j), so an edge's potential defeaters (the
    # edges of strictly shorter groups) are the prefix below its group start.
    qi = np.array([q for group in groups for q in group])
    gid = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    cnt = n - 1 - qi
    j = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)  # 0-based
    qi, gid = np.repeat(qi, cnt), np.repeat(gid, cnt)
    k = j + qi + 1
    prefix = np.searchsorted(gid, gid)  # the index where its group starts
    starts, ends = [], []  # per axis: components as (2, edges)
    for r in range(m):
        c1s, c1e, c2s, c2e = _axis_components(P[j, r], P[k, r], unit, shrink)
        starts.append(np.stack([c1s, c2s]))
        ends.append(np.stack([c1e, c2e]))
    total = len(j)
    defeated = np.zeros(total, dtype=bool)
    for r0 in range(0, total, _ROWS):
        rows = np.arange(r0, min(r0 + _ROWS, total))
        rows = rows[prefix[rows] > 0]
        c0, w = 0, _FIRST
        while len(rows):
            # prefix is ascending, so the last row has the longest prefix.
            c1 = min(c0 + min(w, _TILE // len(rows)), int(prefix[rows[-1]]))
            w *= _GROW
            hit = np.zeros((len(rows), c1 - c0), dtype=bool)
            for r in range(m):
                # (2, 1, rows, 1) judged against (1, 2, 1, cols) opponent
                # components: the half-open overlap test on each of the 2x2
                # component pairs.  An empty component is [2*unit, 2*unit)
                # and never overlaps.
                a = starts[r][:, rows][:, None, :, None]
                b = ends[r][:, rows][:, None, :, None]
                os = starts[r][None, :, None, c0:c1]
                oe = ends[r][None, :, None, c0:c1]
                hit |= ((a < oe) & (os < b)).any(axis=(0, 1))
            hit &= np.arange(c0, c1) < prefix[rows, None]
            dead = hit.any(axis=1)
            defeated[rows[dead]] = True
            # Short-circuit: only rows still undefeated with prefix left
            # meet the next chunk.
            c0 = c1
            rows = rows[~dead & (prefix[rows] > c0)]
    alive = [(int(gid[e]), float(inst.lengths[qi[e]]), int(j[e]) + 1, int(k[e]) + 1)
             for e in np.flatnonzero(~defeated)]
    return _assemble_report(alive, total, "brute", inst.exact)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def survivors_sweep(alphas, n: int, *, epsilon: float = EPSILON) -> SurvivorReport:
    """Undefeated-edge length set via the grouped coverage sweep."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return _sweep(kronecker_instance(alphas, n), epsilon)


def survivors_brute(alphas, n: int, *, epsilon: float = EPSILON,
                    oracle_cap: int = ORACLE_CAP) -> SurvivorReport:
    """Undefeated-edge length set via the pairwise defeat relation.

    Edges are judged in tiles of bounded size against chunks of the edges
    of strictly shorter groups.  An edge drops out at the first chunk that
    defeats it, which is usually the first; only the survivors scan all
    shorter edges.  The work still grows with the square of the edge count
    for the survivors, so n is capped (default ``ORACLE_CAP``); raise the cap
    explicitly when you really want a bigger oracle run."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > oracle_cap:
        raise ValueError(f"n={n} exceeds the oracle cap {oracle_cap}")
    return _brute(kronecker_instance(alphas, n), epsilon)

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
  union, so one coverage of the axes replaces all pairwise tests.  Every
  arc part runs between two of a few values per point, so the coverage
  lives in rank space: each axis's part ends are sorted once, a part is a
  range of the cells between them, and the union is a set of cells.  The
  axes' cells are laid end to end in one rank space, so each q's edges
  are judged on every axis by one query and each group's arcs enter by
  one insert.
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
exact endpoint touches) never count as defeats.  Both engines read this
one rule: the brute force compares the shrunk parts in coordinates, the
sweep as ranges of cells whose ends are the shrunk part ends, which
decides the same comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (EPSILON, Instance, ceil_sqrt, clusters, edges_fit,
                       kronecker_instance, survivors_fit, too_large)

__all__ = [
    "SurvivorReport",
    "survivor_bound",
    "survivors_brute",
    "survivors_sweep",
]


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


def _assemble_report(inst: Instance, gid: np.ndarray, qi: np.ndarray, j: np.ndarray,
                     total_edges: int, mode: str) -> SurvivorReport:
    """The report of the undefeated edges, given as arrays of their tie
    group, q - 1 and 0-based j."""
    j = j + 1
    k = j + qi + 1
    lengths = inst.lengths[qi]
    order = np.lexsort((k, j))
    # Each group's representative is its shortest surviving length, and its
    # witness the smallest (j, k) at that length: the first edge of the
    # group in (length, j, k) order.
    by_group = np.lexsort((k, j, lengths, gid))
    first = by_group[np.flatnonzero(np.diff(gid[by_group], prepend=-1))]
    distinct = lengths[first].tolist()
    # One int object per point index, shared by every pair that names it,
    # so a kept report holds at most n + 1 ints, not two per survivor.
    index = np.arange(len(inst.points) + 1, dtype=object)
    survivors = list(zip(index[j[order]].tolist(), index[k[order]].tolist()))
    return SurvivorReport(
        distinct_lengths=distinct,
        witnesses=list(zip(distinct, zip(j[first].tolist(), k[first].tolist()))),
        survivor_count=len(survivors),
        defeated_count=total_edges - len(survivors),
        mode=mode,
        survivors=survivors,
        survivor_lengths=lengths[order].tolist(),
        exact=inst.exact,
    )


# ---------------------------------------------------------------------------
# Vectorized engines
# ---------------------------------------------------------------------------

class _Cells:
    """The coverage of all m axes, held in one rank space.

    Every arc part is shrunk by ``shrink`` at both ends (see the module
    notes), so on each axis it runs between two of the values x + shrink
    and x - shrink (x a point of the axis), shrink and unit - shrink.
    Sorted once per axis and deduplicated, these values cut each circle
    into cells of positive width, and a part is the range of cells between
    the ranks of its ends: two half-open parts intersect exactly when they
    share a cell, so rank space decides what the coordinates decide.  The
    axes' cells are laid end to end, axis r's ranks offset by the number of
    cells on the axes before it, so one ``covered`` and one ``prefix`` hold
    every axis.  On axis r only the cells in [``first[r]``, ``last[r]``),
    those in [shrink, unit - shrink), are *live*; no part reaches the
    others.  ``covered`` marks the cells of the arcs inserted so far,
    ``prefix`` counts them and ``total`` holds each axis's count, so a
    query is one prefix-sum difference.

    Arcs are (lo, hi, wrap) arrays whose rows are the axes, as ``_arcs``
    builds them.  A plain arc is the cells [lo, hi) (empty when hi = lo); a
    wrapped one is the live cells of its axis outside [lo, hi)."""

    __slots__ = ("covered", "prefix", "first", "last", "total")

    def __init__(self, cells: int, first: np.ndarray, last: np.ndarray) -> None:
        self.covered = np.zeros(cells, dtype=bool)
        self.prefix = np.zeros(cells + 1, dtype=np.int64)
        self.first, self.last = first, last
        self.total = np.zeros((len(first), 1), dtype=np.int64)

    def query(self, lo: np.ndarray, hi: np.ndarray, wrap: np.ndarray) -> np.ndarray:
        """Whether each arc holds a covered cell: a plain arc when it counts
        any, a wrapped one when it counts fewer than its whole axis."""
        inside = self.prefix[hi] - self.prefix[lo]
        return inside != np.where(wrap, self.total, 0)

    def insert(self, lo: np.ndarray, hi: np.ndarray, wrap: np.ndarray) -> None:
        """Cover the cells of all the arcs at once, through one difference
        array: +1 at the start of each range and -1 at its end.  A wrapped
        arc is the range [first, last) of its axis less [lo, hi), which
        leaves a depth <= 0 on the cells that are not live."""
        size = len(self.prefix)  # ranks run up to the cell count
        sign = np.where(wrap, -1, 1).ravel()
        depth = np.bincount(lo.ravel(), sign, size) - np.bincount(hi.ravel(), sign, size)
        wrapped = wrap.sum(axis=1)
        depth[self.first] += wrapped
        depth[self.last] -= wrapped
        self.covered |= np.cumsum(depth)[:-1] > 0
        np.cumsum(self.covered, out=self.prefix[1:])
        self.total = (self.prefix[self.last] - self.prefix[self.first])[:, None]


def _rank_space(X: np.ndarray, unit, shrink):
    """(S, E, cells) of the (axis, point) coordinates X: the ranks of
    x + shrink and x - shrink among the cell ends of each axis, offset by
    the cells of the axes before it, as two int64 arrays shaped like X, and
    the empty ``_Cells`` of all the axes."""
    m, n = X.shape
    S = np.empty((m, n), dtype=np.int64)
    E = np.empty((m, n), dtype=np.int64)
    first = np.empty(m, dtype=np.int64)
    last = np.empty(m, dtype=np.int64)
    rim = np.array([shrink, unit - shrink], dtype=X.dtype)
    cells = 0
    for r, x in enumerate(X):
        ends, rank = np.unique(np.concatenate([x + shrink, x - shrink, rim]),
                               return_inverse=True)
        rank += cells
        S[r], E[r] = rank[:n], rank[n:2 * n]
        first[r], last[r] = rank[-2], rank[-1]
        cells += len(ends) - 1
    return S, E, _Cells(cells, first, last)


def _arcs(X, S, E, j, k, unit):
    """(lo, hi, wrap) of the arcs between the points j and k (indices or
    slices along the last axis of X, S and E).  An arc wraps when it spans
    more than half the circle.  Ranks keep the order of the points, so the
    lower point's shrunk ends have the smaller ranks: a plain arc runs from
    the lower point's start to the upper one's end (hi = lo when those
    cross, an empty arc), and a wrapped arc leaves out [lower end, upper
    start)."""
    wrap = 2 * np.abs(X[..., j] - X[..., k]) > unit
    sj, sk, ej, ek = S[..., j], S[..., k], E[..., j], E[..., k]
    lo = np.where(wrap, np.minimum(ej, ek), np.minimum(sj, sk))
    hi = np.where(wrap, np.maximum(sj, sk), np.maximum(ej, ek))
    return lo, np.maximum(lo, hi), wrap


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
    """(points, n, unit, shrink, the clusters of q - 1 by key) of an
    instance's edges: exact instances group by equal keys and shrink nothing."""
    P = inst.points
    n = P.shape[0]
    tol, shrink = (0, 0) if inst.exact else (epsilon, epsilon / 2)
    return P, n, inst.unit, shrink, clusters(inst.keys[: n - 1], tol)


def _sweep(inst: Instance, epsilon: float) -> SurvivorReport:
    """Each q's arcs are built once for all axes, as (m, n - q) rank ranges
    (axis, edge), and take one query: an edge is defeated when its arc on
    some axis holds a covered cell.  Each tie group's arcs enter the
    coverage with one insert.  The survivors kept so far are checked
    against ``numerics.survivors_fit`` as they are found, so a report that
    would not fit in memory is refused before it is built."""
    P, n, unit, shrink, (order, starts) = _judging(inst, epsilon)
    X = np.ascontiguousarray(P.T)  # (axis, point)
    S, E, cells = _rank_space(X, unit, shrink)
    alive: list[tuple[int, int, np.ndarray]] = []  # (group, q - 1, 0-based j's)
    kept = 0
    for gid in range(len(starts) - 1):
        pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for qi in order[starts[gid]:starts[gid + 1]].tolist():
            q = qi + 1
            arcs = _arcs(X, S, E, slice(0, n - q), slice(q, n), unit)
            pending.append(arcs)
            undefeated = np.flatnonzero(~cells.query(*arcs).any(axis=0))
            if len(undefeated):
                alive.append((gid, qi, undefeated))
                kept += len(undefeated)
                if not survivors_fit(kept):
                    raise too_large(n, len(X), "survivors")
        if len(pending) > 1:  # a group of one q inserts the arcs it was judged on
            arcs = tuple(np.concatenate(part, axis=1) for part in zip(*pending))
        cells.insert(*arcs)
    gid, qi, js = zip(*alive)  # the shortest group is never defeated
    counts = [len(j) for j in js]
    return _assemble_report(inst, np.repeat(gid, counts), np.repeat(qi, counts),
                            np.concatenate(js), n * (n - 1) // 2, "sweep")


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
    P, n, unit, shrink, (qi, starts) = _judging(inst, epsilon)
    m = P.shape[1]
    # Edges ordered by (group, q, j), so an edge's potential defeaters (the
    # edges of strictly shorter groups) are the prefix below its group start.
    gid = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
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
    live = ~defeated
    return _assemble_report(inst, gid[live], qi[live], j[live], total, "brute")


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def survivors_sweep(alphas, n: int, *, epsilon: float = EPSILON) -> SurvivorReport:
    """Undefeated-edge length set via the grouped coverage sweep."""
    return _sweep(kronecker_instance(alphas, n), epsilon)


def survivors_brute(alphas, n: int, *, epsilon: float = EPSILON) -> SurvivorReport:
    """Undefeated-edge length set via the pairwise defeat relation.

    Edges are judged in tiles of bounded size against chunks of the edges
    of strictly shorter groups.  An edge drops out at the first chunk that
    defeats it, which is usually the first; only the survivors scan all
    shorter edges.  ``numerics.edges_fit`` bounds n before anything is
    allocated: memory, not time, which grows with the square of the edge
    count for the survivors (n = 800 peaks at 35, 55 and 64 MiB, m = 1, 2, 3).
    It bounds the report too: the survivors are some of the edges, and an
    edge is charged at least what ``numerics.survivors_fit`` charges a
    survivor, so the sweep's running check is not needed here."""
    if not edges_fit(n, len(alphas)):
        raise too_large(n, len(alphas), "brute-force edges")
    return _brute(kronecker_instance(alphas, n), epsilon)

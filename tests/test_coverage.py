"""The sweep's coverage in rank space (``_Cells``, ``_rank_space``,
``_arcs``), judged against a naive model that reads the defeat relation in
coordinates: every arc part shrunk by ``shrink`` at both ends, and two arcs
overlap when some pair of their shrunk half-open parts intersects.  The
model runs in each element type the engines use, on one axis and on
several axes held in one rank space."""

import random
from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from torusgaps.tournament import _arcs, _rank_space

# (dtype, scale, unit, shrink): points are integer grid coordinates c in
# [0, GRID) placed at c * scale on a circle of length unit.  "float" shrinks
# by half the default tolerance; "coarse" by 3/4 of a grid step, so any
# intersection up to 1.5 steps, even one made of several cells, never
# counts.  The lattice shrinks nothing; object arrays hold Python ints past
# int64.
GRID = 64
KINDS = {
    "float": (np.float64, 1 / GRID, 1.0, 5e-10),
    "coarse": (np.float64, 1 / GRID, 1.0, 0.75 / GRID),
    "int64": (np.int64, 1000, 1000 * GRID, 0),
    "object": (object, 2 ** 70, 2 ** 70 * GRID, 0),
}


class Axis:
    """The coverage of one axis, alone in its rank space, and the arcs
    between its points as (1, len(pairs)) arrays."""

    def __init__(self, x, unit, shrink):
        self.x, self.unit, self.shrink = x, unit, shrink
        self.S, self.E, self.cells = _rank_space(x[None, :], unit, shrink)

    def arcs(self, pairs):
        j = np.array([a for a, _ in pairs], dtype=np.int64)
        k = np.array([b for _, b in pairs], dtype=np.int64)
        return _arcs(self.x[None, :], self.S, self.E, j, k, self.unit)

    def query(self, pairs):
        return self.cells.query(*self.arcs(pairs))[0].tolist()

    def insert(self, pairs):
        self.cells.insert(*self.arcs(pairs))

    def covered_measure(self):
        """The summed width of the covered cells, exactly."""
        s = self.shrink
        ends = np.unique(np.concatenate([self.x + s, self.x - s, [s, self.unit - s]]))
        widths = [Fraction(b) - Fraction(a) for a, b in zip(ends.tolist(), ends[1:].tolist())]
        return sum(w for w, c in zip(widths, self.cells.covered.tolist()) if c)


def axis(coords, kind):
    dtype, scale, unit, shrink = KINDS[kind]
    return Axis(np.array([c * scale for c in coords], dtype=dtype), unit, shrink)


def naive_parts(x, y, unit, s):
    """The shrunk half-open parts of the geodesic arc between x and y: one
    for a plain arc, two for one that wraps through 0, none that vanish."""
    lo, hi = min(x, y), max(x, y)
    if 2 * (hi - lo) > unit:
        parts = [(0 + s, lo - s), (hi + s, unit - s)]
    else:
        parts = [(lo + s, hi - s)]
    return [(a, b) for a, b in parts if a < b]


class NaiveCoverage:
    def __init__(self, ax):
        self.xs, self.unit, self.s = ax.x.tolist(), ax.unit, ax.shrink
        self.parts = []

    def arc(self, j, k):
        return naive_parts(self.xs[j], self.xs[k], self.unit, self.s)

    def query(self, pairs):
        return [any(a < d and c < b for a, b in self.arc(j, k) for c, d in self.parts)
                for j, k in pairs]

    def insert(self, pairs):
        for j, k in pairs:
            self.parts += self.arc(j, k)

    def measure(self):
        """The exact measure of the union of the inserted parts."""
        total, reach = Fraction(0), None
        for a, b in sorted((Fraction(a), Fraction(b)) for a, b in self.parts):
            if reach is None or a > reach:
                total, reach = total + b - a, b
            elif b > reach:
                total, reach = total + b - reach, b
        return total


def check_against_naive(coords, batches, kind):
    ax = axis(coords, kind)
    naive = NaiveCoverage(ax)
    for batch in batches:
        pairs = [(j % len(coords), k % len(coords)) for j, k in batch]
        if not pairs:
            continue
        assert ax.query(pairs) == naive.query(pairs)
        ax.insert(pairs)
        naive.insert(pairs)
        assert ax.cells.prefix[-1] == np.count_nonzero(ax.cells.covered)
    # The covered cells measure what the union of the inserted parts does.
    assert ax.covered_measure() == naive.measure()


def test_randomized_against_naive_oracle():
    rng = random.Random(4821)
    for kind in KINDS:
        for _ in range(40):
            coords = [rng.randrange(GRID) for _ in range(rng.randrange(1, 30))]
            batches = [[(rng.randrange(30), rng.randrange(30))
                        for _ in range(rng.randrange(8))] for _ in range(6)]
            check_against_naive(coords, batches, kind)


pairs = st.tuples(st.integers(0, 39), st.integers(0, 39))


@given(st.lists(st.integers(0, GRID - 1), min_size=1, max_size=40),
       st.lists(st.lists(pairs, max_size=8), max_size=6),
       st.sampled_from(sorted(KINDS)))
def test_total_measure_matches_sorted_union(coords, batches, kind):
    # Coordinates drawn from a small grid repeat, so coincident points and
    # the empty arcs between them are common.
    check_against_naive(coords, batches, kind)


def test_insert_merges_touching_and_overlapping():
    # Points 0, 10, 20, 30, 50 on a circle of 64 grid steps.  Arcs that
    # touch, then overlap, cover [0, 30] less the shrink at the ends of each
    # piece: [0, 10] and [10, 20] only touch, so a gap of twice the shrink
    # stays open at 10, while [10, 30] merges with [10, 20].
    for kind in KINDS:
        ax = axis([0, 10, 20, 30, 50], kind)
        for pair in ((0, 1), (1, 2), (1, 3)):
            ax.insert([pair])
        _, c, _, s = KINDS[kind]
        f = Fraction
        assert ax.covered_measure() == f(10 * c - s) - f(s) + f(30 * c - s) - f(10 * c + s)
        assert ax.query([(0, 3), (3, 4), (4, 0)]) == [True, False, False]


def test_wrapped_and_plain_ranges():
    # Points 20, 2, 60, 30 on 64 grid steps.  The arc 60 -> 2 wraps through
    # 0; 20 -> 30 and 2 -> 30 do not.  2 -> 30 only touches the wrapped arc,
    # at 2, and holds 20 -> 30; 60 -> 20 wraps too and meets 60 -> 2 on both
    # sides of 0.
    for kind in KINDS:
        ax = axis([20, 2, 60, 30], kind)
        arcs = [(2, 1), (0, 3), (1, 3), (2, 0)]
        _, _, wrap = ax.arcs(arcs)
        assert wrap[0].tolist() == [True, False, False, True]
        ax.insert([(2, 1)])
        assert ax.query(arcs) == [True, False, False, True]
        ax.insert([(0, 3)])
        assert ax.query(arcs) == [True, True, True, True]


def test_half_open_touch_is_not_overlap():
    # Arcs that share only an end point share no cell, on both sides of a
    # plain arc and across the wrap.  Points 5, 20, 30, 45 on 64 steps.
    for kind in KINDS:
        ax = axis([5, 20, 30, 45], kind)
        ax.insert([(1, 2)])  # [20, 30]
        assert ax.query([(2, 3), (0, 1), (3, 0), (0, 2)]) == [False, False, False, True]
        ax.insert([(3, 0)])  # 45 -> 5 across 0
        assert ax.query([(2, 3), (0, 1), (0, 3)]) == [False, False, True]


def test_empty_inserts_and_queries_are_ignored():
    # An arc between coincident points is empty: it neither covers nor is
    # ever hit, even on a covered axis.
    for kind in KINDS:
        ax = axis([7, 30, 7, 30, 7], kind)
        ax.insert([(0, 2), (1, 3), (4, 0)])
        assert ax.cells.prefix[-1] == 0
        ax.insert([(0, 1)])
        assert ax.cells.prefix[-1] > 0
        assert ax.query([(0, 2), (1, 3), (2, 4), (0, 3)]) == [False, False, False, True]


def test_narrow_cells_count_only_as_a_whole():
    # Under the coarse shrink (3/4 step at each end) two arcs overlap when
    # their common stretch exceeds 1.5 steps, however many cells it spans.
    # Points 10..13 one step apart cut [10, 13] into narrow cells.
    ax = axis([10, 11, 12, 13, 40], "coarse")
    naive = NaiveCoverage(ax)
    ax.insert([(0, 2)])  # [10, 12]
    naive.insert([(0, 2)])
    # [11, 13] shares [11, 12] (1 step), [10, 13] shares [10, 12] (2 steps).
    assert ax.query([(1, 3), (0, 3)]) == naive.query([(1, 3), (0, 3)]) == [False, True]


def test_rational_axis_float_cells_never_count():
    # {k * 0.3}, k = 1..40, takes ten values, each four times up to
    # rounding: arcs between copies are float artefacts far below the
    # tolerance and never overlap anything, as on Z/10, where the copies
    # coincide.
    k = np.arange(1, 41)
    x = np.mod(k * 0.3, 1.0)
    assert 0 < np.sort(np.diff(np.sort(x)))[-10] <= 1e-12
    copies = [(i, i + 10) for i in range(30)]
    for ax in (Axis(x, 1.0, 5e-10), Axis(3 * k % 10, 10, 0)):
        ax.insert([(0, 1), (1, 2), (2, 3)])
        assert ax.cells.prefix[-1] > 0
        assert not any(ax.query(copies))
        ax.insert(copies)
        assert not any(ax.query(copies))


def test_works_with_fraction_endpoints():
    # A fraction x / 12 enters as its lattice residue on Z/L, L = 12 s:
    # int64 for small L, Python ints once L >= 2**62.
    for scale, dtype in ((1, np.int64), (2 ** 70, object)):
        x = np.array([4 * scale, 6 * scale, 8 * scale, 0], dtype=dtype)  # 1/3, 1/2, 2/3, 0
        ax = Axis(x, 12 * scale, 0)
        assert ax.S.dtype == ax.E.dtype == np.int64
        ax.insert([(0, 1)])  # [1/3, 1/2]
        assert ax.query([(0, 2), (1, 2), (3, 0)]) == [True, False, False]


def test_two_row_query_equals_the_row_queries():
    # Two axes in one rank space: each row of a (2, k) query reads its own
    # axis, offset past the first axis's cells, and answers what that axis
    # alone in its own rank space answers, from empty coverage on.
    rng = random.Random(1313)
    for kind in KINDS:
        dtype, scale, unit, shrink = KINDS[kind]
        alone = [axis([rng.randrange(GRID) for _ in range(25)], kind) for _ in range(2)]
        X = np.stack([ax.x for ax in alone])
        S, E, cells = _rank_space(X, unit, shrink)
        offset = len(alone[0].cells.covered)
        assert (S[1] - offset).tolist() == alone[1].S[0].tolist()
        assert (E[1] - offset).tolist() == alone[1].E[0].tolist()
        for _ in range(12):
            k = rng.randrange(12)
            j = np.array([rng.randrange(25) for _ in range(k)], dtype=np.int64)
            i = np.array([rng.randrange(25) for _ in range(k)], dtype=np.int64)
            arcs = _arcs(X, S, E, j, i, unit)
            assert arcs[0].shape == (2, k)
            got = cells.query(*arcs)
            assert got.shape == (2, k)
            assert got.tolist() == [ax.query(list(zip(j, i))) for ax in alone]
            cells.insert(*arcs)
            for ax in alone:
                ax.insert(list(zip(j, i)))
            assert cells.covered.tolist() == sum((ax.cells.covered.tolist() for ax in alone), [])

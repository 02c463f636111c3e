"""Gap spectra of one-dimensional Kronecker point sets.

``gap_spectrum`` sorts the fractional parts of the first n multiples of a
real number and reports the gaps between neighbours; the number of distinct
gap values never exceeds three.  ``chung_graham_gaps`` (several shifted
copies of one sequence, at most 3d distinct gaps) and
``geelen_simpson_gaps`` (sums of multiples of two numbers, at most n1 + 3)
build the classical generalisations' point sets so their bounds can be
checked empirically.

Two gap conventions exist.  The linear convention reads [0, 1) as a segment
and reports n + 1 gaps including the two boundary gaps at 0 and 1; the
circular convention closes the circle and reports n gaps, the last one
wrapping from the largest point back to the smallest.  Both are available
everywhere via ``circular=``; the defaults follow each construction's
natural reading (linear for the single-sequence spectrum, circular for the
generalisations, whose point sets contain 0).

Every point set is built in ``numerics``: ``gap_spectrum`` reads
``kronecker_points``, and the generalisations ``wrap`` integer
combinations of ``circle_steps``, after their point counts pass the size
rule.  Floating inputs give float64 points in [0, 1); exact inputs (ints
and Fractions) give exact integers on the lattice Z/L, which ``as_reals``
reads back as Fractions over L.  Stable sorting keeps ties in label order
in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (EPSILON, Real, as_reals, circle_steps, clusters,
                       coerce_components, kronecker_points, points_fit, tolerance,
                       too_large, wrap)

__all__ = ["GapSpectrum", "gap_spectrum", "chung_graham_gaps", "geelen_simpson_gaps"]

# The three distance theorem: {k a}, k = 1..n, has at most three distinct gaps.
THREE_GAP_BOUND = 3


@dataclass
class GapSpectrum:
    """Sorted circle points with their neighbour gaps.

    ``labels`` records which input generated each sorted point (the multiple
    k for a plain spectrum, an (i, k) or (k1, k2) pair for the merged
    constructions).  ``gaps`` keeps zero-length entries from coincident
    points; ``distinct_gaps`` is the clustered list of nonzero gap values.
    """

    points: list = field(repr=False)
    labels: list = field(repr=False)
    gaps: list
    distinct_gaps: list
    circular: bool
    exact: bool

    @property
    def distinct_count(self) -> int:
        return len(self.distinct_gaps)

    def gap_sum(self) -> Real:
        return sum(self.gaps)


def _assemble(points: np.ndarray, labels: list, epsilon: float,
              circular: bool, unit) -> GapSpectrum:
    """Sort the points (float64 in [0, 1), or lattice residues in [0, L))
    and take their neighbour gaps on the circle of length ``unit`` (1.0 or
    L); lattice results come back as Fractions over L."""
    exact = not isinstance(unit, float)
    order = np.argsort(points, kind="stable")
    pts = points[order]
    labs = [labels[i] for i in order]
    if circular:
        gaps = np.empty(len(pts), dtype=pts.dtype)
        gaps[:-1] = np.diff(pts)
        gaps[-1] = unit - pts[-1] + pts[0]
    else:
        gaps = np.empty(len(pts) + 1, dtype=pts.dtype)
        gaps[0] = pts[0]
        gaps[1:-1] = np.diff(pts)
        gaps[-1] = unit - pts[-1]
    tol = tolerance(epsilon, exact)
    order, starts = clusters(gaps, tol)
    distinct = gaps[order[starts[:-1]]]  # each cluster's minimum
    distinct = distinct[distinct > tol]
    return GapSpectrum(as_reals(pts, unit), labs, as_reals(gaps, unit),
                       as_reals(distinct, unit), circular, exact)


def gap_spectrum(alpha: Real, n: int, *, epsilon: float = EPSILON,
                 circular: bool = False) -> GapSpectrum:
    """Spectrum of {k*alpha}, k = 1..n.

    The default linear convention reports n + 1 gaps: the offset of the
    smallest point from 0, the n - 1 interior differences, and the headroom
    of the largest point below 1.
    """
    points, unit = kronecker_points(*coerce_components([alpha]), n)
    return _assemble(points[:, 0], list(range(1, n + 1)), epsilon, circular, unit)


def chung_graham_gaps(alpha: Real, lambdas: list, n_list: list[int], *,
                      epsilon: float = EPSILON, circular: bool = True) -> GapSpectrum:
    """Spectrum of the merged set {k*alpha + lambda_i}, 1 <= k <= n_i.

    The distinct gap count of d shifted copies stays below 3d; that check
    belongs to the verifier, not to this constructor.
    """
    if not lambdas:
        raise ValueError("lambdas must be nonempty")
    if len(lambdas) != len(n_list):
        raise ValueError("lambdas and n_list must have equal length")
    if any(n < 1 for n in n_list):
        raise ValueError("every n_i must be >= 1")
    total = sum(n_list)
    if not points_fit(total, 1):
        raise too_large(total, 1, "points")
    steps, unit = circle_steps(*coerce_components([alpha, *lambdas]))
    labels = [(i + 1, k) for i, n in enumerate(n_list) for k in range(1, n + 1)]
    points = wrap(np.concatenate([np.arange(1, n + 1) * steps[:1] + steps[i + 1]
                                  for i, n in enumerate(n_list)]), unit)
    return _assemble(points, labels, epsilon, circular, unit)


def geelen_simpson_gaps(alpha: Real, beta: Real, n1: int, n2: int, *,
                        epsilon: float = EPSILON, circular: bool = True) -> GapSpectrum:
    """Spectrum of {k1*alpha + k2*beta}, 0 <= k1 < n1, 0 <= k2 < n2.

    The distinct gap bound n1 + 3 is stated for the first multiplier; the
    construction is symmetric, so swapping the argument pairs gives the
    n2 + 3 variant.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("n1 and n2 must be >= 1")
    if not points_fit(n1 * n2, 1):
        raise too_large(n1 * n2, 1, "points")
    steps, unit = circle_steps(*coerce_components([alpha, beta]))
    labels = [(k1, k2) for k1 in range(n1) for k2 in range(n2)]
    grid = np.arange(n1)[:, None] * steps[:1] + np.arange(n2)[None, :] * steps[1:]
    return _assemble(wrap(grid, unit).ravel(), labels, epsilon, circular, unit)

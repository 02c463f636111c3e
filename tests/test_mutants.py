"""A catalogue of mutants: small faults planted in the engines' source, each
of which a named family of instances must catch (DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978).

A family is a function of a module that returns the instances on which the
module answers wrongly; on the package itself every family returns none.
A mutant is one family, the module it plants its fault in, one exact
snippet of that module's source, and the snippet's replacement.  It is
compiled from the mutated source into a fresh module of the package, so its
relative imports reach the real ``numerics``, and is registered in
``sys.modules`` while it executes, since dataclasses look their module up
there.  A fault planted in ``numerics`` reaches the family's module through
a fresh copy of that module, compiled while the mutated ``numerics`` stands
in for the real one in ``sys.modules``.

A snippet that no longer occurs exactly once fails its test: a refactor of
the engines updates the catalogue with them.  A mutant that its family does
not kill is a gap in the tests: add the instances that kill it, as
``HALF_COORDINATES`` and ``FLOATS_OF_RATIONALS`` were added, rather than
dropping it.  A mutant that changes no answer is listed in ``EQUIVALENT``
with the reason, and must pass every family of its module.
"""

import importlib
import io
import math
import random
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from reference import exhaustive_profile, reference_survivors
from test_tournament import (FLOATS_OF_RATIONALS, HALF_COORDINATES, LATTICE_CASES,
                             NEAR_DEGENERATE)


def _agree(a, b):
    return a.survivors == b.survivors and a.distinct_lengths == b.distinct_lengths


def _seeded_instances(seed, count, max_m, max_n):
    """Seeded (alphas, n) pairs, m cycling 1..max_m: uniform floats and
    rationals with denominators below 30, alternately."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        m, n = 1 + i % max_m, rng.randrange(2, max_n + 1)
        if i % 2:
            alphas = [rng.random() for _ in range(m)]
        else:
            alphas = [Fraction(rng.randrange(1, d), d)
                      for d in (rng.randrange(2, 30) for _ in range(m))]
        cases.append((alphas, n))
    return cases


def sweep_equals_brute(cases):
    def family(t):
        return [(a, n) for a, n in cases
                if not _agree(t.survivors_sweep(a, n), t.survivors_brute(a, n))]
    return family


def floats_keep_exact_survivors(t):
    """Floats of rationals: the float sweep keeps the exact sweep's edges."""
    return [(a, n) for a, n in FLOATS_OF_RATIONALS
            if t.survivors_sweep([float(x) for x in a], n).survivors
            != t.survivors_sweep(a, n).survivors]


def follow_reference(cases):
    """Both engines keep the edges the literal reference keeps."""
    def family(t):
        bad = []
        for a, n in cases:
            want = reference_survivors([Fraction(x) for x in a], n)
            swept, brute = t.survivors_sweep(a, n), t.survivors_brute(a, n)
            if not swept.survivors == brute.survivors == want:
                bad.append((a, n))
        return bad
    return family


# Rationals with small denominators (so ties, zero and half coordinates
# abound) and their floats, plus uniform floats; and two floats of rationals
# with a multiple that lands just below an integer (55 float(3/11) and
# 55 float(6/11)), so a point lies within epsilon below 1.
PROFILE_CASES = [(alphas, n) for exact, n in _seeded_instances(7, 30, 3, 60)
                 for alphas in (exact, [float(x) for x in exact])]
PROFILE_CASES += [([3 / 11], 56), ([6 / 11, 2 / 7], 113)]


def profile_follows_reference(d):
    """Every champion of the profile is the one ``exhaustive_profile`` reads
    off per-q scalar arithmetic."""
    bad = []
    for a, n in PROFILE_CASES:
        p, want = d.approximation_profile(a, n), exhaustive_profile(a, n)
        got = {"q1": p.q1, "primary": [r.q for r in p.primary], "q1_perp": p.q1_perp,
               "q2": p.q2, "q2_strict": p.q2_strict,
               "secondary": [r.q for r in p.secondary], "undercut": p.undercut}
        if any(want[k] != v for k, v in got.items()):
            bad.append((a, n))
    return bad


def points_on_the_circle(cases):
    """The circular spectrum's points lie in [0, 1)."""
    def family(g):
        return [(a, n) for a, n in cases
                if not all(0 <= x < 1 for x in g.gap_spectrum(a, n, circular=True).points)]
    return family


def bounds_met_exactly_pass(cli):
    """A command whose value equals its bound exits 0: the golden-ratio
    rotation at n = 30 has three gaps and three survivor lengths."""
    bad = []
    for argv in (["gaps", "0.618033", "30"], ["survivors", "0.618033", "30"]):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            if cli.main(argv) != 0:
                bad.append(argv)
    return bad


def engine_errors_are_counted(ex):
    """A generator the engines refuse is one counted error of the
    cross-check, as well as its witness."""
    alphas = [[math.nan], [0.3]]
    report = ex.cross_check(ex.ExperimentConfig(m=1, alpha_source=ex.Explicit(alphas),
                                                n_values=[5]))
    return [] if report.errors == len(report.mismatches) == 1 else alphas


# Each family with the module it reads.
FAMILIES = {
    "generic": ("tournament", sweep_equals_brute(_seeded_instances(15, 40, 3, 40))),
    "near_degenerate": ("tournament", sweep_equals_brute(NEAR_DEGENERATE[:5])),
    "floats_of_rationals": ("tournament", floats_keep_exact_survivors),
    "half_coordinates": ("tournament", follow_reference(HALF_COORDINATES)),
    "wide_lattices": ("tournament",
                      follow_reference([(a, 12) for a, _ in LATTICE_CASES.values()])),
    "profile_reference": ("denominators", profile_follows_reference),
    # -3e-17 mod 1 rounds to exactly 1.0.
    "circle_guard": ("gaps", points_on_the_circle([(-3e-17, 4)])),
    "bounds_met_exactly": ("cli", bounds_met_exactly_pass),
    "engine_errors": ("experiments", engine_errors_are_counted),
}

# name: (the family that must kill it, the module it is planted in, snippet,
# replacement).
MUTANTS = {
    # tournament._Cells.query: a wrapped arc compared with 0, not its axis total.
    "query_without_wrapped_totals": (
        "generic", "tournament",
        "return inside != np.where(wrap, self.total, 0)",
        "return inside != 0"),
    # tournament._Cells.insert: wrapped arcs not closed over their axis's live cells.
    "insert_without_first_last": (
        "generic", "tournament",
        "        depth[self.first] += wrapped\n        depth[self.last] -= wrapped\n",
        ""),
    # tournament._Cells.insert: an insert skipped unless every cell is new.
    "insert_skipped_unless_all_cells_are_new": (
        "generic", "tournament",
        "if not new.any():",
        "if not new.all():"),
    # tournament._Cells.insert: the newly covered cells never marked covered.
    "insert_without_marking_covered": (
        "generic", "tournament",
        "        self.covered |= new\n",
        ""),
    # tournament._sweep: each q inserted before the rest of its group is judged.
    "insert_each_q_before_its_group_is_judged": (
        "generic", "tournament",
        "            undefeated = np.flatnonzero(~cells.query(*arcs).any(axis=0))\n",
        "            undefeated = np.flatnonzero(~cells.query(*arcs).any(axis=0))\n"
        "            cells.insert(*arcs)\n"),
    # tournament._brute: the first edge of an edge's own group counted as a defeater.
    "brute_prefix_mask_le": (
        "generic", "tournament",
        "hit &= np.arange(c0, c1) < prefix[rows, None]",
        "hit &= np.arange(c0, c1) <= prefix[rows, None]"),
    # tournament._brute: closed instead of half-open overlap.
    "brute_closed_overlap": (
        "generic", "tournament",
        "hit |= ((a < oe) & (os < b)).any(axis=(0, 1))",
        "hit |= ((a <= oe) & (os <= b)).any(axis=(0, 1))"),
    # tournament._rank_space: the shrunk end x - shrink read as the start x + shrink.
    "end_ranks_are_start_ranks": (
        "near_degenerate", "tournament",
        "S[r], E[r] = rank[:n], rank[n:2 * n]",
        "S[r], E[r] = rank[:n], rank[:n]"),
    # tournament._arcs: a wrapped arc's lo taken from the shrunk starts.
    "wrapped_lo_from_starts": (
        "near_degenerate", "tournament",
        "lo = np.where(wrap, np.minimum(ej, ek), np.minimum(sj, sk))",
        "lo = np.where(wrap, np.minimum(sj, sk), np.minimum(sj, sk))"),
    # tournament._arcs: crossed shrunk ends kept as a reversed range.
    "reversed_ranges_kept": (
        "floats_of_rationals", "tournament",
        "return lo, np.maximum(lo, hi), wrap",
        "return lo, hi, wrap"),
    # tournament._arcs: the wrap test non-strict, so a half coordinate wraps.
    "wrap_at_half": (
        "half_coordinates", "tournament",
        "wrap = 2 * np.abs(X[..., j] - X[..., k]) > unit",
        "wrap = 2 * np.abs(X[..., j] - X[..., k]) >= unit"),
    # tournament._judging: an exact shrink of 0.0, which turns lattice residues
    # into floats (object arrays of Python ints into Python floats).
    "float_shrink_on_the_lattice": (
        "wide_lattices", "tournament",
        "shrink = tol / 2 if tol else tol",
        "shrink = tol / 2"),
    # denominators._Table: a deviation of exactly 0 read as '-'.
    "sign_of_zero_deviation": (
        "profile_reference", "denominators",
        "dev >= -2 * self.tol",
        "dev > -2 * self.tol"),
    # denominators._Table: a point within epsilon below 1 not read as 0.
    "sign_without_upper_guard": (
        "profile_reference", "denominators",
        "dev < inst.unit - 2 * self.tol",
        "dev < inst.unit"),
    # tournament._axis_components: the brute force's wrap test non-strict.
    "brute_wrap_at_half": (
        "half_coordinates", "tournament",
        "wrap = 2 * (hi - lo) > unit",
        "wrap = 2 * (hi - lo) >= unit"),
    # numerics.wrap: a float rounding to 1.0 left off the circle.
    "wrap_without_circle_guard": (
        "circle_guard", "numerics",
        "        f[f >= unit] = 0.0\n",
        ""),
    # numerics.clusters: equal lengths split, so equal edges defeat each other.
    "clusters_break_at_tolerance": (
        "half_coordinates", "numerics",
        "brk[1:-1] = ranked[1:] - ranked[:-1] > tol",
        "brk[1:-1] = ranked[1:] - ranked[:-1] >= tol"),
    # cli._bound_status: a value equal to its bound read as a violation.
    "bound_met_is_a_violation": (
        "bounds_met_exactly", "cli",
        "if row[1] > row[2]]",
        "if row[1] >= row[2]]"),
    # experiments._agreement: an engine error witnessed but not counted.
    "agreement_errors_uncounted": (
        "engine_errors", "experiments",
        "            report.errors += 1\n",
        ""),
}

# Mutants that no family can kill, because they change no answer: name:
# (the module, snippet, replacement, why the answers stay the same).
EQUIVALENT = {
    # tournament._Cells.insert: every cell the arcs cover counted as new.
    "insert_new_cells_not_masked": (
        "tournament",
        "        new &= ~self.covered\n",
        "",
        "only the skip is lost: an insert whose cells are all covered already "
        "rebuilds prefix and total from an unchanged covered"),
}


def _source(name: str) -> tuple[Path, str]:
    path = Path(importlib.import_module(f"torusgaps.{name}").__file__)
    return path, path.read_text(encoding="utf-8")


def _compiled(name: str, path: Path, source: str) -> types.ModuleType:
    module = types.ModuleType(f"torusgaps._mutant_{name}")
    module.__package__ = "torusgaps"
    sys.modules[module.__name__] = module
    try:
        exec(compile(source, str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def mutant(name: str, snippet: str, replacement: str,
           reader: str | None = None) -> types.ModuleType:
    """The package module ``name`` compiled from its source with ``snippet``
    (which must occur exactly once) replaced; or, given ``reader``, the
    package module ``reader`` compiled while that mutant stands in for
    ``name`` in ``sys.modules``."""
    path, source = _source(name)
    assert source.count(snippet) == 1, f"the catalogue's snippet is stale: {snippet!r}"
    module = _compiled(name, path, source.replace(snippet, replacement))
    if reader is None or reader == name:
        return module
    reader_path, reader_source = _source(reader)  # imported before the swap
    real = sys.modules[f"torusgaps.{name}"]
    sys.modules[real.__name__] = module
    try:
        return _compiled(reader, reader_path, reader_source)
    finally:
        sys.modules[real.__name__] = real


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_families_pass_on_the_package(family):
    name, check = FAMILIES[family]
    assert check(importlib.import_module(f"torusgaps.{name}")) == []


@pytest.mark.parametrize("mutation", sorted(MUTANTS))
def test_mutant_is_killed_by_its_family(mutation):
    family, planted_in, snippet, replacement = MUTANTS[mutation]
    name, check = FAMILIES[family]
    assert check(mutant(planted_in, snippet, replacement, name)), \
        f"{mutation} survives {family}"


@pytest.mark.parametrize("mutation", sorted(EQUIVALENT))
def test_equivalent_mutant_passes_every_family_of_its_module(mutation):
    planted_in, snippet, replacement, _ = EQUIVALENT[mutation]
    module = mutant(planted_in, snippet, replacement)
    for family, (name, check) in sorted(FAMILIES.items()):
        if name == planted_in:
            assert check(module) == [], family


def test_a_stale_snippet_fails():
    with pytest.raises(AssertionError, match="stale"):
        mutant("tournament", "no such line", "")

"""Benchmark workloads: seeded inputs, the timed package calls, and the checks.

Each workload is a closed loop with one client.  Its inputs are a list of
requests generated from the seed alone; the package sees only ``alphas`` and
``n``.  ``call`` is the timed part and goes through module attributes at call
time, so the tracer's wrappers see every call.  ``check`` runs untimed: it
raises ``CheckFailed`` on a wrong answer and otherwise returns the request's
integer outputs, which feed the run's digest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
from torusgaps import denominators, experiments, tournament

# Draws within this distance of a rational p/q with q <= n are redrawn:
# such instances sit on a floating-point degeneracy of the engines.
NEAR_RATIONAL = 1e-12
EPSILON = 1e-9  # the package's default comparison tolerance

QUADRATIC_IRRATIONALS = (
    math.sqrt(2.0) - 1.0,
    math.sqrt(3.0) - 1.0,
    (math.sqrt(5.0) - 1.0) / 2.0,
    math.sqrt(7.0) - 2.0,
)

# |S| ceilings from the paper, for m = 1, 2, 3.
SURVIVOR_BOUND = {1: 3, 2: 11, 3: 290}


class CheckFailed(Exception):
    """A request returned an answer that fails a correctness check."""


class Request(NamedTuple):
    m: int
    n: int
    alphas: list
    twin: list | None = None  # float twin of exact ``alphas``

    @property
    def edges(self) -> int:
        return self.n * (self.n - 1) // 2


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int  # mixed into the seed so workloads draw independent streams
    make: Callable[[np.random.Generator], list[Request]]
    call: Callable[[Request], object]
    check: Callable[[Request, object], list[int]]
    cycle: int  # requests per m-cycle; a run stops on a cycle boundary
    min_requests: int  # at least 11, so the tail percentile has 10 beyond it
    digest_prefix: int  # leading requests covered by the recorded digest

    def requests(self, seed: int) -> list[Request]:
        return self.make(np.random.default_rng([seed, self.tag]))


def _generic(rng: np.random.Generator, ns: list[int], m: int) -> list[list[float]]:
    """One uniform m-vector per n in ``ns``, redrawn while a component lies
    within NEAR_RATIONAL of a rational p/q with q <= n."""
    ns = np.asarray(ns)
    a = np.empty((len(ns), m))
    q = np.arange(1, ns.max() + 1)
    bad = np.ones(len(ns), dtype=bool)
    while bad.any():
        a[bad] = rng.random((int(bad.sum()), m))
        x = a[..., None] * q  # |a - p/q| < d  <=>  |a q - p| < q d
        near = (np.abs(x - np.rint(x)) < q * NEAR_RATIONAL) & (q <= ns[:, None, None])
        bad = near.any(axis=(1, 2))
    return a.tolist()


def _n_sequence(rng: np.random.Generator, lo: int, hi: int, blocks: int) -> list[int]:
    """Every n in [lo, hi] once per block, in seeded order: uniform n whose
    mix, unlike i.i.d. draws, is the same in every run."""
    return [int(n) for _ in range(blocks) for n in rng.permutation(np.arange(lo, hi + 1))]


def _survivor_items(report) -> list[int]:
    return [v for edge in report.survivors for v in edge] + [report.distinct_count]


def _same_lengths(a: list[float], b: list[float]) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= EPSILON for x, y in zip(a, b))


# trials_planar ------------------------------------------------------------

def _planar_make(rng):
    ns = _n_sequence(rng, 2, 300, 6)
    return [Request(2, n, a) for n, a in zip(ns, _generic(rng, ns, 2))]


def _planar_call(req):
    return experiments.run_trial(0, req.alphas, req.n)


def _planar_check(req, record):
    if record.error is not None:
        raise CheckFailed(f"run_trial error: {record.error}")
    if record.violations:
        raise CheckFailed(f"run_trial violations: {record.violations}")
    values = (record.survivor_count, record.distinct_count, record.q1, record.q2,
              record.primary_count, record.secondary_count, record.lemma2_count)
    return [req.n] + [-1 if v is None else v for v in values]


# large_n ------------------------------------------------------------------

LARGE_N = 3000


def _large_make(rng):
    cycles = 30
    combos = {m: list(itertools.combinations(QUADRATIC_IRRATIONALS, m)) for m in (1, 2, 3)}
    drawn = {m: _generic(rng, [LARGE_N] * (cycles // 2), m) for m in (1, 2, 3)}
    out = []
    for cycle in range(cycles):
        for m in (1, 2, 3):
            if cycle % 2 == 0:
                alphas = list(combos[m][int(rng.integers(len(combos[m])))])
            else:
                alphas = drawn[m][cycle // 2]
            out.append(Request(m, LARGE_N, alphas))
    return out


def _large_call(req):
    return tournament.survivors_sweep(req.alphas, req.n)


def _large_check(req, report):
    if report.survivor_count + report.defeated_count != req.edges:
        raise CheckFailed("survivor and defeated counts do not add up to the edges")
    if not 1 <= report.distinct_count <= SURVIVOR_BOUND[req.m]:
        raise CheckFailed(f"|S| = {report.distinct_count} outside [1, {SURVIVOR_BOUND[req.m]}]")
    return _survivor_items(report)


# exact_rational -----------------------------------------------------------

def _exact_make(rng):
    out = []
    for i, n in enumerate(_n_sequence(rng, 100, 150, 8)):
        m = 1 + i % 2
        dens = rng.integers(2, 2001, size=m)
        fracs = [Fraction(int(rng.integers(1, d)), int(d)) for d in dens]
        out.append(Request(m, n, fracs, [float(f) for f in fracs]))
    return out


def _exact_call(req):
    exact = tournament.survivors_sweep(req.alphas, req.n)
    profile = denominators.approximation_profile(req.alphas, req.n)
    floating = tournament.survivors_sweep(req.twin, req.n)
    return exact, profile, floating


def _exact_check(req, result):
    exact, profile, floating = result
    twin_profile = denominators.approximation_profile(req.twin, req.n)
    if exact.survivors != floating.survivors:
        raise CheckFailed("exact and float survivor edges differ")
    if exact.distinct_count != floating.distinct_count:
        raise CheckFailed("exact and float distinct counts differ")
    if (profile.q1, profile.q2) != (twin_profile.q1, twin_profile.q2):
        raise CheckFailed("exact and float q1/q2 differ")
    return _survivor_items(exact) + [profile.q1, -1 if profile.q2 is None else profile.q2]


# oracle_small -------------------------------------------------------------

def _oracle_make(rng):
    ns = {m: _n_sequence(rng, 2, 50, 24) for m in (1, 2, 3)}
    drawn = {m: _generic(rng, ns[m], m) for m in (1, 2, 3)}
    return [Request(m, ns[m][i], drawn[m][i])
            for i in range(len(ns[1])) for m in (1, 2, 3)]


def _oracle_call(req):
    swept = tournament.survivors_sweep(req.alphas, req.n)
    brute = tournament.survivors_brute(req.alphas, req.n)
    return swept, brute


def _oracle_check(req, result):
    swept, brute = result
    if swept.survivors != brute.survivors:
        raise CheckFailed("sweep and brute survivor edges differ")
    if not _same_lengths(swept.distinct_lengths, brute.distinct_lengths):
        raise CheckFailed("sweep and brute distinct lengths differ")
    return _survivor_items(swept)


WORKLOADS = {w.name: w for w in (
    Workload("trials_planar", 1, _planar_make, _planar_call, _planar_check,
             cycle=1, min_requests=40, digest_prefix=40),
    # Latency is trimodal in m here.  With 6 to 10 whole cycles, the median
    # and the 11th-largest latency both fall among the m=2 calls, so they do
    # not jump between modes from one run to the next.
    Workload("large_n", 2, _large_make, _large_call, _large_check,
             cycle=3, min_requests=18, digest_prefix=3),
    Workload("exact_rational", 3, _exact_make, _exact_call, _exact_check,
             cycle=2, min_requests=12, digest_prefix=4),
    Workload("oracle_small", 4, _oracle_make, _oracle_call, _oracle_check,
             cycle=3, min_requests=60, digest_prefix=60),
)}

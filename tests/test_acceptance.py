"""Acceptance suite: every shipped bound is exercised at full scale with
fixed seeds, one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from fractions import Fraction

from torusgaps.experiments import (
    verify_suite,
    _draw_alphas,
    _trial_rng,
)
from torusgaps.gaps import chung_graham_gaps, gap_spectrum, geelen_simpson_gaps
from torusgaps.tournament import survivor_bound

SEED = 20260810


def criterion(name: str, ok: bool, **info) -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if info:
        line += "   " + "  ".join(f"{k}={v}" for k, v in info.items())
    print(line)
    assert ok, line


def test_three_distance_bound_10k_trials():
    t0 = time.perf_counter()
    result = verify_suite("one_d", trials=10_000, seed=SEED, max_n=500)
    elapsed = time.perf_counter() - t0
    label, ok, info = result.checks[0]
    criterion("three-distance bound: 10,000 trials, n in [2,500], "
              "distinct gaps <= 3", ok and elapsed < 60.0,
              elapsed=f"{elapsed:.1f}s", **info)
    label, ok, info = result.checks[1]
    criterion("1D survivor bound: |S| <= 3 on the survivor subbatch", ok, **info)
    label, ok, info = result.checks[2]
    criterion("1D identity: S equals the circular gaps < 1/2 (a gap of 1/2 "
              "optional) on the survivor subbatch (200 trials, n <= 200)", ok, **info)


def test_eleven_distance_bound_1k_trials():
    result = verify_suite("planar", trials=1_000, seed=SEED + 1, max_n=300)
    label, ok, info = result.checks[0]
    criterion("eleven-distance bound: 1,000 trials, n in [2,300], |S| <= 11",
              ok, **info)
    print(f"      max observed |S| = {result.stats['max_distinct']} "
          "(conjectured true constant as small as 3; recorded, not asserted)")


def test_oracle_equivalence_200_trials_per_dimension():
    result = verify_suite("oracle", trials=200, seed=SEED + 2, max_n=120)
    for label, ok, info in result.checks:
        criterion(f"oracle equivalence: {label}", ok, **info)


def test_three_dimensional_bound_300_trials():
    result = verify_suite("higher", trials=300, seed=SEED + 8, max_n=120)
    label, ok, info = result.checks[0]
    criterion("general-dimension bound: 300 trials (m=3), |S| <= 290", ok, **info)


def test_bound_constants():
    criterion("survivor_bound(1) == 3", survivor_bound(1) == 3)
    criterion("survivor_bound(2) == 11", survivor_bound(2) == 11)
    criterion("survivor_bound(3) == 290", survivor_bound(3) == 290)


def test_lemma_suite():
    result = verify_suite("lemmas", trials=1_000, seed=SEED + 3, max_n=300)
    by_m = {label.split(":")[0]: (label, ok, info)
            for label, ok, info in result.checks}
    label, ok, info = by_m["m=2"]
    criterion("lemma suite m=2 (1,000 trials): primary distinct <= 5, "
              "undercut <= 1, secondary distinct <= 4", ok, **info)
    label, ok, info = by_m["m=3"]
    criterion("lemma suite m=3 (300 trials): primary count <= 64, "
              "undercut <= 27", ok, **info)
    label, ok, info = by_m["m=1"]
    criterion("lemma suite m=1: primary count <= 2", ok, **info)


def test_classical_verifiers_500_trials():
    result = verify_suite("classical", trials=500, seed=SEED + 4)
    label, ok, info = result.checks[0]
    criterion("shifted-copies bound: distinct gaps <= 3d, 500 trials, d <= 5",
              ok, **info)
    label, ok, info = result.checks[1]
    criterion("two-generator bound: distinct gaps <= n1+3 (and n2+3), "
              "500 trials, n1,n2 <= 40", ok, **info)


def test_exact_vs_floating_agreement_200_instances():
    result = verify_suite("dual_mode", trials=200, seed=SEED + 5, max_n=120,
                          epsilon=1e-9)
    (_, ok, info), = result.checks
    criterion("exactness: 200 rational instances (q <= 50, n <= 120), exact and "
              "floating modes give identical survivor sets and approximation "
              "profiles (q1, q2, q2_strict, q1_perp, primary and secondary with "
              "signs, undercut, distinct counts)",
              ok, **info)


def test_gap_conservation():
    worst = 0.0
    for i in range(300):
        rng = _trial_rng(SEED + 6, i)
        n = int(rng.integers(1, 300))
        (alpha,), _ = _draw_alphas(rng, 1, max(n, 2))
        kind = i % 3
        if kind == 0:
            spectrum = gap_spectrum(alpha, n)
        elif kind == 1:
            d = int(rng.integers(1, 5))
            spectrum = chung_graham_gaps(alpha, rng.random(d).tolist(),
                                         [int(x) for x in rng.integers(1, 40, d)])
        else:
            spectrum = geelen_simpson_gaps(alpha, float(rng.random()),
                                           int(rng.integers(1, 20)),
                                           int(rng.integers(1, 20)))
        worst = max(worst, abs(sum(spectrum.gaps) - 1.0))
    criterion("conservation: floating gap sums within 1e-12 of 1 "
              "(300 spectra, all three constructions)", worst <= 1e-12,
              worst=f"{worst:.2e}")

    exact_ok = True
    for i in range(60):
        rng = _trial_rng(SEED + 7, i)
        den = int(rng.integers(2, 60))
        num = int(rng.integers(1, den))
        n = int(rng.integers(1, 80))
        for circular in (False, True):
            s = gap_spectrum(Fraction(num, den), n, circular=circular)
            exact_ok &= (s.gap_sum() == 1)
    criterion("conservation: exact gap sums equal 1 exactly (120 spectra)",
              exact_ok)

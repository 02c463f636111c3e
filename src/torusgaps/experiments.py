"""Seeded, reproducible sweeps that stress every bound in the package.

A sweep is described by an :class:`ExperimentConfig` (loadable from JSON):
a dimension, a source of generator vectors, a list of n values, tolerances
and output sinks.  ``run_sweep`` computes the undefeated-edge report and
the full approximation profile for every trial, checks |S| and every row
of ``denominators.profile_checks`` against its ceiling, writes each
trial's CSV row as soon as it is made, and aggregates a
:class:`SweepSummary` that keeps no records, only counts and the first
``_WITNESSES`` failing trials, so its memory does not grow with the number
of trials.  ``cross_check`` runs the sweep engine against the brute-force
oracle on every trial and reports any disagreement verbatim.

The named verify suites are uniform-random configs (n uniform in
[2, max_n]) read through the same trial stream: ``planar``, ``higher`` and
the survivor half of ``one_d`` are ``run_sweep`` summaries, ``oracle`` is
one ``cross_check`` per dimension, and the gap half of ``one_d`` and
``lemmas`` iterate the config's trials directly.  ``classical`` and
``dual_mode`` (rationals, exact against float) draw their own instances.

Determinism: trial i draws from ``numpy.random.default_rng([seed, i])``,
so a config's seed fully fixes the trial stream and trials are
independent.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from fractions import Fraction
from functools import partial
from math import gcd
from typing import Iterator, Sequence

import numpy as np

from .denominators import (approximation_profile, primary_count_bound,
                           profile_checks, undercut_bound)
from .gaps import THREE_GAP_BOUND, chung_graham_gaps, gap_spectrum, geelen_simpson_gaps
from .numerics import (EPSILON, Real, coerce_components, edges_fit, points_fit,
                       tolerance, too_large, valid_epsilon)
from .tournament import survivor_bound, survivors_brute, survivors_sweep

__all__ = [
    "ConfigError",
    "CrossCheckReport",
    "ExperimentConfig",
    "OutputSpec",
    "SweepSummary",
    "TrialRecord",
    "VerifyResult",
    "cross_check",
    "load_config",
    "run_sweep",
    "verify_suite",
    "QUADRATIC_IRRATIONALS",
    "VERIFY_SUITES",
]

# Worst-case-like continued fractions; pairs and triples of these exercise
# extreme champion-denominator geometry.
QUADRATIC_IRRATIONALS: dict[str, float] = {
    "sqrt2": math.sqrt(2.0) - 1.0,
    "sqrt3": math.sqrt(3.0) - 1.0,
    "golden": (math.sqrt(5.0) - 1.0) / 2.0,
    "sqrt7": math.sqrt(7.0) - 2.0,
}

_RATIONAL_GUARD = 1e-12


class ConfigError(ValueError):
    """Raised for malformed experiment configs; lists the offending keys."""

    def __init__(self, message: str, offending: list[str] | None = None):
        self.offending = offending or []
        if self.offending:
            message = f"{message} (offending keys: {', '.join(self.offending)})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class UniformRandom:
    trials: int
    kind: str = "uniform_random"


@dataclass
class QuadraticIrrationals:
    catalog: list[str] = field(default_factory=lambda: list(QUADRATIC_IRRATIONALS))
    kind: str = "quadratic_irrationals"


@dataclass
class RationalGrid:
    max_denominator: int
    kind: str = "rational_grid"


@dataclass
class Explicit:
    alphas: list[list]
    kind: str = "explicit"


@dataclass
class OutputSpec:
    summary_json: str | None = None
    trials_csv: str | None = None


@dataclass
class ExperimentConfig:
    m: int
    alpha_source: UniformRandom | QuadraticIrrationals | RationalGrid | Explicit
    n_values: list[int]
    epsilon: float = EPSILON
    seed: int = 0
    output: OutputSpec = field(default_factory=OutputSpec)

    def to_dict(self) -> dict:
        return _num_to_json(asdict(self))


def _num_to_json(v):
    """v as the JSON and CSV outputs write it: a Fraction as str() writes it
    ("1/3", "0"), dicts, lists and tuples element by element."""
    if isinstance(v, dict):
        return {k: _num_to_json(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_num_to_json(x) for x in v]
    return str(v) if isinstance(v, Fraction) else v


def _is_number(v, kinds=(int, float)) -> bool:
    """v is a JSON number of one of ``kinds``.  JSON true and false load as
    bool, which is an int subclass, but they are not numbers."""
    return isinstance(v, kinds) and not isinstance(v, bool)


def _parse_component(v, key: str) -> Real:
    try:
        if isinstance(v, str):
            return Fraction(v)
        if _is_number(v):
            return v
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigError(f"unparseable generator component {v!r}", [key])


_SOURCES = {cls.kind: cls for cls in (UniformRandom, QuadraticIrrationals,
                                      RationalGrid, Explicit)}


def _keys(cls) -> set[str]:
    return {f.name for f in fields(cls)}  # a config object's keys are its fields


def _parse_source(d: dict, m: int):
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("alpha_source must be an object with a 'kind'",
                          ["alpha_source"])
    cls = _SOURCES.get(d["kind"]) if isinstance(d["kind"], str) else None
    if cls is None:
        raise ConfigError(f"unknown alpha_source kind {d['kind']!r}",
                          ["alpha_source.kind"])
    extra = set(d) - _keys(cls)
    if extra:
        raise ConfigError("unknown alpha_source keys",
                          [f"alpha_source.{k}" for k in sorted(extra)])
    if cls is UniformRandom:
        trials = d.get("trials")
        if not _is_number(trials, int) or trials < 1:
            raise ConfigError("uniform_random needs trials >= 1",
                              ["alpha_source.trials"])
        return UniformRandom(trials=trials)
    if cls is QuadraticIrrationals:
        catalog = d.get("catalog", list(QUADRATIC_IRRATIONALS))
        bad = not isinstance(catalog, list) or [
            c for c in catalog if not isinstance(c, str) or c not in QUADRATIC_IRRATIONALS]
        if bad or len(catalog) < m:
            raise ConfigError(
                f"catalog must pick at least m of {sorted(QUADRATIC_IRRATIONALS)}",
                ["alpha_source.catalog"])
        return QuadraticIrrationals(catalog=list(catalog))
    if cls is RationalGrid:
        md = d.get("max_denominator")
        # The enumeration lists the grid's fewer than md(md - 1)/2 fractions.
        if not _is_number(md, int) or md < 2 or not points_fit(md * (md - 1) // 2, 1):
            raise ConfigError("rational_grid needs 2 <= max_denominator within the "
                              "memory budget", ["alpha_source.max_denominator"])
        return RationalGrid(max_denominator=md)
    alphas = d.get("alphas")
    if not isinstance(alphas, list) or not alphas:
        raise ConfigError("explicit source needs a nonempty 'alphas' list",
                          ["alpha_source.alphas"])
    rows = []
    for i, row in enumerate(alphas):
        key = f"alpha_source.alphas[{i}]"
        if not isinstance(row, list) or len(row) != m:
            raise ConfigError(f"alphas[{i}] must be a list of m components", [key])
        rows.append([_parse_component(v, key) for v in row])
        try:  # the engines' own rule: NaN and infinite components are refused
            coerce_components(rows[-1])
        except (ValueError, OverflowError) as exc:
            raise ConfigError(str(exc), [key]) from exc
    return Explicit(alphas=rows)


def config_from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    extra = sorted(set(d) - _keys(ExperimentConfig))
    if extra:
        raise ConfigError("unknown config keys", extra)
    missing = sorted(f.name for f in fields(ExperimentConfig) if f.name not in d
                     and f.default is MISSING and f.default_factory is MISSING)
    if missing:
        raise ConfigError("missing required config keys", missing)
    offending = []
    m = d["m"]
    if not _is_number(m, int) or m < 1:
        offending.append("m")
    n_values, size_m = d["n_values"], 1 if offending else m  # m = 1 when m is bad
    if (not isinstance(n_values, list) or not n_values
            or not all(_is_number(n, int) and n >= 2 and points_fit(n, size_m)
                       for n in n_values)):
        offending.append("n_values")
    epsilon = d.get("epsilon", ExperimentConfig.epsilon)
    if not _is_number(epsilon) or not valid_epsilon(epsilon):
        offending.append("epsilon")
    seed = d.get("seed", ExperimentConfig.seed)
    if not _is_number(seed, int) or seed < 0:
        offending.append("seed")
    out = d.get("output", {})
    if not isinstance(out, dict) or set(out) - _keys(OutputSpec):
        offending.append("output")
    if offending:
        raise ConfigError("invalid config values", offending)
    return ExperimentConfig(
        m=m,
        alpha_source=_parse_source(d["alpha_source"], m),
        n_values=list(n_values),
        epsilon=float(epsilon),
        seed=seed,
        output=OutputSpec(**out),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# Trial enumeration
# ---------------------------------------------------------------------------

def _near_rational(x: float, max_denominator: int) -> bool:
    approx = Fraction(x).limit_denominator(max(1, max_denominator))
    return abs(x - approx) < _RATIONAL_GUARD


def _draw_alphas(rng: np.random.Generator, m: int, n: int) -> tuple[list[float], int]:
    """Uniform components, redrawn while any is near a rational with
    denominator <= n (floating-degeneracy guard)."""
    rejected = 0
    while True:
        comps = [float(x) for x in rng.random(m)]
        if all(not _near_rational(c, n) for c in comps):
            return comps, rejected
        rejected += 1
        if rejected > 1000:
            raise RuntimeError("degeneracy guard rejected 1000 consecutive draws")


def _trial_rng(seed: int, trial_id: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial_id])


def _enumerate_trials(config: ExperimentConfig) -> Iterator[tuple[int, list, int, int]]:
    """Yields (trial_id, alphas, n, rejected_draws)."""
    src = config.alpha_source
    if isinstance(src, UniformRandom):
        for i in range(src.trials):
            rng = _trial_rng(config.seed, i)
            n = int(config.n_values[rng.integers(len(config.n_values))])
            alphas, rejected = _draw_alphas(rng, config.m, n)
            yield i, alphas, n, rejected
        return
    if isinstance(src, QuadraticIrrationals):
        values = [QUADRATIC_IRRATIONALS[name] for name in src.catalog]
        tuples = list(itertools.combinations(values, config.m))
    elif isinstance(src, RationalGrid):
        fracs = [Fraction(p, q) for q in range(2, src.max_denominator + 1)
                 for p in range(1, q) if gcd(p, q) == 1]
        tuples = itertools.product(fracs, repeat=config.m)
    else:
        tuples = [tuple(row) for row in src.alphas]
    i = 0
    for alphas in tuples:
        for n in config.n_values:
            yield i, list(alphas), n, 0
            i += 1


# ---------------------------------------------------------------------------
# Trial records and summary
# ---------------------------------------------------------------------------

@dataclass
class TrialRecord:
    trial_id: int
    m: int
    n: int
    alphas: list
    survivor_count: int | None = None
    distinct_count: int | None = None
    max_length: float | None = None
    q1: int | None = None
    q2: int | None = None
    primary_count: int | None = None
    secondary_count: int | None = None
    lemma2_count: int | None = None
    distinct_lengths: list = field(default_factory=list)
    primary_distinct: int | None = None
    secondary_distinct: int | None = None
    violations: list[str] = field(default_factory=list)
    error: str | None = None

    def to_json_dict(self) -> dict:
        return _num_to_json(asdict(self))

    def csv_row(self) -> list:
        """Every field in order: alphas over m cells, other lists joined by ";"."""
        row = []
        for name, v in self.to_json_dict().items():
            if name == "alphas":
                row += v
            else:
                row.append(";".join(map(str, v)) if isinstance(v, list)
                           else "" if v is None else v)
        return row


def csv_header(m: int) -> list[str]:
    """The columns of ``TrialRecord.csv_row`` at m axes."""
    return [col for f in fields(TrialRecord)
            for col in ([f"alpha_{i}" for i in range(1, m + 1)]
                        if f.name == "alphas" else [f.name])]


# The failing trials (violating or errored) a summary keeps in full; the
# rest are only counted.
_WITNESSES = 20


@dataclass
class SweepSummary:
    config: dict
    trials: int = 0
    max_distinct: int = 0
    distinct_histogram: dict[int, int] = field(default_factory=dict)
    violations: dict[str, int] = field(default_factory=dict)
    violation_witnesses: list[dict] = field(default_factory=list)
    rejected_draws: int = 0
    errors: int = 0
    sink_errors: list[str] = field(default_factory=list)

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())

    @property
    def status(self) -> str:
        return "FAILED" if (self.total_violations or self.errors) else "PASSED"

    def add(self, record: TrialRecord, rejected: int = 0) -> TrialRecord:
        self.trials += 1
        self.rejected_draws += rejected
        if record.error is not None:
            self.errors += 1
        else:
            k = record.distinct_count
            self.distinct_histogram[k] = self.distinct_histogram.get(k, 0) + 1
            self.max_distinct = max(self.max_distinct, k)
            for v in record.violations:
                self.violations[v] = self.violations.get(v, 0) + 1
        if (record.error or record.violations) and len(self.violation_witnesses) < _WITNESSES:
            self.violation_witnesses.append(record.to_json_dict())
        return record

    def to_json_dict(self) -> dict:
        d = _num_to_json(asdict(self))
        d["distinct_histogram"] = {str(k): v for k, v in self.distinct_histogram.items()}
        d["status"] = self.status
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# Running sweeps
# ---------------------------------------------------------------------------

def _gap_match(values: Sequence[float], targets: Sequence[float], tol: float) -> bool:
    return all(any(abs(v - t) <= tol for t in targets) for v in values)


def run_trial(trial_id: int, alphas: list, n: int, *,
              epsilon: float = EPSILON) -> TrialRecord:
    """Survivors, approximation profile, and bound checks for one instance."""
    m = len(alphas)
    record = TrialRecord(trial_id=trial_id, m=m, n=n, alphas=list(alphas))
    try:
        report = survivors_sweep(alphas, n, epsilon=epsilon)
        profile = approximation_profile(alphas, n, epsilon=epsilon)
    except Exception as exc:  # recorded, never swallowed
        record.error = f"{type(exc).__name__}: {exc}"
        return record
    record.survivor_count = report.survivor_count
    record.distinct_count = report.distinct_count
    record.distinct_lengths = list(report.distinct_lengths)
    record.max_length = max(report.distinct_lengths)
    record.q1 = profile.q1
    record.q2 = profile.q2
    record.primary_count = len(profile.primary)
    record.secondary_count = len(profile.secondary)
    record.lemma2_count = profile.undercut
    record.primary_distinct = profile.primary_distinct
    record.secondary_distinct = profile.secondary_distinct
    checks = ([("survivor_bound", record.distinct_count, survivor_bound(m))]
              + profile_checks(profile))
    record.violations = [name for name, value, bound in checks if value > bound]

    if m == 1:
        # On the circle S is exactly the set of nearest-neighbour gaps of
        # the circular spectrum below 1/2 (zero gaps included: coincident
        # points give zero-length edges, which always survive).  A gap of
        # exactly 1/2 may be in S or not: its edge has two geodesics, and
        # the wrap rule judges the one that misses 0, which may hold points.
        tol = max(epsilon, 1e-12)
        gaps = gap_spectrum(alphas[0], n, epsilon=epsilon, circular=True).gaps
        up_to_half = [g for g in gaps if g <= 0.5 + tol]
        below_half = [g for g in gaps if g < 0.5 - tol]
        if not (_gap_match(report.distinct_lengths, up_to_half, tol)
                and _gap_match(below_half, report.distinct_lengths, tol)):
            record.violations.append("gap_identity")
    return record


def run_sweep(config: ExperimentConfig) -> SweepSummary:
    """Run every trial of a config into its summary, writing each trial's
    CSV row as it is made and the summary JSON at the end.  A sink that
    fails is a ``sink_errors`` entry; the trials and the other sink run on."""
    summary = SweepSummary(config=config.to_dict())
    records = (summary.add(run_trial(i, alphas, n, epsilon=config.epsilon), rejected)
               for i, alphas, n, rejected in _enumerate_trials(config))
    out = config.output
    if out.trials_csv:
        try:
            with open(out.trials_csv, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(csv_header(config.m))
                writer.writerows(r.csv_row() for r in records)
        except OSError as exc:
            summary.sink_errors.append(f"trials_csv: {exc}")
    for _ in records:  # the trials no CSV sink took
        pass
    if out.summary_json:
        try:
            with open(out.summary_json, "w", encoding="utf-8") as fh:
                fh.write(summary.to_json())
        except OSError as exc:
            summary.sink_errors.append(f"summary_json: {exc}")
    return summary


# ---------------------------------------------------------------------------
# Oracle cross-check
# ---------------------------------------------------------------------------

@dataclass
class CrossCheckReport:
    """Disagreements between two computations that must agree, one witness
    per disagreeing or failing trial: sweep against brute force
    (``cross_check``) or exact against floating mode (suite ``dual_mode``)."""

    trials: int = 0
    mismatches: list[dict] = field(default_factory=list)
    errors: int = 0

    @property
    def passed(self) -> bool:
        return not self.mismatches and not self.errors


def _reports_agree(a, b, tol: float = 1e-12) -> bool:
    """The one survivor-agreement rule: equal edges, distinct lengths within tol."""
    return (a.survivors == b.survivors
            and a.distinct_count == b.distinct_count
            and all(abs(x - y) <= tol for x, y in
                    zip(a.distinct_lengths, b.distinct_lengths)))


def _agreement(trials, disagreement) -> CrossCheckReport:
    """Count ``trials`` (tuples that begin trial_id, alphas, n) and record each
    witness dict ``disagreement(alphas, n)`` returns, or the error it raises."""
    report = CrossCheckReport()
    for trial_id, alphas, n, *_ in trials:
        report.trials += 1
        try:
            witness = disagreement(alphas, n)
        except Exception as exc:  # recorded, never swallowed
            report.errors += 1
            witness = {"error": f"{type(exc).__name__}: {exc}"}
        if witness is not None:
            report.mismatches.append({"trial_id": trial_id,
                                      "alphas": _num_to_json(alphas), "n": n, **witness})
    return report


def cross_check(config: ExperimentConfig) -> CrossCheckReport:
    """Run sweep and brute-force oracle on every trial; any disagreement is
    reported with the full instance."""
    for n in config.n_values:
        if not edges_fit(n, config.m):
            raise ConfigError(f"n={n} is too large for the brute force at m={config.m}",
                              ["n_values"])

    def disagreement(alphas, n):
        swept = survivors_sweep(alphas, n, epsilon=config.epsilon)
        brute = survivors_brute(alphas, n, epsilon=config.epsilon)
        if not _reports_agree(swept, brute):
            return {"sweep_survivors": swept.survivors, "brute_survivors": brute.survivors,
                    "sweep_lengths": swept.distinct_lengths,
                    "brute_lengths": brute.distinct_lengths}

    return _agreement(_enumerate_trials(config), disagreement)


# ---------------------------------------------------------------------------
# Named verification suites (shared by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------

@dataclass
class VerifyResult:
    suite: str
    checks: list[tuple[str, bool, dict]] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def check(self, label: str, ok: bool, **info) -> None:
        self.checks.append((label, bool(ok), info))

    def agreement(self, label: str, report: CrossCheckReport) -> None:
        """A cross-check as one check, naming its errors and first witness once it fails."""
        info = {} if report.passed else {"errors": report.errors,
                                         "witness": report.mismatches[0]}
        self.check(label, report.passed,
                   mismatches=len(report.mismatches) - report.errors, **info)


def _uniform_config(m: int, trials: int, seed: int, max_n: int,
                    epsilon: float) -> ExperimentConfig:
    """A suite's trial stream: ``trials`` uniform draws, n uniform in [2, max_n],
    checked against the size rule before the n list is built."""
    if not points_fit(max_n, m):
        raise too_large(max_n, m, "points")
    return ExperimentConfig(m=m, alpha_source=UniformRandom(trials),
                            n_values=list(range(2, max_n + 1)), epsilon=epsilon,
                            seed=seed)


def _suite_one_d(trials: int, seed: int, epsilon: float, max_n: int) -> VerifyResult:
    res = VerifyResult("one_d")
    worst = 0
    violations = 0
    for _, (alpha,), n, _ in _enumerate_trials(_uniform_config(1, trials, seed, max_n,
                                                                epsilon)):
        spectrum = gap_spectrum(alpha, n, epsilon=epsilon)
        worst = max(worst, spectrum.distinct_count)
        if spectrum.distinct_count > THREE_GAP_BOUND:
            violations += 1
    res.check(f"three-gap bound over {trials} trials", violations == 0,
              max_distinct=worst, violations=violations)
    res.stats["max_distinct_gaps"] = worst

    surv_trials = min(200, trials)
    summary = run_sweep(_uniform_config(1, surv_trials, seed + 1, min(max_n, 200),
                                        epsilon))
    mismatches = summary.violations.get("gap_identity", 0)
    # A gap_identity violation fails the identity check, not the bound.
    res.check(f"1D survivor bound over {surv_trials} trials",
              not summary.errors and summary.total_violations == mismatches,
              max_distinct=summary.max_distinct)
    res.check(f"1D S == circular gaps < 1/2 (a gap of 1/2 optional) "
              f"over {surv_trials} trials",
              mismatches == 0, mismatches=mismatches)
    res.stats["max_distinct_survivors"] = summary.max_distinct
    return res


def _survivor_suite(name: str, m: int, trials: int, seed: int, epsilon: float,
                    max_n: int) -> VerifyResult:
    res = VerifyResult(name)
    bound = survivor_bound(m)
    summary = run_sweep(_uniform_config(m, trials, seed, max_n, epsilon))
    res.check(f"|S| <= {bound} over {trials} trials (m={m})",
              summary.status == "PASSED", max_distinct=summary.max_distinct,
              violations=summary.total_violations, errors=summary.errors)
    res.stats["max_distinct"] = summary.max_distinct
    res.stats["bound"] = bound
    return res


def _suite_lemmas(trials: int, seed: int, epsilon: float, max_n: int) -> VerifyResult:
    res = VerifyResult("lemmas")
    plan = [(1, max(1, trials // 10)), (2, trials), (3, max(1, (3 * trials) // 10))]
    # Largest m first: its size rule is the strictest, checked before any trial.
    configs = {m: _uniform_config(m, count, seed + m, max_n, epsilon)
               for m, count in reversed(plan)}
    for m, count in plan:
        worst = dict.fromkeys(("primary_count", "primary_distinct", "undercut",
                               "secondary_distinct"), 0)
        bad: dict[str, int] = {}
        for _, alphas, n, _ in _enumerate_trials(configs[m]):
            profile = approximation_profile(alphas, n, epsilon=epsilon)
            for name, value, bound in profile_checks(profile):
                worst[name] = max(worst[name], value)
                if value > bound:
                    bad[name] = bad.get(name, 0) + 1
        res.check(
            f"m={m}: primary count <= {primary_count_bound(m)}, "
            f"undercut <= {undercut_bound(m)} over {count} trials",
            not bad,
            worst_primary=worst["primary_count"],
            worst_undercut=worst["undercut"],
            worst_primary_distinct=worst["primary_distinct"],
            worst_secondary_distinct=worst["secondary_distinct"],
            violations=bad,
        )
    return res


def _suite_classical(trials: int, seed: int, epsilon: float) -> VerifyResult:
    res = VerifyResult("classical")
    cg_bad = 0
    cg_worst = 0
    for i in range(trials):
        rng = _trial_rng(seed, i)
        d = int(rng.integers(1, 6))
        n_list = [int(x) for x in rng.integers(1, 51, size=d)]
        alphas, _ = _draw_alphas(rng, 1, max(n_list))
        lambdas = [float(x) for x in rng.random(d)]
        spectrum = chung_graham_gaps(alphas[0], lambdas, n_list, epsilon=epsilon)
        cg_worst = max(cg_worst, spectrum.distinct_count - 3 * d)
        if spectrum.distinct_count > 3 * d:
            cg_bad += 1
    res.check(f"shifted-copies gap bound 3d over {trials} trials (d <= 5)",
              cg_bad == 0, violations=cg_bad, worst_margin=cg_worst)

    gs_bad = 0
    for i in range(trials):
        rng = _trial_rng(seed + 1, i)
        n1 = int(rng.integers(1, 41))
        n2 = int(rng.integers(1, 41))
        (alpha, beta), _ = _draw_alphas(rng, 2, max(n1 * n2, 2))
        spectrum = geelen_simpson_gaps(alpha, beta, n1, n2, epsilon=epsilon)
        if spectrum.distinct_count > n1 + 3 or spectrum.distinct_count > n2 + 3:
            gs_bad += 1
    res.check(f"two-generator gap bound min(n1,n2)+3 over {trials} trials "
              "(n1,n2 <= 40)", gs_bad == 0, violations=gs_bad)
    return res


def _suite_oracle(trials: int, seed: int, epsilon: float, max_n: int) -> VerifyResult:
    res = VerifyResult("oracle")
    # Largest m first: its size rules are the strictest, checked before any trial.
    reports = {m: cross_check(_uniform_config(m, trials, seed + m, max_n, epsilon))
               for m in (3, 2, 1)}
    for m in (1, 2, 3):
        res.agreement(f"sweep == brute on {trials} trials (m={m}, n <= {max_n})",
                      reports[m])
    return res


def _profile_outcome(p) -> dict:
    """The mode-independent part of an approximation profile: every
    denominator it selects (with its sign type) and every count."""
    return {
        "q1": p.q1,
        "q2": p.q2,
        "q2_strict": p.q2_strict,
        "q1_perp": p.q1_perp,
        "primary": [(r.q, r.signs) for r in p.primary],
        "secondary": [(r.q, r.signs) for r in p.secondary],
        "undercut": p.undercut,
        "primary_distinct": p.primary_distinct,
        "secondary_distinct": p.secondary_distinct,
    }


def _suite_dual_mode(trials: int, seed: int, epsilon: float, max_n: int) -> VerifyResult:
    """Rationals (m <= 2, denominators <= 50, n uniform in [5, max_n]) run
    in exact mode and as floats must give the same survivor edge set, the
    same distinct lengths, and the same approximation profile: q1, both q2
    variants, the q1_perp pool, the primary and secondary denominators with
    their signs, the undercut count and both distinct-length counts."""
    if max_n < 5:
        raise ValueError(f"max_n must be >= 5, got {max_n}")
    if not points_fit(max_n, 2):
        raise too_large(max_n, 2, "points")
    max_denominator = 50

    def draws():
        for i in range(trials):
            rng = _trial_rng(seed, i)
            m = 1 + int(rng.integers(2))
            n = int(rng.integers(5, max_n + 1))
            fracs = []
            for _ in range(m):
                den = int(rng.integers(2, max_denominator + 1))
                num = int(rng.integers(1, den))
                fracs.append(Fraction(num, den))
            yield i, fracs, n

    def disagreement(fracs, n):
        floats = [float(f) for f in fracs]
        exact_rep = survivors_sweep(fracs, n)
        float_rep = survivors_sweep(floats, n, epsilon=epsilon)
        prof_e = _profile_outcome(approximation_profile(fracs, n))
        prof_f = _profile_outcome(approximation_profile(floats, n, epsilon=epsilon))
        if not (_reports_agree(exact_rep, float_rep, 1e-9) and prof_e == prof_f):
            return {"exact_survivors": exact_rep.survivors,
                    "float_survivors": float_rep.survivors,
                    "exact_profile": prof_e, "float_profile": prof_f}

    res = VerifyResult("dual_mode")
    res.agreement(f"exact == float on {trials} rational trials (q <= {max_denominator}, "
                  f"n <= {max_n})", _agreement(draws(), disagreement))
    return res


# name: (run(trials, seed, epsilon[, max_n]), default trials, default max_n).
# A max_n of None marks a suite that draws its own n and refuses one.
_SUITES = {
    "one_d": (_suite_one_d, 10_000, 500),
    "planar": (partial(_survivor_suite, "planar", 2), 1_000, 300),
    "higher": (partial(_survivor_suite, "higher", 3), 300, 120),
    "lemmas": (_suite_lemmas, 1_000, 300),
    "classical": (_suite_classical, 500, None),
    "oracle": (_suite_oracle, 200, 120),
    "dual_mode": (_suite_dual_mode, 200, 40),
}

VERIFY_SUITES = tuple(_SUITES)


def verify_suite(name: str, *, trials: int | None = None, seed: int = 0,
                 max_n: int | None = None, epsilon: float = EPSILON) -> VerifyResult:
    """Run one named verification suite at the given scale."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; pick one of {', '.join(VERIFY_SUITES)}")
    run, d_trials, d_max_n = _SUITES[name]
    if max_n is not None and d_max_n is None:
        raise ValueError(f"suite {name!r} draws its own n and takes no max_n")
    trials = d_trials if trials is None else trials
    max_n = d_max_n if max_n is None else max_n  # None for a suite that draws its own n
    for key, value, least in (("max_n", max_n, 2), ("trials", trials, 1),
                              ("seed", seed, 0)):
        if value is not None and value < least:
            raise ValueError(f"{key} must be >= {least}, got {value}")
    # The engines refuse a bad epsilon too, but one trial at a time: checked
    # here, it is one usage error before any trial runs.
    tolerance(epsilon, exact=False)
    return run(trials, seed, epsilon) if max_n is None else run(trials, seed, epsilon, max_n)

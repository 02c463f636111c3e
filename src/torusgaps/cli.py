"""Command-line surface: gap spectra, survivor sets, denominator tables,
verification suites, and config-driven sweeps.

Exit codes follow one contract in every command and format: 0 all good,
1 usage, config or file error, 2 a checked bound was violated or the two
engines disagreed.  gaps, survivors and denominators write one
``BOUND VIOLATION`` line on stderr per violated bound.

Generator components parse as decimal reals or exact fractions ``p/q``;
when every component is a fraction the computation runs in exact rational
arithmetic.  ``--exact`` forces exact mode, reading decimal literals as
exact decimals.  Mixing fractions and decimals falls back to floating mode
with a warning.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .denominators import _profile, _Table, profile_checks
from .experiments import (
    VERIFY_SUITES,
    ConfigError,
    _num_to_json,
    _reports_agree,
    load_config,
    run_sweep,
    verify_suite,
)
from .gaps import THREE_GAP_BOUND, gap_spectrum
from .numerics import EPSILON, Real, kronecker_instance, valid_epsilon
from .svgplot import render_survivors_svg
from .tournament import survivor_bound, survivors_brute, survivors_sweep

USAGE_ERROR = 1
VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1 (argparse default is 2)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n{self.format_usage()}")


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------

def parse_real(text: str, exact: bool = False) -> Real:
    t = text.strip()
    try:
        if exact or "/" in t:
            return Fraction(t)
        return float(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse real number {text!r}: {exc}") from exc


def parse_alphas(text: str, exact: bool = False) -> list[Real]:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("empty generator vector")
    values = [parse_real(s, exact) for s in items]
    kinds = {isinstance(v, Fraction) for v in values}
    if kinds == {True, False}:
        print("warning: mixed fraction and decimal components; "
              "using floating mode", file=sys.stderr)
        values = [float(v) for v in values]
    return values


def fmt_real(v) -> str:
    """A float to 12 significant digits; an int or Fraction as str() writes
    it, so an integer-valued Fraction reads as the integer ("0", not "0/1")."""
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def _emit_json(payload: dict) -> None:
    print(json.dumps(_num_to_json(payload), sort_keys=True))


def _emit_csv(header: list[str], rows: list[list]) -> None:
    import csv as _csv

    writer = _csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)


def _bound_status(checks) -> int:
    """Exit code of (check, value, bound) rows: one stderr line per value
    above its bound, and VIOLATION if there is any."""
    failed = [row for row in checks if row[1] > row[2]]
    for check, value, bound in failed:
        print(f"BOUND VIOLATION: {check}: {value} > {bound}", file=sys.stderr)
    return VIOLATION if failed else 0


# ---------------------------------------------------------------------------
# gaps
# ---------------------------------------------------------------------------

def cmd_gaps(args) -> int:
    alpha = parse_real(args.alpha, args.exact)
    spectrum = gap_spectrum(alpha, args.n, epsilon=args.epsilon,
                            circular=args.circular)
    if args.format == "json":
        _emit_json({
            "alpha": alpha,
            "n": args.n,
            "circular": spectrum.circular,
            "exact": spectrum.exact,
            "points": spectrum.points,
            "labels": spectrum.labels,
            "gaps": spectrum.gaps,
            "distinct_gaps": spectrum.distinct_gaps,
            "distinct_count": spectrum.distinct_count,
        })
    elif args.format == "csv":
        pts = spectrum.points
        if spectrum.circular:
            bounds = list(zip(pts, pts[1:] + pts[:1]))
        else:
            bounds = [(0, pts[0])] + list(zip(pts, pts[1:])) + [(pts[-1], 1)]
        rows = [[i, fmt_real(a), fmt_real(b), fmt_real(g)]
                for i, ((a, b), g) in enumerate(zip(bounds, spectrum.gaps))]
        _emit_csv(["index", "from_point", "to_point", "gap"], rows)
    else:
        mode = "circular" if spectrum.circular else "linear"
        print(f"alpha = {fmt_real(alpha)}   n = {args.n}   "
              f"({'exact' if spectrum.exact else 'floating'}, {mode} gaps)")
        print("points :", " ".join(fmt_real(p) for p in spectrum.points))
        print("gaps   :", " ".join(fmt_real(g) for g in spectrum.gaps))
        print("distinct gap values:",
              " ".join(fmt_real(g) for g in spectrum.distinct_gaps),
              f"(count {spectrum.distinct_count})")
    return _bound_status([("distinct gaps", spectrum.distinct_count, THREE_GAP_BOUND)])


# ---------------------------------------------------------------------------
# survivors
# ---------------------------------------------------------------------------

def _survivor_payload(report, alphas, n: int) -> dict:
    return {
        "alphas": alphas,
        "n": n,
        "m": len(alphas),
        "mode": report.mode,
        "exact": report.exact,
        "distinct_lengths": report.distinct_lengths,
        "distinct_count": report.distinct_count,
        "witnesses": [{"length": ln, "edge": list(e)} for ln, e in report.witnesses],
        "survivor_count": report.survivor_count,
        "defeated_count": report.defeated_count,
        "bound": survivor_bound(len(alphas)),
    }


def _print_survivors(report, alphas, n: int) -> None:
    m = len(alphas)
    print(f"alphas = ({', '.join(fmt_real(a) for a in alphas)})   n = {n}   "
          f"mode = {report.mode}   ({'exact' if report.exact else 'floating'})")
    print(f"undefeated edges: {report.survivor_count}   "
          f"defeated: {report.defeated_count}")
    print(f"distinct survivor lengths: {report.distinct_count} "
          f"(bound {survivor_bound(m)})")
    for ln, (j, k) in report.witnesses:
        print(f"  {ln:.12g}   witness edge ({j}, {k})")


def cmd_survivors(args) -> int:
    alphas = parse_alphas(args.alphas, args.exact)
    if args.svg and len(alphas) != 2:
        raise ValueError("--svg requires exactly two generator components (m = 2)")
    reports = []
    if args.mode in ("sweep", "both"):
        reports.append(survivors_sweep(alphas, args.n, epsilon=args.epsilon))
    if args.mode in ("brute", "both"):
        reports.append(survivors_brute(alphas, args.n, epsilon=args.epsilon))
    agree = len(reports) == 1 or _reports_agree(*reports)
    if args.format == "json":
        payload = _survivor_payload(reports[0], alphas, args.n)
        if len(reports) == 2:
            payload["brute"] = _survivor_payload(reports[1], alphas, args.n)
            payload["modes_agree"] = agree
        _emit_json(payload)
    elif args.format == "csv":
        rows = [[r.mode, i, f"{ln:.17g}", j, k]
                for r in reports
                for i, (ln, (j, k)) in enumerate(r.witnesses)]
        _emit_csv(["mode", "index", "length", "witness_j", "witness_k"], rows)
    else:
        for r in reports:
            _print_survivors(r, alphas, args.n)
    if not agree:
        print("ENGINE MISMATCH: sweep and brute disagree", file=sys.stderr)
        return VIOLATION
    if len(reports) == 2 and args.format == "table":
        print("sweep and brute agree")
    if args.svg:
        render_survivors_svg(alphas, args.n, reports[0], args.svg)
        if args.format == "table":
            print(f"wrote {args.svg}")
    return _bound_status([(f"{r.mode} distinct survivor lengths", r.distinct_count,
                           survivor_bound(len(alphas))) for r in reports])


# ---------------------------------------------------------------------------
# denominators
# ---------------------------------------------------------------------------

_TABLE_ROWS_SHOWN = 40
_CHECK_LABELS = {
    "primary_count": "primary count",
    "primary_distinct": "primary distinct lengths",
    "undercut": "undercut count (lemma2_count)",
    "secondary_distinct": "secondary distinct lengths",
}


def cmd_denominators(args) -> int:
    alphas = parse_alphas(args.alphas, args.exact)
    m = len(alphas)
    # One table serves the profile and every printed row.
    table = _Table(kronecker_instance(alphas, args.n), args.epsilon)
    profile = _profile(table)
    checks = [(_CHECK_LABELS[name], value, bound)
              for name, value, bound in profile_checks(profile)]

    if args.format == "json":
        _emit_json({
            "alphas": alphas,
            "n": args.n,
            "m": m,
            "q1": profile.q1,
            "q1_length": profile.q1_length,
            "q1_perp": profile.q1_perp,
            "q2": profile.q2,
            "q2_length": profile.q2_length,
            "q2_strict_opposite": profile.q2_strict,
            "primary": [r.q for r in profile.primary],
            "secondary": [r.q for r in profile.secondary],
            "lemma2_count": profile.undercut,
            "primary_distinct": profile.primary_distinct,
            "secondary_distinct": profile.secondary_distinct,
            "checks": [
                {"name": name, "value": value, "bound": bound, "ok": value <= bound}
                for name, value, bound in checks
            ],
            "passed": all(value <= bound for _, value, bound in checks),
        })
    elif args.format == "csv":
        roles = {}
        roles[profile.q1] = "q1"
        if profile.q2 is not None:
            roles[profile.q2] = roles.get(profile.q2, "") + "q2"
        for r in profile.primary:
            roles[r.q] = (roles.get(r.q, "") + "+primary").lstrip("+")
        for r in profile.secondary:
            roles[r.q] = (roles.get(r.q, "") + "+secondary").lstrip("+")
        rows = []
        for q in range(1, args.n + 1):
            rec = table.record(q)
            rows.append([q]
                        + [fmt_real(d) for d in rec.deviations]
                        + [rec.signs, f"{rec.length:.17g}",
                           "" if rec.angle is None else f"{rec.angle:.17g}",
                           roles.get(q, "")])
        _emit_csv(["q"] + [f"dev_{i}" for i in range(1, m + 1)]
                  + ["type", "length", "angle", "role"], rows)
    else:
        print(f"alphas = ({', '.join(fmt_real(a) for a in alphas)})   n = {args.n}")
        shown = min(args.n, _TABLE_ROWS_SHOWN)
        print(f"{'q':>4}  {'type':<{m + 2}}  {'length':<18}  deviations")
        for q in range(1, shown + 1):
            rec = table.record(q)
            devs = ", ".join(fmt_real(d) for d in rec.deviations)
            print(f"{q:>4}  {rec.signs:<{m + 2}}  {rec.length:<18.12g}  ({devs})")
        if shown < args.n:
            print(f"  ... ({args.n - shown} more rows; use --format csv for all)")
        print(f"Q1 = {profile.q1}   l(Q1) = {profile.q1_length:.12g}")
        if profile.q2 is not None:
            print(f"Q2 = {profile.q2}   l(Q2) = {profile.q2_length:.12g}   "
                  f"(strict-opposite pool variant: {profile.q2_strict})")
        else:
            print("Q2 = (none: no q of differing type in range)")
        print(f"primary   = {[r.q for r in profile.primary]}")
        print(f"secondary = {[r.q for r in profile.secondary]}")
        for name, value, bound in checks:
            tag = "PASS" if value <= bound else "FAIL"
            print(f"{tag}  {name}: {value} <= {bound}")
    return _bound_status(checks)


# ---------------------------------------------------------------------------
# verify / sweep
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    result = verify_suite(args.suite, trials=args.trials, seed=args.seed,
                          max_n=args.max_n, epsilon=args.epsilon)
    if args.format == "json":
        _emit_json({
            "suite": result.suite,
            "passed": result.passed,
            "checks": [{"label": label, "ok": ok, "info": info}
                       for label, ok, info in result.checks],
            "stats": result.stats,
        })
    else:
        for label, ok, info in result.checks:
            extras = "  ".join(f"{k}={v}" for k, v in info.items())
            print(f"{'PASS' if ok else 'FAIL'}  {label}  {extras}")
        for k, v in result.stats.items():
            print(f"stat  {k} = {v}")
    return 0 if result.passed else VIOLATION


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    summary = run_sweep(config)
    if args.format == "json":
        print(summary.to_json())
    else:
        print(f"trials = {summary.trials}   max |S| = {summary.max_distinct}   "
              f"violations = {summary.total_violations}   errors = {summary.errors}   "
              f"status = {summary.status}")
        if summary.config["output"].get("trials_csv"):
            print(f"trials csv: {summary.config['output']['trials_csv']}")
        if summary.config["output"].get("summary_json"):
            print(f"summary json: {summary.config['output']['summary_json']}")
        for witness in summary.violation_witnesses[:5]:
            print(f"violation witness: {witness}")
    if summary.sink_errors:
        for err in summary.sink_errors:
            print(f"sink error: {err}", file=sys.stderr)
        return USAGE_ERROR
    return VIOLATION if summary.status == "FAILED" else 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _add_format(p, choices=("table", "csv", "json")) -> None:
    p.add_argument("--format", choices=choices, default="table", help="output format")


def parse_epsilon(text: str) -> float:
    """A tolerance: a finite real >= 0."""
    value = float(text)
    if not valid_epsilon(value):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _add_epsilon(p) -> None:
    p.add_argument("--epsilon", type=parse_epsilon, default=EPSILON,
                   help="comparison tolerance in floating mode (finite, >= 0)")


def build_parser() -> _Parser:
    # Each command gets only the flags it reads.
    instance = argparse.ArgumentParser(add_help=False)
    _add_format(instance)
    _add_epsilon(instance)
    instance.add_argument("--exact", action="store_true",
                          help="force exact rational arithmetic")

    parser = _Parser(prog="torusgaps",
                     description="Gap spectra and undefeated-edge distance sets "
                                 "for Kronecker sequences on the m-torus.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("gaps", parents=[instance],
                       help="gap spectrum of {k*alpha}, k=1..n")
    p.add_argument("alpha", help="real number: decimal or exact p/q")
    p.add_argument("n", type=int)
    p.add_argument("--circular", action="store_true",
                   help="circular gap convention instead of linear")
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("survivors", parents=[instance],
                       help="undefeated-edge distance set on the m-torus")
    p.add_argument("alphas", help="comma-separated generator components")
    p.add_argument("n", type=int)
    p.add_argument("--mode", choices=("sweep", "brute", "both"), default="sweep")
    p.add_argument("--svg", metavar="PATH", help="render the m=2 instance to SVG")
    p.set_defaults(func=cmd_survivors)

    p = sub.add_parser("denominators", parents=[instance],
                       help="champion denominators, sign types, counting checks")
    p.add_argument("alphas", help="comma-separated generator components")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_denominators)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=VERIFY_SUITES)
    _add_format(p, ("table", "json"))
    _add_epsilon(p)
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="run an experiment sweep from a JSON config")
    p.add_argument("config", help="path to the config JSON document")
    _add_format(p, ("table", "json"))
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"torusgaps: config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError) as exc:
        print(f"torusgaps: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

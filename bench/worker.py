"""One benchmark process: set up a workload, run its closed loop, report.

Started by ``run.py``, once per run and once more per set-up probe.  Prints
one JSON line: the raw metrics of the run, its request counts, whether every
check and the digest passed, and the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import torusgaps  # noqa: E402,F401  (its import is part of set-up)
from workloads import EPSILON, WORKLOADS, CheckFailed  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "digests.json"
WINDOW_S = 2.0  # request time per throughput window


def digest(items: list[list[int]]) -> str:
    return hashlib.sha256(json.dumps(items, separators=(",", ":")).encode()).hexdigest()


def _timed(fn, *args):
    t = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t, result


def run_loop(workload, requests, seconds, min_requests, tracer=None):
    """Closed loop with one client over ``requests`` (cycled).  Stops at the
    first m-cycle boundary after ``seconds`` once ``min_requests`` are done.
    Checks run between requests, outside the timed call.

    With a tracer, each request runs twice, untraced and traced, in
    alternating order so neither run always finds the other's warm state;
    its latency is the (untraced, traced) pair."""
    latencies, done, items, failures = [], [], [], []
    begin = time.perf_counter()
    i = 0
    while not (i % workload.cycle == 0 and i >= min_requests
               and time.perf_counter() - begin >= seconds):
        req = requests[i % len(requests)]
        i += 1
        try:
            if tracer is None:
                latency, result = _timed(workload.call, req)
            else:
                if i % 2:
                    (lt, result), (lp, plain) = (_timed(tracer.request, workload.call, req),
                                                 _timed(workload.call, req))
                else:
                    (lp, plain), (lt, result) = (_timed(workload.call, req),
                                                 _timed(tracer.request, workload.call, req))
                workload.check(req, plain)
                latency = (lp, lt)
            out = workload.check(req, result)
        except CheckFailed as exc:
            failures.append(f"request {i - 1} (m={req.m}, n={req.n}): {exc}")
            continue
        except Exception as exc:  # a request that raises is a failed request
            failures.append(f"request {i - 1} (m={req.m}, n={req.n}): "
                            f"{type(exc).__name__}: {exc}")
            continue
        latencies.append(latency)
        done.append(req)
        items.append(out)
    return {"attempted": i, "latencies": latencies, "done": done,
            "items": items, "failures": failures}


def check_digest(workload, seed, loop) -> dict:
    k = workload.digest_prefix
    if len(loop["items"]) < k:
        return {"status": "incomplete", "requests": k}
    value = digest(loop["items"][:k])
    recorded = json.loads(DIGESTS.read_text()).get(workload.name, {}).get(str(seed))
    status = ("unrecorded" if recorded is None
              else "match" if recorded == value else "mismatch")
    return {"status": status, "requests": k, "value": value}


def windows(loop, cycle: int) -> list[tuple[float, int, int]]:
    """Split the run into consecutive windows of whole m-cycles holding at
    least WINDOW_S of request time; a short remainder joins the last window.
    Returns (busy seconds, requests, edges) per window."""
    out, busy, reqs, edges = [], 0.0, 0, 0
    for i, (lat, req) in enumerate(zip(loop["latencies"], loop["done"]), 1):
        busy, reqs, edges = busy + lat, reqs + 1, edges + req.edges
        if i % cycle == 0 and busy >= WINDOW_S:
            out.append((busy, reqs, edges))
            busy, reqs, edges = 0.0, 0, 0
    if reqs:
        if out:
            b, r, e = out.pop()
            busy, reqs, edges = busy + b, reqs + r, edges + e
        out.append((busy, reqs, edges))
    return out


def end_to_end(loop, cycle: int) -> tuple[dict, dict]:
    lat = sorted(loop["latencies"])
    n = len(lat)
    if not n:
        return {}, {}
    # Highest percentile with at least ten samples beyond it (the maximum
    # when a run has too few samples for one; the meta line says which).
    tail_index = n - 11 if n >= 11 else n - 1
    # Rates are medians over windows, so a passing slowdown of the machine
    # moves them less than it would move one whole-run average.
    win = windows(loop, cycle)
    metrics = {
        "requests_per_s": float(np.median([r / b for b, r, _ in win])),
        "call_p50_ms": float(np.median(lat)) * 1e3,
        "call_tail_ms": lat[tail_index] * 1e3,
        "edges_per_s": float(np.median([e / b for b, _, e in win])),
    }
    meta = {"tail_percentile": 100.0 * (tail_index + 1) / n, "samples": n,
            "samples_beyond_tail": n - 1 - tail_index, "windows": len(win),
            "busy_s": sum(lat)}
    return metrics, meta


def per_layer(tracer, loop) -> tuple[dict, dict]:
    reqs = max(len(loop["latencies"]), 1)
    totals = tracer.layer_totals()
    metrics = {}
    for name in tracer.names[1:] + tracer.absent:
        t = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[f"{name}.s"] = t["s"] / reqs
        metrics[f"{name}.calls"] = t["calls"] / reqs
        metrics[f"{name}.self_s"] = t["self_s"] / reqs
    dead, judged = tracer.dead_edges(EPSILON)
    metrics["tournament.edges_judged"] = tracer.edges_judged / reqs
    metrics["tournament.dead_edge_share"] = dead / judged if judged else 0.0
    plain = sum(lp for lp, _ in loop["latencies"])
    traced = sum(lt for _, lt in loop["latencies"])
    metrics["trace.overhead"] = traced / plain - 1.0 if plain else 0.0
    meta = {"traced_requests": len(loop["latencies"]), "spans": tracer.spans,
            "absent_layers": tracer.absent, "dead_edges": dead,
            "sweep_edges_judged": judged}
    return metrics, meta


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]
    requests = workload.requests(args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            loop = run_loop(workload, requests, args.seconds,
                            max(workload.digest_prefix, workload.cycle), tracer)
        finally:
            tracer.uninstall()
        metrics, meta = per_layer(tracer, loop)
    else:
        loop = run_loop(workload, requests, args.seconds, workload.min_requests)
        metrics, meta = end_to_end(loop, workload.cycle)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb()

    attempted = loop["attempted"]
    failures = loop["failures"]
    digest_check = check_digest(workload, args.seed, loop)
    meta.update({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "failure_ratio": len(failures) / attempted, "failures": failures[:20],
        "digest": digest_check,
        "requests": [[r.m, r.n] for r in loop["done"]],
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": np.__version__,
    })
    print(json.dumps({
        "correct": not failures and digest_check["status"] in ("match", "unrecorded"),
        "attempted": attempted, "failed": len(failures),
        "metrics": metrics, "meta": meta,
    }))


if __name__ == "__main__":
    main()

"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from ``src/``
there.  The workload runs in a fresh process (``worker.py``) as a closed loop
with one client.  With ``--trace 0`` it prints the end-to-end metrics that
``BENCHMARK.json`` declares; ``setup_s`` is the median over that process and
a few set-up-only processes.  With ``--trace 1`` it prints the per-layer
metrics from a traced run instead.  Each metric is printed by name with its
unit, then one metadata line, then the result as one JSON line.  Exits with
a non-zero code, and prints no result, when the checkout has no package or
a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8  # set-up-only processes per run, besides the measured one
DEADLINE_S = 170  # the whole run, probes included, must end within this


class BenchError(Exception):
    pass


def worker(args, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    # Keep numpy's BLAS from starting threads: one client, one thread.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish in time: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def source_identity() -> dict:
    """The commit when the checkout is a git work tree, and always a hash of
    the package sources, which names the code under test either way."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    return {"commit": commit, "src_sha256": h.hexdigest()[:16]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (ROOT / "src" / "torusgaps" / "__init__.py").is_file():
            raise BenchError(f"no package at {ROOT / 'src' / 'torusgaps'}")
        setups = ([] if args.trace else
                  [worker(args, deadline, setup_only=True)["setup_s"]
                   for _ in range(SETUP_PROBES)])
        result = worker(args, deadline)
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    raw, meta = result["metrics"], result["meta"]
    if not args.trace:
        setups.append(raw["setup_s"])
        raw["setup_s"] = statistics.median(setups)
        meta["setup_samples_s"] = setups
    meta.update(source_identity())

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in raw]
    if missing:
        print(f"bench: worker reported no value for {missing}; "
              f"failures: {meta['failures']}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {'failure_ratio':<40} {meta['failure_ratio']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

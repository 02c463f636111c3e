"""Record the expected output digest of every workload for seeds 0..N-1.

    python3 bench/record_digests.py --seeds 64

Run it from the root of a checkout whose answers are trusted.  For each seed
it runs the first ``digest_prefix`` requests of each workload, checks them,
and writes the digest of their integer outputs to ``digests.json``.  A run
of ``run.py`` with a recorded seed then fails when the package's answers
change, even if every cross-check still agrees.
"""

from __future__ import annotations

import argparse
import json

from worker import DIGESTS, digest
from workloads import WORKLOADS


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, required=True)
    args = ap.parse_args()
    recorded = {}
    for name, workload in WORKLOADS.items():
        recorded[name] = {}
        for seed in range(args.seeds):
            reqs = workload.requests(seed)[:workload.digest_prefix]
            items = [workload.check(req, workload.call(req)) for req in reqs]
            recorded[name][str(seed)] = digest(items)
        print(f"{name}: {args.seeds} seeds", flush=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

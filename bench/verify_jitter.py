"""Check that the seed jitter box leaves every verdict class unchanged.

    python3 bench/verify_jitter.py [--workload NAME]

Runs one iteration of each workload at the four corners and the four edge
midpoints of the box ``workloads.JITTER`` and applies the invariant checks
that nonzero seeds get.  Exits 1 if any point fails.  Takes about four
minutes for all workloads on one core.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def points():
    dt, ds = workloads.JITTER["theta"], workloads.JITTER["sigma_rel"]
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            if (a, b) != (0, 0):
                yield workloads.THETA + a * dt, 1.0 + b * ds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    bad = 0
    for workload in [args.workload] if args.workload else list(workloads.WORKLOADS):
        for k, (theta, scale) in enumerate(points()):
            record, result = run.measure(workload, theta, scale, 0.0, False,
                                         f"jitter-{workload}-{k}")
            bad += result["failed"]
            print(json.dumps({"workload": workload, "theta": theta, "sigma_scale": scale,
                              "failed": result["failed"], "failures": record["failures"],
                              "wall_s": result["metrics"]["wall_s"]["value"]}), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run every constructive witness once and print a one-line summary each.

Exits 1 if any witness verdict fails.
"""

import argparse

import numpy as np

from chaosmark import (
    SpaceConfig,
    continuity_probe,
    continuity_report,
    expansivity_counterexample,
    random_phase_point,
    witness_regularity,
    witness_sensitivity,
    witness_strong_transitivity,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nv", type=int, default=8)
    parser.add_argument("--bound-n", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    space = SpaceConfig(nv=args.nv, bound_n=args.bound_n)
    rng = np.random.default_rng(args.seed)
    x = random_phase_point(rng, space)
    y = random_phase_point(rng, space)

    reports = [
        witness_sensitivity(x, 0.1, space),
        witness_strong_transitivity(x, 0.1, y, space),
        witness_regularity(x, 1e-3, space),
        expansivity_counterexample(0.5, 100, space),
        continuity_report(x, continuity_probe(x, [1e-1, 1e-2, 1e-3, 1e-4], space)),
    ]
    for report in reports:
        measured = ", ".join(f"{k}={v:.6g}" for k, v in report.measured.items())
        status = "ok" if report.verdict else "FAILED"
        print(f"{report.property:20s} {status:6s} "
              f"iterations={report.iterations_used:<4d} {measured}")
    return 0 if all(report.verdict for report in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())

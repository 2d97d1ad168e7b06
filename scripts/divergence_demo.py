#!/usr/bin/env python3
"""Show two orbits tearing apart from a perturbation far below visibility.

The perturbed point starts closer to the original than the requested
radius, yet within a handful of steps the orbits sit half the component
bound apart.  Compare with the non-expansivity pair, which never
separates at all.
"""

import argparse

import numpy as np

from chaosmark import (
    SpaceConfig,
    divergence_trace,
    expansivity_counterexample,
    random_phase_point,
    witness_sensitivity,
)


def print_trace(title: str, trace) -> None:
    print(title)
    print(f"  {'step':>4s}  {'d_phase':>12s}  {'d_inf_media':>12s}")
    for step, d, m in trace.to_dict()["points"]:
        print(f"  {step:>4d}  {d:>12.6f}  {m:>12.6f}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", type=float, default=1e-4,
                        help="perturbation ball radius")
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    space = SpaceConfig(nv=4)
    x = random_phase_point(np.random.default_rng(args.seed), space)

    report = witness_sensitivity(x, args.r, space)
    y = report.constructed_point
    print(f"starting distance {report.measured['ball_distance']:.2e} "
          f"(inside a ball of radius {args.r:g})")
    print_trace("sensitive pair:", divergence_trace(x, y, args.steps, space))

    a, b = expansivity_counterexample(0.5, args.steps, space).constructed_point
    print_trace("non-expansive pair (eps = 0.5):",
                divergence_trace(a, b, args.steps, space))


if __name__ == "__main__":
    main()

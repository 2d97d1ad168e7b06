#!/usr/bin/env python3
"""Benchmark this tree against a base tree and write BENCH_<pr>.json.

Run from the repository root:

    python scripts/bench.py --base DIR --pr N [--pairs 10] [--base-commit C]

DIR holds a plain copy of another tree (say from ``git archive``).  For
each workload in BENCHMARK.json, pair i (seeds 1..pairs) runs each
tree's own ``chaosbench/run.py`` once, untraced, for BENCHMARK.json's
``run_seconds`` at seed i; the side that runs first alternates from pair
to pair.  The runs are sequential, so the two trees never share the
processor.  Each run's last stdout line is its JSON result, and its
``env`` line names its commit and its ``src/`` line count.

BENCH_<pr>.json, written to the repository root, holds every run's
end-to-end metrics, each side's median and quartiles (inclusive method)
per metric, the pairs this tree won on each metric (ties count for
neither side), both commits and ``src/`` line counts, and this tree's
tier-1 test count (collected, not run).  It also holds each tree's
``tree_sha256``, taken before the first run over the paths and bytes of
every file under ``src/`` and ``chaosbench/``, so a record ties to the
exact code it measured even when this tree has uncommitted changes
(``"uncommitted_changes": true``, with its HEAD commit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(tree: Path, workload: str, seed: int) -> dict:
    """One untraced chaosbench run in tree: its env line and JSON result."""
    done = subprocess.run(
        [sys.executable, "chaosbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    env = next(json.loads(line[len("env "):]) for line in lines
               if line.startswith("env "))
    result = json.loads(lines[-1])
    return {"seed": seed, "commit": env["commit"], "src_lines": env["src_lines"],
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(head: list, base: list) -> dict:
    """Per end-to-end metric: each side's spread and this tree's wins."""
    out = {}
    for metric in SPEC["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        h = [r["metrics"][name] for r in head]
        b = [r["metrics"][name] for r in base]
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "head": spread(h), "base": spread(b),
                     "pairs_won": sum(sign * (x - y) > 0 for x, y in zip(h, b)),
                     "pairs": len(h)}
    return out


def tree_sha256(tree: Path) -> str:
    """sha256 over the relative path and bytes of each file under tree's
    src/ and chaosbench/, in path order; bytecode caches and egg-info
    are skipped."""
    digest = hashlib.sha256()
    files = sorted(path for top in ("src", "chaosbench")
                   for path in (tree / top).rglob("*")
                   if path.is_file() and not any(
                       part == "__pycache__" or part.endswith(".egg-info")
                       for part in path.relative_to(tree).parts))
    for path in files:
        name = path.relative_to(tree).as_posix().encode("utf-8")
        body = path.read_bytes()
        digest.update(b"%d:%s%d:" % (len(name), name, len(body)) + body)
    return digest.hexdigest()


def uncommitted() -> bool:
    """Whether this tree's src/ or chaosbench/ differ from its commit."""
    done = subprocess.run(["git", "status", "--porcelain", "--", "src",
                           "chaosbench"], cwd=ROOT, capture_output=True,
                          text=True, check=True)
    return bool(done.stdout.strip())


def tier1_count() -> int:
    """Tests the tier-1 command collects in this tree."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"})
    return sum("::" in line for line in done.stdout.splitlines())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", type=Path, required=True,
                   help="a plain copy of the tree to compare against")
    p.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    p.add_argument("--base-commit",
                   help="the base's commit, which a copy without .git cannot name")
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("quartiles need --pairs 2 or more")
    base = args.base.resolve()
    if not (base / "chaosbench" / "run.py").is_file():
        p.error(f"{base} holds no chaosbench/run.py")
    hashes = {"head": tree_sha256(ROOT), "base": tree_sha256(base)}

    names = [w["name"] for w in SPEC["workloads"]]
    workloads = {}
    for workload in names:
        runs = {"head": [], "base": []}
        for seed in range(1, args.pairs + 1):
            order = ("head", "base") if seed % 2 else ("base", "head")
            for side in order:
                runs[side].append(run(ROOT if side == "head" else base,
                                      workload, seed))
                got = runs[side][-1]["metrics"]
                print(f"{workload} seed {seed} {side}: "
                      f"{got['ops_per_s']:.1f} ops/s", file=sys.stderr)
        workloads[workload] = {"runs": runs,
                               "summary": summary(runs["head"], runs["base"])}

    first = {side: workloads[names[0]]["runs"][side][0]
             for side in ("head", "base")}
    report = {
        "pr": args.pr,
        "seconds": SPEC["run_seconds"],
        "pairs": args.pairs,
        "commit": first["head"]["commit"],
        "uncommitted_changes": uncommitted(),
        "tree_sha256": hashes["head"],
        "base_tree_sha256": hashes["base"],
        "base_commit": args.base_commit or first["base"]["commit"],
        "src_lines": first["head"]["src_lines"],
        "base_src_lines": first["base"]["src_lines"],
        "tier1_tests": tier1_count(),
        "all_correct": all(r["correct"] for w in workloads.values()
                           for side in w["runs"].values() for r in side),
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

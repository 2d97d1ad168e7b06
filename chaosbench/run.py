"""chaosmark benchmark: one workload, one client, closed loop, in process.

Run from the repository root:

    python3 chaosbench/run.py --workload embed_cli --seed 1 --seconds 36 --trace 0

The workloads (embed_cli, analyze_cli, tm_cli) are defined in
workloads.py.  The benchmark generates every input of the run from the
seed into a scratch directory, runs one untimed warm-up op, then runs
ops one after another through ``chaosmark.cli.main``, checking each
op's output.  The clock runs only while an op is in flight; checking
an output happens off the clock.

With --trace 0 the run replays the whole op pool, pass after pass,
until --seconds of op time have passed, and keeps the fastest run of
each op: on a virtual machine shared with other tenants, an op can run
40% slower for seconds at a time, and a neighbour can only add time.
The set-up time is sampled SETUP_SAMPLES times, spread over the run.
The run prints the end-to-end metrics named in BENCHMARK.json.

With --trace 1 every op runs twice, untraced and traced (tracing.py)
in alternating order, until --seconds have passed.  The run prints the
per-layer metrics of the traced runs plus the tracing overhead.

Every metric is also printed as a "metric <name> <value> <unit>" line;
the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".chaosbench_work"

# Read by the BLAS and OpenMP runtimes when numpy loads, so they must
# be set before anything imports numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# A run stops starting ops after this much wall time, so that it ends
# within its limit of 180 s however slow the program is.
MAX_RUN_S = 120.0
SETUP_SAMPLES = 9
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import chaosmark.cli
chaosmark.cli.build_parser()
print(time.perf_counter() - start)
"""


@dataclass
class Outcome:
    """Latencies and correctness of the ops of a run, in op order."""

    latencies: list[float] = field(default_factory=list)
    good: list[bool] = field(default_factory=list)
    kinds: Counter = field(default_factory=Counter)
    runs: int = 0
    failed_runs: int = 0

    def record(self, kind: str, elapsed: float, ok: bool) -> None:
        self.latencies.append(elapsed)
        self.good.append(ok)
        self.kinds[kind] += 1
        self.runs += 1
        self.failed_runs += not ok

    @property
    def ops_per_s(self) -> float:
        return sum(self.good) / sum(self.latencies)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("embed_cli", "analyze_cli", "tm_cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_times(count: int) -> list[float]:
    """Times to import chaosmark and build its CLI, each in a fresh process."""
    times = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(done.stdout.strip()))
    return times


def run_op(cli, op) -> tuple[float, bool]:
    """Run one op; return its latency and whether its output is correct."""
    results = []
    err = io.StringIO()
    start = perf_counter()
    try:
        for argv in op.calls:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
            results.append((rc, out.getvalue()))
    except Exception:
        elapsed = perf_counter() - start
        print(f"op {op.kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return elapsed, False
    elapsed = perf_counter() - start
    try:
        ok = op.check(results)
    except Exception:
        print(f"op {op.kind} output unreadable:\n{traceback.format_exc()}",
              file=sys.stderr)
        return elapsed, False
    if not ok:
        print(f"op {op.kind} gave a wrong result: {results!r} {err.getvalue()!r}",
              file=sys.stderr)
    return elapsed, ok


def run_passes(cli, ops, seconds: float) -> tuple[Outcome, list[float]]:
    """Fastest run of each op over whole passes, and set-up samples."""
    best = Outcome()
    setup = []
    start = perf_counter()
    busy = 0.0
    while busy < seconds and perf_counter() - start < MAX_RUN_S:
        for i, op in enumerate(ops):
            if perf_counter() - start >= MAX_RUN_S:
                break
            if len(setup) <= (SETUP_SAMPLES - 1) * busy / seconds:
                setup += setup_times(1)
            elapsed, ok = run_op(cli, op)
            busy += elapsed
            if i == len(best.latencies):
                best.record(op.kind, elapsed, ok)
            else:
                best.latencies[i] = min(best.latencies[i], elapsed)
                best.good[i] = best.good[i] and ok
                best.runs += 1
                best.failed_runs += not ok
    setup += setup_times(SETUP_SAMPLES - len(setup))
    return best, setup


def run_paired(cli, ops, seconds: float, patches) -> tuple[Outcome, Outcome]:
    """Run each op untraced and traced, alternating which goes first."""
    plain, traced = Outcome(), Outcome()
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracing.installed(patches):
                    traced.record(op.kind, *run_op(cli, op))
            else:
                plain.record(op.kind, *run_op(cli, op))
        i += 1
    return plain, traced


def end_to_end_metrics(best: Outcome, setup_s: float) -> dict:
    lat_ms = [1e3 * t for t in best.latencies]
    return {
        "ops_per_s": (best.ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
                      "ms"),
        "success_ratio": (1 - best.failed_runs / best.runs, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "MiB"),
    }


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def check_names(metrics: dict, trace: int) -> None:
    """Fail unless the metrics are exactly those BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if declared != produced:
        missing = sorted(set(declared) - set(produced))
        extra = sorted(set(produced) - set(declared))
        units = sorted(n for n in set(declared) & set(produced)
                       if declared[n] != produced[n])
        raise SystemExit(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}, unit mismatch {units}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chaosmark" / "__init__.py").is_file():
        print(f"error: no chaosmark package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import numpy
    from chaosmark import cli
    from workloads import build_ops

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        ops = build_ops(args.workload, args.seed, ROOT, workdir)
        _, warm_ok = run_op(cli, ops[0])
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced = run_paired(cli, ops, args.seconds,
                                       tracing.instrument(tracer))
            metrics = tracing.layer_metrics(tracer, traced.runs,
                                            traced.kinds["continuity"])
            metrics["bench.traced_ops_per_s"] = (traced.ops_per_s, "1/s")
            metrics["bench.trace_overhead_ops_per_s"] = (
                plain.ops_per_s - traced.ops_per_s, "1/s")
            outcomes = [plain, traced]
        else:
            best, setup = run_passes(cli, ops, args.seconds)
            metrics = end_to_end_metrics(best, statistics.median(setup))
            outcomes = [best]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    check_names(metrics, args.trace)

    attempted = sum(o.runs for o in outcomes)
    failed = sum(o.failed_runs for o in outcomes)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(outcomes[0].latencies),
        "op_runs": [o.runs for o in outcomes],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_lines": src_lines(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(f"metric failed_ratio {failed / attempted!r} ratio")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": warm_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three chaosmark benchmark workloads: inputs, ops and oracles.

Each workload builds a fixed pool of ops from the workload seed before
any timing starts.  An op is one closed-loop unit of user work: a list
of `chaosmark` command lines run in order through ``cli.main`` plus an
oracle that judges their exit codes, captured stdout and written
files.  Ops rotate over three or more size or kind classes, so no
latency percentile the benchmark reports sits on the boundary between
two equally weighted classes.  Every pool holds at least 100 ops, so at
least 10 of them lie beyond the 90th latency percentile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
BB5_MACHINE = BENCH_DIR / "machines" / "bb5.tm"
UNARY_MACHINE = Path("scripts") / "machines" / "unary_increment.tm"

WORKLOADS = ("embed_cli", "analyze_cli", "tm_cli")


@dataclass(frozen=True)
class Op:
    """One unit of user work and the check of its result.

    kind   the size or kind class the op belongs to
    calls  argument lists for ``cli.main``, run in order
    check  gets one (exit code, stdout) pair per call; true iff correct
    """

    kind: str
    calls: tuple[tuple[str, ...], ...]
    check: Callable[[list[tuple[int, str]]], bool]


def build_ops(workload: str, seed: int, root: Path, workdir: Path) -> list[Op]:
    """Generate the op pool of a workload; inputs go under ``workdir``."""
    if workload == "embed_cli":
        return _embed_ops(seed, workdir)
    if workload == "analyze_cli":
        return _analyze_ops(seed, workdir)
    if workload == "tm_cli":
        return _tm_ops(seed, root, workdir)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# ---------- embed_cli ----------

EMBED_NV = 1024
EMBED_NCS = (16, 32, 48)
# Per-scheme parameters under which every bit must decode correctly on
# the hosts below (component mean square at most 3.5, so a host
# projection on a unit carrier has standard deviation below 1.9):
#   ss   gamma 20 puts each bit more than 10 standard deviations clear
#        of the host projection;
#   iss  lambda 1 replaces the host projection by exactly +-alpha;
#   nw   flips the host projection to the side the bit selects.
# The strategy terms these give stay far inside the default bound 10.
EMBED_SCHEMES = (
    ("ss", ("--gamma", "20")),
    ("iss", ("--alpha", "1", "--lambda", "1")),
    ("nw", ("--eta", "1")),
)
EMBED_HOST_FORMATS = ("json", "csv", "pgm-p2", "pgm-p5")
EMBED_STEGO_FORMATS = ("json", "csv")
# Three rounds of every (nc, scheme, host format) combination; each host
# format meets both stego formats.
EMBED_POOL = 3 * len(EMBED_NCS) * len(EMBED_SCHEMES) * len(EMBED_HOST_FORMATS)


def _write_host(path_stem: Path, fmt: str, rng: np.random.Generator) -> Path:
    if fmt in ("json", "csv"):
        host = rng.uniform(-2.0, 2.0, EMBED_NV)
        if fmt == "json":
            path = path_stem.with_suffix(".json")
            path.write_text(json.dumps({"nv": EMBED_NV, "data": host.tolist()}),
                            encoding="utf-8")
        else:
            path = path_stem.with_suffix(".csv")
            path.write_text("".join(f"{v!r}\n" for v in host.tolist()),
                            encoding="utf-8")
        return path
    side = int(EMBED_NV ** 0.5)
    pixels = rng.integers(0, 4, EMBED_NV)
    path = path_stem.with_suffix(".pgm")
    header = f"{'P2' if fmt == 'pgm-p2' else 'P5'}\n{side} {side}\n3\n"
    if fmt == "pgm-p2":
        path.write_text(header + " ".join(str(p) for p in pixels) + "\n",
                        encoding="ascii")
    else:
        path.write_bytes(header.encode("ascii") + pixels.astype(np.uint8).tobytes())
    return path


def _embed_ops(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for i in range(EMBED_POOL):
        nc = EMBED_NCS[i % 3]
        scheme, params = EMBED_SCHEMES[(i // 3) % 3]
        host_fmt = EMBED_HOST_FORMATS[(i // 9) % 4]
        stego_fmt = EMBED_STEGO_FORMATS[(i // 27) % 2]
        host = _write_host(workdir / f"host_{i}", host_fmt, rng)
        stego = workdir / f"stego_{i}.{stego_fmt}"
        key = str(int(rng.integers(0, 2**64, dtype=np.uint64)))
        message = "".join("1" if b else "0" for b in rng.integers(0, 2, nc))
        common = ("--scheme", scheme, "--key", key) + params
        calls = (
            ("embed", *common, "--host", str(host), "--message", message,
             "--out", str(stego)),
            ("decode", *common, "--stego", str(stego), "--nc", str(nc)),
        )
        ops.append(Op(f"nc{nc}", calls, _decodes_to(message)))
    return ops


def _decodes_to(message: str):
    def check(results):
        (embed_rc, _), (decode_rc, decoded) = results
        return embed_rc == 0 and decode_rc == 0 and decoded.strip() == message
    return check


# ---------- analyze_cli ----------

ANALYZE_NVS = (8, 64)
ANALYZE_BOUND_N = 10.0  # the CLI default --bound-n
TRACE_N_MAX = 50
# Scan trials are cut from the default 500, which takes most of a
# second and would dwarf every other command.
ANALYZE_KINDS = (
    ("sensitivity", ("--r", "0.001")),
    ("transitivity", ("--r-a", "0.01")),
    ("regularity", ("--eps", "0.001")),
    ("expansivity", ("--eps", "0.5", "--n-max", "100")),
    ("continuity", ()),
    ("trace", ("--pair", "sensitivity", "--n-max", str(TRACE_N_MAX))),
    ("trace", ("--pair", "expansivity", "--n-max", str(TRACE_N_MAX))),
    ("trace", ("--pair", "random", "--n-max", str(TRACE_N_MAX))),
    ("scan", ("--r", "0.01", "--trials", "20", "--n-max", "20")),
)
# The 90th latency percentile falls among the scan and nv=64
# transitivity ops, whose cost varies up to 6x with the seed; 20 rounds
# put 60 of them in the pool.
ANALYZE_POOL = 20 * len(ANALYZE_KINDS) * len(ANALYZE_NVS)


def _analyze_ops(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for i in range(ANALYZE_POOL):
        sub, params = ANALYZE_KINDS[i % len(ANALYZE_KINDS)]
        nv = ANALYZE_NVS[(i // len(ANALYZE_KINDS)) % len(ANALYZE_NVS)]
        report = workdir / f"report_{i}.json"
        argv = ("analyze", sub, *params, "--nv", str(nv),
                "--seed", str(seed * 1_000_000 + i), "--out", str(report))
        ops.append(Op(sub, (argv,), _analyze_check(sub, report)))
    return ops


def _analyze_check(sub: str, report: Path):
    # Exit code 0 means the witness verdict was true.
    def check(results):
        ((rc, _),) = results
        if rc != 0:
            return False
        if sub == "scan":
            payload = json.loads(report.read_text(encoding="utf-8"))
            return payload["result"]["max_separation"] >= ANALYZE_BOUND_N / 2
        if sub == "trace":
            payload = json.loads(report.read_text(encoding="utf-8"))
            return len(payload["trace"]["points"]) == TRACE_N_MAX + 1
        return True
    return check


# ---------- tm_cli ----------

# (machine, tape marks or step limit) classes, each drawn up to 10%
# larger: the unary incrementer halts on a tape that grows with the
# run; the busy beaver runs to its step limit on a tape of at most about
# 200 cells.
TM_CLASSES = (
    ("unary", 200), ("unary", 400), ("unary", 600), ("unary", 800),
    ("bb5", 2000), ("bb5", 4000), ("bb5", 8000),
)
TM_POOL = 15 * len(TM_CLASSES)


def parse_machine_text(text: str) -> dict:
    """Minimal reader of the machine format, independent of chaosmark."""
    spec = {"blank": "#", "halting": (), "rules": {}}
    for raw in text.splitlines():
        line = raw.split(";", 1)[0].strip()
        if "->" in line:
            left, right = line.split("->")
            state, symbol = left.split()
            nxt, write, move = right.split()
            spec["rules"][(state, symbol)] = (nxt, write, move)
        elif ":" in line:
            name, rest = line.split(":", 1)
            values = rest.split()
            spec[name.strip()] = values[0] if name.strip() in ("blank", "initial") \
                else tuple(values)
    return spec


def reference_run(spec: dict, tape: str, max_steps: int) -> dict:
    """Run a machine on one dict mutated in place; report as `chaosmark tm`."""
    cells = dict(enumerate(tape))
    head, state, steps = 0, spec["initial"], 0
    halting, rules, blank = set(spec["halting"]), spec["rules"], spec["blank"]
    while True:
        if state in halting:
            reason = "halt_state"
            break
        if steps >= max_steps:
            reason = "step_limit"
            break
        rule = rules.get((state, cells.get(head, blank)))
        if rule is None:
            reason = "no_transition"
            break
        state, cells[head], move = rule
        head += 1 if move == "R" else -1
        steps += 1
    lo = min(min(cells, default=head), head)
    hi = max(max(cells, default=head), head)
    return {
        "state": state,
        "head": head,
        "steps": steps,
        "reason": reason,
        "window_start": lo,
        "tape": "".join(cells.get(i, blank) for i in range(lo, hi + 1)),
    }


def _tm_ops(seed: int, root: Path, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    machines = {"unary": root / UNARY_MACHINE, "bb5": BB5_MACHINE}
    specs = {name: parse_machine_text(path.read_text(encoding="utf-8"))
             for name, path in machines.items()}
    ops = []
    for i in range(TM_POOL):
        name, base = TM_CLASSES[i % len(TM_CLASSES)]
        size = base + int(rng.integers(0, base // 10))
        if name == "unary":
            tape, max_steps = "1" * size, 10 * size
        else:
            tape, max_steps = "", size
        report = workdir / f"tm_{i}.json"
        argv = ("tm", "--machine", str(machines[name]), "--tape", tape,
                "--max-steps", str(max_steps), "--out", str(report))
        expected = reference_run(specs[name], tape, max_steps)
        ops.append(Op(f"{name}{base}", (argv,), _tm_check(report, expected)))
    return ops


def _tm_check(report: Path, expected: dict):
    def check(results):
        ((rc, _),) = results
        if rc != 0:
            return False
        result = json.loads(report.read_text(encoding="utf-8"))["result"]
        return all(result[k] == v for k, v in expected.items())
    return check

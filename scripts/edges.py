#!/usr/bin/env python3
"""Run each CLI command at each work budget's edge and one unit past it.

``python scripts/edges.py`` takes no options.  Each case is one fresh
``python -m chaosmark.cli`` process, run one after another under RLIMIT_AS
2,000,000 KiB (that child only), one BLAS thread and a 60 s timeout.  It
passes when its exit code is in 0-3 and equals the row's, stderr holds
no traceback, a refusal prints one stderr line naming the row's limit,
the peak RSS (``ru_maxrss`` from ``os.wait4``) is under the row's
ceiling, and the row's check holds.  Each case prints its name, exit
code, wall time, peak MiB and stdout bytes, then any breach; the exit
code is 1 if any case breaches.  Every ``budget.MAX_*`` has a row at
its edge and a refusal past it, or a reason in UNREACHABLE.  Left out:
transitivity at --nv 10^6 (1022 MiB, mostly its report; ROADMAP item
11) and sensitivity at --r 1e-300 --nv 10^5 (2214 MiB, depth x nv rows).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
UNREACHABLE = {  # tests/test_budget.py charges both
    "MAX_SERIES_TERMS": "drawn start points keep their series far below it",
    "MAX_CORRECTION_TERMS": "drawn start points splice in at most depth + 1 terms",
}


class Case(NamedTuple):
    name: str
    argv: str
    expect: int = 0
    limit: str | None = None  # the budget whose edge this is; a refusal names it
    ceiling: int = 1024  # MiB of peak RSS
    check: Callable[[bytes, Path], bool] | None = None  # of stdout and the work dir


def _bits(n: int):
    return lambda out, work: (len(out) == n + 1 and out.endswith(b"\n")
                              and not out[:-1].translate(None, b"01"))


def _spliced(out: bytes, work: Path) -> bool:
    report = json.loads(out)["report"]
    terms, depth = (report["inputs"][k] for k in ("correction_terms", "matching_depth"))
    return report["verdict"] is True and terms <= depth + 1


def _trace_rows(out: bytes, work: Path) -> bool:
    rows = json.loads((work / "trace.json").read_bytes())["trace"]["points"]
    return len(rows) == 10**6 and rows[-1][0] == 10**6 - 1


def _unary_reference(out: bytes, work: Path) -> bool:
    sys.path.insert(0, str(ROOT))
    from chaosbench.workloads import UNARY_MACHINE, parse_machine_text, reference_run

    spec = parse_machine_text((ROOT / UNARY_MACHINE).read_text(encoding="utf-8"))
    want = reference_run(spec, (work / "999999").read_text(), 2_000_000)
    got = json.loads((work / "u.json").read_bytes())["result"]
    return {k: got[k] for k in want} == want


def _edge(name, argv, at, past, limit, ceiling=1024, check=None) -> list:
    """The case at a budget's edge, then the refusal one unit past it."""
    return [Case(f"{name} {at}", f"{argv} {at}", 0, limit, ceiling, check),
            Case(f"{name} {past}", f"{argv} {past}", 2, limit, ceiling)]


def cases(work: Path) -> list:
    """Every row, with its input files written under work."""
    (work / "h8.json").write_text('{"nv": 8, "data": [0.5, -1, 2, 0.25, -0.75, 1.5, -2, 1]}')
    (work / "h1.json").write_text('{"nv": 1, "data": [0.5]}')
    (work / "s.pgm").write_bytes(b"P5\n4096 2048\n255\n" + bytes(range(256)) * 32768)
    for marks in (999999, 1000001):
        (work / str(marks)).write_text("1" * marks)
    shutil.copy(ROOT / "chaosbench" / "machines" / "bb5.tm", work)
    shutil.copy(ROOT / "scripts" / "machines" / "unary_increment.tm", work)
    carriers, orbit, wide = "MAX_CARRIER_COMPONENTS", "MAX_ORBIT_WORK", "MAX_MEDIA_COMPONENTS"
    raw, sens = "decode --scheme ss --no-orthonormalize --stego", "analyze sensitivity --r"
    trace, scan = "analyze trace --pair random", "analyze scan --r 0.01 --nv 1"
    return [
        Case("decode raw h8 nc 10^8", f"{raw} h8.json --nc 100000000", 2, carriers),
        Case("decode raw h1 nc 8000000", f"{raw} h1.json --nc 8000000", 0, None, 400,
             _bits(8_000_000)),
        *_edge("decode raw h1 nc", f"{raw} h1.json --nc", 8388608, 8388609, carriers,
               check=_bits(2**23)),
        *_edge("decode ss 4096x2048 nc", "decode --scheme ss --stego s.pgm --nc", 1, 2,
               carriers, check=_bits(1)),
        *_edge("embed raw h8 nc", "embed --scheme ss --no-orthonormalize --host h8.json "
               "--message 0x1 --out e.json --nc", 1000000, 1000001, "MAX_MESSAGE_BITS"),
        Case("scan default", "analyze scan --r 0.01"),
        Case("scan r 1e-307", "analyze scan --r 1e-307 --trials 5"),
        Case("scan bound-n 8e307", "analyze scan --bound-n 8e307 --r 0.1", 2, "finite"),
        Case("trace bound-n 8e307", f"{trace} --bound-n 8e307", 2, "finite"),
        Case("trace inf distance", f"{trace} --n-max 3 --bound-n 8e307 --nv 2 --seed 2",
             2, "not JSON compliant"),
        Case("scan trials 10^6", f"{scan} --trials 1000000 --n-max 0", 2, orbit),
        *_edge("scan trials", f"{scan} --n-max 0 --trials", 10989, 10990, orbit),
        *_edge("trace n-max", f"{trace} --nv 1 --seed 3 --out trace.json --n-max",
               999999, 1000000, orbit, 600, _trace_rows),
        *_edge("expansivity n-max", "analyze expansivity --eps 0.5 --nv 1 --n-max",
               999999, 1000000, orbit),
        *_edge("sensitivity nv", f"{sens} 0.1 --nv", 1000000, 1000001, wide),
        Case("regularity nv 1000000", "analyze regularity --eps 0.1 --nv 1000000", 0, wide),
        Case("continuity nv 1000000", "analyze continuity --nv 1000000", 0, wide),
        Case("sensitivity nv 10^9", f"{sens} 0.1 --nv 1000000000", 2, wide),
        Case("sensitivity r 1e-300 nv 10^4", f"{sens} 1e-300 --nv 10000"),
        *(Case(f"transitivity nv {nv}", f"analyze transitivity --r-a 0.1 --nv {nv}", 0,
               None, mib, _spliced) for nv, mib in ((4096, 100), (100000, 200))),
        *_edge("tm bb5 max-steps", "tm --machine bb5.tm --max-steps", 10000000, 10000001,
               "MAX_TM_STEPS",
               check=lambda out, work: b" 10000000 steps (step_limit)" in out[:50]),
        *_edge("tm unary marks", "tm --machine unary_increment.tm --max-steps 2000000 "
               "--out u.json --tape-file", 999999, 1000001, "MAX_TAPE_CELLS",
               check=_unary_reference),
    ]


def judge(case: Case, code: int, stderr: str, peak: float, stdout: bytes, work) -> list:
    """Every way one run breaches the contract; an empty list if none."""
    breaches = []
    if code not in (0, 1, 2, 3) or code != case.expect:
        breaches.append(f"exit {code}, expected {case.expect}")
    if "Traceback" in stderr:
        breaches.append("a traceback on stderr")
    lines = stderr.splitlines()
    if case.expect >= 2 and (len(lines) != 1 or case.limit not in lines[0]):
        breaches.append(f"{len(lines)} stderr lines, expected one naming {case.limit}")
    if peak >= case.ceiling:
        breaches.append(f"peak {peak:.0f} MiB, ceiling {case.ceiling} MiB")
    try:
        if case.check is not None and not case.check(stdout, work):
            breaches.append("its check failed")
    except Exception as exc:  # output too malformed to check fails the check
        breaches.append(f"its check raised {exc!r}")
    return breaches


def run(case: Case, work: Path) -> tuple:
    """Exit code, stderr, peak MiB, seconds, stdout bytes and (if checked) stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "chaosmark.cli",
                                 *case.argv.split()], stdout=out, stderr=err,
                                cwd=work, env=env, preexec_fn=lambda: resource.setrlimit(
                                    resource.RLIMIT_AS, (2_000_000 * 1024,) * 2))
    timer = threading.Timer(60, proc.kill)
    timer.start()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    timer.cancel()
    stdout = work / "stdout"
    return (proc.returncode, (work / "stderr").read_text(errors="replace"),
            usage.ru_maxrss / 1024, time.perf_counter() - start, stdout.stat().st_size,
            stdout.read_bytes() if case.check else b"")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="chaosmark-edges-") as tmp:
        work, failed = Path(tmp), 0
        rows = cases(work)
        for case in rows:
            code, stderr, peak, took, size, stdout = run(case, work)
            breaches = judge(case, code, stderr, peak, stdout, work)
            print(f"{case.name:<30} exit {code:>2} {took:6.2f} s {peak:5.0f} MiB "
                  f"{size:>10} B", *(f"\n  BREACH: {b}" for b in breaches),
                  *([f"\n  stderr: {stderr.strip()[-800:]}"] if breaches else []),
                  sep="", flush=True)
            failed += bool(breaches)
    print(f"{len(rows)} cases, {failed} breached")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

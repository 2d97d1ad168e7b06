#!/usr/bin/env python3
"""Compare what two trees of chaosmark print and write, call by call.

Run from the repository root:

    python scripts/parity.py BASE [--scratch DIR]

BASE is a local git revision.  The script checks it out with
``git worktree add`` under a scratch directory, then runs one fixed
list of ``chaosmark.cli.main`` calls against that tree and against this
working tree, each tree in its own Python process.  A record is one call's exit
code, stdout, stderr and the SHA-256 of every file it wrote, with the
work directory and both trees' paths normalised.  Every record that
differs is printed, the last line counts calls and differences, and
the exit code is 1 if any record differs.  Nothing needs the network.

The call list is:

* the embed_cli, analyze_cli and tm_cli op pools of
  ``chaosbench/workloads.py`` at seeds 1-3;
* the commands behind ``tests/golden/``;
* edge calls: every trace pair with a bad --r or --eps, bad and extreme
  radii and eps on the witnesses, scans at --r 1e-307 and --bound-n
  8e307, overflowing orbits, message and machine edge files, tape files,
  usage errors, help under COLUMNS 60 and 120, and CHAOSMARK_SEED.

The inputs (op pools, hosts, machines, edge files) come from this
working tree, so only the program under test differs between runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
BAD_VALUES = ("-5", "0", "nan", "inf")
RADII = ("5e-324", "1e-306", "1e-300", "0.001", "1", "1e308")
EPSILONS = ("5e-324", "1e-300", "0.001", "0.5", "20")
# BLAS threads change QR bits, and argparse wraps help at COLUMNS.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "COLUMNS": "80"}


# ---------- the call list ----------

def _pool_calls(work: Path) -> list:
    sys.path.insert(0, str(ROOT))
    from chaosbench.workloads import WORKLOADS, build_ops

    calls = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            pool = work / f"{workload}-{seed}"
            pool.mkdir()
            for i, op in enumerate(build_ops(workload, seed, ROOT, pool)):
                for j, argv in enumerate(op.calls):
                    calls.append((f"{workload}/seed{seed}/op{i}/{j}", argv, {}))
    return calls


def _golden_calls(work: Path) -> list:
    sys.path.insert(0, str(ROOT / "tests"))
    import test_golden as golden

    calls = []
    for name, params in sorted(golden.ANALYZE_CASES.items()):
        argv = ["analyze", name.split("_")[0], *params, "--nv", "8", "--seed", "0"]
        calls.append((f"golden/analyze_{name}", argv, {}))
    for scheme in golden.SCHEMES:
        out = work / f"golden_stego_{scheme}.json"
        calls.append((f"golden/embed_{scheme}", [
            "embed", "--scheme", scheme, "--host", str(golden.HOST),
            "--key", golden.KEY, "--message", golden.MESSAGE,
            "--out", str(out), "--meta", f"{out}.meta"], {}))
        calls.append((f"golden/decode_{scheme}", [
            "decode", "--scheme", scheme,
            "--stego", str(golden.GOLDEN / f"stego_{scheme}.json"),
            "--key", golden.KEY, "--nc", str(len(golden.MESSAGE))], {}))
    return calls


def _edge_files(work: Path) -> None:
    unary = (ROOT / "scripts" / "machines" / "unary_increment.tm").read_text(
        encoding="utf-8")
    texts = {
        "msg_bits.txt": "0b1011\n", "msg_hex.txt": "0x2a\n", "msg_empty.txt": "",
        "unary.tm": unary,
        "malformed.tm": "states: a b\nalphabet: 1 #\nblank: #\ninitial: a\n"
                        "halting: b\na 1 -> b\n",
        "no_initial.tm": "".join(line + "\n" for line in unary.splitlines()
                                 if not line.startswith("initial:")),
        "tape.txt": "111\n",
        "host_nan.json": '{"nv": 2, "data": [NaN, 1.0]}',
        "host_p2.pgm": "P2\n# a comment\n2 2\n3\n0 1 2 3\n",
        "host_p2_range.pgm": "P2\n2 2\n3\n0 1 2 4\n",
        "host_p2_short.pgm": "P2\n4 4\n3\n0 1 2\n",
    }
    for name, text in texts.items():
        (work / name).write_text(text, encoding="utf-8")
    raw = {"msg_latin1.txt": b"\xff\xfe10", "bad_utf8.tm": b"\xff\xfe",
           "tape_latin1.txt": b"\xff",
           "host_p5.pgm": b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255]),
           "host_p5_short.pgm": b"P5\n2 2\n255\n\x00"}
    for name, blob in raw.items():
        (work / name).write_bytes(blob)
    for name in ("msg_dir", "machine_dir"):
        (work / name).mkdir()


def _edge_calls(work: Path) -> list:
    _edge_files(work)
    w = str(work)
    host = str(ROOT / "tests" / "golden" / "host.json")
    calls = []

    def add(label, argv, env=None):
        calls.append((f"edge/{label}", [str(a) for a in argv], env or {}))

    # analyze: bad and extreme radii, eps and orbits
    for pair in ("sensitivity", "expansivity", "random"):
        for opt in ("--r", "--eps"):
            for value in BAD_VALUES:
                add(f"trace/{pair}/{opt}={value}",
                    ["analyze", "trace", "--pair", pair, opt, value])
        add(f"trace/{pair}/300", ["analyze", "trace", "--pair", pair,
                                  "--n-max", "300", "--nv", "3", "--seed", "4"])
        add(f"trace/{pair}/csv", ["analyze", "trace", "--pair", pair,
                                  "--format", "csv"])
    for sub in ("regularity", "expansivity"):
        for value in (*BAD_VALUES, *EPSILONS):
            add(f"{sub}/eps={value}", ["analyze", sub, "--eps", value])
    for value in (*BAD_VALUES, *RADII):
        add(f"sensitivity/r={value}", ["analyze", "sensitivity", "--r", value])
        add(f"transitivity/r={value}",
            ["analyze", "transitivity", "--r-a", value, "--nv", "5"])
    add("sensitivity/csv", ["analyze", "sensitivity", "--r", "0.1",
                            "--format", "csv", "--out", f"{w}/sens.csv"])
    for scales in ("1,,0.5", "nan", "", "0.5,0.6", "1e-300,1e-310"):
        add(f"continuity/scales={scales}",
            ["analyze", "continuity", "--scales", scales])
    for seed in range(6):
        for nv in (3, 8, 64):
            add(f"scan/default/seed{seed}/nv{nv}",
                ["analyze", "scan", "--r", "0.01", "--seed", seed, "--nv", nv])
    for args in (["--r", "1e-307", "--trials", "5"],
                 ["--r", "5e-324", "--trials", "3"],
                 ["--r", "1e-290", "--trials", "3"],
                 ["--r", "0.1", "--bound-n", "8e307"],
                 ["--r", "0.1", "--bound-n", "8e307", "--trials", "1",
                  "--nv", "2", "--seed", "0"],
                 ["--r", "0.1", "--bound-n", "8e307", "--trials", "2",
                  "--nv", "2", "--seed", "0"],
                 ["--r", "0.1", "--trials", "0"],
                 ["--r", "0.1", "--n-max", "-1"],
                 ["--r", "0.1", "--trials", "10000000"]):
        add("scan/" + " ".join(args), ["analyze", "scan", *args])
    for args in (["--pair", "random", "--bound-n", "8e307"],
                 ["--pair", "random", "--n-max", "3", "--bound-n", "8e307",
                  "--nv", "2", "--seed", "2"],
                 ["--pair", "random", "--seed", "-1"],
                 ["--pair", "random", "--nv", "0"]):
        add("trace/" + " ".join(args), ["analyze", "trace", *args])

    # messages, embed and decode
    embed = ["embed", "--scheme", "iss", "--key", "9", "--host", host]
    out = f"{w}/stego.json"
    for label, args in [
            ("both", ["--message", "1011", "--message-file", f"{w}/msg_bits.txt"]),
            ("neither", []),
            ("nc0", ["--message", "1011", "--nc", "0"]),
            ("nc-3", ["--message", "1011", "--nc", "-3"]),
            ("hex-no-nc", ["--message", "0x2a"]),
            ("bad-hex", ["--message", "0xzz"]),
            ("bad-hex-nc", ["--message", "0xzz", "--nc", "8"]),
            ("empty", ["--message", ""]),
            ("blank", ["--message", "   "]),
            ("0b", ["--message", "0b"]),
            ("0B", ["--message", "0B"]),
            ("too-wide-hex", ["--message", "0x100", "--nc", "8"]),
            ("wide-hex", ["--message", "0x" + "f" * 16, "--nc", "64"]),
            ("hex", ["--message", "0xA6", "--nc", "8"]),
            ("hex-odd-width", ["--message", "0x5", "--nc", "3"]),
            ("hex-leading-zeros", ["--message", "0x0001", "--nc", "13"]),
            ("file-latin1", ["--message-file", f"{w}/msg_latin1.txt"]),
            ("file-missing", ["--message-file", f"{w}/missing.txt"]),
            ("file-dir", ["--message-file", f"{w}/msg_dir"]),
            ("file-empty", ["--message-file", f"{w}/msg_empty.txt"]),
            ("file-hex", ["--message-file", f"{w}/msg_hex.txt", "--nc", "8"]),
            ("file-bits", ["--message-file", f"{w}/msg_bits.txt"])]:
        add(f"embed/{label}", [*embed, *args, "--out", out])
    message = ["--message", "1011001110001011"]
    add("embed/meta", [*embed, *message, "--out", out, "--meta", f"{w}/meta.json"])
    add("embed/meta-dir", [*embed, *message, "--out", out, "--meta", w])
    add("embed/meta-missing-dir",
        [*embed, *message, "--out", out, "--meta", f"{w}/nowhere/meta.json"])
    add("embed/csv", [*embed, *message, "--out", f"{w}/stego.csv"])
    for scheme, params in (("ss", ["--gamma", "1e308"]),
                           ("iss", ["--alpha", "1e308"]),
                           ("nw", ["--eta", "1e308"]),
                           ("iss", ["--lambda", "2"]),
                           ("ss", ["--bound-n", "0.5"])):
        add(f"embed/{scheme}{params[0]}={params[1]}",
            ["embed", "--scheme", scheme, "--key", "9", "--host", host,
             *message, *params, "--out", f"{w}/stego_{scheme}.json"])
    for name in ("host_nan.json", "host_p2.pgm", "host_p2_range.pgm",
                 "host_p2_short.pgm", "host_p5.pgm", "host_p5_short.pgm"):
        add(f"embed/{name}", ["embed", "--scheme", "iss", "--key", "3",
                              "--host", f"{w}/{name}", "--message", "01",
                              "--out", f"{w}/from_{name}.json"])
        add(f"decode/{name}", ["decode", "--scheme", "iss", "--key", "3",
                               "--stego", f"{w}/from_{name}.json", "--nc", "2"])
    decode = ["decode", "--scheme", "iss", "--key", "9", "--stego", out]
    add("decode/plain", [*decode, "--nc", "16"])
    add("decode/out", [*decode, "--nc", "16", "--out", f"{w}/decoded.json"])
    add("decode/out-dir", [*decode, "--nc", "16", "--out", w])
    add("decode/no-nc", decode)
    add("decode/nc0", [*decode, "--nc", "0"])
    add("decode/bound-n0", [*decode, "--nc", "16", "--bound-n", "0"])

    # machines and tapes
    unary = f"{w}/unary.tm"
    tm = ["tm", "--machine", unary]
    for label, path in [("missing", f"{w}/missing.tm"), ("missing-rel", "./missing.tm"),
                        ("latin1", f"{w}/bad_utf8.tm"), ("malformed", f"{w}/malformed.tm"),
                        ("no-initial", f"{w}/no_initial.tm"), ("dir", f"{w}/machine_dir"),
                        ("empty-name", ""), ("absolute", unary),
                        ("relative", "./unary.tm"), ("double-slash", f"{w}//unary.tm")]:
        add(f"tm/machine-{label}", ["tm", "--machine", path, "--tape", "11"])
    for label, args in [
            ("stdout", ["--tape", "111"]),
            ("json", ["--tape", "111", "--out", f"{w}/tm.json"]),
            ("csv", ["--tape", "111", "--format", "csv", "--out", f"{w}/tm.csv"]),
            ("csv-stdout", ["--tape", "111", "--format", "csv"]),
            ("tape-file", ["--tape-file", f"{w}/tape.txt"]),
            ("tape-file-latin1", ["--tape-file", f"{w}/tape_latin1.txt"]),
            ("tape-conflict", ["--tape", "1", "--tape-file", f"{w}/tape.txt"]),
            ("bad-symbol", ["--tape", "1x1"]),
            ("step-limit", ["--tape", "1111", "--max-steps", "2"]),
            ("negative-head", ["--tape", "11", "--head", "-3"]),
            ("over-budget", ["--tape", "1", "--max-steps", "100000000"])]:
        add(f"tm/{label}", [*tm, *args])
    bb5 = str(ROOT / "chaosbench" / "machines" / "bb5.tm")
    for steps in ("100000", "0"):
        add(f"tm/bb5-{steps}", ["tm", "--machine", bb5, "--max-steps", steps])

    # usage errors and help, at two widths
    for columns in ("60", "120"):
        env = {"COLUMNS": columns}
        for args in ([], ["--help"], ["embed", "--help"], ["analyze", "--help"],
                     ["analyze", "trace", "--help"], ["tm", "--help"],
                     ["bogus"], ["analyze"], ["embed", "--host", host],
                     ["analyze", "scan", "--r", "x"], ["tm", "--machine"]):
            add(f"cols{columns}/" + " ".join(args), args, env)
    for seed in ("3", "7", "x", "-1"):
        for sub, args in (("sensitivity", ["--r", "0.01"]),
                          ("trace", ["--pair", "random", "--n-max", "5"])):
            add(f"env-seed{seed}/{sub}", ["analyze", sub, *args],
                {"CHAOSMARK_SEED": seed})
    return calls


def call_list(work: Path) -> list:
    """Every (label, argv, env) call, in order; inputs go under work."""
    return _pool_calls(work) + _golden_calls(work) + _edge_calls(work)


# ---------- running one tree ----------

def _snapshot(work: Path) -> dict:
    state = {}
    for folder, _, names in os.walk(work):
        for name in names:
            path = os.path.join(folder, name)
            st = os.stat(path)
            state[path] = (st.st_size, st.st_mtime_ns)
    return state


def run_tree(tree: Path, work: Path, records: Path) -> None:
    """Run the call list against tree's chaosmark; write the records."""
    sys.path.insert(0, str(tree / "src"))
    from chaosmark import cli

    calls = call_list(work)
    os.chdir(work)
    # the tree under test may be ROOT itself, so its src goes first
    marks = [(str(tree / "src"), "<src>"), (str(work), "<work>"),
             (str(ROOT), "<root>")]

    def norm(text: str) -> str:
        for path, mark in marks:
            text = text.replace(path, mark)
        return text

    out = []
    for label, argv, env in calls:
        saved = {k: os.environ.get(k) for k in env}
        os.environ.update(env)
        before = _snapshot(work)
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(list(argv))
        except Exception:  # an escaping exception is a record too
            rc = "raised: " + traceback.format_exc().strip().splitlines()[-1]
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        files = {}
        for path, stamp in _snapshot(work).items():
            if before.get(path) != stamp:
                blob = Path(path).read_bytes()
                for mark_path, mark in marks:
                    blob = blob.replace(mark_path.encode(), mark.encode())
                files[norm(path)] = hashlib.sha256(blob).hexdigest()
        out.append({"label": label, "argv": [norm(a) for a in argv],
                    "env": env, "rc": norm(str(rc)), "stdout": norm(stdout.getvalue()),
                    "stderr": norm(stderr.getvalue()), "files": files})
    records.write_text(json.dumps(out), encoding="utf-8")


# ---------- comparing two trees ----------

def _records(tree: Path, scratch: Path, name: str) -> list:
    work = scratch / f"work-{name}"
    work.mkdir()
    records = scratch / f"records-{name}.json"
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "CHAOSMARK_SEED")}
    env.update(CHILD_ENV)
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--run-tree",
                    str(tree), "--work", str(work), "--records", str(records)],
                   check=True, env=env, cwd=str(ROOT))
    return json.loads(records.read_text(encoding="utf-8"))


def _short(text: str, limit: int = 400) -> str:
    return text if len(text) <= limit else text[:limit] + f"... ({len(text)} chars)"


def compare(base: list, head: list) -> int:
    if [r["label"] for r in base] != [r["label"] for r in head]:
        raise SystemExit("the two runs made different call lists")
    differing = 0
    for old, new in zip(base, head):
        fields = [k for k in ("rc", "stdout", "stderr", "files") if old[k] != new[k]]
        if not fields:
            continue
        differing += 1
        print(f"DIFF {old['label']}: {' '.join(old['argv'])}")
        for key in fields:
            print(f"  {key} base: {_short(json.dumps(old[key]))}")
            print(f"  {key} head: {_short(json.dumps(new[key]))}")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one fixed call list against a base revision and "
                    "this working tree, and print every record that differs.")
    parser.add_argument("base", nargs="?", help="local git revision to compare against")
    parser.add_argument("--scratch", type=Path,
                        help="directory for the worktree, inputs and records "
                             "(default: a new temporary directory, removed after)")
    parser.add_argument("--run-tree", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--records", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.run_tree:
        run_tree(args.run_tree.resolve(), args.work.resolve(), args.records)
        return 0
    if not args.base:
        parser.error("a base revision is required")

    scratch = (args.scratch or Path(tempfile.mkdtemp(prefix="parity-"))).resolve()
    scratch.mkdir(parents=True, exist_ok=True)
    worktree = scratch / "base"
    subprocess.run(["git", "worktree", "add", "--detach", str(worktree), args.base],
                   check=True, cwd=str(ROOT))
    try:
        base = _records(worktree, scratch, "base")
        head = _records(ROOT, scratch, "head")
        differing = compare(base, head)
        print(f"{len(head)} calls against {args.base}: {differing} records differ")
        return 1 if differing else 0
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)],
                       cwd=str(ROOT))
        if args.scratch is None:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""The one write path: every output is overwritten in place.

``fileio`` writes a vector or a report over the old bytes of its file
and then sets the length, never truncating to zero first.  The benchmark
cannot catch a stale tail, because its replays rewrite equal sizes, so
these tests write shorter, equal and longer outputs over old files, to
devices and FIFOs, and through the CLI's error paths.  A source scan
checks that no other module writes a file.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import chaosmark
from chaosmark import fileio
from chaosmark.cli import EXIT_IO, EXIT_OK, main

REPORT = fileio.report("analyze sensitivity", {"nv": 2}, report={"r": 0.5})
SRC = Path(chaosmark.__file__).parent.parent
MACHINE = Path(__file__).parent.parent / "scripts" / "machines" / "unary_increment.tm"


def _vector_text(path, vec) -> bytes:
    """write_vector's bytes for vec, from a write to a fresh file."""
    fresh = path.with_name("fresh" + path.suffix)
    fileio.write_vector(fresh, vec)
    return fresh.read_bytes()


@pytest.mark.parametrize("suffix", [".json", ".csv"])
@pytest.mark.parametrize("old_size", [64, 8, 1])
def test_a_vector_over_an_old_one_leaves_exactly_its_bytes(tmp_path, suffix,
                                                           old_size):
    path = tmp_path / f"v{suffix}"
    rng = np.random.default_rng(old_size)
    fileio.write_vector(path, rng.uniform(-1e6, 1e6, old_size))
    new = rng.uniform(-2.0, 2.0, 8)
    fileio.write_vector(path, new)
    assert path.read_bytes() == _vector_text(path, new)
    assert fileio.read_vector(path).tobytes() == new.tobytes()


@pytest.mark.parametrize("delta", [-7, 0, 7])
def test_old_bytes_of_any_length_are_replaced(tmp_path, delta):
    vector, report = tmp_path / "v.csv", tmp_path / "r.json"
    vec = np.array([0.5, -1.0, 1e-05])
    for path, write, want in (
            (vector, lambda: fileio.write_vector(vector, vec),
             _vector_text(vector, vec)),
            (report, lambda: fileio.emit(REPORT, "json", report),
             fileio.render_json(REPORT).encode())):
        path.write_bytes(b"\xff" * (len(want) + delta))
        write()
        assert path.read_bytes() == want


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_report_over_a_longer_one_leaves_exactly_its_bytes(tmp_path, fmt):
    path = tmp_path / f"r.{fmt}"
    fileio.emit({**REPORT, "points": list(range(500))}, fmt, path)
    fileio.emit(REPORT, fmt, path)
    render = fileio.render_json if fmt == "json" else fileio.render_kv_csv
    assert path.read_text(encoding="utf-8") == render(REPORT)


def test_a_tm_report_over_a_longer_tape_leaves_exactly_its_bytes(tmp_path):
    path, fresh = tmp_path / "r.json", tmp_path / "fresh.json"
    for tape, out in (("1" * 200, path), ("1", path), ("1", fresh)):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["tm", "--machine", str(MACHINE), "--tape", tape,
                         "--out", str(out)]) == EXIT_OK
    assert path.read_bytes() == fresh.read_bytes()


def test_reports_go_to_dev_null():
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze", "sensitivity", "--r", "0.1",
                     "--out", os.devnull]) == EXIT_OK
    fileio.emit(REPORT, "csv", os.devnull)


def test_a_report_goes_to_dev_stdout_on_a_pipe():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = ["analyze", "sensitivity", "--r", "0.01"]
    run = subprocess.run([sys.executable, "-m", "chaosmark.cli", *argv,
                          "--out", "/dev/stdout"], capture_output=True,
                         env=env, timeout=60, check=True)
    plain = subprocess.run([sys.executable, "-m", "chaosmark.cli", *argv],
                           capture_output=True, env=env, timeout=60, check=True)
    assert run.stdout == plain.stdout and run.stderr == b""
    assert json.loads(run.stdout)["command"] == "analyze sensitivity"


@pytest.mark.parametrize("name", ["v.csv", "r.json"])
def test_outputs_go_through_a_fifo(tmp_path, name):
    path = tmp_path / name
    os.mkfifo(path)
    got = []
    reader = threading.Thread(target=lambda: got.append(path.read_bytes()))
    reader.start()
    try:
        if name == "v.csv":
            vec = np.arange(1000.0)
            fileio.write_vector(path, vec)
            want = _vector_text(path, vec)
        else:
            fileio.emit(REPORT, "json", path)
            want = fileio.render_json(REPORT).encode()
    finally:
        # a failed writer never opened the FIFO; open it so the reader ends
        if reader.is_alive() and not got:
            with contextlib.suppress(OSError):
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [want]


@pytest.mark.parametrize("payload, fmt, error", [
    ({"x": float("nan")}, "json", ValueError),
    ({"x": "\udcff"}, "csv", UnicodeEncodeError),
])
def test_a_render_error_leaves_the_old_file(tmp_path, payload, fmt, error):
    path = tmp_path / f"r.{fmt}"
    fileio.emit(REPORT, fmt, path)
    old = path.read_bytes()
    with pytest.raises(error) as info:
        fileio.emit(payload, fmt, path)
    assert path.read_bytes() == old
    if error is UnicodeEncodeError:
        # the text Path.write_text raises for the same report
        with pytest.raises(error) as plain:
            (tmp_path / "plain.csv").write_text(fileio.render_kv_csv(payload),
                                                encoding="utf-8")
        assert str(info.value) == str(plain.value)


def _cli_error(argv, capsys) -> str:
    assert main(argv) == EXIT_IO
    return capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "tm", "embed"])
def test_an_out_that_cannot_be_opened_keeps_its_error_line(tmp_path, capsys,
                                                           command):
    host = tmp_path / "host.json"
    fileio.write_vector(host, np.ones(8))
    argv = {"analyze": ["analyze", "sensitivity", "--r", "0.1"],
            "tm": ["tm", "--machine", str(MACHINE), "--tape", "11"],
            "embed": ["embed", "--scheme", "ss", "--host", str(host),
                      "--message", "1"]}[command]
    folder = tmp_path / "d.json"
    folder.mkdir()
    assert _cli_error([*argv, "--out", str(folder)], capsys) == (
        f"error: [Errno 21] Is a directory: '{folder}'\n")
    missing = tmp_path / "missing" / "r.json"
    assert _cli_error([*argv, "--out", str(missing)], capsys) == (
        f"error: [Errno 2] No such file or directory: '{missing}'\n")
    assert not missing.parent.exists()


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_created_file_has_the_umask_mode(tmp_path, umask):
    old = os.umask(umask)
    try:
        fileio.write_vector(tmp_path / "v.json", [1.0])
        fileio.emit(REPORT, "json", tmp_path / "r.json")
    finally:
        os.umask(old)
    for name in ("v.json", "r.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask


def test_an_overwritten_file_keeps_its_mode(tmp_path):
    path = tmp_path / "r.json"
    path.write_bytes(b"x" * 4000)
    path.chmod(0o640)
    fileio.emit(REPORT, "json", path)
    assert path.stat().st_mode & 0o777 == 0o640


def test_only_fileio_writes_files():
    """No module but fileio calls open(), os.open() or Path.write_*(),
    or imports orjson, through which the stego vector's text passes."""
    for path in sorted(Path(chaosmark.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        calls = {node.func.id if isinstance(node.func, ast.Name)
                 else node.func.attr
                 for node in nodes
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, (ast.Name, ast.Attribute))}
        writes = calls & {"open", "write_text", "write_bytes"}
        assert not writes or path.stem == "fileio", (path.stem, writes)
        imports = {alias.name.partition(".")[0] for node in nodes
                   if isinstance(node, ast.Import) for alias in node.names}
        imports |= {(node.module or "").partition(".")[0] for node in nodes
                    if isinstance(node, ast.ImportFrom)}
        assert "orjson" not in imports or path.stem == "fileio", path.stem

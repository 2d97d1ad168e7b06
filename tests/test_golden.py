"""Golden outputs: default analyze reports and stego vectors, byte for byte.

The fixtures under tests/golden were recorded from the CLI and pin its
output exactly; any change that alters a report or a stego vector
fails here, and each stego fixture must decode to its recorded bits.
A change that alters them on purpose bumps fileio.SCHEMA and records
the fixtures again with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from chaosmark import fileio
from chaosmark.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
HOST = GOLDEN / "host.json"
KEY = "9"
MESSAGE = "1011001110001011"

ANALYZE_CASES = {
    "sensitivity": ["--r", "0.001"],
    "transitivity": ["--r-a", "0.01"],
    "regularity": ["--eps", "0.001"],
    "expansivity": ["--eps", "0.5"],
    "continuity": [],
    "scan": ["--r", "0.01"],
    "trace_sensitivity": ["--pair", "sensitivity"],
    "trace_expansivity": ["--pair", "expansivity"],
    "trace_random": ["--pair", "random"],
}
SCHEMES = ("ss", "iss", "nw")
# What each stego fixture decodes to.  Plain ss at the CLI's default
# gamma 1 loses five bits of MESSAGE to host interference, so its fixture
# pins that failed round trip rather than the message.
DECODED = {"ss": "1011111110110011", "iss": MESSAGE, "nw": MESSAGE}


def analyze_report(name: str) -> str:
    argv = ["analyze", name.split("_")[0], *ANALYZE_CASES[name],
            "--nv", "8", "--seed", "0"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


def stego_vector(scheme: str, out: Path) -> bytes:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["embed", "--scheme", scheme, "--host", str(HOST),
                     "--key", KEY, "--message", MESSAGE,
                     "--out", str(out), "--meta", str(out) + ".meta"]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(ANALYZE_CASES))
def test_default_analyze_report(name):
    expected = (GOLDEN / f"analyze_{name}.json").read_text(encoding="utf-8")
    assert analyze_report(name) == expected


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stego_vector(scheme, tmp_path):
    expected = (GOLDEN / f"stego_{scheme}.json").read_bytes()
    assert stego_vector(scheme, tmp_path / "stego.json") == expected


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stego_fixture_decodes(scheme):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["decode", "--scheme", scheme,
                     "--stego", str(GOLDEN / f"stego_{scheme}.json"),
                     "--key", KEY, "--nc", str(len(MESSAGE))]) == 0
    assert out.getvalue() == DECODED[scheme] + "\n"


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    if not HOST.exists():
        fileio.write_vector(HOST, np.random.default_rng(9).uniform(-2.0, 2.0, 64))
    for name in ANALYZE_CASES:
        (GOLDEN / f"analyze_{name}.json").write_text(analyze_report(name),
                                                     encoding="utf-8")
    for scheme in SCHEMES:
        out = GOLDEN / f"stego_{scheme}.json"
        stego_vector(scheme, out)
        Path(str(out) + ".meta").unlink()


if __name__ == "__main__":
    record()

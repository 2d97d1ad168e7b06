"""scripts/edges.py judges each run by one contract and covers every budget."""

import importlib.util
from pathlib import Path

import pytest

from chaosmark import budget, cli

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("edges", ROOT / "scripts" / "edges.py")
edges = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(edges)

ACCEPT = edges.Case("accept", "tm", 0, "MAX_TM_STEPS", 100,
                    lambda out, work: out == b"ok\n")
REFUSE = edges.Case("refuse", "tm", 2, "MAX_TM_STEPS", 100)
LINE = "error: max_steps 10000001 exceeds MAX_TM_STEPS=10000000\n"


def test_clean_records_pass():
    assert edges.judge(ACCEPT, 0, "", 99.9, b"ok\n", None) == []
    assert edges.judge(REFUSE, 2, LINE, 30, b"", None) == []


@pytest.mark.parametrize("case, record, breach", [
    (ACCEPT, (-9, "", 50, b"ok\n"), "exit -9"),
    (REFUSE, (137, LINE, 50, b""), "exit 137"),
    (ACCEPT, (1, "", 50, b"ok\n"), "exit 1, expected 0"),
    (REFUSE, (3, LINE, 50, b""), "exit 3, expected 2"),
    (ACCEPT, (0, "Traceback (most recent call last):\n", 50, b"ok\n"), "traceback"),
    (REFUSE, (2, "", 50, b""), "0 stderr lines"),
    (REFUSE, (2, LINE + LINE, 50, b""), "2 stderr lines"),
    (REFUSE, (2, "error: out of memory\n", 50, b""), "naming MAX_TM_STEPS"),
    (ACCEPT, (0, "", 100, b"ok\n"), "peak 100 MiB"),
    (REFUSE, (2, LINE, 100.5, b""), "ceiling 100 MiB"),
    (ACCEPT, (0, "", 50, b"no\n"), "check failed"),
])
def test_each_kind_of_breach_is_flagged(case, record, breach):
    code, stderr, peak, stdout = record
    breaches = edges.judge(case, code, stderr, peak, stdout, None)
    assert len(breaches) == 1 and breach in breaches[0], breaches


def test_a_check_that_raises_is_a_breach():
    case = ACCEPT._replace(check=lambda out, work: out.decode()["report"])
    assert "check raised" in edges.judge(case, 0, "", 50, b"ok\n", None)[0]


def test_every_budget_has_an_edge_and_a_refusal(tmp_path):
    rows = edges.cases(tmp_path)
    limits = sorted(name for name in vars(budget) if name.startswith("MAX_"))
    assert sorted(edges.UNREACHABLE) == ["MAX_CORRECTION_TERMS", "MAX_SERIES_TERMS"]
    for name in limits:
        kinds = {row.expect for row in rows if row.limit == name}
        assert kinds == (set() if name in edges.UNREACHABLE else {0, 2}), (name, kinds)
    assert all(row.limit for row in rows if row.expect >= 2)
    assert len({row.name for row in rows}) == len(rows) >= 30


def test_every_row_parses(tmp_path):
    for row in edges.cases(tmp_path):
        assert cli.build_parser().parse_args(row.argv.split()).command, row.name

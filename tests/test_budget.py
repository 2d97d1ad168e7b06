"""The budget module owns every work limit and the one error type.

Each limit is patched on ``chaosmark.budget`` alone, and one public call
per limit must refuse with ``BudgetExceeded`` naming it.  A source scan
checks that no other module defines a limit or the error, binds a limit
by name, or (outside the CLI and the package root) imports the
Turing-machine module.
"""

import ast
import os
from pathlib import Path

import pytest

import chaosmark
from chaosmark import (
    BudgetExceeded,
    PhasePoint,
    SchemeConfig,
    SpaceConfig,
    Strategy,
    budget,
    d_strategy,
    divergence_trace,
    generate_carriers,
    initial_configuration,
    parse_machine,
    tm_encoding,
    tm_run,
    witness_strong_transitivity,
)
from chaosmark.cli import build_parser
from chaosmark.fileio import parse_message_text

SPACE = SpaceConfig(nv=2)
WALKER = parse_machine("states: a\nalphabet: 1 #\ninitial: a\na 1 -> a 1 R\n")


def _series():
    d_strategy(Strategy(2, [[1.0, 0.0]]), Strategy(2), SPACE)


def _splice():
    # the gap (15, 0) at N = 10 needs 2 whole-vector terms
    witness_strong_transitivity(PhasePoint(Strategy(2), [0.0, 0.0]), 0.1,
                                PhasePoint(Strategy(2), [15.0, 0.0]), SPACE)


def _orbit():
    x = PhasePoint(Strategy(2), [0.0, 0.0])
    divergence_trace(x, x, 5, SPACE)


def _steps():
    tm_run(WALKER, initial_configuration(WALKER, "11"), 2)


def _tape():
    initial_configuration(WALKER, "11")


def _message():
    parse_message_text("0x1", 2)


def _bit_string():
    parse_message_text("0b11", None)


def _carriers():
    generate_carriers(SchemeConfig(nv=2, nc=2))


def _media():
    args = build_parser().parse_args(["analyze", "sensitivity", "--r", "0.1",
                                      "--nv", "2", "--out", os.devnull])
    args.func(args)


@pytest.mark.parametrize("name, call", [
    ("MAX_SERIES_TERMS", _series),
    ("MAX_CORRECTION_TERMS", _splice),
    ("MAX_ORBIT_WORK", _orbit),
    ("MAX_TM_STEPS", _steps),
    ("MAX_TAPE_CELLS", _tape),
    ("MAX_MESSAGE_BITS", _message),
    ("MAX_MESSAGE_BITS", _bit_string),
    ("MAX_CARRIER_COMPONENTS", _carriers),
    ("MAX_MEDIA_COMPONENTS", _media),
])
def test_each_limit_is_read_from_the_budget_module(name, call, monkeypatch):
    call()
    monkeypatch.setattr(budget, name, 1)
    with pytest.raises(BudgetExceeded, match=f"{name}=1"):
        call()


def test_charge_refuses_only_over_the_limit(monkeypatch):
    monkeypatch.setattr(budget, "MAX_ORBIT_WORK", 3)
    budget.charge("MAX_ORBIT_WORK", 3, "three")
    with pytest.raises(BudgetExceeded) as info:
        budget.charge("MAX_ORBIT_WORK", 3.5, "three and a half")
    assert str(info.value) == "three and a half, more than MAX_ORBIT_WORK=3"


def test_one_error_class():
    assert chaosmark.BudgetExceeded is budget.BudgetExceeded
    assert tm_encoding.BudgetExceeded is budget.BudgetExceeded


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in Path(chaosmark.__file__).parent.glob("*.py")}


def _imported(tree):
    """(module, name) for every name a `from ... import` binds."""
    return [(node.module or "", alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_only_the_budget_module_defines_limits_and_the_error():
    modules = _modules()
    assert "budget" in modules
    for stem, tree in modules.items():
        classes = {node.name for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)}
        targets = {target.id for node in ast.walk(tree)
                   if isinstance(node, (ast.Assign, ast.AnnAssign))
                   for target in (node.targets if isinstance(node, ast.Assign)
                                  else [node.target])
                   if isinstance(target, ast.Name)}
        owns = ("BudgetExceeded" in classes
                or any(t.startswith("MAX_") for t in targets))
        assert owns == (stem == "budget"), stem
        assert not [name for module, name in _imported(tree)
                    if module == "budget" and name.startswith("MAX_")], stem


def test_only_the_cli_and_the_package_import_the_tm_module():
    for stem, tree in _modules().items():
        uses_tm = any(module == "tm_encoding" or name == "tm_encoding"
                      for module, name in _imported(tree))
        uses_tm |= any(alias.name.endswith("tm_encoding")
                       for node in ast.walk(tree)
                       if isinstance(node, ast.Import) for alias in node.names)
        assert not uses_tm or stem in ("__init__", "cli"), stem

"""Package surface: every exported name resolves, and only once, and no
module imports at its top what only one of its functions needs."""

import ast
from pathlib import Path

import chaosmark


def test_all_names_resolve_without_duplicates():
    names = chaosmark.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(chaosmark, n)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from chaosmark import *", namespace)
    assert set(chaosmark.__all__) <= set(namespace)


def test_exported_names_are_pinned():
    assert len(chaosmark.__all__) == 47
    assert sorted(chaosmark.__all__) == sorted("""
        BoundViolation BudgetExceeded CarrierError CarrierSet
        DEFAULT_TOLERANCE DecodeResult DimensionMismatch MachineParseError
        OrbitTrace PhasePoint SCHEMES SchemeConfig SpaceConfig Strategy
        TmConfiguration TmRunResult TuringMachine
        WitnessReport ZeroProjectionError apply_g as_message as_vector
        ball_index check_strategy_bounds d_inf d_phase d_strategy decode
        divergence_trace embed
        empirical_sensitivity_scan expansivity_counterexample expansivity_pair
        generate_carriers initial_configuration iterate_g
        parse_machine phase_point_to_dict random_phase_point shift
        strategy_to_dict tm_run watermark_strategy witness_continuity
        witness_regularity witness_sensitivity witness_strong_transitivity
    """.split())


def _module_level_imports(tree):
    """Top-level module names imported outside any function or class body."""
    names, stack = set(), list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add((node.module or "").partition(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_no_module_imports_orjson_or_hashlib_at_module_level():
    """Only a vector read or write needs orjson and only a key fingerprint
    needs hashlib, so tm and analyze runs must start without loading them."""
    for path in sorted(Path(chaosmark.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        eager = _module_level_imports(tree) & {"orjson", "hashlib"}
        assert not eager, (path.stem, eager)

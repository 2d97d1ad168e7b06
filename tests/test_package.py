"""Package surface: every exported name resolves, and only once."""

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
    assert len(chaosmark.__all__) == 48
    assert sorted(chaosmark.__all__) == sorted("""
        BoundViolation BudgetExceeded CarrierError CarrierSet
        DEFAULT_TOLERANCE DecodeResult DimensionMismatch MachineParseError
        OrbitTrace PhasePoint SCHEMES SchemeConfig SpaceConfig Strategy
        TmConfiguration TmRunResult TuringMachine
        WitnessReport ZeroProjectionError apply_g as_message as_vector
        ball_index check_strategy_bounds d_inf d_phase d_strategy decode
        divergence_trace embed
        empirical_sensitivity_scan expansivity_counterexample expansivity_pair
        generate_carriers initial_configuration iterate_g load_machine
        parse_machine phase_point_to_dict random_phase_point shift
        strategy_to_dict tm_run watermark_strategy witness_continuity
        witness_regularity witness_sensitivity witness_strong_transitivity
    """.split())

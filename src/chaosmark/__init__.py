"""Spread-spectrum data hiding as a topological dynamical system.

The package models watermark embedding as iteration of a map on a
phase space of (strategy sequence, media vector) pairs, provides the
classical spread-spectrum modulations as one strategy builder, ships
constructive witnesses for the chaotic properties of the map, and
encodes Turing machine runs as orbits of a step function.
"""

from .phase_space import (
    BoundViolation,
    DimensionMismatch,
    PhasePoint,
    SpaceConfig,
    Strategy,
    apply_g,
    as_vector,
    check_strategy_bounds,
    d_inf,
    d_phase,
    d_strategy,
    iterate_g,
    shift,
)
from .modulation import (
    SCHEMES,
    CarrierError,
    CarrierSet,
    DecodeResult,
    SchemeConfig,
    ZeroProjectionError,
    as_message,
    decode,
    embed,
    generate_carriers,
    watermark_strategy,
)
from .chaos_analysis import (
    DEFAULT_TOLERANCE,
    OrbitTrace,
    WitnessReport,
    ball_index,
    divergence_trace,
    empirical_sensitivity_scan,
    expansivity_counterexample,
    expansivity_pair,
    phase_point_to_dict,
    random_phase_point,
    strategy_to_dict,
    witness_continuity,
    witness_regularity,
    witness_sensitivity,
    witness_strong_transitivity,
)
from .budget import BudgetExceeded
from .tm_encoding import (
    MachineParseError,
    TmConfiguration,
    TmRunResult,
    TuringMachine,
    initial_configuration,
    parse_machine,
    tm_run,
)

__version__ = "0.1.0"

__all__ = [
    "BoundViolation",
    "BudgetExceeded",
    "CarrierError",
    "CarrierSet",
    "DEFAULT_TOLERANCE",
    "DecodeResult",
    "DimensionMismatch",
    "MachineParseError",
    "OrbitTrace",
    "PhasePoint",
    "SCHEMES",
    "SchemeConfig",
    "SpaceConfig",
    "Strategy",
    "TmConfiguration",
    "TmRunResult",
    "TuringMachine",
    "WitnessReport",
    "ZeroProjectionError",
    "apply_g",
    "as_message",
    "as_vector",
    "ball_index",
    "check_strategy_bounds",
    "d_inf",
    "d_phase",
    "d_strategy",
    "decode",
    "divergence_trace",
    "embed",
    "empirical_sensitivity_scan",
    "expansivity_counterexample",
    "expansivity_pair",
    "generate_carriers",
    "initial_configuration",
    "iterate_g",
    "parse_machine",
    "phase_point_to_dict",
    "random_phase_point",
    "shift",
    "strategy_to_dict",
    "tm_run",
    "watermark_strategy",
    "witness_continuity",
    "witness_regularity",
    "witness_sensitivity",
    "witness_strong_transitivity",
]

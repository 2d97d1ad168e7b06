"""Independent oracle for the strategy metric: the truncated series.

The package evaluates the strategy distance exactly; this evaluator
sums the first K terms in plain float64 instead and reports a bound on
what it left out, so the two can be checked against each other.
"""

from chaosmark import DimensionMismatch, SpaceConfig, Strategy, d_inf

SERIES_TRUNCATION = 64


def d_strategy_truncated(s: Strategy, t: Strategy,
                         space: SpaceConfig) -> tuple[float, float]:
    """Strategy distance summed term by term up to K = SERIES_TRUNCATION.

    Returns (value, tail_bound).  Termwise distances never exceed 2N,
    so the discarded tail is at most (9/N) * 2N * 10^(1-K) / 9, i.e.
    2 * 10^(1-K).
    """
    if s.dim != t.dim:
        raise DimensionMismatch(
            f"strategy dimensions differ: {s.dim} vs {t.dim}")
    acc = 0.0
    for k in range(SERIES_TRUNCATION):
        acc += d_inf(s.term(k), t.term(k)) * 10.0 ** (-k)
    tail_bound = 2.0 * 10.0 ** (-(SERIES_TRUNCATION - 1))
    return (9.0 / space.bound_n) * acc, tail_bound

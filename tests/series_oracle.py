"""Independent oracles for the strategy metric.

The package sums the strategy distance as an integer Horner series.
Two evaluators here check it from outside:

* ``series_exact`` adds one ``Fraction`` per term, head then one tail
  block scaled by the geometric factor; it must equal the package's
  series as a rational, and ``d_strategy_exact`` its floats.
* ``d_strategy_truncated`` sums the first K terms in plain float64 and
  reports a bound on what it left out.
"""

import math
from fractions import Fraction

from chaosmark import DimensionMismatch, SpaceConfig, Strategy, d_inf

SERIES_TRUNCATION = 64


def series_exact(s: Strategy, t: Strategy) -> Fraction:
    """sum_k d_inf(s_k, t_k) / 10^k as an exact rational.

    Past both prefixes the termwise distances repeat with period
    lcm(period_s, period_t), so the remaining series is one block
    scaled by the geometric factor 10^p / (10^p - 1).
    """
    head_len = max(len(s.prefix), len(t.prefix))
    p = math.lcm(s.period, t.period)
    total = Fraction(0)
    for k in range(head_len):
        dk = d_inf(s.term(k), t.term(k))
        if dk:
            total += Fraction(dk) / 10**k
    block = Fraction(0)
    for j in range(p):
        k = head_len + j
        dk = d_inf(s.term(k), t.term(k))
        if dk:
            block += Fraction(dk) / 10**k
    if block:
        total += block * 10**p / (10**p - 1)
    return total


def d_strategy_exact(s: Strategy, t: Strategy, space: SpaceConfig) -> float:
    """(9/N) * series_exact(s, t), rounded once to float64."""
    if s.dim != t.dim:
        raise DimensionMismatch(
            f"strategy dimensions differ: {s.dim} vs {t.dim}")
    scale = Fraction(9) / Fraction(float(space.bound_n))
    return float(scale * series_exact(s, t))


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

"""Phase space for iterated watermark embedding.

A phase point pairs an infinite sequence of bounded update vectors (the
strategy) with a finite media vector.  One application of the system map
consumes the head of the strategy: the media absorbs the first strategy
term and the strategy shifts left.  Strategies are eventually periodic,
stored as a finite prefix plus a tail that is either all-zero or a
repeating block; that representation is closed under shifting and lets
the strategy metric be evaluated in closed form.

Distances:

    d_inf(a, b)        sup-norm distance between two media vectors
    d_strategy(s, t)   (9/N) * sum_k d_inf(s_k, t_k) / 10^k
    d_phase(x, y)      d_inf on media plus d_strategy on strategies

The 10^-k weighting means the strategy distance encodes, decimal digit
by decimal digit, how deep the first disagreement between two
strategies lies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tm_encoding import BudgetExceeded

# Every finite double is an integer multiple of 2^-UNIT_BITS.
UNIT_BITS = 1074
# Most terms (head plus one tail block) one strategy series may sum.
# The Horner sum is quadratic in the count: on a shared 2-core x86 VM,
# tail periods 97 and 89 (8633 terms) take 0.07 s, and 316 and 315
# (99540 terms, the largest accepted pair of that shape) 2.4 s.
MAX_SERIES_TERMS = 10**5


class DimensionMismatch(ValueError):
    """Vector or strategy dimensions do not agree."""


class BoundViolation(ValueError):
    """A strategy term leaves the configured [-N, N] component range."""


def as_vector(values, dim: int | None = None) -> np.ndarray:
    """Copy ``values`` into a read-only 1-D float64 array.

    Rejects empty vectors, non-finite components, and (when ``dim`` is
    given) length mismatches.
    """
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatch(
            f"expected a non-empty 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector components must be finite")
    if dim is not None and arr.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {arr.size}")
    arr.setflags(write=False)
    return arr


def zeros_vector(dim: int) -> np.ndarray:
    arr = np.zeros(dim, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def basis_vector(dim: int, index: int, value: float = 1.0) -> np.ndarray:
    """Standard basis vector e_index scaled by ``value`` (0-based index)."""
    if not 0 <= index < dim:
        raise IndexError(f"basis index {index} out of range for dim {dim}")
    arr = np.zeros(dim, dtype=np.float64)
    arr[index] = value
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpaceConfig:
    """Phase-space parameters.

    nv       media dimension (and strategy term dimension)
    bound_n  component bound N, stored as a float: strategy terms live
             in [-N, N], so termwise distances reach 2N, which must be
             finite
    """

    nv: int
    bound_n: float = 10.0

    def __post_init__(self) -> None:
        if not isinstance(self.nv, int) or self.nv < 1:
            raise ValueError(f"nv must be a positive integer, got {self.nv!r}")
        if not (math.isfinite(2.0 * self.bound_n) and self.bound_n > 0):
            raise ValueError("bound_n must be positive with 2 * bound_n "
                             f"finite, got {self.bound_n!r}")
        object.__setattr__(self, "bound_n", float(self.bound_n))


@dataclass(frozen=True, eq=False)
class Strategy:
    """Eventually periodic sequence of update vectors.

    ``prefix`` holds the leading terms explicitly.  ``tail`` is the
    repeating block that follows; an empty tail means the sequence is
    zero from the end of the prefix on.  Instances are immutable; all
    editing helpers return new strategies.

    The constructor copies and validates every term into a read-only
    float64 vector.  Strategies derived from one (``shift``,
    ``with_term``) share its term arrays instead of copying them.
    """

    dim: int
    prefix: tuple[np.ndarray, ...] = ()
    tail: tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 1:
            raise DimensionMismatch(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "prefix",
                           tuple(as_vector(t, self.dim) for t in self.prefix))
        object.__setattr__(self, "tail",
                           tuple(as_vector(t, self.dim) for t in self.tail))
        object.__setattr__(self, "_zero", zeros_vector(self.dim))

    def _trusted(self, prefix: tuple, tail: tuple) -> Strategy:
        """Strategy of this dimension over terms that are already valid.

        Every term must be a read-only finite float64 vector of length
        dim, such as a term of a Strategy or a ``basis_vector``.  The
        terms and the zero vector are shared, neither copied nor checked.
        """
        out = object.__new__(Strategy)
        out.__dict__.update(dim=self.dim, prefix=prefix, tail=tail,
                            _zero=self._zero)
        return out

    @property
    def period(self) -> int:
        """Length of the repeating block (1 for the zero tail)."""
        return len(self.tail) if self.tail else 1

    def term(self, k: int) -> np.ndarray:
        """The k-th sequence element (0-based), total over all k >= 0."""
        if k < 0:
            raise IndexError(f"term index must be non-negative, got {k}")
        if k < len(self.prefix):
            return self.prefix[k]
        if self.tail:
            return self.tail[(k - len(self.prefix)) % len(self.tail)]
        return self._zero

    def with_term(self, k: int, value) -> Strategy:
        """New strategy equal to this one except term k is ``value``.

        The result is terms 0..k-1, then ``value``, then this strategy
        with its first k + 1 terms dropped.  Only ``value`` is
        validated; every other term is shared.
        """
        if k < 0:
            raise IndexError(f"term index must be non-negative, got {k}")
        rest = _dropped(self, k + 1)
        head = tuple(self.term(i) for i in range(k))
        return self._trusted(head + (as_vector(value, self.dim),) + rest.prefix,
                             rest.tail)


def check_strategy_bounds(s: Strategy, bound_n: float,
                          context: str = "strategy") -> None:
    """Raise BoundViolation if any term component leaves [-N, N]."""
    worst = max((float(np.max(np.abs(t))) for t in s.prefix + s.tail),
                default=0.0)
    if worst > bound_n:
        raise BoundViolation(
            f"{context} term component {worst!r} exceeds bound {bound_n!r}")


def _dropped(s: Strategy, n: int) -> Strategy:
    """n >= 1 steps of shift at once, sharing the terms that remain."""
    if n <= len(s.prefix):
        return s._trusted(s.prefix[n:], s.tail)
    if s.tail:
        rot = (n - len(s.prefix)) % len(s.tail)
        return s._trusted((), s.tail[rot:] + s.tail[:rot])
    return s._trusted((), ()) if s.prefix else s


def shift(s: Strategy) -> Strategy:
    """Drop the first sequence element.

    With an empty prefix the periodic tail rotates by one; the zero
    strategy is a fixed point.  The result shares the terms of s, so a
    step costs no copy or validation of the terms that remain.
    """
    return _dropped(s, 1)


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """A (strategy, media) pair; the state of the embedding system."""

    strategy: Strategy
    media: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "media", as_vector(self.media))
        if self.media.size != self.strategy.dim:
            raise DimensionMismatch(
                f"media dimension {self.media.size} does not match "
                f"strategy dimension {self.strategy.dim}")

    @property
    def dim(self) -> int:
        return self.strategy.dim


def apply_g(x: PhasePoint) -> PhasePoint:
    """One step of the embedding map: (shift(S), S_0 + E) for x = (S, E)."""
    return iterate_g(x, 1)


def iterate_g(x: PhasePoint, n: int) -> PhasePoint:
    """n-fold composition of apply_g (n = 0 returns x unchanged).

    The media absorbs terms 0..n-1 in order and the strategy drops them
    at once.  Terms are finite, so a sum that overflows stays +-inf and
    the final media check raises ValueError.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"iteration count must be a non-negative integer, got {n!r}")
    if not n:
        return x
    s, media = x.strategy, x.media
    for k in range(n):
        media = s.term(k) + media
    return PhasePoint(_dropped(s, n), media)


# ---------- metric ----------

def d_inf(a: np.ndarray, b: np.ndarray) -> float:
    """Sup-norm distance max_i |a_i - b_i| between equal-length vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.abs(a - b).max())


def _term_gap(s: Strategy, t: Strategy, k: int) -> int:
    """d_inf(s_k, t_k) as an integer multiple of 2^-UNIT_BITS."""
    num, den = d_inf(s.term(k), t.term(k)).as_integer_ratio()
    return num << (UNIT_BITS + 1 - den.bit_length())


def _series_exact(s: Strategy, t: Strategy) -> tuple[int, int]:
    """sum_k d_inf(s_k, t_k) / 10^k as an exact rational P / Q, unreduced.

    Past both prefixes (h terms) the termwise distances repeat with
    period p = lcm(period_s, period_t), so the remaining series is one
    block scaled by the geometric factor 10^p / (10^p - 1).  Each
    termwise distance is an integer m_k times 2^-UNIT_BITS, so Horner's
    rule sums the head and the block over integers, and
    Q = 2^UNIT_BITS * 10^h * (10^p - 1) holds both.  The term count
    h + p is checked before any term is read: more than
    MAX_SERIES_TERMS raise BudgetExceeded.
    """
    head_len = max(len(s.prefix), len(t.prefix))
    p = math.lcm(s.period, t.period)
    if head_len + p > MAX_SERIES_TERMS:
        raise BudgetExceeded(
            f"the strategy series needs {head_len + p} terms, "
            f"more than MAX_SERIES_TERMS={MAX_SERIES_TERMS}")
    head = block = 0
    for k in range(head_len):
        head = head * 10 + _term_gap(s, t, k)
    for k in range(head_len, head_len + p):
        block = block * 10 + _term_gap(s, t, k)
    repunit = 10**p - 1
    return 10 * (head * repunit + block), (10**head_len * repunit) << UNIT_BITS


def _scaled(num: int, den: int, space: SpaceConfig) -> float:
    """(9/N) * num / den, rounded once (int division is correctly rounded)."""
    a, b = space.bound_n.as_integer_ratio()
    return (9 * b * num) / (a * den)


def d_strategy(s: Strategy, t: Strategy, space: SpaceConfig) -> float:
    """Weighted series distance between two strategies, evaluated exactly.

    The value is (9/N) * sum_k d_inf(s_k, t_k) / 10^k.  Both sequences
    are eventually periodic, so the series is one head of h terms plus
    one tail block of lcm(period_s, period_t) terms, summed over
    integers and rounded once on return.  Distances between distinct
    strategies that differ only hundreds of terms deep can still
    underflow to 0.0 in float64.  A series of more than
    MAX_SERIES_TERMS terms raises BudgetExceeded before any is read.
    """
    if s.dim != t.dim:
        raise DimensionMismatch(
            f"strategy dimensions differ: {s.dim} vs {t.dim}")
    return _scaled(*_series_exact(s, t), space)


def d_phase(x: PhasePoint, y: PhasePoint, space: SpaceConfig) -> float:
    """Phase-space distance: media sup-norm plus strategy series distance."""
    return d_inf(x.media, y.media) + d_strategy(x.strategy, y.strategy, space)


def _orbit_distances(x: PhasePoint, y: PhasePoint, n_max: int,
                     space: SpaceConfig):
    """Yield (d_phase, d_inf of the media) of g^k(x), g^k(y), k = 0..n_max.

    The one walker of two orbits builds no point.  The strategy series
    is summed once, then stepped by the exact shift recurrence
    S' = 10 * (S - d_inf(s_k, t_k)), which reads no term once S is 0.
    Every distance equals d_phase of the points iterate_g builds, and
    a media that overflows raises ValueError.
    """
    if x.dim != y.dim:
        raise DimensionMismatch(f"point dimensions differ: {x.dim} vs {y.dim}")
    s, t = x.strategy, y.strategy
    num, den = _series_exact(s, t)
    a, b = x.media, y.media
    for k in range(n_max + 1):
        if k:
            if num:
                num = 10 * (num - (den >> UNIT_BITS) * _term_gap(s, t, k - 1))
            a, b = s.term(k - 1) + a, t.term(k - 1) + b
        media = d_inf(a, b)
        # finite media can still lie an infinite distance apart
        if not (math.isfinite(media)
                or np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("vector components must be finite")
        yield media + _scaled(num, den, space), media

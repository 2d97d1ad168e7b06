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
from itertools import chain, islice

import numpy as np

from . import budget

# Every finite double is an integer multiple of 2^-UNIT_BITS.
UNIT_BITS = 1074
# Most term components (rows times points times nv) one gather reads:
# one block of an orbit walk, or one read of a strategy series.  On a
# shared 2-core x86 VM the default scan took 79, 90 and 117 ms at 2^14,
# 2^13 and 2^12 (163 ms walking one trial at a time), and a 20-trial
# scan at nv 64 peaked at 575, 358 and 279 KiB under tracemalloc (65 KiB
# one trial at a time); 2^13 keeps each temporary near 64 KiB.
_BLOCK = 2**13
# Widest row (points times nv) one accumulate adds, at about 5 ns a
# component; wider rows add one at a time, at about 1 us a row.  On that
# VM _walk broke even at 224 columns: 40 against 39 us on 8192 components.
_WIDE = 224


class DimensionMismatch(ValueError):
    """Vector or strategy dimensions do not agree."""


class BoundViolation(ValueError):
    """A strategy term leaves the configured [-N, N] component range."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr made read-only in place, as a view numpy keeps read-only."""
    arr.setflags(write=False)
    return arr.view()


def _owned(values, arr: np.ndarray) -> np.ndarray:
    """arr, checked from values, as an array nothing can write: taken as
    it is if a view over memory read-only all the way down, frozen if
    np.asarray made it fresh, else copied in C order (a read-only owner
    too: whoever holds it can make it writable again)."""
    if arr is not values and arr.base is None:
        return _frozen(arr)
    base = arr
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    return arr if base is None and arr.base is not None else _frozen(arr.copy())


def as_vector(values, dim: int | None = None) -> np.ndarray:
    """``values`` as a read-only 1-D float64 array: a view of read-only
    memory as it is, any other array copied.  Rejects empty vectors,
    non-finite components, and (when ``dim`` is given) length mismatches.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatch(
            f"expected a non-empty 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector components must be finite")
    if dim is not None and arr.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {arr.size}")
    return _owned(values, arr)


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


def _block(values, dim: int) -> np.ndarray:
    """Read-only float64 (k, dim) block of finite terms, owned as _owned says."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape == (0,):
        arr = np.empty((0, dim))
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatch(
            f"expected a (k, {dim}) block of terms, got shape {arr.shape}")
    # count_nonzero skips the Python wrapper around .all()
    if np.count_nonzero(np.isfinite(arr)) < arr.size:
        raise ValueError("vector components must be finite")
    return _owned(values, arr)


@dataclass(frozen=True, eq=False)
class Strategy:
    """Eventually periodic sequence of update vectors.

    ``prefix`` holds the leading terms, one per row of a read-only
    float64 (k, dim) block; ``tail`` is the repeating block that follows,
    and an empty (0, dim) tail means zeros from there on.  The
    constructor, the only way to build one, copies any array but a view
    of read-only memory; ``shift`` and ``with_term`` share slices.
    """

    dim: int
    prefix: np.ndarray = ()
    tail: np.ndarray = ()

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 1:
            raise DimensionMismatch(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "prefix", _block(self.prefix, self.dim))
        object.__setattr__(self, "tail", _block(self.tail, self.dim))

    @property
    def period(self) -> int:
        """Length of the repeating block (1 for the zero tail)."""
        return len(self.tail) or 1

    def term(self, k: int) -> np.ndarray:
        """The k-th sequence element (0-based), total over all k >= 0."""
        if k < 0:
            raise IndexError(f"term index must be non-negative, got {k}")
        if k < len(self.prefix):
            return self.prefix[k]
        if len(self.tail):
            return self.tail[(k - len(self.prefix)) % len(self.tail)]
        return _frozen(np.zeros(self.dim))

    def with_term(self, k: int, value) -> Strategy:
        """New strategy equal to this one except term k is ``value``.

        The result is terms 0..k-1, then ``value``, then this strategy
        with its first k + 1 terms dropped, whose tail it shares.
        """
        if k < 0:
            raise IndexError(f"term index must be non-negative, got {k}")
        rest, tail = _rest(self, k + 1)
        value = as_vector(value, self.dim)[None]
        prefix = np.concatenate([_rows(self, 0, k), value, rest])
        return Strategy(self.dim, _frozen(prefix), tail)


def check_strategy_bounds(s: Strategy, bound_n: float,
                          context: str = "strategy") -> None:
    """Raise BoundViolation if any term component leaves [-N, N]."""
    worst = max(float(np.abs(block).max(initial=0.0))
                for block in (s.prefix, s.tail))
    if worst > bound_n:
        raise BoundViolation(
            f"{context} term component {worst!r} exceeds bound {bound_n!r}")


def _rows(s: Strategy, start: int, stop: int) -> np.ndarray:
    """Terms start..stop-1 of s as one read-only (stop - start, dim) block:
    a prefix slice, then tail rows gathered by index modulo the period."""
    h = len(s.prefix)
    if stop <= h:
        return s.prefix[start:stop]
    idx = np.arange(max(start, h) - h, stop - h)
    tail = (s.tail[idx % len(s.tail)] if len(s.tail)
            else np.zeros((len(idx), s.dim)))
    return _frozen(np.concatenate([s.prefix[start:], tail]) if start < h
                   else tail)


def _rest(s: Strategy, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Prefix and tail of s with its first n >= 1 terms dropped: slices
    of its blocks, except that a periodic tail rotates a copy."""
    h = len(s.prefix)
    if n <= h or not len(s.tail):
        return s.prefix[n:], s.tail
    rot = (n - h) % len(s.tail)
    return s.prefix[h:], _frozen(np.concatenate([s.tail[rot:], s.tail[:rot]]))


def _dropped(s: Strategy, n: int) -> Strategy:
    """n >= 1 steps of shift at once; the zero strategy is returned as is."""
    return Strategy(s.dim, *_rest(s, n)) if len(s.prefix) or len(s.tail) else s


def shift(s: Strategy) -> Strategy:
    """Drop the first sequence element: a prefix slice, else a copy of
    the tail rotated by one; the zero strategy is a fixed point."""
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

    The media absorbs terms 0..n-1 in order, a block of rows at a time
    through _walk, and the strategy drops them at once; a media that
    overflows raises ValueError."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"iteration count must be a non-negative integer, got {n!r}")
    if not n:
        return x
    s, media, rows = x.strategy, x.media, max(1, _BLOCK // x.dim)
    for k in range(0, n, rows):
        media = _walk(np.array(_rows(s, k, min(k + rows, n))), media)
    return PhasePoint(_dropped(s, n), media)


def _walk(walked: np.ndarray, media: np.ndarray) -> np.ndarray:
    """Turn walked, a fresh, writable (steps, ..., nv) block of term rows,
    in place into each point's media after each step from media before
    the first; return the last row.  One accumulate adds rows of up to
    _WIDE components, wider ones add one at a time; both add in order, so
    the bits are those of adding term by term.  An overflowed media stays
    +-inf (terms are finite), so the last row's check raises ValueError."""
    if media.size > _WIDE:
        for row in walked:
            row += media
            media = row
    else:
        walked[0] += media
        np.add.accumulate(walked, axis=0, out=walked)
    if not np.isfinite(walked[-1]).all():
        raise ValueError("vector components must be finite")
    return walked[-1]


# ---------- metric ----------

def d_inf(a: np.ndarray, b: np.ndarray) -> float:
    """Sup-norm distance max_i |a_i - b_i| between equal-length vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.abs(a - b).max())


def _unit_gaps(u: np.ndarray, v: np.ndarray) -> list[int]:
    """d_inf of each pair of rows of u and v (broadcast, the last axis
    the components) as integer multiples of 2^-UNIT_BITS, in C order."""
    gaps = np.abs(u - v).max(axis=-1).ravel().tolist()
    return [num << (UNIT_BITS + 1 - den.bit_length())
            for num, den in map(float.as_integer_ratio, gaps)]


def _series_exact(s: Strategy, t: Strategy) -> tuple[int, int]:
    """sum_k d_inf(s_k, t_k) / 10^k as an exact rational P / Q, unreduced.

    Past both prefixes (h terms) the termwise distances repeat with
    period p = lcm(period_s, period_t), so the remaining series is one
    block scaled by the geometric factor 10^p / (10^p - 1).  Each
    termwise distance is an integer m_k times 2^-UNIT_BITS, read a block
    of rows at a time, so Horner's rule sums the head and the block over
    integers, and Q = 2^UNIT_BITS * 10^h * (10^p - 1) holds both.  The
    term count h + p is checked before any term is read: more than
    MAX_SERIES_TERMS raise BudgetExceeded.
    """
    head_len = max(len(s.prefix), len(t.prefix))
    p = math.lcm(s.period, t.period)
    n = head_len + p
    budget.charge("MAX_SERIES_TERMS", n, f"the strategy series needs {n} terms")
    rows = max(1, _BLOCK // s.dim)
    gaps = chain.from_iterable(
        _unit_gaps(_rows(s, k, min(k + rows, n)), _rows(t, k, min(k + rows, n)))
        for k in range(0, n, rows))
    head = block = 0
    for m in islice(gaps, head_len):
        head = head * 10 + m
    for m in gaps:
        block = block * 10 + m
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


def _orbit_distances(x: PhasePoint, ys, n_max: int, space: SpaceConfig,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """d_phase and d_inf of the media between g^k(x) and g^k(y), for
    each companion y in ys and k = 0..n_max.

    Returns two float64 arrays of shape (n_max + 1, len(ys)).  The one
    walker of orbits builds no point: x walks once in lockstep with
    every companion, a block of steps at a time.  Each block gathers
    every point's term rows, turns them into media with _walk, and
    takes the media distances as one row max.
    Each companion's strategy series is summed once, then stepped by the
    exact shift recurrence S' = 10 * (S - d_inf(x_k, y_k)), whose
    termwise distances are read only while S is not 0.  Every distance
    equals d_phase of the points iterate_g builds, and a media that
    overflows raises ValueError.
    """
    for y in ys:
        if x.dim != y.dim:
            raise DimensionMismatch(
                f"point dimensions differ: {x.dim} vs {y.dim}")
    seeds = [_series_exact(x.strategy, y.strategy) for y in ys]
    nums = [num for num, _ in seeds]
    units = [den >> UNIT_BITS for _, den in seeds]
    # (9/N) * num / den as c * num / q, rounded once like _scaled
    a, b = space.bound_n.as_integer_ratio()
    c, qs = 9 * b, [a * den for _, den in seeds]
    points = [x, *ys]
    media = np.array([p.media for p in points])
    d_media = np.empty((n_max + 1, len(ys)))
    d_media[0] = np.abs(media[0] - media[1:]).max(axis=1)
    d_series = np.zeros((n_max + 1, len(ys)))
    d_series[0] = [c * num / q for num, q in zip(nums, qs)]
    steps = max(1, _BLOCK // (len(points) * x.dim))
    for start in range(0, n_max, steps):
        stop = min(start + steps, n_max)
        terms = np.array([_rows(p.strategy, start, stop) for p in points])
        live = [j for j, num in enumerate(nums) if num]
        if live:
            n = stop - start
            gaps = _unit_gaps(terms[0], terms[[j + 1 for j in live]])
            for i, j in enumerate(live):
                num, unit, q, column = nums[j], units[j], qs[j], []
                for m in gaps[i * n:(i + 1) * n]:
                    num = 10 * (num - unit * m)
                    column.append(c * num / q)
                    if not num:
                        break
                nums[j] = num
                d_series[start + 1:start + 1 + len(column), j] = column
        media = _walk(terms.swapaxes(0, 1), media)
        gap = terms[1:] - terms[0]
        d_media[start + 1:stop + 1] = np.abs(gap, out=gap).max(axis=2).T
    return d_media + d_series, d_media

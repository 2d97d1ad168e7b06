"""Spread-spectrum message modulation over a carrier family.

Three classical schemes share one strategy builder: plain additive
spread spectrum (ss), improved spread spectrum with host-projection
rejection (iss), and the normalized host-rejecting variant (nw).  Each
turns (host, message, carriers) into the finite strategy whose term i
is coef_i * u_i; only the coefficient coef_i differs between schemes.
The embedding map adds one term to the host per iteration, so the
stego vector y = x + sum_i coef_i * u_i is the media component after
nc iterations.

Decoding is correlation against the same key-derived carriers: the
sign of the projection of the received vector onto carrier i yields
bit i.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import budget
from .phase_space import (
    DimensionMismatch,
    PhasePoint,
    SpaceConfig,
    Strategy,
    as_vector,
    check_strategy_bounds,
    _frozen,
    _owned,
    iterate_g,
)

SCHEMES = ("ss", "iss", "nw")

_MAX_KEY = 2**64


class CarrierError(ValueError):
    """Carrier generation cannot satisfy the requested configuration."""


class ZeroProjectionError(ValueError):
    """Host is orthogonal to a carrier; the nw coefficient sign is undefined."""


@dataclass(frozen=True)
class SchemeConfig:
    """Embedding parameters shared by all schemes.

    Each scheme reads only its own coefficient parameters (ss: gamma,
    iss: alpha and lam, nw: eta); see watermark_strategy.

    nv             host/carrier dimension
    nc             number of carriers = message length in bits
    gamma          ss amplitude per carrier
    alpha          iss amplitude per carrier
    lam            iss host-rejection factor in [0, 1]
    eta            nw distortion factor (positive)
    key            64-bit unsigned seed for carrier generation
    orthonormalize draw orthonormal carriers (requires nc <= nv)
    bound_n        strategy component bound N, as SpaceConfig takes it
    """

    nv: int
    nc: int
    gamma: float = 1.0
    alpha: float = 1.0
    lam: float = 1.0
    eta: float = 1.0
    key: int = 0
    orthonormalize: bool = True
    bound_n: float = 10.0

    def __post_init__(self) -> None:
        space = SpaceConfig(self.nv, self.bound_n)  # nv still before nc
        object.__setattr__(self, "bound_n", space.bound_n)
        if not isinstance(self.nc, int) or self.nc < 1:
            raise ValueError(f"nc must be a positive integer, got {self.nc!r}")
        if self.orthonormalize and self.nc > self.nv:
            raise CarrierError(
                f"cannot orthonormalize {self.nc} carriers in dimension {self.nv}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lam must lie in [0, 1], got {self.lam!r}")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be positive, got {self.eta!r}")
        if not isinstance(self.key, int) or not 0 <= self.key < _MAX_KEY:
            raise ValueError("key must be an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class CarrierSet:
    """nc carrier vectors of dimension nv, one per message bit: ``matrix``
    keeps a view of read-only memory and copies any other, so none is writable."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
            raise CarrierError(f"expected a (nc, nv) matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise CarrierError("carrier components must be finite")
        object.__setattr__(self, "matrix", _owned(self.matrix, mat))

    @property
    def nc(self) -> int:
        return self.matrix.shape[0]

    @property
    def nv(self) -> int:
        return self.matrix.shape[1]


def as_message(bits, nc: int | None = None) -> np.ndarray:
    """Validate bits, each 0 or 1 by value, as a read-only uint8 array."""
    values = np.asarray(bits if isinstance(bits, np.ndarray) else list(bits),
                        dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("message must be a non-empty bit sequence")
    if not np.all((values == 0) | (values == 1)):
        raise ValueError("message bits must be 0 or 1")
    if nc is not None and values.size != nc:
        raise ValueError(f"message length {values.size} does not match nc {nc}")
    return _frozen(values.astype(np.uint8))


def generate_carriers(cfg: SchemeConfig) -> CarrierSet:
    """Draw the carrier family deterministically from cfg.key.

    Components come from a counter-based keyed generator, so the same
    (key, nv, nc, orthonormalize) always reproduces the same carriers.
    With orthonormalize set the rows are keyed rows of the orthonormal
    DCT-II basis (see _carriers), drawn in O(nv * nc); without it they
    are the raw Gaussian draw.

    The last carrier set is kept in process memory and returned again
    for the same (key, nv, nc, orthonormalize), whatever the scheme or
    amplitudes, so an embed and a decode with one key pay for one draw.
    It is derived secret material, held until a call with another key
    or size replaces it.  More than MAX_CARRIER_COMPONENTS components
    (nc times nv) raise BudgetExceeded before the cache is asked.
    """
    budget.charge("MAX_CARRIER_COMPONENTS", cfg.nc * cfg.nv, f"{cfg.nc} "
                  f"carriers of {cfg.nv} components hold {cfg.nc * cfg.nv}")
    return _carriers(cfg.key, cfg.nv, cfg.nc, cfg.orthonormalize)


# One entry: a round trip reuses its own draw, and at most one secret
# set (32 MiB at 4096 x 1024) stays in memory.
@functools.lru_cache(maxsize=1)
def _carriers(key: int, nv: int, nc: int, orthonormalize: bool) -> CarrierSet:
    """The keyed carrier set, drawn from one Philox(key) stream.

    Without orthonormalize it is the stream's (nc, nv) standard normal
    draw.  With it, carrier i, component j is

        sign_j * c_k * cos(pi * k_i * (2 * perm_j + 1) / (2 * nv)),

    c_0 = sqrt(1/nv) and c_k = sqrt(2/nv) otherwise: rows k_i of the
    orthonormal DCT-II basis with the components permuted and signed,
    which keeps them orthonormal.  The stream draws, in this order:

    1. the rows: a permutation of every k in [1, nv) but nv/2, then 0
       and, for even nv, nv/2; the first nc are taken.  Rows 0 and nv/2
       hold one magnitude, so an integer host projects onto them as a
       multiple of one float, often exactly zero; they come last.
    2. perm, a permutation of range(nv);
    3. one integer in {0, 1} per component, 1 flipping its sign.

    The angle index k * (2 * perm_j + 1), plus 2 * nv for a flipped sign,
    is reduced mod 4 * nv in integers and read from one table of cosines.
    The matrix is C-ordered.
    """
    rng = np.random.Generator(np.random.Philox(key=key))
    if not orthonormalize:
        return CarrierSet(_frozen(rng.standard_normal((nc, nv))))
    flat = [0] if nv % 2 else [0, nv // 2]
    others = np.arange(1, nv)
    rows = np.concatenate((rng.permutation(others[others != flat[-1]]), flat))[:nc]
    perm = rng.permutation(nv)
    flip = rng.integers(0, 2, nv)
    perm *= 2
    perm += 1
    flip *= 2 * nv
    # below 2 * nv**2 + 2 * nv, so int64 cannot wrap while nv < 2**31
    index = np.multiply.outer(rows, perm)
    index += flip
    index %= 4 * nv
    del perm, flip  # the table below can take their memory
    mat = _cosines(nv)[index]
    mat *= np.where(rows == 0, math.sqrt(1.0 / nv), math.sqrt(2.0 / nv))[:, None]
    return CarrierSet(_frozen(mat))


def _cosines(nv: int) -> np.ndarray:
    """cos(pi * t / (2 * nv)) for t in [0, 4 * nv): a quarter wave (cos
    below pi/4, sin above), mirrored and negated, so t and t + 2 * nv
    hold exactly opposite values and a half turn is an exact sign flip."""
    table = np.empty(4 * nv)
    low = nv // 2 + 1
    table[:low] = np.cos(np.pi * np.arange(low) / (2 * nv))
    table[low:nv + 1] = np.sin(np.pi * np.arange(nv - low, -1, -1) / (2 * nv))
    np.negative(table[nv - 1::-1], out=table[nv + 1:2 * nv + 1])
    np.negative(table[:2 * nv], out=table[2 * nv:])
    return table


# ---------- strategy builder ----------

# BoundViolation context per scheme, naming the parameters to revisit.
_BOUND_CONTEXT = {
    "ss": "ss term (gamma inconsistent with bound_n)",
    "iss": "iss term (alpha/lam inconsistent with bound_n)",
    "nw": "nw term (eta/host inconsistent with bound_n)",
}


def watermark_strategy(scheme: str, x, m, c: CarrierSet,
                       cfg: SchemeConfig) -> Strategy:
    """The scheme's strategy: term i is coef_i * u_i, then zeros.

    With s_i = (-1)^{m_i} and p_i = <x, u_i> / ||u_i||^2:

        ss   coef_i = s_i * gamma                  (ignores the host)
        iss  coef_i = s_i * alpha - lam * p_i
        nw   coef_i = -(1 + eta * s_i * sign(p_i)) * p_i

    At lam = 1 (orthonormal carriers) iss replaces the host component
    along each carrier by the message amplitude.  nw flips the host
    projection onto carrier i to the side selected by bit i, with
    magnitude eta * |<x, u_i>|; hosts orthogonal to any carrier are
    rejected (the coefficient sign would be undefined).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    host = None if scheme == "ss" else as_vector(x, c.nv)
    signs = 1.0 - 2.0 * as_message(m, c.nc)  # bit 0 -> +1, bit 1 -> -1
    if scheme == "ss":
        coef = signs * cfg.gamma
    else:
        norms2 = np.einsum("ij,ij->i", c.matrix, c.matrix)
        if np.any(norms2 == 0.0):
            raise CarrierError("zero-norm carrier")
        proj = c.matrix @ host
        if scheme == "iss":
            coef = signs * cfg.alpha - cfg.lam * proj / norms2
        else:
            if np.any(proj == 0.0):
                bad = int(np.nonzero(proj == 0.0)[0][0])
                raise ZeroProjectionError(
                    f"host is orthogonal to carrier {bad}; nw cannot encode against it")
            coef = -(1.0 + cfg.eta * signs * np.sign(proj)) * proj / norms2
    out = Strategy(c.nv, coef[:, None] * c.matrix)
    check_strategy_bounds(out, cfg.bound_n, context=_BOUND_CONTEXT[scheme])
    return out


# ---------- embed / decode ----------

def embed(x, m, c: CarrierSet, cfg: SchemeConfig, scheme: str) -> np.ndarray:
    """Embed message m into host x by running the phase-space map.

    The scheme's strategy seeds a phase point (strategy, x); nc
    applications of the map absorb one term per step, and the media
    component of the final point is the stego vector.

    Returns the stego vector (read-only, same dimension as x).
    """
    host = as_vector(x, cfg.nv)
    if c.nv != cfg.nv or c.nc != cfg.nc:
        raise DimensionMismatch(
            f"carriers are ({c.nc}, {c.nv}) but config expects ({cfg.nc}, {cfg.nv})")
    strategy = watermark_strategy(scheme, host, m, c, cfg)
    return iterate_g(PhasePoint(strategy, host), cfg.nc).media


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """Recovered bits plus the carrier indices that decoded from a tie.

    A tie (projection exactly zero) carries no sign information; such
    bits decode to 0 and their indices are listed in ``ties``.
    """

    bits: np.ndarray
    ties: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", as_message(self.bits))
        object.__setattr__(self, "ties", tuple(int(i) for i in self.ties))


def decode(y, c: CarrierSet, scheme: str) -> DecodeResult:
    """Recover the message from a received vector by projection signs.

    ss/iss place bit 0 on the positive side of each carrier; nw places
    bit 0 on the negative side (it flips the host projection).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    proj = c.matrix @ as_vector(y, c.nv)
    bits = proj > 0.0 if scheme == "nw" else proj < 0.0
    ties = tuple(int(i) for i in np.nonzero(proj == 0.0)[0])
    return DecodeResult(bits=bits.astype(np.uint8), ties=ties)

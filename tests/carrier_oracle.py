"""Independent oracle for the carrier family: DCT-II rows by float cos.

The package reduces each angle index mod 4 * nv in integers and reads
one table of cosines; this oracle calls math.cos on the angle itself,
entry by entry, with no reduction and no table.  It follows the draw
order that modulation._carriers documents, so the two can be checked
against each other at any size.
"""

import math

import numpy as np

from chaosmark import CarrierSet, SchemeConfig


def dct_row_carriers(cfg: SchemeConfig) -> CarrierSet:
    """The carrier family of cfg, one float cos per component."""
    nv = cfg.nv
    rng = np.random.Generator(np.random.Philox(key=cfg.key))
    if not cfg.orthonormalize:
        return CarrierSet(rng.standard_normal((cfg.nc, nv)))
    flat = [0] if nv % 2 else [0, nv // 2]
    others = [k for k in range(1, nv) if k not in flat]
    rows = [*rng.permutation(np.array(others, dtype=np.int64)).tolist(), *flat]
    perm = rng.permutation(nv).tolist()
    flip = rng.integers(0, 2, nv).tolist()
    mat = []
    for k in rows[:cfg.nc]:
        scale = math.sqrt((1.0 if k == 0 else 2.0) / nv)
        mat.append([(-scale if flip[j] else scale)
                    * math.cos(math.pi * k * (2 * perm[j] + 1) / (2 * nv))
                    for j in range(nv)])
    return CarrierSet(np.array(mat))

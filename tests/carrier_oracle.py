"""Independent oracle for the carrier family: two-pass Gram-Schmidt.

The package orthonormalizes the keyed Gaussian draw with one QR
factorization; this oracle runs modified Gram-Schmidt twice over the
same draw instead ("twice is enough"), so the two bases can be checked
against each other at any size.
"""

import numpy as np

from chaosmark import CarrierError, CarrierSet, SchemeConfig


def gram_schmidt_carriers(cfg: SchemeConfig) -> CarrierSet:
    """The carrier family of cfg, orthonormalized row by row."""
    rng = np.random.Generator(np.random.Philox(key=cfg.key))
    mat = rng.standard_normal((cfg.nc, cfg.nv))
    if cfg.orthonormalize:
        for i in range(cfg.nc):
            v = mat[i]
            for _ in range(2):
                for j in range(i):
                    v = v - (v @ mat[j]) * mat[j]
            norm = float(np.linalg.norm(v))
            if norm < 1e-12:
                raise CarrierError("drawn carriers are not linearly independent")
            mat[i] = v / norm
    return CarrierSet(mat)

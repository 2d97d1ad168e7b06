"""Probabilistic security of the three schemes under a watermark-only attack.

The chaos witnesses are offered as a complement to the probabilistic
notions of embedding security, so the schemes should also behave as the
published results say:

- natural watermarking (nw, eta = 1) keeps the host distribution along
  the carrier (Bas and Cayre 2006, "Natural watermarking: a secure spread
  spectrum technique for WOA"; Cayre and Bas 2008, IEEE TIFS 3(1));
- plain spread spectrum (ss) shifts it and leaks the carrier to PCA of
  the stego vectors (Cayre, Fontaine and Furon 2005, "Watermarking
  security: theory and practice", IEEE TSP 53(10));
- iss replaces the host projection by +-alpha, so it fails the
  distribution check too.

The KS threshold is the two-sample critical value at alpha = 0.001 for
equal sizes n, c(alpha) * sqrt(2 / n) with c(0.001) = 1.95, about 0.0436
at n = 4000, fixed from theory before any run.  With this seed the
distances read ss 0.113, iss 0.350 and nw 0.017, and
|cos(top PC, carrier)| reads ss 0.994.
"""

import numpy as np
import pytest

from chaosmark import SchemeConfig, embed, generate_carriers

NV, KEY, HOSTS = 32, 11, 4000
# c(alpha) = sqrt(-ln(alpha / 2) / 2) = 1.949 at alpha = 0.001
KS_CRITICAL = np.sqrt(-np.log(0.001 / 2.0) / 2.0) * np.sqrt(2.0 / HOSTS)


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    points = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, points, side="right") / a.size
    cdf_b = np.searchsorted(b, points, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


@pytest.fixture(scope="module")
def woa():
    """Gaussian hosts, one random bit each, and every scheme's stego set."""
    cfg = SchemeConfig(nv=NV, nc=1, key=KEY)
    carriers = generate_carriers(cfg)
    rng = np.random.default_rng(0)
    hosts = rng.standard_normal((HOSTS, NV))
    bits = rng.integers(0, 2, HOSTS)
    stego = {scheme: np.array([embed(h, [b], carriers, cfg, scheme)
                               for h, b in zip(hosts, bits)])
             for scheme in ("ss", "iss", "nw")}
    return carriers.matrix[0], hosts, stego


def test_threshold_is_the_theoretical_critical_value():
    assert KS_CRITICAL == pytest.approx(0.0436, abs=1e-4)


def test_nw_keeps_the_host_distribution_along_the_carrier(woa):
    carrier, hosts, stego = woa
    assert ks_distance(stego["nw"] @ carrier, hosts @ carrier) < KS_CRITICAL


@pytest.mark.parametrize("scheme", ["ss", "iss"])
def test_ss_and_iss_change_the_distribution_along_the_carrier(woa, scheme):
    carrier, hosts, stego = woa
    assert ks_distance(stego[scheme] @ carrier, hosts @ carrier) > KS_CRITICAL


def test_pca_of_ss_stego_vectors_finds_the_carrier(woa):
    # along the carrier ss adds +-gamma to a unit-variance host, so the
    # variance there doubles and the top principal component points at it;
    # a random direction in 32 dimensions has |cos| near 1/sqrt(32) = 0.18
    carrier, _, stego = woa
    centered = stego["ss"] - stego["ss"].mean(axis=0)
    top = np.linalg.svd(centered, full_matrices=False)[2][0]
    assert abs(top @ carrier) > 0.9

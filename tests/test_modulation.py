"""Modulation schemes: carriers, the strategy builder, embed/decode."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shift_oracle
from carrier_oracle import gram_schmidt_carriers
from chaosmark import (
    BoundViolation,
    CarrierError,
    CarrierSet,
    DimensionMismatch,
    SchemeConfig,
    ZeroProjectionError,
    as_message,
    decode,
    embed,
    PhasePoint,
    generate_carriers,
    modulation,
    phase_space,
    watermark_strategy,
)

EYE2 = CarrierSet(np.eye(2))

# Keys and (nv, nc) sizes at which the carriers are checked against the
# Gram-Schmidt oracle and for orthonormality.
ORACLE_KEYS = (0, 1, 2**64 - 1)
ORACLE_SIZES = [(1, 1), (8, 8), (64, 16), (257, 48), (1024, 128)]


def ss_watermark(m, c, conf):
    return (conf.gamma * (1.0 - 2.0 * np.asarray(m, dtype=np.float64))) @ c.matrix


def cfg(**kw):
    base = dict(nv=2, nc=2, key=7)
    base.update(kw)
    return SchemeConfig(**base)


class TestCarriers:
    def test_same_key_reproduces_carriers(self):
        a = generate_carriers(cfg(nv=16, nc=4, key=11))
        b = generate_carriers(cfg(nv=16, nc=4, key=11))
        assert np.array_equal(a.matrix, b.matrix)

    def test_different_keys_differ(self):
        seen = {generate_carriers(cfg(nv=16, nc=4, key=k)).matrix.tobytes()
                for k in range(100)}
        assert len(seen) == 100

    def test_orthonormality(self):
        for key in (3, *ORACLE_KEYS):
            for nv, nc in ORACLE_SIZES:
                c = generate_carriers(cfg(nv=nv, nc=nc, key=key))
                gram = c.matrix @ c.matrix.T
                assert np.max(np.abs(gram - np.eye(nc))) < 1e-9, (key, nv, nc)

    @pytest.mark.parametrize("key", ORACLE_KEYS)
    @pytest.mark.parametrize("nv,nc", ORACLE_SIZES)
    def test_matches_gram_schmidt_oracle(self, key, nv, nc):
        conf = cfg(nv=nv, nc=nc, key=key)
        got = generate_carriers(conf).matrix
        want = gram_schmidt_carriers(conf).matrix
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_dependent_draw_is_rejected(self, monkeypatch):
        real = np.random.Generator

        class RepeatedRow:
            """The keyed draw with its last row replaced by its first."""

            def __init__(self, bit_generator):
                self._rng = real(bit_generator)

            def standard_normal(self, shape):
                mat = self._rng.standard_normal(shape)
                mat[-1] = mat[0]
                return mat

        monkeypatch.setattr(modulation.np.random, "Generator", RepeatedRow)
        with pytest.raises(CarrierError, match="not linearly independent"):
            generate_carriers(cfg(nv=8, nc=3, key=5))

    def test_orthonormalize_needs_enough_dimensions(self):
        with pytest.raises(CarrierError):
            cfg(nv=2, nc=4)

    def test_overcomplete_family_without_orthonormalize(self):
        c = generate_carriers(cfg(nv=2, nc=4, orthonormalize=False))
        assert c.matrix.shape == (4, 2)

    def test_matrix_is_readonly(self):
        c = generate_carriers(cfg(nv=4, nc=2))
        with pytest.raises(ValueError):
            c.matrix[0, 0] = 1.0

    def test_indexing(self):
        assert EYE2.nc == 2 and EYE2.nv == 2


class TestMessages:
    def test_round_trip(self):
        m = as_message([0, 1, 1, 0])
        assert m.dtype == np.uint8
        assert m.tolist() == [0, 1, 1, 0]

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            as_message([0, 2])
        with pytest.raises(ValueError):
            as_message([])
        with pytest.raises(ValueError):
            as_message([0, 1], nc=3)


class TestSpreadSpectrum:
    def test_watermark_hand_example(self):
        w = ss_watermark([0, 1], EYE2, cfg(gamma=2.0))
        assert w.tolist() == [2.0, -2.0]

    def test_strategy_terms_then_zero_tail(self):
        s = watermark_strategy("ss", None, [0, 1], EYE2, cfg(gamma=2.0))
        assert s.term(0).tolist() == [2.0, 0.0]
        assert s.term(1).tolist() == [0.0, -2.0]
        assert s.term(2).tolist() == [0.0, 0.0]
        assert s.tail.shape == (0, 2)

    def test_embed_adds_watermark_to_host(self):
        host = np.array([0.25, -1.5])
        y = embed(host, [0, 1], EYE2, cfg(gamma=2.0), "ss")
        w = ss_watermark([0, 1], EYE2, cfg(gamma=2.0))
        assert np.allclose(y, host + w, rtol=0.0, atol=1e-12)

    def test_closed_form_matches_iterated_map(self):
        c = generate_carriers(cfg(nv=32, nc=8, key=5))
        rng = np.random.default_rng(0)
        host = rng.standard_normal(32)
        m = rng.integers(0, 2, size=8)
        conf = cfg(nv=32, nc=8, key=5, gamma=0.75)
        y = embed(host, m, c, conf, "ss")
        direct = host + ss_watermark(m, c, conf)
        assert np.max(np.abs(y - direct)) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=2, max_size=2))
    def test_flipping_bits_negates_watermark(self, bits):
        flipped = [1 - b for b in bits]
        w = ss_watermark(bits, EYE2, cfg(gamma=3.0))
        v = ss_watermark(flipped, EYE2, cfg(gamma=3.0))
        assert np.array_equal(w, -v)

    def test_amplitude_beyond_bound_rejected(self):
        with pytest.raises(BoundViolation,
                           match=re.escape("ss term (gamma inconsistent")):
            watermark_strategy("ss", None, [0, 1], EYE2, cfg(gamma=50.0))


class TestImprovedSpreadSpectrum:
    def test_lam_zero_reduces_to_plain_ss(self):
        host = np.array([1.25, -0.5])
        a = watermark_strategy("iss", host, [0, 1], EYE2, cfg(alpha=2.0, lam=0.0))
        b = watermark_strategy("ss", None, [0, 1], EYE2, cfg(gamma=2.0))
        for k in range(3):
            assert a.term(k).tolist() == b.term(k).tolist()

    def test_lam_one_replaces_host_projection(self):
        c = generate_carriers(cfg(nv=16, nc=4, key=9))
        rng = np.random.default_rng(1)
        host = rng.standard_normal(16) * 3.0
        conf = cfg(nv=16, nc=4, key=9, alpha=1.5, lam=1.0)
        y = embed(host, [0, 1, 1, 0], c, conf, "iss")
        proj = c.matrix @ y
        want = np.array([1.5, -1.5, -1.5, 1.5])
        assert np.max(np.abs(proj - want)) <= 1e-9

    def test_hand_example(self):
        # host projection 3 on carrier 0: coefficient 1*2 - 0.5*3 = 0.5
        s = watermark_strategy("iss", [3.0, 0.0], [0, 0], EYE2,
                               cfg(alpha=2.0, lam=0.5))
        assert s.term(0).tolist() == [0.5, 0.0]
        assert s.term(1).tolist() == [0.0, 2.0]

    def test_orthogonal_host_reduces_to_ss_with_matching_amplitude(self):
        c = CarrierSet(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        host = np.array([0.0, 0.0, 7.5])
        a = watermark_strategy("iss", host, [1, 0], c,
                               cfg(nv=3, nc=2, alpha=2.0, lam=1.0))
        b = watermark_strategy("ss", None, [1, 0], c, cfg(nv=3, nc=2, gamma=2.0))
        for k in range(3):
            assert a.term(k).tolist() == b.term(k).tolist()

    @pytest.mark.parametrize("host,conf", [
        ([0.0, 0.0], dict(alpha=50.0)),
        ([100.0, 0.0], dict(alpha=1.0, lam=1.0)),
    ])
    def test_amplitude_beyond_bound_rejected(self, host, conf):
        with pytest.raises(BoundViolation,
                           match=re.escape("iss term (alpha/lam inconsistent")):
            watermark_strategy("iss", host, [0, 1], EYE2, cfg(**conf))


class TestNormalizedScheme:
    def test_hand_example(self):
        carriers = CarrierSet(np.array([[1.0, 0.0]]))
        conf = cfg(nv=2, nc=1, eta=1.0)
        s = watermark_strategy("nw", [3.0, 0.0], [0], carriers, conf)
        assert s.term(0).tolist() == [-6.0, 0.0]
        y = embed([3.0, 0.0], [0], carriers, conf, "nw")
        assert y.tolist() == [-3.0, 0.0]

    def test_orthogonal_host_rejected(self):
        carriers = CarrierSet(np.array([[1.0, 0.0]]))
        with pytest.raises(ZeroProjectionError):
            watermark_strategy("nw", [0.0, 5.0], [0], carriers, cfg(nv=2, nc=1))

    def test_host_beyond_bound_rejected(self):
        # coefficient -(1 + 1) * 30 = -60 lies outside [-10, 10]
        carriers = CarrierSet(np.array([[1.0, 0.0]]))
        with pytest.raises(BoundViolation,
                           match=re.escape("nw term (eta/host inconsistent")):
            watermark_strategy("nw", [30.0, 0.0], [0], carriers, cfg(nv=2, nc=1))

    def test_small_eta_vanishing_distortion(self):
        c = generate_carriers(cfg(nv=8, nc=2, key=2))
        rng = np.random.default_rng(2)
        host = rng.standard_normal(8)
        conf = cfg(nv=8, nc=2, key=2, eta=1e-6)
        y = embed(host, [0, 1], c, conf, "nw")
        proj = c.matrix @ y
        # residual projection magnitude scales with eta
        assert np.max(np.abs(proj)) <= 1e-6 * np.max(np.abs(c.matrix @ host)) + 1e-12

    def test_host_rejection_identity(self):
        c = generate_carriers(cfg(nv=32, nc=4, key=11))
        rng = np.random.default_rng(3)
        host = rng.standard_normal(32) * 2.0
        bits = [1, 0, 0, 1]
        conf = cfg(nv=32, nc=4, key=11, eta=0.25)
        y = embed(host, bits, c, conf, "nw")
        host_proj = c.matrix @ host
        signs = np.where(np.array(bits) == 0, 1.0, -1.0)
        want = -conf.eta * signs * np.abs(host_proj)
        assert np.max(np.abs(c.matrix @ y - want)) <= 1e-9

    def test_complement_message_mirrors_projections(self):
        carriers = CarrierSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        conf = cfg(eta=0.5)
        host = [4.0, -2.0]
        y0 = embed(host, [0, 0], carriers, conf, "nw")
        y1 = embed(host, [1, 1], carriers, conf, "nw")
        assert np.array_equal(y0, -y1)
        assert decode(y0, carriers, "nw").bits.tolist() == [0, 0]
        assert decode(y1, carriers, "nw").bits.tolist() == [1, 1]


class TestDecode:
    @pytest.mark.parametrize("scheme", ["ss", "iss", "nw"])
    def test_round_trip_is_exact(self, scheme):
        rng = np.random.default_rng(42)
        for trial in range(20):
            conf = SchemeConfig(nv=24, nc=6, key=trial, gamma=4.0,
                                alpha=1.0, lam=1.0, eta=0.8)
            c = generate_carriers(conf)
            host = rng.standard_normal(24)
            m = rng.integers(0, 2, size=6)
            y = embed(host, m, c, conf, scheme)
            got = decode(y, c, scheme)
            assert got.bits.tolist() == m.tolist()
            assert got.ties == ()

    @pytest.mark.parametrize("scheme", ["ss", "iss", "nw"])
    def test_zero_vector_decodes_to_flagged_ties(self, scheme):
        got = decode([0.0, 0.0], EYE2, scheme)
        assert got.bits.tolist() == [0, 0]
        assert got.ties == (0, 1)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            decode([1.0, 1.0], EYE2, "css")
        with pytest.raises(ValueError):
            watermark_strategy("css", [0.0, 0.0], [0, 0], EYE2, cfg())


class TestOrbitCost:
    @pytest.mark.parametrize("scheme", ["ss", "iss", "nw"])
    @pytest.mark.parametrize("nv,nc", [(8, 4), (64, 16), (257, 48), (1024, 32)])
    def test_stego_matches_validating_oracle(self, scheme, nv, nc):
        rng = np.random.default_rng(nv + nc)
        for key in (0, 5):
            conf = SchemeConfig(nv=nv, nc=nc, key=key)
            c = generate_carriers(conf)
            host = rng.uniform(-2.0, 2.0, nv)
            m = rng.integers(0, 2, size=nc)
            start = PhasePoint(watermark_strategy(scheme, host, m, c, conf), host)
            expected = shift_oracle.iterate_g(start, nc).media
            assert embed(host, m, c, conf, scheme).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("nc", [256, 512])
    def test_embed_validates_linearly_many_vectors(self, nc, monkeypatch):
        """Each map step validates its new media vector and no term again."""
        conf = SchemeConfig(nv=nc, nc=nc, key=1)
        c = generate_carriers(conf)
        host = np.random.default_rng(nc).uniform(-2.0, 2.0, nc)
        m = np.random.default_rng(nc + 1).integers(0, 2, size=nc)
        calls = [0]
        validate = phase_space.as_vector

        def counting(values, dim=None):
            calls[0] += 1
            return validate(values, dim)

        monkeypatch.setattr(phase_space, "as_vector", counting)
        monkeypatch.setattr(modulation, "as_vector", counting)
        embed(host, m, c, conf, "iss")
        assert calls[0] <= 2 * nc + 8


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(lam=1.5), dict(lam=-0.1), dict(eta=0.0), dict(gamma=0.0),
        dict(gamma=-1.0), dict(key=-1), dict(key=2**64), dict(nv=0),
        dict(nc=0), dict(bound_n=0.0),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            cfg(**bad)

    def test_embed_checks_carrier_shape(self):
        c = generate_carriers(cfg(nv=4, nc=2))
        with pytest.raises(DimensionMismatch):
            embed([0.0] * 2, [0, 1], c, cfg(nv=2, nc=2), "ss")

"""Modulation schemes: carriers, the strategy builder, embed/decode."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shift_oracle
from carrier_oracle import dct_row_carriers
from chaosmark import (
    BoundViolation,
    CarrierError,
    CarrierSet,
    DecodeResult,
    DimensionMismatch,
    SchemeConfig,
    SpaceConfig,
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
# float-cos oracle and for orthonormality.
ORACLE_KEYS = (0, 1, 2**64 - 1)
ORACLE_SIZES = [(1, 1), (8, 8), (64, 16), (257, 48), (1024, 128)]


def ss_watermark(m, c, conf):
    return (conf.gamma * (1.0 - 2.0 * np.asarray(m, dtype=np.float64))) @ c.matrix


def cfg(**kw):
    base = dict(nv=2, nc=2, key=7)
    base.update(kw)
    return SchemeConfig(**base)


@pytest.fixture(autouse=True)
def fresh_carrier_cache():
    """Start and end every test with no cached carrier set.

    A set cached by an earlier test would let a test that patches the
    draw skip the patched generator, and a set drawn under a patch must
    not reach a later test.
    """
    modulation._carriers.cache_clear()
    yield
    modulation._carriers.cache_clear()


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
                assert np.max(np.abs(gram - np.eye(nc))) <= 4e-15, (key, nv, nc)

    @pytest.mark.parametrize("key", ORACLE_KEYS)
    @pytest.mark.parametrize("nv,nc", ORACLE_SIZES)
    def test_matches_gram_schmidt_oracle(self, key, nv, nc):
        # the float-cos oracle of the DCT-row family
        conf = cfg(nv=nv, nc=nc, key=key)
        got = generate_carriers(conf).matrix
        want = dct_row_carriers(conf).matrix
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("nv", [1, 2, 3, 8, 9, 64, 257])
    def test_a_full_draw_is_an_orthogonal_matrix(self, nv):
        # nc = nv takes every DCT row once, so no two carriers can depend
        for key in ORACLE_KEYS:
            c = generate_carriers(cfg(nv=nv, nc=nv, key=key)).matrix
            assert np.max(np.abs(c @ c.T - np.eye(nv))) <= 4e-15
            assert np.max(np.abs(c.T @ c - np.eye(nv))) <= 4e-15

    def test_single_magnitude_rows_come_last(self):
        # rows 0 and nv/2 hold one magnitude in every component; with
        # nc <= nv - 2 no key draws them, and a full draw ends on them
        nv = 1024
        for key in range(1000):
            nc = nv - 2 if key % 100 == 0 else 48
            mat = generate_carriers(cfg(nv=nv, nc=nc, key=key)).matrix
            assert np.all(np.ptp(np.abs(mat), axis=1) > 0), key
        for nv in (1023, 1024):
            mat = generate_carriers(cfg(nv=nv, nc=nv, key=5)).matrix
            spread = np.ptp(np.abs(mat), axis=1)
            flat = 1 if nv % 2 else 2
            assert np.all(spread[:-flat] > 0) and np.all(spread[-flat:] == 0)
            assert np.all(np.abs(mat[nv - flat]) == np.sqrt(1.0 / nv))

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

    def test_matrix_cannot_be_made_writable(self):
        c = generate_carriers(cfg(nv=4, nc=2))
        with pytest.raises(ValueError):
            c.matrix.setflags(write=True)
        with pytest.raises(ValueError):
            CarrierSet(np.eye(3)).matrix.setflags(write=True)

    def test_indexing(self):
        assert EYE2.nc == 2 and EYE2.nv == 2


def carrier_cache():
    info = modulation._carriers.cache_info()
    return info.hits, info.misses, info.currsize


class TestCarrierCache:
    """generate_carriers keeps its last set, keyed by (key, nv, nc, orthonormalize)."""

    BASE = dict(nv=16, nc=4, key=11)

    def test_other_scheme_parameters_reuse_the_set(self):
        first = generate_carriers(cfg(**self.BASE))
        for amplitudes in (dict(gamma=20.0), dict(alpha=-3.0, lam=0.25),
                           dict(eta=0.5), dict(bound_n=99.0)):
            assert generate_carriers(cfg(**self.BASE, **amplitudes)) is first
        assert carrier_cache() == (4, 1, 1)

    @pytest.mark.parametrize("scheme", ["ss", "iss", "nw"])
    def test_round_trip_draws_once(self, scheme):
        # gamma 20 lifts ss clear of the host; decode's config keeps the
        # defaults, and still hits the set embed drew.
        conf = cfg(nv=64, nc=16, key=2**63 + 5, gamma=20.0)
        host = np.random.default_rng(3).uniform(-2.0, 2.0, 64)
        m = np.random.default_rng(4).integers(0, 2, 16)
        y = embed(host, m, generate_carriers(conf), conf, scheme)
        got = decode(y, generate_carriers(cfg(nv=64, nc=16, key=2**63 + 5)), scheme)
        assert np.array_equal(got.bits, m)
        assert carrier_cache() == (1, 1, 1)

    @pytest.mark.parametrize("change", [
        dict(key=12), dict(nv=17), dict(nc=5), dict(orthonormalize=False)])
    def test_another_field_draws_again(self, change):
        first = generate_carriers(cfg(**self.BASE))
        conf = cfg(**{**self.BASE, **change})
        second = generate_carriers(conf)
        assert second is not first
        assert carrier_cache() == (0, 2, 1)
        modulation._carriers.cache_clear()
        assert generate_carriers(conf).matrix.tobytes() == second.matrix.tobytes()

    @pytest.mark.parametrize("nv,nc", [(8, 8), (257, 48), (1024, 128)])
    def test_hit_is_bit_identical_to_a_fresh_draw(self, nv, nc):
        conf = cfg(nv=nv, nc=nc, key=2**64 - 1)
        drawn = generate_carriers(conf)
        hit = generate_carriers(conf)
        assert hit is drawn and carrier_cache() == (1, 1, 1)
        modulation._carriers.cache_clear()
        fresh = generate_carriers(conf)
        assert fresh is not hit
        assert hit.matrix.tobytes() == fresh.matrix.tobytes()
        want = dct_row_carriers(conf).matrix
        assert np.max(np.abs(hit.matrix - want)) <= 1e-12

    def test_cache_holds_one_set(self):
        assert modulation._carriers.cache_info().maxsize == 1
        sets = [generate_carriers(cfg(nv=16, nc=4, key=k)) for k in range(5)]
        assert carrier_cache() == (0, 5, 1)
        assert generate_carriers(cfg(nv=16, nc=4, key=4)) is sets[-1]
        assert generate_carriers(cfg(nv=16, nc=4, key=0)) is not sets[0]
        assert carrier_cache() == (1, 6, 1)

    def test_carrier_error_is_raised_on_every_call(self, monkeypatch):
        # a table of NaN cosines: CarrierSet refuses the drawn components,
        # and the cache keeps no set and no error
        monkeypatch.setattr(modulation, "_cosines",
                            lambda nv: np.full(4 * nv, np.nan))
        for _ in range(2):
            with pytest.raises(CarrierError, match="must be finite"):
                generate_carriers(cfg(nv=8, nc=3, key=5))
        assert carrier_cache() == (0, 2, 0)


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
        # the message's own error, not numpy's TypeError or OverflowError
        for bits in ([None], [2**70], [0, 1, -2**70], ["0", "0.5"]):
            with pytest.raises(ValueError, match="^message bits must be 0 or 1$"):
                as_message(bits)

    @pytest.mark.parametrize("bits", [
        [0, 1, 1], [False, True, True], "011", ["0", "1", "1"],
        np.array([0, 1, 1], np.uint8), [0.0, 1.0, 1.0], iter([0, 1, 1]),
        (b for b in (0, 1, 1)), np.array([False, True, True]),
        np.array([0.0, 1.0, 1.0]),
        # read by float value: "0.99999999999999999" rounds to 1.0
        ["0.0", "1e0", "0.99999999999999999"]])
    def test_accepts_bits_of_every_kind(self, bits):
        assert as_message(bits).tolist() == [0, 1, 1]

    def test_rejects_fractional_bits(self):
        # an int64 cast alone reads these as 0, 1, 1 / 0, 0 / 0, 1
        for bits in ([0.5, 1.9, 1], [0.9, 0.2], [0.4, 1.2], np.array([0.5])):
            with pytest.raises(ValueError, match="^message bits must be 0 or 1$"):
                as_message(bits)
        with pytest.raises(ValueError, match="^message bits must be 0 or 1$"):
            DecodeResult(bits=[0.4, 1.2], ties=())
        conf = cfg(nv=4, nc=2, key=3)
        with pytest.raises(ValueError, match="^message bits must be 0 or 1$"):
            embed(np.ones(4), [0.9, 0.2], generate_carriers(conf), conf, "iss")


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


def _outcome(build):
    """The bound a config stores, with its type, or the ValueError's text."""
    try:
        bound = build().bound_n
    except ValueError as exc:
        return str(exc)
    return bound, type(bound)


@pytest.mark.parametrize("bound_n", [
    0.0, -0.0, 5e-324, 10.0, 8.988465674311579e307, 8.98846567431158e307,
    1e308, math.inf, math.nan])
@pytest.mark.parametrize("nv", [0, -1, 1, True])
def test_scheme_config_takes_nv_and_bound_n_as_space_config_does(nv, bound_n):
    # 8.988465674311579e307 is float max / 2, the largest N with 2N finite
    assert _outcome(lambda: SchemeConfig(nv=nv, nc=1, bound_n=bound_n)) == \
        _outcome(lambda: SpaceConfig(nv, bound_n))


def test_scheme_config_stores_the_bound_as_a_float():
    assert _outcome(lambda: cfg(bound_n=10)) == (10.0, float)

"""Phase space: shift dynamics, iteration, and the metric."""

import math
import re
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosmark import (
    BoundViolation,
    BudgetExceeded,
    DimensionMismatch,
    PhasePoint,
    SpaceConfig,
    Strategy,
    apply_g,
    as_vector,
    check_strategy_bounds,
    d_inf,
    d_phase,
    d_strategy,
    iterate_g,
    phase_space,
    shift,
)
import shift_oracle
from series_oracle import d_strategy_exact, d_strategy_truncated, series_exact

BOUND = 10.0
SPACE2 = SpaceConfig(nv=2, bound_n=BOUND)
SPACE3 = SpaceConfig(nv=3, bound_n=BOUND)

components = st.floats(min_value=-BOUND, max_value=BOUND,
                       allow_nan=False, allow_infinity=False, width=64)
media_components = st.floats(min_value=-100.0, max_value=100.0,
                             allow_nan=False, allow_infinity=False, width=64)


def unroll(s, count):
    """The same sequence as s, with count tail terms moved into the prefix."""
    extra = [s.term(len(s.prefix) + i) for i in range(count)]
    rot = count % len(s.tail) if len(s.tail) else 0
    return Strategy(s.dim,
                    np.concatenate([s.prefix, np.reshape(extra, (count, s.dim))]),
                    np.concatenate([s.tail[rot:], s.tail[:rot]]))


def vectors(dim, elements=components):
    return st.lists(elements, min_size=dim, max_size=dim)


@st.composite
def strategies3(draw):
    prefix = draw(st.lists(vectors(3), min_size=0, max_size=3))
    tail = draw(st.one_of(
        st.just(()),
        st.lists(vectors(3), min_size=1, max_size=2)))
    return Strategy(3, tuple(prefix), tuple(tail))


@st.composite
def points3(draw):
    return PhasePoint(draw(strategies3()), draw(vectors(3, media_components)))


class TestVectors:
    def test_as_vector_is_readonly_float64(self):
        v = as_vector([1, 2, 3])
        assert v.dtype == np.float64
        with pytest.raises(ValueError):
            v[0] = 5.0

    def test_rejects_nan_and_empty(self):
        with pytest.raises(ValueError):
            as_vector([1.0, float("nan")])
        with pytest.raises(DimensionMismatch):
            as_vector([])
        with pytest.raises(DimensionMismatch):
            as_vector([1.0, 2.0], dim=3)


class TestStrategy:
    def test_term_prefix_then_tail_then_zero(self):
        s = Strategy(2, (np.array([1.0, 2.0]),), (np.array([3.0, 4.0]),
                                                  np.array([5.0, 6.0])))
        assert s.term(0).tolist() == [1.0, 2.0]
        assert s.term(1).tolist() == [3.0, 4.0]
        assert s.term(2).tolist() == [5.0, 6.0]
        assert s.term(3).tolist() == [3.0, 4.0]
        z = Strategy(2)
        assert z.term(7).tolist() == [0.0, 0.0]

    def test_shift_drops_prefix_head(self):
        s = Strategy(2, [[1.0, 0.0], [2.0, 0.0]])
        t = shift(s)
        assert t.term(0).tolist() == [2.0, 0.0]
        assert len(t.prefix) == 1

    def test_shift_rotates_periodic_tail(self):
        s = Strategy(2, (), (np.array([1.0, 1.0]), np.array([-1.0, -1.0])))
        t = shift(s)
        assert t.term(0).tolist() == [-1.0, -1.0]
        assert t.term(1).tolist() == [1.0, 1.0]

    def test_zero_strategy_is_shift_fixed_point(self):
        z = Strategy(3)
        assert shift(z) is z

    def test_shift_matches_term_reindexing(self):
        s = Strategy(2, (np.array([1.0, 2.0]),), (np.array([3.0, 4.0]),
                                                  np.array([5.0, 6.0])))
        t = shift(s)
        for k in range(8):
            assert t.term(k).tolist() == s.term(k + 1).tolist()

    def test_shift_shares_terms(self):
        s = Strategy(2, ([1.0, 2.0], [3.0, 4.0]), ([5.0, 6.0], [7.0, 8.0]))
        t = shift(s)
        assert np.shares_memory(t.prefix, s.prefix)
        assert t.prefix.tolist() == [[3.0, 4.0]] and t.tail is s.tail
        u = shift(shift(t))
        # a rotation copies one period
        assert u.tail.tolist() == [[7.0, 8.0], [5.0, 6.0]]
        assert not np.shares_memory(u.tail, s.tail)

    @pytest.mark.parametrize("s", [
        Strategy(2, ([1.0, 2.0], [3.0, 4.0]), ([5.0, 6.0],)),
        Strategy(2, (), ([5.0, 6.0], [7.0, 8.0])),
        Strategy(2, ([1.0, 2.0],)),
    ], ids=["prefix-and-tail", "tail-only", "prefix-then-zero"])
    def test_shifted_and_edited_terms_stay_readonly(self, s):
        derived = [s]
        for _ in range(4):
            derived.append(shift(derived[-1]))
        derived.append(s.with_term(3, [9.0, 9.0]))
        for t in derived:
            shift_oracle.assert_valid_terms(t)
            for term in [*t.prefix, *t.tail]:
                with pytest.raises(ValueError):
                    term[0] = 0.0

    @settings(max_examples=100, deadline=None)
    @given(points3())
    def test_orbit_matches_validating_oracle(self, x):
        shared, validated = x, x
        for _ in range(8):
            shared, validated = apply_g(shared), shift_oracle.apply_g(validated)
            assert shift_oracle.same_point(shared, validated)

    def test_unroll_preserves_terms(self):
        s = Strategy(2, (np.array([9.0, 9.0]),), (np.array([1.0, 0.0]),
                                                  np.array([0.0, 1.0])))
        for count in range(5):
            u = unroll(s, count)
            assert len(u.prefix) == 1 + count
            for k in range(10):
                assert u.term(k).tolist() == s.term(k).tolist()

    def test_with_term_replaces_only_that_index(self):
        s = Strategy(2, (), (np.array([1.0, 1.0]),))
        t = s.with_term(3, [7.0, 7.0])
        assert t.term(3).tolist() == [7.0, 7.0]
        for k in [0, 1, 2, 4, 5]:
            assert t.term(k).tolist() == [1.0, 1.0]
        zero_tail = Strategy(2, ([1.0, 1.0],))
        t = zero_tail.with_term(3, [7.0, 7.0])
        assert t.term(3).tolist() == [7.0, 7.0] and t.tail.shape == (0, 2)
        for k in [1, 2, 4, 5]:
            assert t.term(k).tolist() == [0.0, 0.0]
        assert t.term(0).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("period", [2, 3, 4])
    @pytest.mark.parametrize("prefix_len", [0, 2, 6])
    @pytest.mark.parametrize("k", [0, 1, 3, 5, 9, 14, 41])
    def test_with_term_deep_in_a_periodic_tail(self, period, prefix_len, k):
        rng = np.random.default_rng([period, prefix_len, k])
        s = Strategy(2, tuple(rng.uniform(-9, 9, 2) for _ in range(prefix_len)),
                     tuple(rng.uniform(-9, 9, 2) for _ in range(period)))
        value = [10.0, -10.0]
        t = s.with_term(k, value)
        extra = max(0, k + 1 - prefix_len)
        oracle = unroll(s, extra)
        assert len(t.prefix) == prefix_len + extra
        assert [u.tolist() for u in t.tail] == [
            s.tail[(i + extra) % period].tolist() for i in range(period)]
        for j in range(k + 3 * period + 2):
            want = value if j == k else oracle.term(j).tolist()
            assert t.term(j).tolist() == want
            if j != k:
                assert t.term(j).tobytes() == s.term(j).tobytes()
        # the tail is shared unless the drop past term k rotated it
        assert np.shares_memory(t.tail, s.tail) == (k < prefix_len)

    @pytest.mark.parametrize("s", [
        Strategy(1, ([1.0], [2.0])),
        Strategy(1, (), ([3.0],)),
        Strategy(1),
    ], ids=["prefix-only", "tail-only", "zero"])
    @pytest.mark.parametrize("k", [-1, -2])
    def test_with_term_rejects_negative_index(self, s, k):
        with pytest.raises(IndexError,
                           match=f"term index must be non-negative, got {k}$"):
            s.with_term(k, [9.0])

    def test_bounds_check(self):
        s = Strategy(2, [[11.0, 0.0]])
        with pytest.raises(BoundViolation):
            check_strategy_bounds(s, 10.0)
        check_strategy_bounds(s, 11.0)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            Strategy(2, (np.array([1.0, 2.0, 3.0]),))


def same_terms(u, v):
    """u and v hold bit-identical blocks, prefix and tail alike."""
    return all(a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in ((u.prefix, v.prefix), (u.tail, v.tail)))


def shifted(s, n):
    for _ in range(n):
        s = shift(s)
    return s


class TestDrop:
    """The n-step drop against n repeated shifts."""

    S = Strategy(2, ([1.0, 2.0], [3.0, 4.0], [5.0, 6.0]),
                 ([7.0, 8.0], [9.0, 0.0], [-1.0, -2.0]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_inside_the_prefix(self, n):
        got = phase_space._dropped(self.S, n)
        assert same_terms(got, shifted(self.S, n))
        assert np.shares_memory(got.prefix, self.S.prefix)
        assert got.prefix.tolist() == self.S.prefix[n:].tolist()
        assert got.tail is self.S.tail

    def test_to_the_end_of_the_prefix(self):
        got = phase_space._dropped(self.S, 3)
        assert same_terms(got, shifted(self.S, 3))
        assert got.prefix.shape == (0, 2) and got.tail is self.S.tail

    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_past_the_prefix_into_a_zero_tail(self, n):
        s = Strategy(2, ([1.0, 2.0], [3.0, 4.0]))
        got = phase_space._dropped(s, n)
        assert same_terms(got, shifted(s, n))
        assert got.prefix.shape == got.tail.shape == (0, 2)
        assert got.term(0).tolist() == s.term(5).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 11, 3001])
    def test_past_the_prefix_into_a_periodic_tail(self, n):
        got = phase_space._dropped(self.S, n)
        assert same_terms(got, shifted(self.S, n))
        rot = (n - 3) % 3
        assert got.prefix.shape == (0, 2)
        assert got.tail.tolist() == np.concatenate(
            [self.S.tail[rot:], self.S.tail[:rot]]).tolist()
        for k in range(7):
            assert got.term(k).tobytes() == self.S.term(n + k).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_zero_strategy_is_returned_as_it_is(self, n):
        z = Strategy(3)
        assert phase_space._dropped(z, n) is z
        assert shifted(z, n) is z


class TestBlocks:
    """Prefix and tail are read-only (k, dim) float64 blocks."""

    def test_drop_shift_and_with_term_share_memory(self):
        s = Strategy(2, ([1.0, 2.0], [3.0, 4.0], [5.0, 6.0]), ([7.0, 8.0],))
        for derived in (phase_space._dropped(s, 2), shift(s)):
            assert np.shares_memory(derived.prefix, s.prefix)
            assert derived.tail is s.tail
        edited = s.with_term(0, [9.0, 9.0])
        assert edited.tail is s.tail
        assert edited.prefix.tolist() == [[9.0, 9.0], [3.0, 4.0], [5.0, 6.0]]

    def test_writable_source_is_copied(self):
        prefix, tail = np.ones((3, 2)), np.full((2, 2), 2.0)
        rows = [np.ones(2), np.ones(2)]
        s = Strategy(2, prefix, tail)
        t = Strategy(2, rows)
        prefix[0, 0] = tail[1, 1] = rows[0][0] = 7.0
        assert s.prefix.tolist() == [[1.0, 1.0]] * 3
        assert s.tail.tolist() == [[2.0, 2.0]] * 2
        assert t.prefix.tolist() == [[1.0, 1.0]] * 2
        for block in (s.prefix, s.tail, t.prefix):
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0, 0] = 0.0

    def test_read_only_block_is_taken_as_it_is(self):
        block = np.arange(6.0).reshape(3, 2).copy()
        block.setflags(write=False)
        s = Strategy(2, block, block[1:])
        assert s.prefix is block and np.shares_memory(s.tail, block)

    def test_read_only_view_of_writable_memory_is_copied(self):
        base = np.arange(6.0).reshape(3, 2)
        view = base.view()
        view.setflags(write=False)
        s = Strategy(2, view, view[1:])
        base[:] = math.nan
        assert s.prefix.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        assert s.tail.tolist() == [[2.0, 3.0], [4.0, 5.0]]
        assert not np.shares_memory(s.prefix, base)
        assert not np.shares_memory(s.tail, base)

    def test_terms_past_a_zero_tail_are_read_only(self):
        s = Strategy(2, [[1.0, 2.0]])
        walked = phase_space._terms(s)
        for t in (s.term(1), s.term(7), *islice(walked, 4)):
            assert not t.flags.writeable
        assert s.term(3).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("prefix", [(), np.empty((0, 3)), [[1.0, 2.0, 3.0]]])
    @pytest.mark.parametrize("tail", [(), np.empty((0, 3)), [[4.0, 5.0, 6.0]]])
    def test_empty_blocks(self, prefix, tail):
        s = Strategy(3, prefix, tail)
        assert s.prefix.shape == (len(prefix), 3)
        assert s.tail.shape == (len(tail), 3)
        assert s.period == max(len(tail), 1)
        expected = [*np.reshape(prefix, (-1, 3)).tolist(),
                    *(np.reshape(tail, (-1, 3)).tolist() * 3 or [[0.0] * 3] * 3)]
        assert [s.term(k).tolist() for k in range(len(expected))] == expected
        walked = iterate_g(PhasePoint(s, [0.0, 0.0, 0.0]), 4)
        assert walked.strategy.prefix.shape == (0, 3)
        check_strategy_bounds(s, 6.0)

    @pytest.mark.parametrize("block,shape", [
        ([1.0, 2.0], (2,)),
        (np.empty((0, 3)), (0, 3)),
        (np.ones((2, 2, 1)), (2, 2, 1)),
    ])
    def test_misshapen_blocks_are_rejected(self, block, shape):
        for parts in ((block, ()), ((), block)):
            with pytest.raises(DimensionMismatch,
                               match=rf"expected a \(k, 2\) block of terms, got shape {re.escape(str(shape))}"):
                Strategy(2, *parts)

    def test_nonfinite_terms_are_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="components must be finite"):
                Strategy(2, (), [[1.0, bad]])


class TestMap:
    def test_apply_g_absorbs_head_term(self):
        s = Strategy(2, [[1.0, 2.0], [3.0, 4.0]])
        x = PhasePoint(s, [10.0, 20.0])
        y = apply_g(x)
        assert y.media.tolist() == [11.0, 22.0]
        assert y.strategy.term(0).tolist() == [3.0, 4.0]
        assert x.strategy.term(0).tolist() == [1.0, 2.0]

    def test_iterate_matches_repeated_apply(self):
        s = Strategy(2, (np.array([1.0, 0.0]),), (np.array([0.0, 2.0]),))
        x = PhasePoint(s, [0.0, 0.0])
        stepped = x
        for n in range(6):
            direct = iterate_g(x, n)
            assert direct.media.tolist() == stepped.media.tolist()
            assert d_strategy(direct.strategy, stepped.strategy, SPACE2) == 0.0
            stepped = apply_g(stepped)

    def test_iterate_zero_steps_is_identity(self):
        x = PhasePoint(Strategy(2), [1.0, 2.0])
        assert iterate_g(x, 0) is x
        with pytest.raises(ValueError):
            iterate_g(x, -1)

    def test_apply_g_rejects_media_overflow(self):
        x = PhasePoint(Strategy(1, ([1e308],)), [1.7e308])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="finite"):
                apply_g(x)
            with pytest.raises(ValueError, match="finite"):
                iterate_g(x, 1)

    def test_media_overflow_midway_raises(self):
        # the media overflows at step 1 of 5 and stays +inf after it
        x = PhasePoint(Strategy(1, ([1e308], [1e308], [-1.0])), [1e308])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="finite"):
                iterate_g(x, 5)

    def test_long_prefix_matches_an_in_order_sum(self):
        rng = np.random.default_rng(10)
        terms = [rng.uniform(-10.0, 10.0, 10) for _ in range(10**4)]
        x = PhasePoint(Strategy(10, terms), rng.uniform(-5.0, 5.0, 10))
        want = np.array(x.media)
        for term in x.strategy.prefix:
            want = term + want
        got = iterate_g(x, 10**4)
        assert got.media.tobytes() == want.tobytes()
        assert got.strategy.prefix.shape == got.strategy.tail.shape == (0, 10)

    def test_point_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PhasePoint(Strategy(2), [1.0, 2.0, 3.0])

    @settings(max_examples=100, deadline=None)
    @given(points3(), st.integers(min_value=0, max_value=12))
    def test_media_accumulation_identity(self, x, n):
        """After n steps the media equals start plus the first n terms."""
        expected = np.array(x.media, dtype=np.float64)
        for k in range(n):
            expected = expected + x.strategy.term(k)
        got = iterate_g(x, n).media
        assert np.allclose(got, expected, rtol=0.0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(points3(), st.integers(min_value=0, max_value=4))
    def test_iteration_commutes_with_unrolling(self, x, count):
        """Re-representing the strategy never changes the orbit."""
        alt = PhasePoint(unroll(x.strategy, count), x.media)
        for n in range(4):
            a = iterate_g(x, n)
            b = iterate_g(alt, n)
            assert d_phase(a, b, SPACE3) == 0.0


class TestMetric:
    def test_d_inf_basic(self):
        assert d_inf(np.array([1.0, 5.0]), np.array([4.0, 5.0])) == 3.0
        with pytest.raises(DimensionMismatch):
            d_inf(np.array([1.0]), np.array([1.0, 2.0]))

    def test_identical_strategies_have_zero_distance(self):
        s = Strategy(2, (np.array([1.0, 2.0]),), (np.array([3.0, 4.0]),))
        assert d_strategy(s, s, SPACE2) == 0.0

    def test_single_term_difference_scores_nine(self):
        a = Strategy(2)
        b = Strategy(2, [[10.0, 0.0]])
        assert d_strategy(a, b, SPACE2) == 9.0

    def test_alternating_full_swing_scores_ten(self):
        a = Strategy(2)
        b = Strategy(2, (), (np.full(2, 10.0), np.full(2, -10.0)))
        assert d_strategy(a, b, SPACE2) == 10.0

    def test_exact_agrees_with_truncated_series(self):
        cases = [
            (Strategy(2), Strategy(2)),
            (Strategy(2), Strategy(2, [[10.0, 0.0]])),
            (Strategy(2),
             Strategy(2, (), (np.full(2, 10.0), np.full(2, -10.0)))),
            (Strategy(2, (np.array([1.5, -2.0]),), (np.array([0.25, 3.0]),)),
             Strategy(2, (), (np.array([-1.0, 1.0]), np.array([2.0, 0.5])))),
        ]
        for a, b in cases:
            exact = d_strategy(a, b, SPACE2)
            approx, tail_bound = d_strategy_truncated(a, b, SPACE2)
            assert tail_bound == 2e-63
            # the truncated evaluator carries its own float summation error
            assert abs(exact - approx) <= tail_bound + 1e-12

    def test_distance_between_representations_is_zero(self):
        s = Strategy(2, (np.array([1.0, 1.0]),), (np.array([2.0, 2.0]),
                                                  np.array([3.0, 3.0])))
        assert d_strategy(s, unroll(s, 1), SPACE2) == 0.0
        assert d_strategy(s, unroll(s, 5), SPACE2) == 0.0

    def test_d_phase_media_only_difference(self):
        s = Strategy(2)
        x = PhasePoint(s, [0.0, 0.0])
        y = PhasePoint(s, [1.0, 0.0])
        assert d_phase(x, y, SPACE2) == 1.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            d_strategy(Strategy(2), Strategy(3), SPACE2)

    @settings(max_examples=150, deadline=None)
    @given(points3(), points3())
    def test_symmetry_and_nonnegativity(self, x, y):
        dxy = d_phase(x, y, SPACE3)
        dyx = d_phase(y, x, SPACE3)
        assert dxy >= 0.0
        assert dxy == dyx

    @settings(max_examples=150, deadline=None)
    @given(points3())
    def test_self_distance_is_exactly_zero(self, x):
        assert d_phase(x, x, SPACE3) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(points3(), points3(), points3())
    def test_triangle_inequality(self, x, y, z):
        dxz = d_phase(x, z, SPACE3)
        dxy = d_phase(x, y, SPACE3)
        dyz = d_phase(y, z, SPACE3)
        assert dxz <= dxy + dyz + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(strategies3(), strategies3())
    def test_shift_contracts_tail_of_series(self, s, t):
        """Strategy distance never exceeds the full-swing ceiling."""
        d = d_strategy(s, t, SPACE3)
        # terms differ by at most 2N, so the series tops out at 20/0.9 scaled
        assert d <= (9.0 / BOUND) * 2.0 * BOUND * (10.0 / 9.0) + 1e-12


ORACLE_BOUNDS = (10.0, 3.0, 1e-3)


def assert_series_matches_oracle(s, t, bound=BOUND):
    """Horner series equals the Fraction oracle as a rational, rounds to
    the oracle's float at every N in ORACLE_BOUNDS, and d_strategy
    returns that float at N = bound."""
    exact = series_exact(s, t)
    num, den = phase_space._series_exact(s, t)
    assert Fraction(num, den) == exact
    for n in ORACLE_BOUNDS:
        space = SpaceConfig(nv=s.dim, bound_n=n)
        # d_strategy_exact's rounding, without summing the oracle again
        assert phase_space._scaled(num, den, space) == float(
            Fraction(9) / Fraction(n) * exact)
    space = SpaceConfig(nv=s.dim, bound_n=bound)
    assert d_strategy(s, t, space) == float(Fraction(9) / Fraction(bound) * exact)


class TestExactSeries:
    """The integer Horner series against the Fraction oracle."""

    def test_criterion_7_triples(self):
        # the 10^4 triples of test_acceptance's criterion 7, same draws
        rng = np.random.default_rng(777)

        def draw():
            prefix = tuple(rng.uniform(-BOUND, BOUND, 3)
                           for _ in range(int(rng.integers(0, 4))))
            tail = tuple(rng.uniform(-BOUND, BOUND, 3)
                         for _ in range(int(rng.integers(0, 3))))
            rng.uniform(-100.0, 100.0, 3)  # the media draw
            return Strategy(3, prefix, tail)

        for i in range(10000):
            x, y, z = draw(), draw(), draw()
            for s, t in ((x, y), (y, z), (x, z)):
                assert_series_matches_oracle(s, t, ORACLE_BOUNDS[i % 3])

    def test_random_pairs_with_zero_tails_and_zero_terms(self):
        # shared heads up to 340 deep put the first difference where the
        # distance is subnormal or underflows to 0.0
        rng = np.random.default_rng(2024)

        def term(nv):
            roll = rng.random()
            if roll < 0.3:
                return np.zeros(nv)
            value = rng.uniform(-BOUND, BOUND, nv)
            if roll < 0.5:
                return value * 10.0 ** -int(rng.integers(0, 300))
            return value

        for i in range(600):
            nv = int(rng.integers(1, 4))
            shared = [term(nv) for _ in range(int(rng.choice(
                [0, 2, 20, 300, 310, 318, 325, 340])))]

            def draw():
                prefix = shared + [term(nv)
                                   for _ in range(int(rng.integers(0, 3)))]
                if rng.random() < 0.3:
                    return Strategy(nv, shared)
                return Strategy(nv, prefix, [term(nv) for _ in range(
                    int(rng.integers(0, 4)))])

            assert_series_matches_oracle(draw(), draw(), ORACLE_BOUNDS[i % 3])

    @pytest.mark.parametrize("p,q", [(7, 5), (31, 29)])
    def test_coprime_periods(self, p, q):
        rng = np.random.default_rng(p * q)
        for i in range(6):
            s = Strategy(2, [rng.uniform(-BOUND, BOUND, 2)
                             for _ in range(int(rng.integers(0, 4)))],
                         [rng.uniform(-BOUND, BOUND, 2) for _ in range(p)])
            t = Strategy(2, [rng.uniform(-BOUND, BOUND, 2)
                             for _ in range(int(rng.integers(0, 4)))],
                         [rng.uniform(-BOUND, BOUND, 2) for _ in range(q)])
            assert_series_matches_oracle(s, t, ORACLE_BOUNDS[i % 3])

    def test_series_budget_is_checked_before_reading_a_term(self, monkeypatch):
        # a head of 2 and tail periods 2 and 3: 2 + lcm(2, 3) = 8 terms
        s = Strategy(1, [[1.0], [2.0]], [[3.0], [4.0]])
        t = Strategy(1, (), [[5.0], [6.0], [7.0]])
        space = SpaceConfig(nv=1)
        monkeypatch.setattr(phase_space, "MAX_SERIES_TERMS", 8)
        assert d_strategy(s, t, space) == d_strategy_exact(s, t, space)

        def unread(*args):
            raise AssertionError("a series term was read")

        monkeypatch.setattr(phase_space, "d_inf", unread)
        monkeypatch.setattr(phase_space, "MAX_SERIES_TERMS", 7)
        with pytest.raises(BudgetExceeded,
                           match=r"needs 8 terms, more than MAX_SERIES_TERMS=7"):
            d_strategy(s, t, space)

    def test_series_budget_at_the_real_value(self):
        zero = np.zeros(1)
        s = Strategy(1, (), [zero] * 316)
        t = Strategy(1, (), [zero] * 317)
        with pytest.raises(BudgetExceeded,
                           match=r"needs 100172 terms, more than "
                                 r"MAX_SERIES_TERMS=100000"):
            d_strategy(s, t, SpaceConfig(nv=1))


class TestSpaceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceConfig(nv=0)
        with pytest.raises(ValueError):
            SpaceConfig(nv=4, bound_n=0.0)
        with pytest.raises(ValueError):
            SpaceConfig(nv=4, bound_n=1e308)

"""Constructive witnesses: exact hand-checked cases plus randomized sweeps."""

import json
import math
import sys

import numpy as np
import pytest

import shift_oracle
from chaosmark import (
    DEFAULT_TOLERANCE,
    BoundViolation,
    BudgetExceeded,
    DimensionMismatch,
    PhasePoint,
    SchemeConfig,
    SpaceConfig,
    Strategy,
    apply_g,
    ball_index,
    chaos_analysis,
    embed,
    generate_carriers,
    check_strategy_bounds,
    iterate_g,
    phase_space,
    d_inf,
    d_phase,
    d_strategy,
    divergence_trace,
    empirical_sensitivity_scan,
    expansivity_counterexample,
    expansivity_pair,
    phase_point_to_dict,
    random_phase_point,
    witness_continuity,
    witness_regularity,
    witness_sensitivity,
    witness_strong_transitivity,
)

SPACE2 = SpaceConfig(nv=2)
SPACE3 = SpaceConfig(nv=3)


def rest(nv):
    return PhasePoint(Strategy(nv), [0.0] * nv)


def phase_point_from_dict(d):
    """Read back what phase_point_to_dict wrote."""
    strategy = d["strategy"]
    return PhasePoint(Strategy(strategy["dim"], tuple(strategy["prefix"]),
                               tuple(strategy["tail"]["block"])), d["media"])


def bounded_random_point(rng, nv, media_scale=2.0, term_scale=0.5):
    """Random point whose terms leave room for in-bound corrections."""
    media = rng.uniform(-media_scale, media_scale, nv)
    prefix = tuple(rng.uniform(-term_scale, term_scale, nv)
                   for _ in range(int(rng.integers(0, 4))))
    tail = tuple(rng.uniform(-term_scale, term_scale, nv)
                 for _ in range(int(rng.integers(0, 3))))
    return PhasePoint(Strategy(nv, prefix, tail), media)


class TestBallIndex:
    @pytest.mark.parametrize("r,k0", [
        (10.0, 0), (1.0, 0), (0.5, 1), (0.1, 1), (0.05, 2),
        (1e-9, 9), (3e-7, 7), (123.0, 0),
    ])
    def test_decades(self, r, k0):
        assert ball_index(r) == k0

    @pytest.mark.parametrize("r", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects(self, r):
        with pytest.raises(ValueError):
            ball_index(r)

    def test_bracketing_invariant(self):
        radii = [m * 10.0 ** exp for exp in range(-12, 3)
                 for m in [1.0, 1.5, 9.9]]
        # every decade edge and its neighbouring doubles, then the extremes
        for exp in range(-323, 309):
            edge = 10.0 ** exp
            radii += [math.nextafter(edge, 0.0), edge,
                      math.nextafter(edge, math.inf)]
        radii += [5e-324, sys.float_info.max]
        for r in radii:
            k0 = ball_index(r)
            assert 10.0 ** (-k0) <= r
            if k0 > 0:
                assert r < 10.0 ** (-(k0 - 1))


class TestSensitivity:
    def test_integer_point_separates_exactly_full_swing(self):
        s = Strategy(3, [[1.0, 1.0, 1.0], [2.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0]])
        x = PhasePoint(s, [0.0, 0.0, 0.0])
        report = witness_sensitivity(x, 0.1, SPACE3)
        assert report.property == "sensitivity"
        assert report.inputs["k0"] == 1
        assert report.iterations_used == 3
        assert report.measured["ball_distance"] == 0.09
        assert report.measured["separation"] == 10.0
        assert report.verdict

    def test_large_current_component_targets_zero(self):
        s = Strategy(2, [[0.0, 0.0], [0.0, 0.0], [7.0, 0.0]])
        x = PhasePoint(s, [1.0, 1.0])
        report = witness_sensitivity(x, 0.1, SPACE2)
        assert report.constructed_point.strategy.term(2)[0] == 0.0
        assert report.measured["separation"] == 7.0
        assert report.verdict

    def test_negative_current_component_targets_negative_swing(self):
        s = Strategy(2, [[0.0, 0.0], [0.0, 0.0], [-3.0, 0.0]])
        x = PhasePoint(s, [0.0, 0.0])
        report = witness_sensitivity(x, 0.1, SPACE2)
        assert report.constructed_point.strategy.term(2)[0] == -10.0
        assert report.measured["separation"] == 7.0
        assert report.verdict

    def test_radius_above_one_clamps_to_surface_terms(self):
        report = witness_sensitivity(rest(2), 50.0, SPACE2)
        assert report.inputs["k0"] == 0
        assert report.iterations_used == 2
        assert report.measured["ball_distance"] <= 50.0
        assert report.verdict

    def test_randomized_inputs_always_witness(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            x = random_phase_point(rng, SPACE3)
            r = 10.0 ** rng.uniform(-6, 1)
            report = witness_sensitivity(x, r, SPACE3)
            assert report.measured["ball_distance"] <= r
            assert report.measured["separation"] >= 5.0 - 1e-9
            assert report.verdict

    def test_witness_stays_inside_component_bound(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            x = random_phase_point(rng, SPACE2)
            report = witness_sensitivity(x, 1e-3, SPACE2)
            check_strategy_bounds(report.constructed_point.strategy, 10.0)


class TestStrongTransitivity:
    def test_rest_to_rest_hits_exactly(self):
        report = witness_strong_transitivity(rest(3), 0.1, rest(3), SPACE3)
        assert report.measured["final_distance"] == 0.0
        assert report.measured["ball_distance"] == 0.0
        assert report.iterations_used == report.inputs["matching_depth"] + 3
        assert report.inputs["split_components"] == 0
        assert report.verdict

    def test_hand_constructed_case_hits_exactly(self):
        x_a = PhasePoint(Strategy(2, [[0.5, 0.25]]), [1.0, -1.0])
        x_b = PhasePoint(
            Strategy(2, (np.array([1.0, 2.0]),),
                     (np.array([4.0, 5.0]), np.array([-4.0, -5.0]))),
            [3.0, 2.0])
        report = witness_strong_transitivity(x_a, 0.01, x_b, SPACE2)
        assert report.inputs["k0"] == 2
        # depth 2 leaves the candidate outside the ball; one bump suffices
        assert report.inputs["matching_depth"] == 3
        assert report.inputs["correction_terms"] == 2
        assert report.iterations_used == 5
        assert report.measured["ball_distance"] <= 0.01
        assert report.measured["final_distance"] == 0.0
        assert report.verdict

    def test_wide_media_gap_splits_corrections(self):
        # n equal pieces of a gap sum to within about n ulps of it, so a
        # far enough target lands outside DEFAULT_TOLERANCE: 3001 pieces
        # of 30000.7 miss by 1.2e-9 and the verdict fails.
        rng = np.random.default_rng(1)
        x_a10 = random_phase_point(rng, SpaceConfig(nv=10))
        far10 = PhasePoint(Strategy(10), rng.uniform(2990.0, 3000.0, 10))
        cases = [  # (x_a, x_b, correction terms, split components, verdict)
            (rest(1), PhasePoint(Strategy(1), [25.0]), 3, 1, True),
            (x_a10, far10, 3001, 10, True),
            (rest(1), PhasePoint(Strategy(1), [30000.7]), 3001, 1, False),
        ]
        for x_a, x_b, terms, split, verdict in cases:
            space = SpaceConfig(nv=x_a.dim)
            report = witness_strong_transitivity(x_a, 0.5, x_b, space)
            assert report.inputs["split_components"] == split
            assert report.inputs["correction_terms"] == terms
            final = iterate_g(report.constructed_point, report.iterations_used)
            assert d_strategy(final.strategy, x_b.strategy, space) == 0.0
            media_error = report.measured["final_distance"]
            assert media_error <= terms * np.spacing(np.max(np.abs(x_b.media)))
            assert (media_error <= DEFAULT_TOLERANCE) is verdict
            assert report.verdict is verdict
            check_strategy_bounds(report.constructed_point.strategy, 10.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            witness_strong_transitivity(rest(2), 0.1, rest(3), SPACE2)

    def test_correction_budget_is_checked_before_building(self, monkeypatch):
        # gaps 25 and 0 at N = 10 need 3 + 1 correction terms
        x_b = PhasePoint(Strategy(2), [25.0, 0.0])
        monkeypatch.setattr(chaos_analysis, "MAX_CORRECTION_TERMS", 4)
        report = witness_strong_transitivity(rest(2), 0.5, x_b, SPACE2)
        assert report.inputs["correction_terms"] == 4

        def unbuilt(*args):
            raise AssertionError("a correction term was built")

        # np.repeat lays out the corrections, and nothing before it calls it
        monkeypatch.setattr(chaos_analysis.np, "repeat", unbuilt)
        monkeypatch.setattr(chaos_analysis, "MAX_CORRECTION_TERMS", 3)
        with pytest.raises(BudgetExceeded,
                           match=r"needs 4 correction terms.*MAX_CORRECTION_TERMS=3"):
            witness_strong_transitivity(rest(2), 0.5, x_b, SPACE2)

    def test_splice_at_the_correction_budget_fits_the_series_budget(self):
        # a gap of 99995 at N = 10 takes exactly MAX_CORRECTION_TERMS
        # pieces, so the ball distance sums a series of about 10^4 terms
        x_b = PhasePoint(Strategy(1), [99995.0])
        space = SpaceConfig(nv=1)
        report = witness_strong_transitivity(rest(1), 1e-12, x_b, space)
        assert report.inputs["correction_terms"] == 10000
        assert report.measured["ball_distance"] <= 1e-12

    @pytest.mark.parametrize("media_a,media_b", [
        ([0.0, 0.0], [1e300, 0.0]),
        ([0.0, -1.7e308], [0.0, 1.7e308]),
    ], ids=["1e300", "overflowing-gap"])
    def test_far_target_exceeds_budget(self, media_a, media_b):
        x_a = PhasePoint(Strategy(2), media_a)
        x_b = PhasePoint(Strategy(2), media_b)
        with np.errstate(over="ignore"):
            with pytest.raises(BudgetExceeded, match="MAX_CORRECTION_TERMS=10000"):
                witness_strong_transitivity(x_a, 0.01, x_b, SPACE2)

    def test_randomized_in_bound_triples(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            x_a = bounded_random_point(rng, 4)
            x_b = bounded_random_point(rng, 4)
            r_a = 10.0 ** rng.uniform(-2, 0)
            report = witness_strong_transitivity(x_a, r_a, x_b,
                                                 SpaceConfig(nv=4))
            assert report.measured["ball_distance"] <= r_a
            assert report.measured["final_distance"] <= 1e-9
            assert report.inputs["split_components"] == 0
            assert report.verdict


class TestRegularity:
    def test_depth_for_thousandth(self):
        report = witness_regularity(rest(2), 1e-3, SPACE2)
        assert report.inputs["n0"] == 4
        assert report.iterations_used == 4
        assert report.measured["distance"] == 1e-4
        assert report.measured["tail_period_sum"] == 0.0
        assert report.verdict

    def test_tail_alternates_by_absolute_index_parity(self):
        report = witness_regularity(rest(2), 1e-3, SPACE2)
        s = report.constructed_point.strategy
        # first tail index is n0 + 1 = 5, odd, so the tail opens negative
        assert s.term(5)[0] == -10.0
        assert s.term(6)[0] == 10.0
        assert s.term(7)[0] == -10.0

    def test_already_periodic_point_is_its_own_witness(self):
        plus = np.full(2, 10.0)
        minus = np.full(2, -10.0)
        x = PhasePoint(Strategy(2, (), (plus, minus)), [0.0, 0.0])
        report = witness_regularity(x, 1e-3, SPACE2)
        assert report.measured["distance"] == 0.0
        assert report.verdict

    def test_eps_grid(self):
        rng = np.random.default_rng(3)
        for eps in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]:
            x = random_phase_point(rng, SPACE3)
            report = witness_regularity(x, eps, SPACE3)
            assert report.measured["distance"] < eps
            assert report.measured["tail_period_sum"] == 0.0
            assert report.verdict

    def test_deepens_at_most_once(self):
        # Terms in [-N, N] put the first candidate within 2*10^-n0 of x.
        rng = np.random.default_rng(7)
        deepened = 0
        for space in (SPACE3, SpaceConfig(nv=2, bound_n=1.0)):
            for k in range(1, 13):
                for m in (1.0, 1.5, 1.999, 3.7, 9.99):
                    eps = m * 10.0 ** -k
                    first = next(n for n in range(400) if 10.0 ** -n < eps)
                    for _ in range(4):
                        x = random_phase_point(rng, space)
                        n0 = witness_regularity(x, eps, space).inputs["n0"]
                        assert first <= n0 <= first + 1
                        deepened += n0 > first
        assert deepened

    def test_first_depth_is_the_first_decade_below_eps(self):
        # rest's first candidate lies 10^-n0 away, so it never deepens
        space = SpaceConfig(nv=1)
        eps_values = [5e-324, 1e-300, 7.5, sys.float_info.max]
        for k in range(-3, 24):
            p = 10.0 ** -k
            eps_values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
        for eps in map(float, eps_values):
            first = next(n for n in range(400) if 10.0 ** -n < eps)
            assert witness_regularity(rest(1), eps, space).inputs["n0"] == first

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            witness_regularity(rest(2), 0.0, SPACE2)
        with pytest.raises(ValueError):
            witness_regularity(rest(2), float("inf"), SPACE2)


class TestWitnessOrbits:
    """Witness points and their orbits match the validating map exactly."""

    @pytest.mark.parametrize("seed", range(6))
    def test_witness_orbits_match_validating_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = random_phase_point(rng, SPACE3)
        y = random_phase_point(rng, SPACE3)
        r = 10.0 ** -float(rng.integers(1, 5))
        reports = [witness_sensitivity(x, r, SPACE3),
                   witness_strong_transitivity(x, r, y, SPACE3),
                   witness_regularity(x, r, SPACE3)]
        for report in reports:
            point = report.constructed_point
            shift_oracle.assert_valid_terms(point.strategy)
            shared, validated = point, point
            for _ in range(report.iterations_used + 4):
                shared = apply_g(shared)
                validated = shift_oracle.apply_g(validated)
                assert shift_oracle.same_point(shared, validated)
                shift_oracle.assert_valid_terms(shared.strategy)


class TestNonExpansivity:
    def test_standard_bound_exact_values(self):
        report = expansivity_counterexample(0.5, 10, SPACE2)
        assert report.measured["sup_distance"] == 0.5
        assert report.measured["derived_bound"] == 0.5
        assert report.measured["eps_bound_holds"] == 1.0
        assert report.verdict

    def test_small_bound_breaks_eps_but_not_derived_bound(self):
        space = SpaceConfig(nv=2, bound_n=1.0)
        report = expansivity_counterexample(0.5, 10, space)
        assert report.measured["sup_distance"] == 2.75
        assert report.measured["derived_bound"] == 2.75
        assert report.measured["eps_bound_holds"] == 0.0
        assert report.verdict

    def test_zero_iterations_measures_initial_gap_only(self):
        report = expansivity_counterexample(0.5, 0, SPACE2)
        assert report.measured["sup_distance"] == 0.25
        assert report.verdict

    def test_rejects_eps_beyond_bound(self):
        with pytest.raises(BoundViolation):
            expansivity_counterexample(30.0, 5, SPACE2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            expansivity_counterexample(0.5, -1, SPACE2)
        with pytest.raises(ValueError):
            expansivity_counterexample(-0.5, 5, SPACE2)

    def test_points_are_distinct_but_orbits_stay_close(self):
        report = expansivity_counterexample(1.0, 50, SPACE3)
        a, b = report.constructed_point
        assert d_phase(a, b, SPACE3) > 0.0
        assert report.measured["sup_distance"] <= report.measured["derived_bound"]


def continuity_oracle(x, scales, space):
    """The two-call computation witness_continuity replaced: each usable
    scale's perturbation p, its d_phase(p, x), and the image row of
    d_phase and d_inf between apply_g(p) and apply_g(x)."""
    image = apply_g(x)
    head = float(x.strategy.term(0)[0])
    used, skipped, input_d, rows = [], [], [], []
    for s in scales:
        if abs(head + s) > space.bound_n:
            skipped.append(s)
            continue
        p = chaos_analysis._perturbed(x, s)
        p_image = apply_g(p)
        used.append(s)
        input_d.append(d_phase(p, x, space))
        rows.append((len(rows), d_phase(p_image, image, space),
                     d_inf(p_image.media, image.media)))
    return used, skipped, input_d, rows


def float_bits(values):
    return [float(v).hex() for v in values]


class TestContinuity:
    def test_probe_rows_shrink_with_scale(self):
        _, trace = witness_continuity(rest(2), [1e-1, 1e-2, 1e-3], SPACE2)
        assert len(trace.points) == 3
        image_d = [row[1] for row in trace.points]
        assert image_d == sorted(image_d, reverse=True)
        for (step, img, med), s in zip(trace.points, [1e-1, 1e-2, 1e-3]):
            assert med == pytest.approx(2.0 * s, rel=1e-12)
        assert trace.meta["skipped_scales"] == []

    def test_report_ratio_stays_under_two(self):
        report, _ = witness_continuity(rest(2), [1e-1, 1e-2, 1e-3], SPACE2)
        assert report.measured["max_image_to_input_ratio"] < 1.06
        assert report.measured["image_distances_nonincreasing"] == 1.0
        assert report.verdict

    def test_scales_at_the_bound_are_skipped(self):
        term = np.array([9.95, 0.0])
        x = PhasePoint(Strategy(2, (term,), ()), [0.0, 0.0])
        report, trace = witness_continuity(x, [1e-1, 1e-2, 1e-3], SPACE2)
        assert trace.meta["skipped_scales"] == [1e-1]
        assert report.inputs["skipped_scales"] == [1e-1]
        assert len(trace.points) == 2
        # a term bumped exactly onto N stays inside the bound
        x = PhasePoint(Strategy(2, (np.array([9.0, 0.0]),), ()), [0.0, 0.0])
        _, trace = witness_continuity(x, [1.0, 0.5], SPACE2)
        assert trace.meta["skipped_scales"] == []

    def test_all_scales_skipped_raises(self):
        term = np.array([10.0, 0.0])
        x = PhasePoint(Strategy(2, (term,), ()), [0.0, 0.0])
        with pytest.raises(ValueError, match="no usable scales"):
            witness_continuity(x, [1e-1, 1e-2], SPACE2)

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            witness_continuity(rest(2), [], SPACE2)
        with pytest.raises(ValueError):
            witness_continuity(rest(2), [1e-3, 1e-2], SPACE2)
        with pytest.raises(ValueError):
            witness_continuity(rest(2), [1e-1, -1e-2], SPACE2)

    def test_scales_are_checked_before_the_tolerance(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            witness_continuity(rest(2), [1e-3, 1e-2], SPACE2, tolerance=-1.0)
        with pytest.raises(ValueError, match="tolerance"):
            witness_continuity(rest(2), [1e-2], SPACE2, tolerance=-1.0)

    @pytest.mark.parametrize("bound_n", [10.0, 0.5])
    @pytest.mark.parametrize("nv", [1, 8, 64])
    def test_walk_matches_the_two_call_oracle(self, nv, bound_n):
        space = SpaceConfig(nv=nv, bound_n=bound_n)
        # 9.5 and 5 leave the bound from most heads at N = 10, and 5, 1
        # and 0.1 from every head at N = 0.5
        scales = [9.5, 5.0, 1.0, 0.1, 1e-3, 1e-7, 1e-300]
        for seed in range(15):
            x = random_phase_point(seed, space)
            used, skipped, input_d, rows = continuity_oracle(x, scales, space)
            report, trace = witness_continuity(x, scales, space)
            assert trace.meta["scales"] == report.inputs["scales"] == used
            assert (trace.meta["skipped_scales"]
                    == report.inputs["skipped_scales"] == skipped)
            assert float_bits(trace.meta["input_d_phase"]) == \
                float_bits(input_d)
            assert [r[0] for r in trace.points] == [r[0] for r in rows]
            for column in (1, 2):
                assert float_bits(r[column] for r in trace.points) == \
                    float_bits(r[column] for r in rows)
            image_d = [r[1] for r in rows]
            assert report.measured["final_image_distance"] == image_d[-1]
            assert report.measured["max_image_to_input_ratio"] == max(
                img / inp if inp else 0.0
                for img, inp in zip(image_d, input_d))
            # the constructed point is the x that was measured, perturbed
            # by the last usable scale
            point = report.constructed_point
            assert d_phase(point, x, space) == input_d[-1]
            expected = chaos_analysis._perturbed(x, used[-1])
            assert point.media.tobytes() == expected.media.tobytes()
            assert d_strategy(point.strategy, expected.strategy, space) == 0.0


class TestTracesAndScan:
    def test_divergence_trace_shape(self):
        x = rest(2)
        y = PhasePoint(Strategy(2), [1.0, 0.0])
        trace = divergence_trace(x, y, 5, SPACE2)
        assert len(trace.points) == 6
        assert trace.points[0][0] == 0
        assert trace.points[0][1] == d_phase(x, y, SPACE2)
        assert trace.meta["kind"] == "divergence"
        with pytest.raises(DimensionMismatch):
            divergence_trace(rest(2), rest(3), 3, SPACE2)
        with pytest.raises(ValueError):
            divergence_trace(x, y, -1, SPACE2)

    def test_single_trial_scan_is_zero(self):
        assert empirical_sensitivity_scan(rest(2), 0.1, 1, 5, 0, SPACE2) == 0.0
        # one trial walks nothing, even where x's own orbit overflows
        x = PhasePoint(Strategy(2, [[1e308, 0.0]]), [1e308, 0.0])
        assert empirical_sensitivity_scan(x, 0.1, 1, 5, 0, SPACE2) == 0.0
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="must be finite"):
            empirical_sensitivity_scan(x, 0.1, 2, 5, 0, SPACE2)

    @pytest.mark.parametrize("trials", [1, 2, 3, 7])
    def test_scan_walks_once_per_trial(self, trials, monkeypatch):
        walks = []
        walk = chaos_analysis._orbit_distances

        def counted(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(chaos_analysis, "_orbit_distances", counted)
        best = empirical_sensitivity_scan(rest(2), 0.1, trials, 5, 0, SPACE2)
        # trial 0 is x itself and is not walked; trial 1's witness is
        # walked inside witness_sensitivity and again by the scan
        assert len(walks) == (trials if trials > 1 else 0)
        assert best == 0.0 if trials == 1 else best >= 10.0

    def test_second_trial_anchors_at_witness_separation(self):
        best = empirical_sensitivity_scan(rest(2), 0.1, 2, 5, 0, SPACE2)
        assert best >= 10.0

    def test_stego_media_scan_approaches_half_bound(self):
        cfg = SchemeConfig(nv=16, nc=4, key=5, gamma=1.0)
        carriers = generate_carriers(cfg)
        host = np.random.default_rng(55).normal(size=16)
        stego = embed(host, (0, 1, 1, 0), carriers, cfg, "ss")
        point = PhasePoint(Strategy(16), stego)
        best = empirical_sensitivity_scan(point, 0.1, 500, 20, 7,
                                          SpaceConfig(nv=16))
        assert best >= 4.9

    def test_scan_is_seed_deterministic(self):
        a = empirical_sensitivity_scan(rest(3), 0.1, 12, 8, 99, SPACE3)
        b = empirical_sensitivity_scan(rest(3), 0.1, 12, 8, 99, SPACE3)
        assert a == b
        c = empirical_sensitivity_scan(rest(3), 0.1, 12, 8, 100, SPACE3)
        assert (a >= 5.0) and (c >= 5.0)

    @pytest.mark.parametrize("r,bound", [
        (0.1, 10.0), (1e-300, 8e307), (1e-306, 10.0), (1e-307, 10.0),
        (1e-320, 10.0), (5e-324, 10.0), (1e-320, 8e307)])
    def test_random_perturbations_stay_inside_the_ball(self, r, bound):
        # draws at depth k0 + 2 > 308 and caps past uniform()'s range
        space = SpaceConfig(nv=3, bound_n=bound)
        x = random_phase_point(3, space)
        k0 = ball_index(r)
        for trial in range(2, 40):
            y = chaos_analysis._random_ball_perturbation(x, r, k0, space, 5,
                                                         trial)
            assert d_phase(x, y, space) <= r
            check_strategy_bounds(y.strategy, bound)

    def test_scan_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            empirical_sensitivity_scan(rest(2), 0.1, 0, 5, 0, SPACE2)
        with pytest.raises(ValueError):
            empirical_sensitivity_scan(rest(2), 0.1, 3, -1, 0, SPACE2)


def assert_walk_matches_d_phase(x, y, n_max, space):
    """Every distance the walker yields equals d_phase on the oracle's points."""
    walked = 0
    a, b = x, y
    for d, media in phase_space._orbit_distances(x, y, n_max, space):
        if walked:
            a, b = shift_oracle.iterate_g(a, 1), shift_oracle.iterate_g(b, 1)
        assert d == d_phase(a, b, space)
        assert media == d_inf(a.media, b.media)
        walked += 1
    assert walked == n_max + 1


class TestOrbitWalker:
    """The walker's shift recurrence against d_phase at every step."""

    @pytest.mark.parametrize("bound", [10.0, 1.0, 1e-3])
    def test_random_orbits(self, bound):
        space = SpaceConfig(nv=3, bound_n=bound)
        rng = np.random.default_rng(31)
        for _ in range(40):
            x = random_phase_point(rng, space)
            assert_walk_matches_d_phase(x, random_phase_point(rng, space),
                                        12, space)

    def test_sensitivity_orbits(self):
        for k in range(1, 13):
            x = random_phase_point(k, SPACE3)
            y = witness_sensitivity(x, 10.0 ** -k, SPACE3).constructed_point
            assert_walk_matches_d_phase(x, y, k + 6, SPACE3)

    @pytest.mark.parametrize("bound", [10.0, 1.0])
    def test_expansivity_orbits(self, bound):
        space = SpaceConfig(nv=2, bound_n=bound)
        assert_walk_matches_d_phase(*expansivity_pair(0.5, space), 30, space)

    def test_transitivity_orbits(self):
        rng = np.random.default_rng(8)
        for gap in (0.0, 25.0, 300.0):
            x_a = random_phase_point(rng, SPACE3)
            x_b = random_phase_point(rng, SPACE3)
            x_b = PhasePoint(x_b.strategy, x_b.media + gap)
            report = witness_strong_transitivity(x_a, 0.01, x_b, SPACE3)
            candidate = report.constructed_point
            steps = report.iterations_used + 4
            assert_walk_matches_d_phase(x_a, candidate, steps, SPACE3)
            assert_walk_matches_d_phase(candidate, x_b, steps, SPACE3)

    def test_zero_series_reads_no_terms(self, monkeypatch):
        s = Strategy(2, ([1.0, 2.0],), ([3.0, 4.0],))
        x, y = PhasePoint(s, [0.0, 0.0]), PhasePoint(s, [1.0, 0.0])

        def unread(*args):
            raise AssertionError("a term of a zero series was read")

        walk = phase_space._orbit_distances(x, y, 5, SPACE2)
        distances = [next(walk)[0]]  # summing the series reads its terms
        monkeypatch.setattr(phase_space, "_term_gap", unread)
        distances += [d for d, _ in walk]
        assert distances == [1.0] * 6

    def test_walk_errors(self):
        with pytest.raises(DimensionMismatch):
            next(phase_space._orbit_distances(rest(2), rest(3), 3, SPACE2))
        with pytest.raises(ValueError, match="n_max"):
            divergence_trace(rest(2), rest(2), -1, SPACE2)
        big = PhasePoint(Strategy(1, ([1.7e308],)), [1.7e308])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="finite"):
                divergence_trace(big, rest(1), 3, SpaceConfig(nv=1))

    def test_finite_media_an_infinite_distance_apart(self):
        # the media difference overflows, but neither media does
        x = PhasePoint(Strategy(1), [1.7e308])
        y = PhasePoint(Strategy(1), [-1.7e308])
        with np.errstate(over="ignore"):
            trace = divergence_trace(x, y, 2, SpaceConfig(nv=1))
        assert [row[1:] for row in trace.points] == [(math.inf, math.inf)] * 3


class TestOrbitBudget:
    def test_walks_are_counted_before_any_step(self, monkeypatch):
        # nv 2: six steps are 12 step-components
        monkeypatch.setattr(chaos_analysis, "MAX_ORBIT_WORK", 12)
        divergence_trace(rest(2), rest(2), 5, SPACE2)
        expansivity_counterexample(0.5, 5, SPACE2)
        empirical_sensitivity_scan(rest(2), 0.1, 2, 2, 0, SPACE2)

        def unwalked(*args):
            raise AssertionError("an orbit was walked or built")

        for name in ("_orbit_distances", "expansivity_pair",
                     "witness_sensitivity"):
            monkeypatch.setattr(chaos_analysis, name, unwalked)
        monkeypatch.setattr(chaos_analysis, "MAX_ORBIT_WORK", 11)
        over = r"6 steps at nv 2 needs 12 step-components, more than " \
               r"MAX_ORBIT_WORK=11"
        with pytest.raises(BudgetExceeded, match=over):
            divergence_trace(rest(2), rest(2), 5, SPACE2)
        with pytest.raises(BudgetExceeded, match=over):
            expansivity_counterexample(0.5, 5, SPACE2)
        with pytest.raises(BudgetExceeded, match=over):
            empirical_sensitivity_scan(rest(2), 0.1, 2, 2, 0, SPACE2)


class TestSerialization:
    def test_phase_point_round_trip_is_lossless(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            x = random_phase_point(rng, SPACE3)
            y = phase_point_from_dict(phase_point_to_dict(x))
            assert d_phase(x, y, SPACE3) == 0.0

    def test_reports_are_json_serializable(self):
        reports = [
            witness_sensitivity(rest(2), 0.1, SPACE2),
            witness_strong_transitivity(rest(2), 0.1, rest(2), SPACE2),
            witness_regularity(rest(2), 1e-2, SPACE2),
            expansivity_counterexample(0.5, 5, SPACE2),
            witness_continuity(rest(2), [1e-1, 1e-2], SPACE2)[0],
        ]
        assert [report.property for report in reports] == [
            "sensitivity", "strong_transitivity", "regularity",
            "non_expansivity", "continuity"]
        for report in reports:
            payload = json.loads(json.dumps(report.to_dict()))
            assert payload["property"] == report.property
            assert isinstance(payload["verdict"], bool)

    def test_trace_to_dict(self):
        trace = divergence_trace(rest(2), rest(2), 2, SPACE2)
        payload = trace.to_dict()
        assert payload["columns"] == ["step", "d_phase", "d_inf_media"]
        assert len(payload["points"]) == 3


class TestRandomPoint:
    def test_seed_determinism(self):
        x = random_phase_point(5, SPACE3)
        y = random_phase_point(5, SPACE3)
        assert d_phase(x, y, SPACE3) == 0.0

    def test_respects_component_bound(self):
        for seed in range(20):
            x = random_phase_point(seed, SPACE3)
            check_strategy_bounds(x.strategy, 10.0)

    def test_accepts_generator_and_advances_it(self):
        rng = np.random.default_rng(0)
        x = random_phase_point(rng, SPACE2)
        y = random_phase_point(rng, SPACE2)
        assert d_phase(x, y, SPACE2) > 0.0


class TestStrategyToDict:
    """The (k, nv) blocks serialize as the nested lists of their rows."""

    @pytest.mark.parametrize("strategy,expected", [
        (Strategy(2),
         '{"dim": 2, "prefix": [], "tail": {"block": [], "kind": "zero"}}'),
        (Strategy(2, (), ([1.5, -2.0], [0.0, 3.0])),
         '{"dim": 2, "prefix": [], "tail": {"block": [[1.5, -2.0], [0.0, 3.0]], '
         '"kind": "periodic"}}'),
        (Strategy(1, ([0.1], [-0.0], [1e-300])),
         '{"dim": 1, "prefix": [[0.1], [-0.0], [1e-300]], '
         '"tail": {"block": [], "kind": "zero"}}'),
    ], ids=["zero", "periodic", "prefix-only"])
    def test_json_bytes(self, strategy, expected):
        got = json.dumps(chaos_analysis.strategy_to_dict(strategy), sort_keys=True)
        assert got == expected

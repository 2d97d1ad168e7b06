"""Acceptance gate: one criterion per test, one printed verdict line each.

Every criterion is checked at its stated tolerance against values
computed independently inside this module (plain loops over the
defining formulas, hand-simulated machine runs, frozen constants).
"""

import time

import numpy as np
import pytest

from chaosmark import (
    PhasePoint,
    SchemeConfig,
    SpaceConfig,
    Strategy,
    d_phase,
    d_strategy,
    embed,
    decode,
    empirical_sensitivity_scan,
    expansivity_counterexample,
    generate_carriers,
    initial_configuration,
    parse_machine,
    random_phase_point,
    tm_run,
    witness_regularity,
    witness_sensitivity,
    witness_strong_transitivity,
)
from series_oracle import d_strategy_truncated

BOUND = 10.0


def announce(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def bounded_point(rng, nv, media_scale, term_scale):
    media = rng.uniform(-media_scale, media_scale, nv)
    prefix = tuple(rng.uniform(-term_scale, term_scale, nv)
                   for _ in range(int(rng.integers(0, 4))))
    tail = tuple(rng.uniform(-term_scale, term_scale, nv)
                 for _ in range(int(rng.integers(0, 3))))
    return PhasePoint(Strategy(nv, prefix, tail), media)


def test_criterion_1_sensitivity_separation(capsys):
    space = SpaceConfig(nv=6, bound_n=BOUND)
    rng = np.random.default_rng(20260819)
    trials = 1000
    required = BOUND / 2.0 - 1e-9
    worst = float("inf")
    start = time.monotonic()
    ok = True
    for _ in range(trials):
        x = random_phase_point(rng, space)
        r = 10.0 ** rng.uniform(-5.0, 1.0)
        report = witness_sensitivity(x, r, space)
        sep = report.measured["separation"]
        worst = min(worst, sep)
        if (not report.verdict
                or report.measured["ball_distance"] > r
                or report.iterations_used != report.inputs["k0"] + 2
                or sep < required):
            ok = False
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    announce(capsys, 1, ok,
             f"separation >= {required} inside every ball over {trials} "
             f"random (point, radius) draws; worst {worst:.9f} "
             f"({elapsed:.2f}s)")


def test_criterion_2_transitivity_exact_hit(capsys):
    space = SpaceConfig(nv=8, bound_n=BOUND)
    rng = np.random.default_rng(81920)
    trials = 1000
    worst = 0.0
    start = time.monotonic()
    ok = True
    for _ in range(trials):
        x_a = bounded_point(rng, 8, media_scale=1.0, term_scale=0.25)
        x_b = bounded_point(rng, 8, media_scale=1.0, term_scale=0.25)
        # Radii sit in the top of a decade so the matching depth equals
        # the ball index; every gap is under N, so one whole-vector term
        # closes it and the orbit length is exactly k0 + 1.
        r_a = rng.uniform(0.4, 0.99) * 10.0 ** (1 - int(rng.integers(1, 4)))
        report = witness_strong_transitivity(x_a, r_a, x_b, space)
        worst = max(worst, report.measured["final_distance"])
        if (not report.verdict
                or report.measured["ball_distance"] > r_a
                or report.inputs["correction_terms"] != 1
                or report.iterations_used != report.inputs["k0"] + 1
                or report.measured["final_distance"] > 1e-9):
            ok = False
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    announce(capsys, 2, ok,
             f"orbit of length k0+1 from inside each ball lands on the "
             f"target within 1e-9 over {trials} random triples; worst "
             f"{worst:.3e} ({elapsed:.2f}s)")


def test_criterion_3_regularity_grid(capsys):
    space = SpaceConfig(nv=6, bound_n=BOUND)
    rng = np.random.default_rng(333)
    grid = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    ok = True
    checked = 0
    for eps in grid:
        for _ in range(100):
            x = random_phase_point(rng, space)
            report = witness_regularity(x, eps, space)
            checked += 1
            if (not report.verdict
                    or report.measured["distance"] >= eps
                    or report.measured["tail_period_sum"] != 0.0):
                ok = False
                break
        if not ok:
            break
    announce(capsys, 3, ok,
             f"eventually periodic approximant within eps for "
             f"{checked} (point, eps) cases over eps in {grid}")


def test_criterion_4_expansivity_bounds(capsys):
    ok = True
    details = []
    for eps in [0.1, 0.5, 1.0]:
        report = expansivity_counterexample(eps, 100, SpaceConfig(nv=4))
        sup = report.measured["sup_distance"]
        if (not report.verdict or sup > eps + 1e-9
                or sup > report.measured["derived_bound"] + 1e-9
                or report.measured["eps_bound_holds"] != 1.0):
            ok = False
        details.append(f"N=10 eps={eps}: sup={sup:.6f}")
    for n in [1.0, 2.0, 5.0]:
        space = SpaceConfig(nv=4, bound_n=n)
        report = expansivity_counterexample(0.5, 100, space)
        sup = report.measured["sup_distance"]
        flagged = report.measured["eps_bound_holds"] == 0.0
        if (not report.verdict
                or sup > report.measured["derived_bound"] + 1e-9
                or flagged != (sup > 0.5 + 1e-9)):
            ok = False
        details.append(f"N={n:g}: sup={sup:.4f}{' flagged' if flagged else ''}")
    announce(capsys, 4,  ok,
             "orbit distance never exceeds the derived bound over 100 steps "
             f"({'; '.join(details)})")


def _closed_form(scheme, host, bits, carriers, cfg):
    y = np.array(host, dtype=np.float64)
    for i in range(cfg.nc):
        u = carriers.matrix[i]
        s = 1.0 - 2.0 * float(bits[i])
        p = float(u @ host)
        n2 = float(u @ u)
        if scheme == "ss":
            coef = cfg.gamma * s
        elif scheme == "iss":
            coef = cfg.alpha * s - cfg.lam * p / n2
        else:
            coef = -(1.0 + cfg.eta * s * np.sign(p)) * p / n2
        y = y + coef * u
    return y


def test_criterion_5_iterative_embedding_matches_closed_form(capsys):
    rng = np.random.default_rng(555)
    worst = 0.0
    ok = True
    for scheme in ("ss", "iss", "nw"):
        for trial in range(100):
            cfg = SchemeConfig(nv=256, nc=16, gamma=0.8, alpha=1.2,
                               lam=0.7, eta=0.9, key=trial)
            carriers = generate_carriers(cfg)
            host = rng.standard_normal(256) * 2.0
            bits = rng.integers(0, 2, size=16)
            via_map = embed(host, bits, carriers, cfg, scheme)
            direct = _closed_form(scheme, host, bits, carriers, cfg)
            gap = float(np.max(np.abs(via_map - direct)))
            worst = max(worst, gap)
            if gap > 1e-9:
                ok = False
    announce(capsys, 5, ok,
             "iterated-map embedding equals the closed form within 1e-9 "
             f"(nv=256, nc=16, 100 trials per scheme; worst {worst:.3e})")


def test_criterion_6_round_trips_are_error_free(capsys):
    rng = np.random.default_rng(666)
    errors = 0
    trials = 100
    for trial in range(trials):
        host = rng.standard_normal(64)
        bits = rng.integers(0, 2, size=16)
        base = dict(nv=64, nc=16, key=trial)
        carriers = generate_carriers(SchemeConfig(**base))
        gamma = 1.0 + float(np.max(np.abs(carriers.matrix @ host)))
        for scheme, cfg in [
            ("ss", SchemeConfig(**base, gamma=gamma)),
            ("iss", SchemeConfig(**base, alpha=1.0, lam=1.0)),
            ("nw", SchemeConfig(**base, eta=0.8)),
        ]:
            got = decode(embed(host, bits, carriers, cfg, scheme),
                         carriers, scheme)
            errors += int(np.sum(got.bits != bits)) + len(got.ties)
    ok = errors == 0
    announce(capsys, 6, ok,
             f"zero bit errors across {trials} round trips per scheme "
             f"(total errors: {errors})")


def test_criterion_7_metric_axioms_and_frozen_values(capsys):
    space = SpaceConfig(nv=3, bound_n=BOUND)
    rng = np.random.default_rng(777)

    def draw():
        prefix = tuple(rng.uniform(-BOUND, BOUND, 3)
                       for _ in range(int(rng.integers(0, 4))))
        tail = tuple(rng.uniform(-BOUND, BOUND, 3)
                     for _ in range(int(rng.integers(0, 3))))
        return PhasePoint(Strategy(3, prefix, tail),
                          rng.uniform(-100.0, 100.0, 3))

    ok = True
    trials = 10000
    for _ in range(trials):
        x, y, z = draw(), draw(), draw()
        dxy = d_phase(x, y, space)
        if not (dxy >= 0.0
                and dxy == d_phase(y, x, space)
                and d_phase(x, x, space) == 0.0
                and d_phase(x, z, space) <= dxy + d_phase(y, z, space) + 1e-12):
            ok = False
            break

    zero = Strategy(2)
    single = Strategy(2, [[BOUND, 0.0]])
    swing = Strategy(2, (), (np.full(2, BOUND), np.full(2, -BOUND)))
    space2 = SpaceConfig(nv=2, bound_n=BOUND)
    frozen = [
        (d_strategy(zero, zero, space2), 0.0),
        (d_strategy(zero, single, space2), 9.0),
        (d_strategy(zero, swing, space2), 10.0),
    ]
    for got, want in frozen:
        if abs(got - want) > 2e-63:
            ok = False
    # independent series oracle, which carries its own float rounding
    for a, b in [(zero, single), (zero, swing)]:
        exact = d_strategy(a, b, space2)
        approx, tail_bound = d_strategy_truncated(a, b, space2)
        if abs(exact - approx) > tail_bound + 1e-12:
            ok = False
    announce(capsys, 7, ok,
             f"metric axioms hold on {trials} random triples (triangle slack "
             f"1e-12) and the three reference distances are exact to 2e-63")


UNARY_INCREMENT = """\
states:   scan accept
alphabet: 1 #
blank:    #
initial:  scan
halting:  accept
scan 1 -> scan 1 R
scan # -> accept 1 R
"""

RIGHT_MOVER = """\
states:   go
alphabet: #
initial:  go
go # -> go # R
"""


def test_criterion_8_machine_runs_and_composition(capsys):
    inc = parse_machine(UNARY_INCREMENT)
    result = tm_run(inc, initial_configuration(inc, "111"), 100)
    ok = (result.halted and result.reason == "halt_state"
          and result.steps == 4
          and dict(result.config.cells) == {0: "1", 1: "1", 2: "1", 3: "1"}
          and result.config.state == "accept")

    mover = parse_machine(RIGHT_MOVER)
    start = initial_configuration(mover, "")
    whole = tm_run(mover, start, 1000)
    ok = ok and not whole.halted and whole.steps == 1000
    rng = np.random.default_rng(888)
    for _ in range(100):
        a = int(rng.integers(0, 1001))
        first = tm_run(mover, start, a)
        second = tm_run(mover, first.config, 1000 - a)
        if second.config != whole.config or first.steps + second.steps != 1000:
            ok = False
            break
    announce(capsys, 8, ok,
             "unary increment halts on the expected tape and a 1000-step "
             "run equals every split into two consecutive runs (100 splits)")

"""Constructive witnesses for the chaotic behaviour of the embedding map.

Each witness builds, from concrete inputs, the explicit point used in
the corresponding proof, runs the map, measures the quantities the
argument relies on, and returns a WitnessReport whose verdict says
whether every measured quantity met its bound.  Nothing here is a
statistical test; when a witness verdict is true the relevant property
has been exhibited on those inputs, not merely sampled.

Covered properties:

* sensitivity:           a point inside any ball around x whose orbit
                         separates from x's by at least N/2
* strong transitivity:   a point inside any ball around x_a whose orbit
                         reaches x_b: its strategy exactly, its media
                         within the float64 rounding of the corrections
* regularity:            an eventually periodic point within eps of x
* non-expansivity:       a pair whose orbits never separate past a
                         fixed bound, however long they run
* continuity:            shrinking perturbations whose images shrink
                         proportionally (witness_continuity)

The `empirical_sensitivity_scan` complements the constructive route
with a randomized search over a ball, mainly as a sanity check that
the witness is not an isolated artefact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .phase_space import (
    BoundViolation,
    DimensionMismatch,
    PhasePoint,
    SpaceConfig,
    Strategy,
    _frozen,
    _head,
    _orbit_distances,
    d_phase,
    iterate_g,
)
from .tm_encoding import BudgetExceeded

DEFAULT_TOLERANCE = 1e-9

# Most correction terms one transitivity splice may use; the count is
# the sum over media components of max(1, ceil(|gap| / N)), so it is at
# least nv.  Building and walking a splice is linear in the count, and
# each exact distance over it is a Horner sum quadratic in the count.
# On a shared 2-core x86 VM, a whole witness with 9973 terms at nv 10
# takes 0.1-0.2 s, nearly all of it in its three exact series; walking
# the splice takes 5-10 ms.
MAX_CORRECTION_TERMS = 10**4
# Most orbit steps times nv that one scan, trace or expansivity run may
# walk, counted before any point is drawn.  Up to nv ~ 10^3 a step costs
# 8 to 20 us whatever nv is, so the slowest walks at the budget are at
# nv 1.  On a shared 2-core x86 VM through the CLI, as its load varied:
# at nv 8, a scan of 125000 steps takes 0.7-1.4 s and a trace 1.1-2.5 s;
# at nv 1, a scan of 10^6 steps 4.4-8.9 s and a trace 9.7-20 s, peaking
# at about 655 MiB for its rows.  The default scan (500 trials of 21
# steps at nv 8) uses 84000.
MAX_ORBIT_WORK = 10**6


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """Outcome of one constructive witness run.

    property names what was witnessed: sensitivity, strong_transitivity,
    regularity, non_expansivity or continuity.  measured holds the
    named quantities the property's bound is stated over; verdict is
    true iff every one of them met its bound (within tolerance where
    the bound is approximate).
    """

    property: str
    inputs: dict
    constructed_point: PhasePoint | tuple[PhasePoint, PhasePoint]
    iterations_used: int
    measured: dict
    verdict: bool
    tolerance: float

    def to_dict(self) -> dict:
        if isinstance(self.constructed_point, tuple):
            point = [phase_point_to_dict(p) for p in self.constructed_point]
        else:
            point = phase_point_to_dict(self.constructed_point)
        return {
            "property": self.property,
            "inputs": dict(self.inputs),
            "constructed_point": point,
            "iterations_used": self.iterations_used,
            "measured": dict(self.measured),
            "verdict": bool(self.verdict),
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True, eq=False)
class OrbitTrace:
    """Per-step distance records between two orbits.

    points rows are (step, d_phase, d_inf_media).  meta carries the
    generating parameters (and, for the continuity witness, the
    parallel list of input distances).
    """

    points: tuple[tuple[int, float, float], ...]
    meta: dict = field(default_factory=dict)

    columns = ("step", "d_phase", "d_inf_media")

    def to_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "points": [[int(s), float(d), float(m)] for s, d, m in self.points],
            "meta": dict(self.meta),
        }


# ---------- serialization helpers ----------

def strategy_to_dict(s: Strategy) -> dict:
    return {
        "dim": s.dim,
        "prefix": s.prefix.tolist(),
        "tail": {
            "kind": "periodic" if len(s.tail) else "zero",
            "block": s.tail.tolist(),
        },
    }


def phase_point_to_dict(x: PhasePoint) -> dict:
    return {"strategy": strategy_to_dict(x.strategy), "media": x.media.tolist()}


# ---------- shared arithmetic ----------

def ball_index(r: float) -> int:
    """Decade index k0 of a radius: the smallest k >= 0 with 10^-k <= r.

    Radii of 1 or more get 0, so constructions always have a valid
    non-negative depth to work at.  The powers are float64 ones, and
    10^-324 is 0.0, so every positive finite radius has an index.
    """
    r = float(r)
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"radius must be positive and finite, got {r!r}")
    k0 = 0
    while 10.0 ** -k0 > r:
        k0 += 1
    return k0


def _require_tolerance(tolerance: float) -> float:
    tolerance = float(tolerance)
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be non-negative, got {tolerance!r}")
    return tolerance


def _require_eps(eps: float) -> float:
    eps = float(eps)
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    return eps


def _require_orbit_budget(walks: int, n_max: int, nv: int) -> None:
    """Raise BudgetExceeded if walks orbits of n_max + 1 steps at nv
    exceed MAX_ORBIT_WORK; n_max must be a non-negative integer."""
    if not isinstance(n_max, int) or n_max < 0:
        raise ValueError(f"n_max must be a non-negative integer, got {n_max!r}")
    steps = walks * (n_max + 1)
    if steps * nv > MAX_ORBIT_WORK:
        raise BudgetExceeded(
            f"an orbit walk of {steps} steps at nv {nv} needs {steps * nv} "
            f"step-components, more than MAX_ORBIT_WORK={MAX_ORBIT_WORK}")


# ---------- sensitivity ----------

def witness_sensitivity(x: PhasePoint, r: float, space: SpaceConfig,
                        tolerance: float = DEFAULT_TOLERANCE) -> WitnessReport:
    """Exhibit sensitive dependence at x within radius r.

    Only the first component of strategy term k0+1 is changed, to
    whichever of {-N, 0, +N} differs from it by at least N/2 but at
    most N.  That single change costs at most 0.9 * 10^-k0 <= 0.9 r in
    the strategy metric, so the witness stays inside B(x, r), and after
    k0+2 steps both orbits have absorbed the differing term, leaving
    their media exactly that far apart in component 0.
    """
    tolerance = _require_tolerance(tolerance)
    k0 = ball_index(r)
    n = space.bound_n
    half = 0.5 * n
    term_index = k0 + 1
    changed = np.array(x.strategy.term(term_index), dtype=np.float64)
    current = float(changed[0])
    changed[0] = 0.0 if abs(current) >= half else n if current >= 0.0 else -n
    witness = PhasePoint(x.strategy.with_term(term_index, changed), x.media)

    steps = k0 + 2
    walk = [d for d, _ in _orbit_distances(x, witness, steps, space)]
    ball_distance, separation = walk[0], walk[-1]
    verdict = ball_distance <= float(r) and separation >= half - tolerance
    return WitnessReport(
        property="sensitivity",
        inputs={"r": float(r), "k0": k0, "nv": x.dim, "bound_n": n},
        constructed_point=witness,
        iterations_used=steps,
        measured={
            "ball_distance": ball_distance,
            "separation": separation,
            "required_separation": half,
        },
        verdict=bool(verdict),
        tolerance=tolerance,
    )


# ---------- strong transitivity ----------

def _transitivity_candidate(x_a: PhasePoint, x_b: PhasePoint, depth: int,
                            bound: float):
    """Point that follows x_a for `depth` steps, then steers to x_b.

    The candidate keeps x_a's media and first `depth` strategy terms,
    then spends one axis-aligned correction term per media component
    closing the gap between the drifted media and x_b's media, then
    continues with x_b's strategy verbatim.  Corrections larger than
    the component bound are split evenly over enough consecutive terms
    to stay inside [-N, N].  The number of corrections is counted before
    any is built, and more than MAX_CORRECTION_TERMS raise BudgetExceeded.
    """
    nv = x_a.dim
    drifted = iterate_g(x_a, depth)
    gaps = x_b.media - drifted.media
    pieces = np.maximum(1.0, np.ceil(np.abs(gaps) / bound))
    count = float(np.sum(pieces))
    if count > MAX_CORRECTION_TERMS:
        raise BudgetExceeded(
            f"the transitivity splice needs {count:.15g} correction terms, "
            f"more than MAX_CORRECTION_TERMS={MAX_CORRECTION_TERMS}")
    # component k's gap as n equal pieces gap / n, on n rows in turn
    rows = np.repeat(np.arange(nv), pieces.astype(int))
    corrections = np.zeros((len(rows), nv))
    corrections[np.arange(len(rows)), rows] = (gaps / pieces)[rows]
    target = x_b.strategy
    prefix = _frozen(np.concatenate([_head(x_a.strategy, depth), corrections,
                                     target.prefix]))
    candidate = PhasePoint(Strategy(nv, prefix, target.tail), x_a.media)
    return (candidate, depth + len(corrections), len(corrections),
            int(np.count_nonzero(pieces > 1)))


def witness_strong_transitivity(x_a: PhasePoint, r_a: float, x_b: PhasePoint,
                                space: SpaceConfig,
                                tolerance: float = DEFAULT_TOLERANCE,
                                ) -> WitnessReport:
    """Exhibit strong transitivity: reach x_b from inside B(x_a, r_a).

    The matching depth starts at the decade index of r_a and deepens
    (rarely more than once) until the candidate measurably lies inside
    the ball; the splice itself steers to x_b regardless of depth.  The
    orbit reaches x_b's strategy exactly, but its media only within the
    float64 rounding of the correction sums.  That grows with the number
    of terms a wide gap is split into: 3001 pieces of a gap of 30000.7
    land 1.2e-9 off, over DEFAULT_TOLERANCE.  iterations_used reports
    the full step count, including any correction terms split to respect
    the component bound.  A splice that needs more than
    MAX_CORRECTION_TERMS correction terms raises BudgetExceeded.
    """
    tolerance = _require_tolerance(tolerance)
    if x_a.dim != x_b.dim:
        raise DimensionMismatch(
            f"endpoint dimensions differ: {x_a.dim} vs {x_b.dim}")
    r_a = float(r_a)
    k0 = ball_index(r_a)
    bound = space.bound_n

    depth = k0
    while True:
        candidate, steps, n_corrections, oversize = _transitivity_candidate(
            x_a, x_b, depth, bound)
        ball_distance = d_phase(x_a, candidate, space)
        if ball_distance <= r_a:
            break
        depth += 1

    final = iterate_g(candidate, steps)
    final_distance = d_phase(final, x_b, space)
    verdict = final_distance <= tolerance
    return WitnessReport(
        property="strong_transitivity",
        inputs={
            "r_a": r_a,
            "k0": k0,
            "matching_depth": depth,
            "correction_terms": n_corrections,
            "split_components": oversize,
            "nv": x_a.dim,
            "bound_n": bound,
        },
        constructed_point=candidate,
        iterations_used=steps,
        measured={
            "ball_distance": ball_distance,
            "final_distance": final_distance,
        },
        verdict=bool(verdict),
        tolerance=tolerance,
    )


# ---------- regularity ----------

def witness_regularity(x: PhasePoint, eps: float, space: SpaceConfig,
                       tolerance: float = DEFAULT_TOLERANCE) -> WitnessReport:
    """Exhibit a periodic-style point within eps of x.

    The candidate copies x's strategy through term n0 (the first index
    with 10^-n0 < eps, deepened if the measured distance demands it)
    and then alternates full +N / -N blocks, signed by the parity of
    the absolute term index.  The alternating tail sums to zero over
    one period, which is the cancellation the construction relies on.

    With every term of x in [-N, N], each termwise distance past n0 is
    at most 2N, so the first candidate lies within 2*10^-n0 of x and the
    next one within 2*10^-(n0+1) < eps: the loop deepens at most once.
    """
    tolerance = _require_tolerance(tolerance)
    eps = _require_eps(eps)
    nv = x.dim
    n = space.bound_n
    n0 = ball_index(eps)
    if 10.0 ** (-n0) == eps:
        n0 += 1

    while True:
        tail = _frozen(np.outer([n, -n], np.ones(nv)) * (-1.0) ** (n0 + 1))
        candidate = PhasePoint(Strategy(nv, _head(x.strategy, n0 + 1), tail),
                               x.media)
        distance = d_phase(candidate, x, space)
        if distance < eps:
            break
        n0 += 1

    period_sum = float(np.max(np.abs(tail[0] + tail[1])))
    verdict = distance < eps and period_sum <= tolerance
    return WitnessReport(
        property="regularity",
        inputs={"eps": eps, "n0": n0, "nv": nv, "bound_n": n},
        constructed_point=candidate,
        iterations_used=n0,
        measured={"distance": distance, "tail_period_sum": period_sum},
        verdict=bool(verdict),
        tolerance=tolerance,
    )


# ---------- non-expansivity ----------

def expansivity_pair(eps: float, space: SpaceConfig,
                     ) -> tuple[PhasePoint, PhasePoint]:
    """The rest point X and the flipper Y of the non-expansivity pair.

    Y's strategy alternates +eps/2 and -eps/2 in component 0 forever;
    both points start from zero media.
    """
    eps = _require_eps(eps)
    n = space.bound_n
    nv = space.nv
    if eps / 2.0 > n:
        raise BoundViolation(
            f"eps/2 = {eps / 2.0} exceeds the strategy bound {n}")
    rest = PhasePoint(Strategy(nv), np.zeros(nv))
    flips = np.zeros((2, nv))
    flips[:, 0] = eps / 2.0, -eps / 2.0
    flipper = PhasePoint(Strategy(nv, (), _frozen(flips)), np.zeros(nv))
    return rest, flipper


def expansivity_counterexample(eps: float, n_max: int, space: SpaceConfig,
                               tolerance: float = DEFAULT_TOLERANCE,
                               ) -> WitnessReport:
    """Pair of distinct points whose orbits never separate past a bound.

    X is the rest point (zero strategy, zero media); Y flips media
    component 0 up and down by eps/2 forever.  Along the whole orbit
    the distance never exceeds eps/2 + 5*eps/N: the media disagree by
    at most eps/2 and the strategy series contributes exactly 5*eps/N
    at every step.  Whether that also stays under eps itself depends on
    N (it does iff N >= 10); the report flags the comparison rather
    than asserting it.  More than MAX_ORBIT_WORK steps times nv raise
    BudgetExceeded before the pair is built.
    """
    tolerance = _require_tolerance(tolerance)
    _require_orbit_budget(1, n_max, space.nv)
    eps = float(eps)
    n = space.bound_n
    nv = space.nv
    rest, flipper = expansivity_pair(eps, space)
    sup_distance = max(d for d, _ in
                       _orbit_distances(rest, flipper, n_max, space))

    derived_bound = eps / 2.0 + 5.0 * eps / n
    eps_bound_holds = sup_distance <= eps + tolerance
    verdict = sup_distance <= derived_bound + tolerance
    return WitnessReport(
        property="non_expansivity",
        inputs={"eps": eps, "n_max": n_max, "nv": nv, "bound_n": n},
        constructed_point=(rest, flipper),
        iterations_used=n_max,
        measured={
            "sup_distance": sup_distance,
            "derived_bound": derived_bound,
            "eps_bound": eps,
            "eps_bound_holds": 1.0 if eps_bound_holds else 0.0,
        },
        verdict=bool(verdict),
        tolerance=tolerance,
    )


# ---------- continuity ----------

def _perturbed(x: PhasePoint, s: float) -> PhasePoint:
    """x with media component 0 and strategy term 0 component 0 bumped by s."""
    term = np.array(x.strategy.term(0), dtype=np.float64)
    term[0] += s
    media = np.array(x.media, dtype=np.float64)
    media[0] += s
    return PhasePoint(x.strategy.with_term(0, term), media)


def witness_continuity(x: PhasePoint, scales, space: SpaceConfig,
                       tolerance: float = DEFAULT_TOLERANCE,
                       ) -> tuple[WitnessReport, OrbitTrace]:
    """Push shrinking perturbations of x through one map application.

    Each scale s bumps media component 0 and strategy term 0 component
    0 by s, and one walk of the perturbed point beside x measures the
    input distance (step 0) and the image distances (step 1).  Scales
    that would push the strategy term outside [-N, N] are skipped.  The
    trace rows hold the image distances, and its meta the scales and
    the matching input distances.  Verdict: every image distance is at
    most twice its input distance (plus tolerance) and the image
    distances do not increase as the scales shrink.
    """
    scales = [float(s) for s in scales]
    if not scales or any(not (math.isfinite(s) and s > 0.0) for s in scales):
        raise ValueError("scales must be positive finite reals")
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly decreasing")

    head = float(x.strategy.term(0)[0])
    rows, input_d, used, skipped = [], [], [], []
    for s in scales:
        if abs(head + s) > space.bound_n:
            skipped.append(s)
            continue
        perturbed = _perturbed(x, s)
        (before, _), (after, media) = _orbit_distances(perturbed, x, 1, space)
        input_d.append(before)
        rows.append((len(rows), after, media))
        used.append(s)
    # after the walks, so a walk's error keeps precedence over this one
    tolerance = _require_tolerance(tolerance)
    if not rows:
        raise ValueError("no usable scales: every perturbation left the bound")
    image_d = [row[1] for row in rows]
    ratio_ok = all(img <= 2.0 * inp + tolerance
                   for img, inp in zip(image_d, input_d))
    nonincreasing = all(b <= a + tolerance
                        for a, b in zip(image_d, image_d[1:]))
    max_ratio = max((img / inp if inp else 0.0)
                    for img, inp in zip(image_d, input_d))

    n = space.bound_n
    report = WitnessReport(
        property="continuity",
        inputs={"scales": list(used), "skipped_scales": list(skipped),
                "nv": x.dim, "bound_n": n},
        constructed_point=perturbed,
        iterations_used=1,
        measured={
            "max_image_to_input_ratio": max_ratio,
            "final_image_distance": image_d[-1],
            "image_distances_nonincreasing": 1.0 if nonincreasing else 0.0,
        },
        verdict=bool(ratio_ok and nonincreasing),
        tolerance=tolerance,
    )
    trace = OrbitTrace(
        points=tuple(rows),
        meta={"kind": "continuity_probe", "scales": used,
              "skipped_scales": skipped, "input_d_phase": input_d,
              "nv": x.dim, "bound_n": n},
    )
    return report, trace


# ---------- traces and randomized scan ----------

def divergence_trace(x: PhasePoint, y: PhasePoint, n_max: int,
                     space: SpaceConfig) -> OrbitTrace:
    """Distances between the orbits of x and y at steps 0..n_max.

    More than MAX_ORBIT_WORK steps times nv raise BudgetExceeded.
    """
    _require_orbit_budget(1, n_max, x.dim)
    rows = tuple((step, d, media) for step, (d, media)
                 in enumerate(_orbit_distances(x, y, n_max, space)))
    return OrbitTrace(
        points=rows,
        meta={"kind": "divergence", "n_max": n_max, "nv": x.dim,
              "bound_n": space.bound_n},
    )


def _random_ball_perturbation(x: PhasePoint, r: float, k0: int,
                              space: SpaceConfig, seed: int,
                              trial: int) -> PhasePoint:
    # Sub-seeded from (seed, trial) so trial order and parallel
    # evaluation cannot change results.
    rng = np.random.default_rng([seed, trial])
    n = space.bound_n
    nv = x.dim
    frac = rng.uniform(0.1, 0.9)
    media_budget = 0.5 * r * frac
    strategy_budget = 0.5 * r * (1.0 - frac)
    media = np.array(x.media) + rng.uniform(-media_budget, media_budget, nv)
    depth = k0 + int(rng.integers(0, 3))
    # 10.0 ** 309 overflows, and uniform() needs 2 * cap finite; a cap
    # below the budget's still keeps the perturbation inside the ball
    cap = min(strategy_budget * (n / 9.0) * 10.0 ** min(depth, 308)
              * 10.0 ** max(depth - 308, 0), np.finfo(float).max / 2)
    term = np.clip(x.strategy.term(depth) + rng.uniform(-cap, cap, nv), -n, n)
    return PhasePoint(x.strategy.with_term(depth, term), media)


def empirical_sensitivity_scan(x: PhasePoint, r: float, trials: int,
                               n_max: int, seed: int,
                               space: SpaceConfig) -> float:
    """Largest orbit separation found from perturbations inside B(x, r).

    Trial 0 is x itself: it adds 0 and is not walked, so a single trial
    returns 0.0.  Trial 1 is the constructive sensitivity witness, which
    anchors the scan at the provable separation; remaining trials draw
    random in-ball perturbations sub-seeded from (seed, trial index).
    Returns max over trials of max over steps 0..n_max of d_phase.
    More than MAX_ORBIT_WORK steps times nv, trials * (n_max + 1) * nv,
    raise BudgetExceeded before any trial runs.
    """
    if not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    _require_orbit_budget(trials, n_max, x.dim)
    r = float(r)
    k0 = ball_index(r)
    best = 0.0
    for trial in range(1, trials):
        if trial == 1:
            perturbed = witness_sensitivity(x, r, space).constructed_point
        else:
            perturbed = _random_ball_perturbation(x, r, k0, space, seed, trial)
        for d, _ in _orbit_distances(x, perturbed, n_max, space):
            best = max(best, d)
    return best


def random_phase_point(seed, space: SpaceConfig) -> PhasePoint:
    """Reproducible random phase point (for scans, demos, and the CLI).

    Accepts either an integer seed or an existing numpy Generator.
    Media components are uniform over [-N/2, N/2].  The prefix holds 0
    to 3 terms uniform over [-N, N]; the tail is zero or a periodic
    block of 1 or 2 such terms, with equal probability.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = space.bound_n
    nv = space.nv
    media = rng.uniform(-n / 2.0, n / 2.0, nv)
    prefix = rng.uniform(-n, n, (int(rng.integers(0, 4)), nv))
    periodic = rng.random() >= 0.5
    tail = rng.uniform(-n, n, (int(rng.integers(1, 3)), nv)) if periodic else ()
    return PhasePoint(Strategy(nv, prefix, tail), media)

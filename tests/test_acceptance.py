"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The ten long stochastic-subgradient runs are one lockstep batch, shared
through a module-scoped fixture that reduces every seed to a small dictionary
of diagnostics, so the expensive million-step loop executes once.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import time

import numpy as np
import pytest

from svsa.engine import (NoiseModel, StepSchedule, Trajectory,
                         run_fictitious_play, run_sgd_seeds, run_shb, shb_flow_map,
                         shb_single_variable_coefficients)
from svsa.flow import euler_di
from svsa.games import generalized_rps, matching_pennies
from svsa.geometry import (Polytope, distance_to_hull, min_norm_point,
                           wolfe_certificate)
from svsa.maps import (abs_value, clarke_map, enlargement_slack,
                       half_square_norm, negate)
from svsa.occupation import (TestFunctionBank, accumulate, bump_on_ball,
                             centroid_membership_gap, closed_residual,
                             constant_one, essential_accumulation_estimate,
                             interpolated_residual, interpolation_bound,
                             oscillation_statistic, plugin_bandwidth,
                             residence_time, velocity_moment, Ball,
                             OccupationMeasure)

from helpers import grid_search_hull_point, random_polytope

SGD_SEEDS = list(range(1, 11))
N_FULL = 1_000_000
N_EARLY = 10_000
CHECKPOINTS = [N_EARLY * 2 ** k for k in range(7)] + [N_FULL]


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _prefix(traj: Trajectory, m: int) -> Trajectory:
    return Trajectory(states=traj.states[:m + 1], velocities=traj.velocities[:m],
                      steps=traj.steps[:m], deltas=traj.deltas[:m],
                      noises=traj.noises[:m], clock=traj.clock[:m + 1],
                      status=traj.status, seed=traj.seed)


def _sup_range_diameter(points: np.ndarray) -> float:
    return float((points.max(axis=0) - points.min(axis=0)).max())


def _sgd_seed_summary(f, traj: Trajectory, runtime: float) -> dict:
    H = negate(clarke_map(f))
    seed = traj.seed
    bank = TestFunctionBank.from_positions(traj.states)
    measures = [accumulate(traj, upto=m) for m in CHECKPOINTS]
    mu_early, mu_full = measures[0], measures[-1]

    out = {"seed": seed, "status": traj.status, "runtime": runtime}

    # Criterion 1: residual sandwich plus exactness of the interpolated value.
    margin = -np.inf
    interp_exact = True
    for g in bank.functions:
        gap = abs(closed_residual(mu_full, g) - interpolated_residual(traj, g))
        margin = max(margin, gap - interpolation_bound(traj, g.interpolation_constant))
        manual = float((g.value(traj.states[-1]) - g.value(traj.states[0])) / traj.elapsed)
        interp_exact &= interpolated_residual(traj, g) == manual
    out["sandwich_margin"] = float(margin)
    out["interp_exact"] = interp_exact

    # Criterion 2: worst closed residual at both horizons, same bank.
    out["residual_early"] = max(abs(closed_residual(mu_early, g)) for g in bank.functions)
    out["residual_full"] = max(abs(closed_residual(mu_full, g)) for g in bank.functions)

    # Criterion 3: essential-accumulation cells.
    cells = essential_accumulation_estimate(measures, 0.02, 0.05)
    out["cells"] = cells

    # Criterion 4: oscillation statistics, flat and localized at the minimum.
    bump = bump_on_ball([0.0], 0.2)
    for label, psi in (("flat", constant_one()), ("bump", bump)):
        early = np.linalg.norm(oscillation_statistic(mu_early, psi).weighted_average)
        full = np.linalg.norm(oscillation_statistic(mu_full, psi).weighted_average)
        out[f"osc_{label}"] = (float(early), float(full))

    # Criterion 5: membership of the estimated mean velocity at the probe.
    # At this sample size the measure concentrates within ~1e-3 of the kink,
    # far below the kernel resolution, so the minimizer x = 0 (the unique
    # critical point of the objective, inside [-0.5, 0.5]) is the
    # measure-typical probe; the estimate there must land in [-1, 1].
    h = plugin_bandwidth(mu_full)
    out["bandwidth"] = h
    out["centroid_gap"] = centroid_membership_gap(mu_full, H, [[0.0]], h)

    # Engine invariants on the recorded run.
    recomputed = (traj.states[1:] - traj.states[:-1]) / traj.steps[:, None]
    out["velocity_identity_error"] = float(np.abs(recomputed - traj.velocities).max())

    # De-noised velocities belong to the map value at the current state
    # (zero enlargement; closed-form distance for this one-dimensional map,
    # spot-checked against the sampled slack operation).
    bar_v = traj.velocities[:, 0] - traj.noises[:, 0]
    x = traj.states[:-1, 0]
    at_kink = np.abs(x) <= f.activity_tol
    dist = np.where(at_kink, np.maximum(np.abs(bar_v) - 1.0, 0.0),
                    np.abs(bar_v + np.sign(x)))
    out["membership_distance"] = float(dist.max())
    out["slack_spot_max"] = max(
        enlargement_slack(H, traj.states[j], traj.velocities[j] - traj.noises[j], 0.0)
        for j in range(0, traj.n_steps, 99_991))

    # Martingale noise average and interpolation-bound decay.
    for label, m in (("early", N_EARLY), ("full", N_FULL)):
        w = traj.steps[:m]
        out[f"noise_avg_{label}"] = float(abs(np.sum(w * traj.noises[:m, 0]) / w.sum()))
        out[f"bound_{label}"] = interpolation_bound(_prefix(traj, m), 1.0)

    # Velocity second moments along the checkpoints.
    out["moments"] = [velocity_moment(mu, 2.0) for mu in measures]
    return out


@pytest.fixture(scope="module")
def sgd_runs():
    f = abs_value()
    started = time.perf_counter()
    runs = list(run_sgd_seeds(f, StepSchedule.power(0.5, 0.6), NoiseModel.gaussian(0.5),
                              N_FULL, 100.0, SGD_SEEDS, [1.0]))
    # Every seed's criterion-1 runtime is the whole batch's wall time, never a share of it.
    runtime = time.perf_counter() - started
    return [_sgd_seed_summary(f, traj, runtime) for traj in runs]


@pytest.fixture(scope="module")
def shb_run():
    f = half_square_norm(2)
    beta = StepSchedule.power(0.5, 0.6)
    alpha = StepSchedule.power(0.5, 0.6)  # c = 1
    started = time.perf_counter()
    traj = run_shb(f, alpha, beta, NoiseModel.gaussian(0.5), N_FULL, 100.0, 1,
                   [1.0, 1.0], [0.0, 0.0])
    runtime = time.perf_counter() - started
    measures = [accumulate(traj, upto=m) for m in CHECKPOINTS]
    cells = essential_accumulation_estimate(measures, 0.05, 0.05)
    return {"status": traj.status, "runtime": runtime, "cells": cells}


def test_criterion_1_residual_sandwich(sgd_runs):
    assert sum(s["status"] == "completed" for s in sgd_runs) >= 9
    worst = max(s["sandwich_margin"] for s in sgd_runs)
    exact = all(s["interp_exact"] for s in sgd_runs)
    slow = max(s["runtime"] for s in sgd_runs)
    ok = worst <= 1e-9 and exact and slow <= 120.0
    _report(1, "residual sandwich", ok,
            f"(worst margin {worst:.2e}, interpolated exact: {exact}, "
            f"seed runtime {slow:.1f}s, the whole lockstep batch)")


def test_criterion_2_closed_residual_decay(sgd_runs):
    hits = sum(s["residual_full"] <= s["residual_early"] / 3.0 for s in sgd_runs)
    ratios = [s["residual_full"] / s["residual_early"] for s in sgd_runs]
    _report(2, "closed-measure residual decay", hits >= 8,
            f"({hits}/10 seeds, ratios {min(ratios):.3f}..{max(ratios):.3f})")


def test_criterion_3_essential_accumulation_near_minimum(sgd_runs):
    worst = 0.0
    for s in sgd_runs:
        assert s["cells"].size, "no essential cell found"
        worst = max(worst, float(np.abs(s["cells"]).max()))
    _report(3, "essential accumulation in critical set", worst <= 0.05,
            f"(worst cell center distance {worst:.4f}, all 10 seeds)")


def test_criterion_4_oscillation_compensation(sgd_runs):
    hits_flat = sum(s["osc_flat"][1] <= 0.5 * s["osc_flat"][0] for s in sgd_runs)
    hits_bump = sum(s["osc_bump"][1] <= 0.5 * s["osc_bump"][0] for s in sgd_runs)
    ok = hits_flat >= 8 and hits_bump >= 8
    _report(4, "oscillation compensation", ok,
            f"(flat {hits_flat}/10, localized {hits_bump}/10)")


def test_criterion_5_centroid_membership(sgd_runs):
    worst = max(s["centroid_gap"] for s in sgd_runs)
    _report(5, "centroid field membership", worst <= 0.1,
            f"(worst gap {worst:.3e} at the minimizer probe)")


def test_criterion_6_heavy_ball(shb_run):
    cells = shb_run["cells"]
    assert cells.size, "no essential cell found for the heavy-ball run"
    cell_dist = float(np.linalg.norm(cells, axis=1).max())

    # Energy dissipation along the Euler curve of the companion inclusion.
    c, dt = 1.0, 1e-3
    curve = euler_di(shb_flow_map(half_square_norm(2), c), [1.0, 1.0, 0.0, 0.0],
                     dt, 10.0, rule="min_norm")
    V = 0.5 * np.sum(curve.points[:, :2] ** 2, axis=1) \
        + 0.5 * c * np.sum(curve.points[:, 2:] ** 2, axis=1)
    fd = np.diff(V) / dt
    target = -c * np.sum(curve.points[:-1, 2:] ** 2, axis=1)
    deriv_err = float(np.abs(fd - target).max())

    # Change-of-variables equivalence of the two recursions, no noise.
    n_steps = 1000
    beta = StepSchedule.power(0.5, 0.6)
    traj = run_shb(half_square_norm(1), beta, beta, NoiseModel.none(),
                   n_steps, 1e6, 0, [1.0], [0.0])
    q = traj.states[:, 0]
    a, b = shb_single_variable_coefficients(beta.values(n_steps), beta.values(n_steps))
    q_alt = np.empty(n_steps + 1)
    q_alt[0], q_alt[1] = q[0], q[1]
    for i in range(1, n_steps):
        q_alt[i + 1] = q_alt[i] + b[i] * (-q_alt[i]) + a[i] * (q_alt[i] - q_alt[i - 1])
    recursion_err = float(np.abs(q_alt - q).max())

    ok = cell_dist <= 0.1 and deriv_err <= 5.0 * dt and recursion_err <= 1e-12
    _report(6, "heavy ball", ok,
            f"(cells within {cell_dist:.3f}, energy-rate error {deriv_err:.2e}, "
            f"recursion mismatch {recursion_err:.2e})")


def test_criterion_7_fictitious_play_zero_sum():
    game = matching_pennies()
    star = np.array([0.5, 0.5, 0.5, 0.5])
    worst_gap, worst_time = 0.0, 0.0
    for seed in SGD_SEEDS:
        started = time.perf_counter()
        traj = run_fictitious_play(game, 100_000, seed, xi0=[[1.0, 0.0], [1.0, 0.0]])
        worst_time = max(worst_time, time.perf_counter() - started)
        worst_gap = max(worst_gap, float(np.abs(traj.states[-1] - star).max()))
    ok = worst_gap <= 0.05 and worst_time <= 30.0
    _report(7, "fictitious play converges in matching pennies", ok,
            f"(worst gap {worst_gap:.4f}, slowest seed {worst_time:.1f}s)")


def test_criterion_8_fictitious_play_non_convergent():
    # Independent pilot of the exact best-response averaging, with uniform
    # tie-breaking, validates the non-convergence threshold.
    def pilot(seed, n):
        rng = np.random.default_rng(seed)
        m = np.array([[0.0, -2.0, 1.0], [1.0, 0.0, -2.0], [-2.0, 1.0, 0.0]])
        xi1 = np.array([1.0, 0.0, 0.0])
        xi2 = np.array([1.0, 0.0, 0.0])
        states = np.empty((n, 6))
        for i in range(n):
            u1 = m @ xi2
            u2 = xi1 @ m.T
            b1 = np.flatnonzero(u1 >= u1.max() - 1e-9)
            b2 = np.flatnonzero(u2 >= u2.max() - 1e-9)
            x1 = np.zeros(3)
            x1[rng.choice(b1)] = 1.0
            x2 = np.zeros(3)
            x2[rng.choice(b2)] = 1.0
            xi1 = xi1 + (x1 - xi1) / (i + 2)
            xi2 = xi2 + (x2 - xi2) / (i + 2)
            states[i, :3], states[i, 3:] = xi1, xi2
        return states

    n = 100_000
    oracle_tail = pilot(1, n)[n // 2:]
    assert _sup_range_diameter(oracle_tail) >= 0.1, "pilot threshold not validated"

    traj = run_fictitious_play(generalized_rps(1.0, 2.0), n, 1,
                               xi0=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    tail = traj.states[n // 2:]
    diameter = _sup_range_diameter(tail)
    coords_ok = traj.states.min() >= -1e-9
    sums = np.hstack([traj.states[:, :3].sum(axis=1), traj.states[:, 3:].sum(axis=1)])
    simplex_ok = coords_ok and np.abs(sums - 1.0).max() <= 1e-9
    ok = diameter >= 0.1 and simplex_ok
    _report(8, "fictitious play keeps cycling in generalized RPS", ok,
            f"(tail diameter {diameter:.3f}, simplex preserved: {simplex_ok})")


def test_criterion_9_convex_geometry_oracle_equivalence():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst_point, worst_dist = 0.0, 0.0
    for _ in range(100):
        G = random_polytope(rng, max_generators=4, max_dim=3)
        poly = Polytope(G)
        p = min_norm_point(poly)
        oracle_p, oracle_norm = grid_search_hull_point(G)
        worst_point = max(worst_point, float(np.linalg.norm(p - oracle_p)))
        y = rng.uniform(-3.0, 3.0, G.shape[1])
        _, oracle_d = grid_search_hull_point(G, target=y)
        worst_dist = max(worst_dist, abs(distance_to_hull(y, poly) - oracle_d))
    elapsed = time.perf_counter() - started
    ok = worst_point <= 1e-3 and worst_dist <= 1e-3 and elapsed <= 60.0
    _report(9, "convex geometry agrees with grid search", ok,
            f"(point {worst_point:.2e}, distance {worst_dist:.2e}, {elapsed:.1f}s)")


def test_criterion_10_invariant_suites(sgd_runs):
    checks = {}

    # Velocity identity and de-noised membership on every recorded step.
    checks["velocity identity"] = max(s["velocity_identity_error"] for s in sgd_runs) == 0.0
    checks["velocity membership"] = max(s["membership_distance"] for s in sgd_runs) <= 1e-9
    checks["sampled slack spot checks"] = max(s["slack_spot_max"] for s in sgd_runs) <= 1e-9

    # Martingale averages shrink between the two horizons.
    decays = sum(s["noise_avg_full"] < s["noise_avg_early"] for s in sgd_runs)
    checks["noise average decay (>=9/10)"] = decays >= 9
    checks["interpolation bound decay"] = all(
        s["bound_full"] < s["bound_early"] for s in sgd_runs)

    # Velocity moments stay within twice their running median.
    def moments_tight(moments):
        return all(m <= 2.0 * float(np.median(moments[:k + 1])) + 1e-12
                   for k, m in enumerate(moments))
    checks["velocity moments tight"] = all(moments_tight(s["moments"]) for s in sgd_runs)

    # Measure algebra: mass bookkeeping, merge-as-concatenation, residence
    # additivity and oscillation linearity on a fresh random store.
    rng = np.random.default_rng(10)
    X, V = rng.normal(size=(500, 2)), rng.normal(size=(500, 2))
    w = rng.uniform(0.1, 1.0, 500)
    mu = OccupationMeasure.from_arrays(X, V, w)
    a = OccupationMeasure.from_arrays(X[:200], V[:200], w[:200])
    b = OccupationMeasure.from_arrays(X[200:], V[200:], w[200:])
    merged = a.merge(b)
    checks["measure mass"] = abs(mu.total_weight - mu.weights.sum()) <= 1e-12 * mu.total_weight
    checks["merge is concatenation"] = (
        np.array_equal(merged.positions, mu.positions)
        and velocity_moment(merged, 2.0) == velocity_moment(mu, 2.0))
    left = Ball((-0.5, 0.0), 0.4)
    right = Ball((1.5, 0.0), 0.4)
    both = residence_time(mu, left) + residence_time(mu, right)
    union = (left.contains(mu.positions) | right.contains(mu.positions))
    checks["residence additivity"] = abs(
        both - float(mu.weights[union].sum() / mu.total_weight)) <= 1e-12
    psi1, psi2 = constant_one(), bump_on_ball([0.0, 0.0], 1.5)
    lin_gap = np.abs(
        oscillation_statistic(mu, lambda P: psi1.value(P) + psi2.value(P)).weighted_average
        - oscillation_statistic(mu, psi1).weighted_average
        - oscillation_statistic(mu, psi2).weighted_average).max()
    checks["oscillation linearity"] = lin_gap <= 1e-12

    # Optimality certificate on fresh random polytopes.
    rng = np.random.default_rng(11)
    checks["optimality certificate"] = all(
        wolfe_certificate(poly, min_norm_point(poly)) >= -1e-9
        for poly in (Polytope(random_polytope(rng)) for _ in range(100)))

    failed = [name for name, ok in checks.items() if not ok]
    _report(10, "invariant suites", not failed,
            f"({len(checks)} invariant groups" + (f"; failed: {failed}" if failed else ")"))

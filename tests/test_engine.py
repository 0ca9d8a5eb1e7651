import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import svsa.engine as engine_mod
from svsa.engine import (NoiseModel, StepSchedule, Trajectory, run_fictitious_play,
                         run_fictitious_play_seeds, run_sa, run_sa_seeds, run_sgd,
                         run_sgd_seeds, run_shb, run_shb_seeds, sa_step,
                         shb_single_variable_coefficients)
from svsa.games import Game, game_from_json, generalized_rps, matching_pennies
from svsa.maps import (SELECTION_RULES, MaxOfSmoothFunction, SetValuedMap, SmoothPiece,
                       abs_value, clarke_map, enlargement_slack, half_square_norm,
                       max_of_squares, negate, singleton_map)

from helpers import THREE_PLAYER_TIES, digest


def attract_origin(dim=1):
    return singleton_map(dim, lambda x: -x, growth_bound=1.0, name="attract_origin")


class TestStepSchedule:
    def test_power_values(self):
        s = StepSchedule.power(0.5, 0.6)
        np.testing.assert_allclose(s.values(3), 0.5 / np.array([1.0, 2.0, 3.0]) ** 0.6)
        assert s.step(9) == 0.5 / 10.0 ** 0.6
        assert s.violations() == []

    def test_logarithmic_values(self):
        s = StepSchedule.logarithmic(2.0)
        assert s.step(0) == 2.0 / np.log(2.0)
        assert s.violations() == []

    def test_constant_flagged_non_conforming(self):
        assert StepSchedule.constant(0.1).violations()

    def test_fast_power_flagged(self):
        bad = StepSchedule.power(1.0, 1.5)
        assert any("finite" in v for v in bad.violations())

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StepSchedule.power(-1.0, 0.5)
        with pytest.raises(ValueError):
            StepSchedule.power(1.0, 0.0)
        with pytest.raises(ValueError):
            StepSchedule("weird", 1.0)


class TestNoiseModel:
    def test_zero_mean_per_coordinate(self):
        rng = np.random.default_rng(0)
        for model in (NoiseModel.gaussian(0.5), NoiseModel.uniform_ball_noise(2.0),
                      NoiseModel.student_t(4.0, 1.0)):
            draws = model.sample(100_000, 2, rng)
            assert np.abs(draws.mean(axis=0)).max() <= 0.05

    def test_second_moment_matches_analytic_within_factor_three(self):
        rng = np.random.default_rng(1)
        for model, dim in ((NoiseModel.gaussian(0.5), 3),
                           (NoiseModel.uniform_ball_noise(2.0), 2),
                           (NoiseModel.student_t(4.0, 1.0), 2)):
            draws = model.sample(100_000, dim, rng)
            empirical = float((draws ** 2).sum(axis=1).mean())
            analytic = model.mean_square_norm(dim)
            assert analytic is not None and np.isfinite(empirical)
            assert analytic / 3.0 <= empirical <= 3.0 * analytic

    def test_none_noise_is_zero(self):
        assert not NoiseModel.none().sample(5, 2, np.random.default_rng(0)).any()

    @pytest.mark.parametrize("make", [
        lambda: NoiseModel.gaussian(-1.0), lambda: NoiseModel.uniform_ball_noise(-0.5),
        lambda: NoiseModel.student_t(4.0, -1.0), lambda: NoiseModel.student_t(0.0, 1.0),
        lambda: NoiseModel.gaussian(float("nan")),
    ], ids=["sigma", "radius", "scale", "df", "nan_sigma"])
    def test_invalid_parameters_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("radius", [1.7e308, sys.float_info.max, 1e308])
    def test_uniform_ball_near_the_float_max_draws_inside_the_ball(self, radius):
        # radius * radii * directions overflows before the division by the
        # norms; the draws lie in the ball all the same.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = NoiseModel.uniform_ball_noise(radius).sample(64, 3, np.random.default_rng(0))
        assert np.isfinite(draws).all()
        assert all(math.hypot(*row) <= radius * (1.0 - 1e-12) for row in draws.tolist())
        assert max(math.hypot(*row) for row in draws.tolist()) > 0.9 * radius

    @given(radius=st.one_of(st.floats(0.0, 1e300), st.sampled_from([0.1, 1.0, 3.5, 1e300])),
           n=st.integers(1, 64), dim=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_uniform_ball_draws_keep_their_bits(self, radius, n, dim, seed):
        # The reference is the formula that overflows near the float max; below
        # 1e300 it does not, and every draw keeps its bits.
        rng = np.random.default_rng(seed)
        directions = rng.normal(size=(n, dim))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        reference = radius * (rng.uniform(size=(n, 1)) ** (1.0 / dim)) * directions / norms
        draws = NoiseModel.uniform_ball_noise(radius).sample(n, dim, np.random.default_rng(seed))
        assert draws.tobytes() == reference.tobytes()

    def test_negative_zero_sigma_draws_zeros(self):
        # -0.0 passes the non-negativity check, and numpy's normal would reject it.
        draws = NoiseModel.gaussian(-0.0).sample(3, 2, np.random.default_rng(0))
        assert draws.tobytes() == np.zeros((3, 2)).tobytes()

    def test_violations(self):
        assert NoiseModel.student_t(2.0, 1.0, moment_order=2.0).violations()
        assert NoiseModel.gaussian(1.0, moment_order=0.5).violations()
        assert NoiseModel.gaussian(1.0).violations() == []


class TestSaStep:
    def test_pull_to_origin(self):
        x_next, v, eta = sa_step([1.0], 0, attract_origin(), StepSchedule.constant(1.0),
                                 NoiseModel.none(), 0.0, np.random.default_rng(0))
        assert x_next[0] == 0.0 and v[0] == -1.0 and eta[0] == 0.0

    def test_forced_noise_arithmetic(self):
        H = singleton_map(1, lambda x: np.array([-1.0]))
        x_next, v, _ = sa_step([0.0], 0, H, StepSchedule.constant(0.1),
                               NoiseModel.none(), 0.0, np.random.default_rng(0),
                               eta=[0.5])
        assert abs(x_next[0] - (-0.05)) <= 1e-16
        assert v[0] == -0.5

    def test_velocity_identity_is_bit_exact(self):
        rng = np.random.default_rng(3)
        H = clarke_map(abs_value())
        x = np.array([0.7])
        for i in range(20):
            x_next, v, _ = sa_step(x, i, H, StepSchedule.power(0.3, 0.7),
                                   NoiseModel.gaussian(1.0), 0.1, rng)
            eps = StepSchedule.power(0.3, 0.7).step(i)
            np.testing.assert_array_equal(v, (x_next - x) / eps)
            x = x_next


class TestRunSa:
    def test_geometric_decay(self):
        traj = run_sa([1.0], attract_origin(), StepSchedule.constant(0.5),
                      NoiseModel.none(), None, 3, 10.0, 0)
        np.testing.assert_array_equal(traj.states.ravel(), [1.0, 0.5, 0.25, 0.125])
        assert traj.status == "completed"
        np.testing.assert_array_equal(traj.clock, [0.0, 0.5, 1.0, 1.5])

    def test_guard_escape(self):
        doubling = singleton_map(1, lambda x: x.copy())
        traj = run_sa([1.0], doubling, StepSchedule.constant(1.0),
                      NoiseModel.none(), None, 50, 10.0, 0)
        assert traj.status == "escaped"
        assert traj.escape_index == 4       # x_i = 2^i, first norm over 10 is 16
        assert traj.escape_norm == 16.0
        assert traj.states.shape[0] == 5
        assert traj.n_steps == 4

    def test_escape_beyond_the_square_root_of_the_float_max(self):
        # x_i = 2^i 1e200: x @ x overflows from i = 0, and hypot decides, without a
        # warning, that x_333 is the first state outside the 1e300 ball.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run_sa([1e200], singleton_map(1, lambda x: x.copy()),
                          StepSchedule.constant(1.0), NoiseModel.none(), None, 400, 1e300, 0)
        assert (traj.status, traj.escape_index, traj.escape_norm) == (
            "escaped", 333, 1.7498005798264095e300)

    def test_guard_must_exceed_start(self):
        with pytest.raises(ValueError):
            run_sa([2.0], attract_origin(), StepSchedule.constant(0.1),
                   NoiseModel.none(), None, 10, 1.0, 0)

    def test_seed_reproducibility(self):
        f = abs_value()
        sched = StepSchedule.power(0.5, 0.6)
        noise = NoiseModel.gaussian(0.5)
        a = run_sgd(f, sched, noise, 500, 100.0, 42, [1.0])
        b = run_sgd(f, sched, noise, 500, 100.0, 42, [1.0])
        c = run_sgd(f, sched, noise, 500, 100.0, 43, [1.0])
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.noises, b.noises)
        assert not np.array_equal(a.states, c.states)

    def test_velocity_identity_on_recorded_steps(self):
        traj = run_sgd(abs_value(), StepSchedule.power(0.5, 0.6),
                       NoiseModel.gaussian(0.5), 2000, 100.0, 7, [1.0])
        recomputed = (traj.states[1:] - traj.states[:-1]) / traj.steps[:, None]
        np.testing.assert_array_equal(recomputed, traj.velocities)

    def test_noiseless_velocity_lies_in_map_value(self):
        # With zero enlargement the de-noised velocity is an exact element of
        # the map value at the current state.
        H = negate(clarke_map(abs_value()))
        traj = run_sa([1.0], H, StepSchedule.power(0.5, 0.6),
                      NoiseModel.gaussian(0.5), None, 500, 100.0, 11)
        for j in range(traj.n_steps):
            bar_v = traj.velocities[j] - traj.noises[j]
            assert enlargement_slack(H, traj.states[j], bar_v, 0.0) <= 1e-9

    def test_enlarged_run_velocity_certified_at_wider_level(self):
        # Positive enlargement: the sampled slack certificate needs headroom.
        H = attract_origin()
        delta = StepSchedule.power(0.2, 0.5)
        traj = run_sa([1.0], H, StepSchedule.power(0.5, 0.6),
                      NoiseModel.gaussian(0.2), delta, 200, 100.0, 13)
        rng = np.random.default_rng(0)
        for j in range(0, traj.n_steps, 7):
            bar_v = traj.velocities[j] - traj.noises[j]
            wider = 2.0 * traj.deltas[j] + 0.05
            assert enlargement_slack(H, traj.states[j], bar_v, wider,
                                     z_samples=48, rng=rng) <= 0.0


class TestRunSgd:
    def test_hand_iterated_abs(self):
        traj = run_sgd(abs_value(), StepSchedule.constant(0.4), NoiseModel.none(),
                       12, 100.0, 0, [1.0], rule="min_norm")
        xs = traj.states.ravel()
        np.testing.assert_allclose(xs[:3], [1.0, 0.6, 0.2], atol=1e-12)
        assert np.all(np.abs(xs[2:]) <= 0.2 + 1e-12)

    def test_quadratic_matches_product_formula(self):
        n_steps = 200
        sched = StepSchedule.power(0.9, 1.0)
        traj = run_sgd(half_square_norm(1), sched, NoiseModel.none(),
                       n_steps, 100.0, 0, [1.0])
        expected = np.prod(1.0 - sched.values(n_steps))
        assert abs(traj.states[-1, 0] - expected) <= 1e-12 * abs(expected)


class TestRunShb:
    def test_one_step_arithmetic(self):
        # p_1 = (1 - 0.5) * 0 - 0.5 * grad f(1) = -0.5; q_1 = 1 + 0.5 * p_1.
        traj = run_shb(half_square_norm(1), StepSchedule.constant(0.5),
                       StepSchedule.constant(0.5), NoiseModel.none(), 1, 100.0,
                       0, [1.0], [0.0])
        q1, p1 = traj.states[1]
        assert p1 == -0.5
        assert q1 == 0.75

    def test_unit_beta_is_memoryless(self):
        traj = run_shb(half_square_norm(2), StepSchedule.constant(0.3),
                       StepSchedule.constant(1.0), NoiseModel.gaussian(0.5),
                       50, 1e6, 5, [1.0, -1.0])
        qs = traj.states[:, :2]
        ps = traj.states[:, 2:]
        etas = traj.noises[:, 2:]
        for i in range(traj.n_steps):
            np.testing.assert_allclose(ps[i + 1], -qs[i] + etas[i], atol=1e-14)

    def test_two_line_matches_position_only_recursion(self):
        # With alpha_i = c beta_i and no noise the single-variable recursion
        # with the derived coefficients reproduces the positions.
        c = 2.0
        n_steps = 400
        beta = StepSchedule.power(0.5, 0.7)
        alpha = StepSchedule.power(c * 0.5, 0.7)
        traj = run_shb(half_square_norm(1), alpha, beta, NoiseModel.none(),
                       n_steps, 1e6, 0, [1.0], [0.0])
        q = traj.states[:, 0]
        a, b = shb_single_variable_coefficients(alpha.values(n_steps), beta.values(n_steps))
        q_alt = np.empty(n_steps + 1)
        q_alt[0], q_alt[1] = q[0], q[1]
        for i in range(1, n_steps):
            grad = q_alt[i]  # objective q^2/2
            q_alt[i + 1] = q_alt[i] + b[i] * (-grad) + a[i] * (q_alt[i] - q_alt[i - 1])
        np.testing.assert_allclose(q_alt, q, atol=1e-12)

    def test_beta_above_one_rejected(self):
        with pytest.raises(ValueError):
            run_shb(half_square_norm(1), StepSchedule.constant(0.5),
                    StepSchedule.constant(1.5), NoiseModel.none(), 5, 100.0, 0, [1.0])

    def test_recorded_step_is_beta(self):
        traj = run_shb(half_square_norm(1), StepSchedule.constant(0.4),
                       StepSchedule.constant(0.2), NoiseModel.none(), 3, 100.0, 0, [1.0])
        np.testing.assert_array_equal(traj.steps, [0.2, 0.2, 0.2])
        recomputed = (traj.states[1:] - traj.states[:-1]) / traj.steps[:, None]
        np.testing.assert_array_equal(recomputed, traj.velocities)


class TestFictitiousPlay:
    def test_average_of_constant_play(self):
        # Both players have a strictly dominant first action.
        game = Game((np.array([[1.0, 1.0], [0.0, 0.0]]),
                     np.array([[1.0, 0.0], [1.0, 0.0]])), name="dominant")
        xi0 = [[0.25, 0.75], [0.5, 0.5]]
        traj = run_fictitious_play(game, 50, 0, xi0=xi0)
        e = np.array([1.0, 0.0, 1.0, 0.0])
        xi0_flat = np.concatenate([np.asarray(s) for s in xi0])
        for n in range(1, 51):
            expected = (xi0_flat + n * e) / (n + 1)
            np.testing.assert_allclose(traj.states[n], expected, atol=1e-12)

    def test_single_stage_average(self):
        game = matching_pennies()
        traj = run_fictitious_play(game, 1, 3, xi0=[[1.0, 0.0], [1.0, 0.0]])
        xi0 = traj.states[0]
        play = xi0 + traj.velocities[0]  # v_1 = x_1 - xi_0
        np.testing.assert_allclose(traj.states[1], (xi0 + play) / 2.0, atol=1e-15)

    def test_matching_pennies_approaches_even_mix(self):
        traj = run_fictitious_play(matching_pennies(), 20_000, 1,
                                   xi0=[[1.0, 0.0], [1.0, 0.0]])
        assert np.abs(traj.states[-1] - 0.5).max() <= 0.05

    def test_iterates_stay_on_product_of_simplices(self):
        traj = run_fictitious_play(generalized_rps(1.0, 2.0), 5_000, 2,
                                   xi0=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert traj.states.min() >= -1e-12
        sums = traj.states[:, :3].sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-9
        sums2 = traj.states[:, 3:].sum(axis=1)
        assert np.abs(sums2 - 1.0).max() <= 1e-9

    def test_invalid_initial_profile_rejected(self):
        with pytest.raises(ValueError):
            run_fictitious_play(matching_pennies(), 5, 0, xi0=[[0.9, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            run_fictitious_play(matching_pennies(), 5, 0, xi0=[[1.0, 0.0]])


def _never_evaluated(x):
    pytest.fail("the map was evaluated before the rule was checked")


_UNEVALUATED = MaxOfSmoothFunction((SmoothPiece(_never_evaluated, _never_evaluated),), 1)


@pytest.mark.parametrize("run", [
    lambda rule: run_sgd(_UNEVALUATED, StepSchedule.constant(0.1), NoiseModel.none(),
                         5, 10.0, 0, [1.0], rule=rule),
    lambda rule: run_shb(_UNEVALUATED, StepSchedule.constant(0.1), StepSchedule.constant(0.1),
                         NoiseModel.none(), 5, 10.0, 0, [1.0], rule=rule),
    lambda rule: run_sa([1.0], SetValuedMap(1, _never_evaluated), StepSchedule.constant(0.1),
                        NoiseModel.none(), None, 5, 10.0, 0, rule=rule),
], ids=["sgd", "shb", "sa"])
def test_unknown_rule_rejected_before_the_first_step(run):
    # A single active piece never reaches the selection rule, so the engines
    # check it at entry.
    with pytest.raises(ValueError, match="unknown selection rule"):
        run("nope")


@pytest.mark.parametrize("run", [
    lambda steps: run_sgd(_UNEVALUATED, steps, NoiseModel.none(), 40, 10.0, 0, [1.0]),
    lambda steps: run_shb(_UNEVALUATED, StepSchedule.constant(0.1), steps,
                          NoiseModel.none(), 40, 10.0, 0, [1.0]),
    lambda steps: run_sa([1.0], SetValuedMap(1, _never_evaluated), steps,
                         NoiseModel.none(), None, 40, 10.0, 0),
], ids=["sgd", "shb", "sa"])
def test_underflowing_steps_rejected_before_the_first_step(run):
    # a / (i + 1)^rho is 0 in floating point from i = 1 on; a zero step would
    # record the velocity 0/0.
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="step sizes must be positive"):
            run(StepSchedule.power(0.5, 1e300))


def test_shb_coefficient_formula():
    alphas = np.array([0.5, 0.4, 0.3])
    betas = np.array([0.5, 0.25, 0.2])
    a, b = shb_single_variable_coefficients(alphas, betas)
    assert np.isnan(a[0])
    assert a[1] == 0.4 * (1 - 0.25) / 0.5
    np.testing.assert_array_equal(b, alphas * betas)


# Property: the recorded velocities ---------------------------------------------

SCHEDULES = st.one_of(
    st.builds(StepSchedule.power, st.floats(1e-3, 2.0), st.floats(0.1, 1.5)),
    st.builds(StepSchedule.logarithmic, st.floats(1e-3, 2.0)),
    st.builds(StepSchedule.constant, st.floats(1e-3, 1.0)))
NOISES = st.one_of(
    st.just(NoiseModel.none()),
    st.builds(NoiseModel.gaussian, st.floats(0.0, 1.0)),
    st.builds(NoiseModel.student_t, st.floats(1.5, 10.0), st.floats(0.0, 1.0)),
    st.builds(NoiseModel.uniform_ball_noise, st.floats(0.0, 1.0)))


SEED_LISTS = st.lists(st.integers(0, 30), min_size=1, max_size=5)  # repeats come up


@st.composite
def singleton_batches(draw):
    """A random affine or bounded nonlinear field as a singleton map, and a
    lockstep batch of runs of it that may leave their guard ball."""
    n = draw(st.integers(1, 4))
    A = draw(arrays(np.float64, (n, n), elements=st.floats(-2.0, 2.0)))
    b = draw(arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
    x0 = draw(arrays(np.float64, n, elements=st.floats(-5.0, 5.0)))
    guard = float(np.linalg.norm(x0)) + draw(st.floats(0.1, 1e3))
    field = (lambda x: A @ x + b) if draw(st.booleans()) else (lambda x: np.tanh(A @ x) + b)
    runs = run_sa_seeds(x0, singleton_map(n, field), draw(SCHEDULES), draw(NOISES), None,
                        draw(st.integers(1, 60)), guard, draw(SEED_LISTS),
                        rule=draw(st.sampled_from(SELECTION_RULES)))
    return field, list(runs)


class TestVelocityIdentity:
    @settings(max_examples=200, deadline=None)
    @given(singleton_batches())
    def test_velocities_are_difference_quotients_of_the_recursion(self, batch):
        # In every run of a lockstep batch, a batch of one being a single-seed run.
        field, runs = batch
        for traj in runs:
            x, eps = traj.states, traj.steps
            assert traj.velocities.shape == (traj.n_steps, x.shape[1])
            assert traj.velocities.tobytes() == ((x[1:] - x[:-1]) / eps[:, None]).tobytes()
            for i in range(traj.n_steps):  # each state is one step of x + eps (H(x) + eta)
                step = x[i] + eps[i] * (field(x[i]) + traj.noises[i])
                assert x[i + 1].tobytes() == step.tobytes()


# Property: a lockstep batch is its seeds' single runs ------------------------------

OBJECTIVES = {"abs": abs_value, "quad2": lambda: half_square_norm(2),
              "maxsq3": lambda: max_of_squares(3)}


def assert_same_run(batch: Trajectory, single: Trajectory):
    for key in ("states", "velocities", "steps", "deltas", "noises", "clock"):
        a, b = getattr(batch, key), getattr(single, key)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), key
    assert (batch.status, batch.escape_index, batch.escape_norm, batch.seed) == (
        single.status, single.escape_index, single.escape_norm, single.seed)


@st.composite
def subgradient_batches(draw):
    """sgd or heavy ball on abs, quad2 or maxsq3, often from a tie (0 for abs,
    |x_j| = |x_k| for maxsq3), with a guard that some seeds may leave."""
    f = OBJECTIVES[draw(st.sampled_from(sorted(OBJECTIVES)))]()
    n = f.dimension
    scale = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 2.0))
    start = np.array([scale * draw(st.sampled_from([1.0, -1.0])) for _ in range(n)])
    if draw(st.booleans()):  # off the tie
        start[0] += draw(st.floats(-1.0, 1.0))
    schedule = draw(st.sampled_from([StepSchedule.constant(0.1), StepSchedule.constant(0.5),
                                     StepSchedule.power(0.5, 0.6)]))
    noise = draw(st.just(NoiseModel.none()) | st.builds(NoiseModel.gaussian,
                                                        st.floats(0.5, 3.0)))
    guard = float(np.linalg.norm(start)) + draw(st.floats(0.05, 2.0))
    args = (noise, draw(st.integers(1, 80)), guard)
    rule, seeds = draw(st.sampled_from(SELECTION_RULES)), draw(SEED_LISTS)
    if draw(st.booleans()):
        return (list(run_sgd_seeds(f, schedule, *args, seeds, start, rule)),
                [run_sgd(f, schedule, *args, s, start, rule) for s in seeds])
    momentum = (schedule, schedule, *args)
    return (list(run_shb_seeds(f, *momentum, seeds, start, rule=rule)),
            [run_shb(f, *momentum, s, start, rule=rule) for s in seeds])


class TestLockstep:
    @settings(max_examples=150, deadline=None)
    @given(subgradient_batches())
    def test_subgradient_batch_is_its_single_seed_runs(self, case):
        batch, singles = case
        assert len(batch) == len(singles)
        for b, s in zip(batch, singles):
            assert_same_run(b, s)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.1, 0.5), st.floats(0.01, 0.5), SEED_LISTS,
           st.integers(1, 80), st.sampled_from(SELECTION_RULES))
    def test_enlarged_batch_is_its_single_seed_runs(self, x0, a, delta, seeds, n_steps, rule):
        H = negate(clarke_map(abs_value()))
        args = (StepSchedule.power(a, 0.6), NoiseModel.student_t(4.0, 0.3),
                StepSchedule.power(delta, 0.5), n_steps, 1.5)
        for b, s in zip(run_sa_seeds([x0], H, *args, seeds, rule),
                        [run_sa([x0], H, *args, s, rule) for s in seeds]):
            assert_same_run(b, s)

    @settings(max_examples=30, deadline=None)
    @given(SEED_LISTS, st.integers(1, 120))
    def test_fictitious_play_batch_is_its_single_seed_runs(self, seeds, n_steps):
        game = game_from_json(THREE_PLAYER_TIES)
        for b, s in zip(run_fictitious_play_seeds(game, n_steps, seeds),
                        [run_fictitious_play(game, n_steps, s) for s in seeds]):
            assert_same_run(b, s)

    def test_seeds_escape_at_their_own_steps(self):
        # Seeds 1 and 4 leave the ball mid-run while 2 and 3 complete.
        args = (abs_value(), StepSchedule.constant(0.05), NoiseModel.gaussian(4.0), 3000, 2.5)
        batch = list(run_sgd_seeds(*args, [1, 2, 3, 4], [1.0]))
        assert [t.escape_index for t in batch] == [709, None, None, 402]
        for b, seed in zip(batch, [1, 2, 3, 4]):
            assert_same_run(b, run_sgd(*args, seed, [1.0]))

    def test_runs_are_views_of_the_batch(self):
        # The recorded arrays are views of the stacked records; velocities are
        # recorded run by run.
        batch = list(run_sgd_seeds(abs_value(), StepSchedule.power(0.5, 0.6),
                                   NoiseModel.gaussian(0.5), 100, 100.0, [1, 2], [1.0]))
        for key in ("states", "noises", "steps", "clock"):
            first, second = getattr(batch[0], key), getattr(batch[1], key)
            assert first.base is not None and np.shares_memory(first.base, second.base), key
        assert not np.shares_memory(batch[0].velocities, batch[1].velocities)


# Every lockstep entry point on a problem whose runs draw from their generators
# (noise, kink or best-response ties): seeds -> runs.
SEED_ENGINES = {
    "sa": lambda seeds: run_sa_seeds([0.5], negate(clarke_map(abs_value())),
                                     StepSchedule.power(0.5, 0.6), NoiseModel.gaussian(0.3),
                                     StepSchedule.power(0.2, 0.5), 200, 100.0, seeds),
    "sgd": lambda seeds: run_sgd_seeds(max_of_squares(3), StepSchedule.constant(0.1),
                                       NoiseModel.gaussian(0.2), 200, 100.0, seeds,
                                       [1.0, -1.0, 1.0], "random_vertex"),
    "shb": lambda seeds: run_shb_seeds(max_of_squares(2), StepSchedule.constant(0.2),
                                       StepSchedule.constant(0.2), NoiseModel.gaussian(0.3),
                                       200, 100.0, seeds, [1.0, -1.0]),
    "fp": lambda seeds: run_fictitious_play_seeds(game_from_json(THREE_PLAYER_TIES), 200,
                                                  seeds),
}


@pytest.mark.parametrize("engine", sorted(SEED_ENGINES))
class TestSeedArguments:
    def test_generator_seed_is_its_int_seed_recorded_as_none(self, engine):
        runs = list(SEED_ENGINES[engine]([1, np.random.default_rng(2), 3]))
        assert [t.seed for t in runs] == [1, None, 3]
        for a, b in zip(runs, SEED_ENGINES[engine]([1, 2, 3])):
            assert_same_run(a, dataclasses.replace(b, seed=a.seed))

    def test_seeds_may_be_any_iterable(self, engine):
        expected = list(SEED_ENGINES[engine]([4, 5, 6]))
        for seeds in ((4, 5, 6), (s for s in (4, 5, 6))):
            runs = list(SEED_ENGINES[engine](seeds))
            assert len(runs) == 3
            for a, b in zip(runs, expected):
                assert_same_run(a, b)


@pytest.mark.parametrize("engine", ["sa", "fp"])
def test_direct_calls_run_in_byte_bounded_batches(monkeypatch, engine):
    # A bound that holds two seeds' states and noises splits five seeds into
    # batches of 2, 2 and 1, each started once the previous one is consumed.
    whole = list(SEED_ENGINES[engine]([1, 2, 3, 4, 5]))
    sizes, lockstep = [], engine_mod._lockstep
    monkeypatch.setattr(engine_mod, "_lockstep",
                        lambda *args: sizes.append(len(args[-1])) or lockstep(*args))
    monkeypatch.setattr(engine_mod, "LOCKSTEP_BATCH_BYTES", 2 * 16 * 201 * whole[0].dimension)
    runs = SEED_ENGINES[engine]([1, 2, 3, 4, 5])
    split = [next(runs), next(runs), next(runs)]
    assert sizes == [2, 2]
    split.extend(runs)
    assert sizes == [2, 2, 1]
    for a, b in zip(split, whole, strict=True):
        assert_same_run(a, b)


# Frozen reference ---------------------------------------------------------------

def _sa_step_run():
    # A chain of single steps with delta > 0, laid out like a Trajectory.
    H = negate(clarke_map(abs_value()))
    sched, noise = StepSchedule.power(0.5, 0.6), NoiseModel.gaussian(0.3)
    delta = StepSchedule.power(0.2, 0.5)
    rng = np.random.default_rng(17)
    x, states, velocities, noises = np.array([0.5]), [[0.5]], [], []
    for i in range(200):
        x, v, eta = sa_step(x, i, H, sched, noise, delta.step(i), rng)
        states.append(x)
        velocities.append(v)
        noises.append(eta)
    return Trajectory(states=np.array(states), velocities=np.array(velocities),
                      steps=sched.values(200), deltas=delta.values(200),
                      noises=np.array(noises), clock=np.zeros(201))


FROZEN_RUNS = {
    "sgd_abs": lambda: run_sgd(abs_value(), StepSchedule.power(0.5, 0.6),
                               NoiseModel.gaussian(0.5), 400, 100.0, 1, [1.0]),
    "sgd_maxsq3_random_vertex": lambda: run_sgd(
        # Without noise the three coordinates tie again every third step.
        max_of_squares(3), StepSchedule.constant(0.1), NoiseModel.none(), 300, 100.0,
        2, [1.0, -1.0, 1.0], rule="random_vertex"),
    # The same tie pattern through the min-norm and random-hull kink branches.
    "sgd_maxsq3_min_norm": lambda: run_sgd(
        max_of_squares(3), StepSchedule.constant(0.1), NoiseModel.none(), 300, 100.0,
        2, [1.0, -1.0, 1.0], rule="min_norm"),
    "sgd_maxsq3_random_hull": lambda: run_sgd(
        max_of_squares(3), StepSchedule.constant(0.1), NoiseModel.none(), 300, 100.0,
        2, [1.0, -1.0, 1.0], rule="random_hull"),
    "sa_sign_descent_delta": lambda: run_sa(
        [0.8], negate(clarke_map(abs_value())), StepSchedule.power(0.5, 0.6),
        NoiseModel.student_t(4.0, 0.2), StepSchedule.power(0.2, 0.5), 400, 100.0, 3),
    "sa_doubling_escape": lambda: run_sa(
        [1.0], singleton_map(1, lambda x: x.copy()), StepSchedule.constant(1.0),
        NoiseModel.none(), None, 50, 1e3, 4),
    "shb_quad2": lambda: run_shb(half_square_norm(2), StepSchedule.power(0.5, 0.6),
                                 StepSchedule.power(0.5, 0.6), NoiseModel.gaussian(0.5),
                                 400, 100.0, 5, [1.0, 1.0]),
    # Heavy ball from a tie: 225 of the 300 steps select at a kink.
    "shb_maxsq2": lambda: run_shb(max_of_squares(2), StepSchedule.constant(0.2),
                                  StepSchedule.constant(0.2), NoiseModel.none(), 300,
                                  100.0, 9, [1.0, -1.0]),
    "fp_rps": lambda: run_fictitious_play(generalized_rps(1.0, 2.0), 400, 6),
    "fp_pennies_xi0": lambda: run_fictitious_play(matching_pennies(), 400, 11,
                                                  xi0=[[0.9, 0.1], [0.3, 0.7]]),
    # Every player ties now and then, up to three ways: the uniform draw over ties.
    "fp_three_player_ties": lambda: run_fictitious_play(game_from_json(THREE_PLAYER_TIES), 400, 5),
    "sa_step_chain": _sa_step_run,
}

FROZEN_DIGESTS = {
    'fp_pennies_xi0': {
        'states': '532abd8ef12f9258',
        'velocities': '5e6d3a89b1393cbb',
        'steps': '2370a1ee875e3242',
        'deltas': 'b9385a015d471e8d',
        'noises': 'b5dd8cc19c758d05',
        'clock': '9c1b15cd34033f96'},
    'fp_rps': {
        'states': 'fe6025c1d89c7102',
        'velocities': '3c467142c4cf7d41',
        'steps': '2370a1ee875e3242',
        'deltas': 'b9385a015d471e8d',
        'noises': '2799d97a199390ee',
        'clock': '9c1b15cd34033f96'},
    'fp_three_player_ties': {
        'states': '9ce8c7b6067bb0db',
        'velocities': '38cb67540b9f1afe',
        'steps': '2370a1ee875e3242',
        'deltas': 'b9385a015d471e8d',
        'noises': 'd2d8c8068fa9303e',
        'clock': '9c1b15cd34033f96'},
    'sa_doubling_escape': {
        'states': '5170330dce08a334',
        'velocities': 'd4d3fd5a56cfbb58',
        'steps': '49d8012aa9ceb152',
        'deltas': 'f68e3badbabb7df4',
        'noises': 'bab72b52d553fdd7',
        'clock': '1581790993b76525'},
    'sa_sign_descent_delta': {
        'states': 'b65d7904da640404',
        'velocities': 'ebcd282993e20831',
        'steps': '46131acdc356a6a8',
        'deltas': 'a928f6e2e8bba452',
        'noises': '83b2e8a74bb472b4',
        'clock': '46b7e1aead74d394'},
    'sa_step_chain': {
        'states': '96af95481743ba53',
        'velocities': 'c98bda1e129c290c',
        'steps': 'a47f0cb06d40ff46',
        'deltas': '3a1011108c0ea8b5',
        'noises': '11d35c66dec3c428',
        'clock': '4683ac2709594f41'},
    'sgd_abs': {
        'states': '156aa657068b5a7e',
        'velocities': '44dbeacbfc3e12b1',
        'steps': '46131acdc356a6a8',
        'deltas': 'b9385a015d471e8d',
        'noises': 'e190e7c324880770',
        'clock': '46b7e1aead74d394'},
    'sgd_maxsq3_min_norm': {
        'states': '680b863a76b96d12',
        'velocities': 'a1e7aa9f77359ee9',
        'steps': 'c9708d2dd2c6aded',
        'deltas': '4df56be7c6874637',
        'noises': '3afa42acf5d5863d',
        'clock': '00f730acbea34a2f'},
    'sgd_maxsq3_random_hull': {
        'states': '77fc66bcdf0dac36',
        'velocities': 'd2d3972e47c9f353',
        'steps': 'c9708d2dd2c6aded',
        'deltas': '4df56be7c6874637',
        'noises': '3afa42acf5d5863d',
        'clock': '00f730acbea34a2f'},
    'sgd_maxsq3_random_vertex': {
        'states': '36c3e7e57e63dbb9',
        'velocities': 'b91ba9f2dbb19504',
        'steps': 'c9708d2dd2c6aded',
        'deltas': '4df56be7c6874637',
        'noises': '3afa42acf5d5863d',
        'clock': '00f730acbea34a2f'},
    'shb_maxsq2': {
        'states': 'ddaf816274257334',
        'velocities': '23c50231cf012b60',
        'steps': 'ee7cb61422774364',
        'deltas': '4df56be7c6874637',
        'noises': 'aaff5e6a54d4e487',
        'clock': '9d583cc34e40f459'},
    'shb_quad2': {
        'states': '4dd77794e162efb9',
        'velocities': '3fdbabc7d9249683',
        'steps': '46131acdc356a6a8',
        'deltas': 'b9385a015d471e8d',
        'noises': '859c25c9f2951545',
        'clock': '46b7e1aead74d394'},
}

FROZEN_FIELDS = {
    'fp_pennies_xi0': ('completed', None, None, 11),
    'fp_rps': ('completed', None, None, 6),
    'fp_three_player_ties': ('completed', None, None, 5),
    'sa_doubling_escape': ('escaped', 10, 1024.0, 4),
    'sa_sign_descent_delta': ('completed', None, None, 3),
    'sa_step_chain': ('completed', None, None, None),
    'sgd_abs': ('completed', None, None, 1),
    'sgd_maxsq3_min_norm': ('completed', None, None, 2),
    'sgd_maxsq3_random_hull': ('completed', None, None, 2),
    'sgd_maxsq3_random_vertex': ('completed', None, None, 2),
    'shb_maxsq2': ('completed', None, None, 9),
    'shb_quad2': ('completed', None, None, 5),
}


@pytest.mark.parametrize("name", sorted(FROZEN_RUNS))
def test_engines_match_frozen_reference(name):
    # Every recorded array and escape field of a few hundred steps is pinned
    # bit for bit; any change to the recursion or its random draws shows here.
    traj = FROZEN_RUNS[name]()
    arrays = {key: digest(getattr(traj, key)) for key in
              ("states", "velocities", "steps", "deltas", "noises", "clock")}
    fields = (traj.status, traj.escape_index, traj.escape_norm, traj.seed)
    assert arrays == FROZEN_DIGESTS[name]
    assert fields == FROZEN_FIELDS[name]

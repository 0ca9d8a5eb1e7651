import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svsa.engine import shb_flow_map
from svsa.flow import (Curve, euler_di, limit_set_estimate, lyapunov_check,
                       recurrence_proxy, stable_zero_check)
from svsa.games import game_from_json, game_map, generalized_rps, matching_pennies
from svsa.geometry import distance_to_hull
from svsa.maps import (SELECTION_RULES, SetValuedMap, abs_value, clarke_map,
                       half_square_norm, max_of_squares, negate, singleton_map)

from helpers import THREE_PLAYER_TIES, digest, reference_euler


def attract_origin(dim=1):
    return singleton_map(dim, lambda x: -x, growth_bound=1.0)


class TestEulerDi:
    def test_linear_decay_matches_power(self):
        dt = 0.01
        curve = euler_di(attract_origin(), [1.0], dt, 2.0)
        expected = (1.0 - dt) ** np.arange(curve.n_points)
        np.testing.assert_allclose(curve.points[:, 0], expected, rtol=1e-12)

    def test_constant_map_is_exact_on_dyadic_grid(self):
        H = singleton_map(2, lambda x: np.array([1.0, -2.0]))
        curve = euler_di(H, [0.0, 0.0], 0.125, 4.0)
        np.testing.assert_array_equal(curve.points[:, 0], curve.times)
        np.testing.assert_array_equal(curve.points[:, 1], -2.0 * curve.times)

    def test_nonsmooth_descent_tracks_exact_flow(self):
        # The exact flow of the steepest-descent inclusion for |x| from 1
        # reaches 0 at time 1 and stays there.
        dt = 1e-3
        H = negate(clarke_map(abs_value()))
        curve = euler_di(H, [1.0], dt, 2.0, rule="min_norm")
        exact = np.maximum(0.0, 1.0 - curve.times)
        assert np.max(np.abs(curve.points[:, 0] - exact)) <= 2.0 * dt

    def test_euler_consistency_invariant(self):
        rng = np.random.default_rng(0)
        H = negate(clarke_map(max_of_squares(2)))
        curve = euler_di(H, [1.0, -0.7], 0.01, 1.0, rule="random_hull", rng=rng)
        for k in range(curve.n_points - 1):
            v = (curve.points[k + 1] - curve.points[k]) / curve.dt
            assert distance_to_hull(v, H.evaluate(curve.points[k])) <= 1e-9

    def test_affine_map_matches_closed_form(self):
        A = np.array([[-0.5, 0.3], [-0.2, -0.7]])
        b = np.array([0.1, -0.2])
        H = singleton_map(2, lambda x: A @ x + b)
        dt = 0.01
        curve = euler_di(H, [1.0, 1.0], dt, 1.0)
        x = np.array([1.0, 1.0])
        M = np.eye(2) + dt * A
        for k in range(curve.n_points - 1):
            x = M @ x + dt * b
            assert np.linalg.norm(curve.points[k + 1] - x) <= 1e-10

    def test_nonfinite_state_raises(self):
        H = singleton_map(1, lambda x: x * 1e300)
        with np.errstate(over="ignore"), pytest.raises(RuntimeError):
            euler_di(H, [1.0], 1.0, 10.0)

    @pytest.mark.parametrize("case", ["overflow", "nan"])
    def test_nonfinite_state_raises_before_it_is_selected_at(self, case):
        # The lone-piece selection no longer raises at a non-finite point, so
        # this check is what stops a curve there.  Heavy ball on quad2 from
        # (1, 1, 0, 0) reaches momentum 1e200, then overflows; the singleton
        # field is inf - inf = NaN at 1e10.
        if case == "overflow":
            H, x0, dt, step = shb_flow_map(half_square_norm(2), 1.0), [1.0, 1.0, 0, 0], 1e200, 2
        else:
            H, x0, dt, step = singleton_map(1, lambda x: x * 1e300 - x * 1e300), [1e10], 1.0, 1
        seen = []

        def generators(x):
            seen.append(x.copy())
            return H.generators(x)
        watched = SetValuedMap(H.dimension, generators)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                RuntimeError, match=f"non-finite state at step {step}$"):
            euler_di(watched, x0, dt, 10 * dt)
        assert len(seen) == step and np.isfinite(seen).all()

    @pytest.mark.parametrize("make, x0", [
        (lambda: negate(clarke_map(abs_value())), [0.5, 0.5]),
        (lambda: shb_flow_map(half_square_norm(2), 1.0), [1.0, 1.0, 0.0]),
        (lambda: game_map(matching_pennies()), [0.5] * 5),
        (lambda: attract_origin(), 0.5),
    ], ids=["sign_2d", "heavy_ball_3d", "pennies_5d", "scalar"])
    def test_start_of_the_wrong_dimension_rejected(self, make, x0):
        with pytest.raises(ValueError, match="start of shape"):
            euler_di(make(), x0, 0.1, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_start_rejected_before_selecting(self, bad):
        H, calls = _counting(lambda x: -x, 2)
        with pytest.raises(ValueError, match="is not finite"):
            euler_di(H, [0.0, bad], 0.1, 1.0)
        assert calls == []

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            euler_di(attract_origin(), [1.0], 0.0, 1.0)
        with pytest.raises(ValueError):
            euler_di(attract_origin(), [1.0], 0.5, 0.1)


def _counting(func, dimension):
    """A singleton map of ``func`` and the list its evaluations append to."""
    calls = []

    def counted(x):
        calls.append(x.copy())
        return func(x)
    return singleton_map(dimension, counted), calls


class TestFixedPointStop:
    def test_min_norm_stops_once_a_step_changes_nothing(self):
        # 1 -> 0.75 -> 0.5625 -> 0.421875, where the field vanishes: the fourth
        # evaluation leaves the state as it is, and the remaining 96 steps
        # would repeat it.
        H, calls = _counting(lambda x: np.where(np.abs(x) > 0.5, -x, 0.0), 1)
        curve = euler_di(H, [1.0], 0.25, 25.0)
        assert len(calls) == 4 and curve.n_points == 101
        assert curve.points.tobytes() == reference_euler(H, [1.0], 0.25, 25.0,
                                                         "min_norm").tobytes()

    def test_negative_zero_stepping_to_zero_is_not_a_fixed_point(self):
        # -0.0 + dt * 0.0 is +0.0: equal as numbers, not as bits, so the stop
        # waits for the next step.
        H, calls = _counting(lambda x: np.zeros(1), 1)
        curve = euler_di(H, [-0.0], 0.5, 5.0)
        assert len(calls) == 2
        assert curve.points[0].tobytes() == np.array([-0.0]).tobytes()
        assert curve.points[1:].tobytes() == np.zeros((10, 1)).tobytes()
        assert curve.points.tobytes() == reference_euler(H, [-0.0], 0.5, 5.0,
                                                         "min_norm").tobytes()

    @pytest.mark.parametrize("rule", ["random_vertex", "random_hull"])
    def test_random_rules_never_stop_early(self, rule):
        # Two equal zero rows: every random step draws, so the bitwise repeat
        # of the state proves nothing and all 20 steps are taken.
        calls = []

        def generators(x):
            calls.append(x.copy())
            return np.zeros((2, 1))
        H = SetValuedMap(1, generators)
        rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
        curve = euler_di(H, [0.3], 0.1, 2.0, rule=rule, rng=rng)
        assert len(calls) == 20
        assert np.all(curve.points == 0.3)
        assert curve.points.tobytes() == reference_euler(H, [0.3], 0.1, 2.0, rule,
                                                         ref_rng).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("rule", ["random_vertex", "random_hull"])
    def test_random_rules_stop_at_a_single_row_fixed_point(self, rule):
        # A lone row is selected with no draw, so the first step that leaves
        # the state as it is proves every later one would too.
        H, calls = _counting(lambda x: np.zeros(1), 1)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        curve = euler_di(H, [0.3], 0.1, 2.0, rule=rule, rng=rng)
        assert len(calls) == 1 and curve.n_points == 21
        assert np.all(curve.points == 0.3)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("rule", SELECTION_RULES)
    def test_sign_descent_stops_once_it_chatters(self, rule):
        # 0.625 -> 0.375 -> 0.125 -> -0.125 -> 0.125 (exact in binary): off the
        # kink every value is one row, and the fourth step returns to the state
        # two steps back, so the other 4 of the 8 steps alternate the last two.
        base = clarke_map(abs_value())
        calls = []

        def generators(x):
            calls.append(x.copy())
            return base.generators(x)
        H = negate(SetValuedMap(1, generators))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        curve = euler_di(H, [0.625], 0.25, 2.0, rule=rule, rng=rng)
        assert len(calls) == 4
        assert curve.points[:, 0].tolist() == [0.625, 0.375, 0.125] + [-0.125, 0.125] * 3
        assert rng.bit_generator.state == before
        assert curve.points.tobytes() == reference_euler(H, [0.625], 0.25, 2.0, rule,
                                                         rng).tobytes()

    def test_a_draw_between_draw_free_steps_breaks_the_cycle_test(self):
        # 1 -> 0 is draw-free, 0 draws 1 or 2, and 2 -> 1 is draw-free again:
        # 1 is the state two steps back, but the next step goes on to 0, not 2.
        calls = []

        def generators(x):
            calls.append(x.copy())
            return np.array([[1.0], [2.0]]) if x[0] == 0.0 else np.array([[-1.0]])
        H = SetValuedMap(1, generators)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        curve = euler_di(H, [1.0], 1.0, 30.0, rule="random_vertex", rng=rng)
        assert len(calls) == 30 and 2.0 in curve.points
        assert curve.points.tobytes() == reference_euler(H, [1.0], 1.0, 30.0, "random_vertex",
                                                         ref_rng).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("rule", SELECTION_RULES)
    @pytest.mark.parametrize("name", ["pennies_equilibrium", "rps_equilibrium",
                                      "sign_descent_at_kink", "maxsq3_tie"])
    def test_curves_are_the_plain_loop(self, name, rule):
        # Equilibria and kinks, where the min-norm step stops at once.
        make, x0, dt, T, seed = EULER_CASES[name]
        H, rng, ref_rng = make(), np.random.default_rng(seed), np.random.default_rng(seed)
        curve = euler_di(H, x0, dt, T, rule=rule, rng=rng)
        assert curve.points.tobytes() == reference_euler(H, x0, dt, T, rule, ref_rng).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestLimitSet:
    def test_convergent_curve(self):
        curve = euler_di(attract_origin(), [1.0], 0.01, 20.0)
        cloud = limit_set_estimate(curve, 0.1)
        assert np.abs(cloud).max() <= 1e-6

    def test_periodic_orbit_returns_full_cycle(self):
        # dt = 1 on x' = -2x alternates between +-x0 exactly.
        H = singleton_map(1, lambda x: -2.0 * x)
        curve = euler_di(H, [1.0], 1.0, 10.0)
        cloud = limit_set_estimate(curve, 0.5)
        assert {round(float(v), 12) for v in cloud.ravel()} == {1.0, -1.0}

    def test_decay_rate_bounds_cloud_radius(self):
        dt, T, frac = 0.01, 10.0, 0.2
        curve = euler_di(attract_origin(), [1.0], dt, T)
        cloud = limit_set_estimate(curve, frac)
        bound = (1.0 - dt) ** ((1.0 - frac) * T / dt)
        assert np.abs(cloud).max() <= bound * (1.0 + 1e-9)

    def test_fraction_validated(self):
        curve = euler_di(attract_origin(), [1.0], 0.1, 1.0)
        with pytest.raises(ValueError):
            limit_set_estimate(curve, 1.5)


def test_curve_csv_export(tmp_path):
    curve = euler_di(attract_origin(2), [1.0, -1.0], 0.25, 1.0)
    path = tmp_path / "curve.csv"
    curve.save_csv(path)
    rows = path.read_text().splitlines()
    assert rows[0] == "s,x0,x1"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], curve.times)
    np.testing.assert_array_equal(data[:, 1:], curve.points)


def test_curve_csv_bytes_are_pinned(tmp_path):
    curve = Curve(times=np.array([0.0, 0.1]), points=np.array([[1.0, -0.0], [0.9, 1e-300]]),
                  dt=0.1, rule="min_norm")
    curve.save_csv(tmp_path / "curve.csv")
    assert (tmp_path / "curve.csv").read_bytes() == (
        b"s,x0,x1\r\n0,1,-0\r\n0.10000000000000001,0.90000000000000002,1e-300\r\n")


class TestRecurrence:
    def test_stable_zero_is_recurrent(self):
        H = singleton_map(1, lambda x: np.zeros(1))
        assert recurrence_proxy(H, [0.5], 10.0, 0.01, 0.05, 1.0,
                                rules=("min_norm",))

    def test_decaying_flow_never_returns(self):
        assert not recurrence_proxy(attract_origin(), [1.0], 20.0, 0.01, 0.1, 5.0,
                                    rules=("min_norm",))

    def test_best_response_cycle_is_recurrent(self):
        # Warm up onto the cycling attractor of the outward-spiraling
        # rock-paper-scissors dynamics, then ask for a return.
        H = game_map(generalized_rps(1.0, 2.0))
        warm = euler_di(H, np.array([1.0, 0, 0, 1.0, 0, 0]), 1e-2, 60.0,
                        rule="min_norm")
        z = warm.points[-1]
        assert recurrence_proxy(H, z, 40.0, 1e-2, 0.1, 2.0, rules=("min_norm",))

    def test_tau_min_must_precede_horizon(self):
        with pytest.raises(ValueError):
            recurrence_proxy(attract_origin(), [1.0], 1.0, 0.1, 0.1, 2.0)

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -5},
                                        {"eps_return": -1e-3}, {"eps_return": math.nan}])
    def test_arguments_validated(self, kwargs):
        args = {"eps_return": 0.1, **kwargs}
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            recurrence_proxy(attract_origin(), [1.0], 1.0, 0.1, tau_min=0.5,
                             rng=np.random.default_rng(0), **args)

    def test_infinite_start_is_an_error_not_a_missing_witness(self):
        with pytest.raises(ValueError, match="is not finite"):
            recurrence_proxy(attract_origin(), [math.inf], 1.0, 0.1, 0.1, 0.5,
                             rng=np.random.default_rng(0))


class TestLyapunov:
    def test_gradient_flow_of_abs_decreases(self):
        H = negate(clarke_map(abs_value()))
        curve = euler_di(H, [1.0], 1e-3, 2.0, rule="min_norm")
        report, = lyapunov_check(lambda x: abs(float(x[0])), [curve],
                                 in_target=lambda x: abs(float(x[0])) <= 1e-9)
        speeds = np.linalg.norm(np.diff(curve.points, axis=0), axis=1) / curve.dt
        tol_v = 1.0 * curve.dt * speeds.max()  # |grad| of V is 1
        assert report.max_increase <= tol_v
        assert report.decrease > 0.9
        assert report.initial_in_target is False

    def test_constant_curve_at_zero_is_flagged(self):
        curve = Curve(times=np.array([0.0, 1.0]), points=np.zeros((2, 1)),
                      dt=1.0, rule="min_norm")
        report, = lyapunov_check(lambda x: float(np.sum(x ** 2)), [curve],
                                 in_target=lambda x: np.linalg.norm(x) <= 1e-9)
        assert report.max_increase == 0.0
        assert report.initial_in_target is True

    def test_no_increase_beyond_tolerance_on_gradient_flows(self):
        rng = np.random.default_rng(3)
        f = max_of_squares(2)
        H = negate(clarke_map(f))
        for _ in range(5):
            x0 = rng.uniform(-1.0, 1.0, 2)
            curve = euler_di(H, x0, 1e-3, 1.0, rule="random_hull", rng=rng)
            report, = lyapunov_check(lambda x: f(x), [curve])
            speeds = np.linalg.norm(np.diff(curve.points, axis=0), axis=1) / curve.dt
            tol_v = 2.0 * curve.dt * speeds.max()  # grad f is 2-Lipschitz scale
            assert report.max_increase <= tol_v + 1e-12

    def test_heavy_ball_energy_dissipates_at_momentum_rate(self):
        # Along Euler curves of the heavy-ball companion map, the energy
        # f(q) + c ||p||^2 / 2 decays with derivative -c ||p||^2.
        c, dt = 1.0, 1e-3
        f = half_square_norm(2)
        H = shb_flow_map(f, c)
        curve = euler_di(H, [1.0, 1.0, 0.0, 0.0], dt, 10.0, rule="min_norm")
        V = 0.5 * np.sum(curve.points[:, :2] ** 2, axis=1) \
            + 0.5 * c * np.sum(curve.points[:, 2:] ** 2, axis=1)
        fd = np.diff(V) / dt
        target = -c * np.sum(curve.points[:-1, 2:] ** 2, axis=1)
        assert np.abs(fd - target).max() <= 5.0 * dt


class TestStableZero:
    def test_kink_of_abs_is_stable(self):
        H = negate(clarke_map(abs_value()))
        assert stable_zero_check(H, [0.0], 1.0, 1e-3, trials=5,
                                 rng=np.random.default_rng(0))

    def test_origin_of_identity_map_is_stable(self):
        H = singleton_map(1, lambda x: x.copy())
        assert stable_zero_check(H, [0.0], 1.0, 1e-3, trials=3,
                                 rng=np.random.default_rng(1))

    def test_nonzero_constant_map_is_not(self):
        H = singleton_map(1, lambda x: np.array([1.0]))
        assert not stable_zero_check(H, [0.0], 1.0, 1e-3, trials=3,
                                     rng=np.random.default_rng(2))

    def test_start_of_the_wrong_dimension_is_no_certificate(self):
        # At [0, 0] the 1-D sign map's value holds 0, but the point is not in R^1.
        with pytest.raises(ValueError, match="start of shape"):
            stable_zero_check(negate(clarke_map(abs_value())), [0.0, 0.0], 0.3, 1e-3, 1)

    def test_zero_that_leaks_is_rejected(self):
        # 0 belongs to the value at the origin, but selections can run away.
        def generators(x):
            if abs(x[0]) > 0.0:
                return np.array([[1.0]])
            return np.array([[0.0], [1.0]])

        H = SetValuedMap(1, generators)
        assert not stable_zero_check(H, [0.0], 2.0, 1e-3, trials=4,
                                     rng=np.random.default_rng(3))


# Frozen reference ---------------------------------------------------------------

RPS_ORBIT_POINT = [0.147357, 0.300795, 0.551848, 0.147357, 0.300795, 0.551848]

# name -> (map, start, dt, T, seed of the generator handed to euler_di)
EULER_CASES = {
    "sign_descent": (lambda: negate(clarke_map(abs_value())), [0.7], 1e-2, 1.5, 1),
    "sign_descent_at_kink": (lambda: negate(clarke_map(abs_value())), [0.0], 1e-2, 1.0, 2),
    # Without noise the three coordinates tie again and again.
    "maxsq3_tie": (lambda: negate(clarke_map(max_of_squares(3))), [1.0, -1.0, 1.0],
                   5e-2, 10.0, 3),
    "heavy_ball_quad2": (lambda: shb_flow_map(half_square_norm(2), 1.0),
                         [1.0, 1.0, 0.0, 0.0], 1e-2, 3.0, 4),
    "heavy_ball_maxsq2": (lambda: shb_flow_map(max_of_squares(2), 1.0),
                          [1.0, -1.0, 0.0, 0.0], 1e-2, 3.0, 5),
    "pennies_equilibrium": (lambda: game_map(matching_pennies()), [0.5] * 4, 1e-2, 2.0, 6),
    "pennies_off_equilibrium": (lambda: game_map(matching_pennies()),
                                [0.9, 0.1, 0.3, 0.7], 1e-2, 3.0, 7),
    "rps_orbit": (lambda: game_map(generalized_rps(1.0, 2.0)), RPS_ORBIT_POINT, 1e-2, 3.0, 8),
    "rps_equilibrium": (lambda: game_map(generalized_rps(1.0, 2.0)), [1.0 / 3.0] * 6,
                        1e-2, 2.0, 9),
    "three_player_ties": (lambda: game_map(game_from_json(THREE_PLAYER_TIES)),
                          [0.5, 0.5, 1 / 3, 1 / 3, 1 / 3, 0.5, 0.5], 1e-2, 3.0, 10),
}


def _generator_digest(rng: np.random.Generator) -> str:
    state = json.dumps(rng.bit_generator.state, sort_keys=True).encode()
    return hashlib.sha256(state).hexdigest()[:16]


def _frozen_curve(name: str, rule: str) -> tuple[str, str]:
    make, x0, dt, T, seed = EULER_CASES[name]
    rng = np.random.default_rng(seed)
    curve = euler_di(make(), x0, dt, T, rule=rule, rng=rng)
    return digest(curve.points), _generator_digest(rng)


FROZEN_EULER = {
    ('heavy_ball_maxsq2', 'min_norm'): ('bc8a2dda96d7bb5d', '567a40f361e01400'),
    ('heavy_ball_maxsq2', 'random_vertex'): ('22a8eb8362c6a49e', 'a250e552da450239'),
    ('heavy_ball_maxsq2', 'random_hull'): ('b760ee9c2887d996', '8409061701017856'),
    ('heavy_ball_quad2', 'min_norm'): ('d03a44c49162d9f4', '9033e41ba3c67da9'),
    ('heavy_ball_quad2', 'random_vertex'): ('d03a44c49162d9f4', '9033e41ba3c67da9'),
    ('heavy_ball_quad2', 'random_hull'): ('d03a44c49162d9f4', '9033e41ba3c67da9'),
    ('maxsq3_tie', 'min_norm'): ('381e4c711198a705', '372b1e70436699a7'),
    ('maxsq3_tie', 'random_vertex'): ('9559afedffcf3cee', '3fa8f22b89230531'),
    ('maxsq3_tie', 'random_hull'): ('4b70f50a556c69f2', '0664f4ae2ecbba9e'),
    ('pennies_equilibrium', 'min_norm'): ('b2e8ada48ea80a04', '651e4756411f5c30'),
    ('pennies_equilibrium', 'random_vertex'): ('2d5ff7bad9b37318', '4efc1c4752f68779'),
    ('pennies_equilibrium', 'random_hull'): ('88be691ad6e9bcde', '480a34e0aab472b9'),
    ('pennies_off_equilibrium', 'min_norm'): ('67359f4038e684fa', '2632de069beb937b'),
    ('pennies_off_equilibrium', 'random_vertex'): ('67359f4038e684fa', '2632de069beb937b'),
    ('pennies_off_equilibrium', 'random_hull'): ('67359f4038e684fa', '2632de069beb937b'),
    ('rps_equilibrium', 'min_norm'): ('8b4bde4a69ba2960', '731b6cc58c3fde51'),
    ('rps_equilibrium', 'random_vertex'): ('7ec98d793f335f64', '4a9c0dfd5891e188'),
    ('rps_equilibrium', 'random_hull'): ('3c71bba6550f86bd', '6b7a6c70943de094'),
    ('rps_orbit', 'min_norm'): ('abb585f81a6863a3', '68be10f9339e7132'),
    ('rps_orbit', 'random_vertex'): ('abb585f81a6863a3', '68be10f9339e7132'),
    ('rps_orbit', 'random_hull'): ('abb585f81a6863a3', '68be10f9339e7132'),
    ('sign_descent', 'min_norm'): ('73828eaabd6eab0b', '7e62aff6a05eb04c'),
    ('sign_descent', 'random_vertex'): ('3050d2c16caeee28', '2020fb72edef8a09'),
    ('sign_descent', 'random_hull'): ('75d8586b0acf9465', 'b29ed5630738e80c'),
    ('sign_descent_at_kink', 'min_norm'): ('02e82b8a3c121992', 'aa2c413289b8f794'),
    ('sign_descent_at_kink', 'random_vertex'): ('60c47b82cb1ba5c6', 'bf019b4e6e3b52e6'),
    ('sign_descent_at_kink', 'random_hull'): ('1bb61626a71a56a6', '94d0c29b2d531d25'),
    ('three_player_ties', 'min_norm'): ('5d85820a9b9425db', '1843836e238db939'),
    ('three_player_ties', 'random_vertex'): ('c4f1c793de406721', 'b24ef02d343cf99c'),
    ('three_player_ties', 'random_hull'): ('e1580ca2615ef08f', 'fb6898abc57542f4'),
}


@pytest.mark.parametrize("rule", SELECTION_RULES)
@pytest.mark.parametrize("name", sorted(EULER_CASES))
def test_euler_curves_match_frozen_reference(name, rule):
    # Every Euler point and the generator state after the run are pinned bit
    # for bit; any change to a selection or its draws shows here.
    assert _frozen_curve(name, rule) == FROZEN_EULER[name, rule]


@st.composite
def _euler_problems(draw):
    """An EULER_CASES map with a start drawn from its case: the case's own
    (kinks and equilibria among them), shifted off it, or shifted by a whole
    number of steps plus a fraction of one, where sign descent chatters."""
    name = draw(st.sampled_from(sorted(EULER_CASES)))
    make, x0, _, _, _ = EULER_CASES[name]
    dt = draw(st.sampled_from([1e-2, 5e-2, 0.1, 0.25]))
    x0 = np.array(x0, dtype=float)
    start = draw(st.sampled_from(["case", "shifted", "chatter"]))
    if start != "case":
        unit = 1.0 if start == "shifted" else dt
        x0 = x0 + unit * np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=x0.shape[0],
                                                 max_size=x0.shape[0])))
    n_steps = draw(st.integers(1, 60))
    return make(), x0, dt, n_steps * dt, draw(st.sampled_from(SELECTION_RULES)), \
        draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(_euler_problems())
def test_euler_curves_are_the_plain_loop_from_drawn_starts(problem):
    H, x0, dt, T, rule, seed = problem
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    curve = euler_di(H, x0, dt, T, rule=rule, rng=rng)
    assert curve.points.tobytes() == reference_euler(H, x0, dt, T, rule, ref_rng).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state

import numpy as np
import pytest

from svsa.engine import shb_flow_map
from svsa.flow import (Curve, euler_di, limit_set_estimate, lyapunov_check,
                       recurrence_proxy, stable_zero_check)
from svsa.games import game_map, generalized_rps
from svsa.geometry import Polytope, distance_to_hull
from svsa.maps import (SetValuedMap, abs_value, clarke_map, half_square_norm,
                       max_of_squares, negate, singleton_map)


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

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            euler_di(attract_origin(), [1.0], 0.0, 1.0)
        with pytest.raises(ValueError):
            euler_di(attract_origin(), [1.0], 0.5, 0.1)


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

    def test_zero_that_leaks_is_rejected(self):
        # 0 belongs to the value at the origin, but selections can run away.
        def ev(x):
            if abs(x[0]) > 0.0:
                return Polytope([[1.0]])
            return Polytope([[0.0], [1.0]])

        H = SetValuedMap(1, ev)
        assert not stable_zero_check(H, [0.0], 2.0, 1e-3, trials=4,
                                     rng=np.random.default_rng(3))

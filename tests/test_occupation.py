import dataclasses
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from svsa.engine import NoiseModel, StepSchedule, run_sgd
from svsa.maps import abs_value, clarke_map, negate, singleton_map
from svsa.occupation import (Ball, Box, OccupationMeasure, SmoothTestFunction,
                             TestFunctionBank, UndefinedEstimateError, _exponents,
                             _unique_rows,
                             accumulate, bump_on_ball, centroid_field_estimate,
                             centroid_membership_gap, circulation,
                             closed_residual, constant_one,
                             essential_accumulation_estimate,
                             interpolated_residual, interpolation_bound,
                             load_checkpoint, oscillation_statistic,
                             plugin_bandwidth, residence_time, save_checkpoint,
                             velocity_moment)

from helpers import make_trajectory, reference_monomial


def linear_g(a):
    a = np.asarray(a, dtype=float)
    return SmoothTestFunction(
        "linear", lambda X: np.asarray(X) @ a,
        lambda X: np.broadcast_to(a, np.atleast_2d(X).shape).copy(),
        interpolation_constant=2.0 * float(np.linalg.norm(a)))


def quadratic_g():
    return SmoothTestFunction(
        "halfsq", lambda X: 0.5 * np.sum(np.asarray(X) ** 2, axis=-1),
        lambda X: np.asarray(X, dtype=float).copy(),
        interpolation_constant=1.0)


def small_sgd_run(n_steps=2000, seed=9):
    return run_sgd(abs_value(), StepSchedule.power(0.5, 0.6),
                   NoiseModel.gaussian(0.5), n_steps, 100.0, seed, [1.0])


class TestOccupationMeasure:
    def test_single_step_trajectory(self):
        traj = make_trajectory([[1.0], [0.5]], [0.5])
        mu = accumulate(traj)
        assert mu.n_samples == 1
        assert mu.total_weight == 0.5
        np.testing.assert_array_equal(mu.positions, [[1.0]])
        np.testing.assert_array_equal(mu.velocities, [[-1.0]])

    def test_equal_weights_split_mass(self):
        mu = OccupationMeasure.from_arrays([[0.0], [1.0]], [[1.0], [-1.0]], [0.3, 0.3])
        assert residence_time(mu, Ball((0.0,), 0.1)) == 0.5

    def test_merge_of_halves_equals_whole(self):
        traj = small_sgd_run(400)
        whole = accumulate(traj)
        first = accumulate(traj, upto=200)
        second = OccupationMeasure.from_arrays(traj.states[200:400],
                                               traj.velocities[200:],
                                               traj.steps[200:])
        merged = first.merge(second)
        np.testing.assert_array_equal(merged.positions, whole.positions)
        np.testing.assert_array_equal(merged.weights, whole.weights)
        g = quadratic_g()
        assert closed_residual(merged, g) == closed_residual(whole, g)
        region = Ball((0.0,), 0.05)
        assert residence_time(merged, region) == residence_time(whole, region)

    def test_total_weight_tracks_sum(self):
        rng = np.random.default_rng(0)
        mu = None
        for _ in range(5):
            m = int(rng.integers(1, 50))
            part = OccupationMeasure.from_arrays(rng.normal(size=(m, 2)),
                                                 rng.normal(size=(m, 2)),
                                                 rng.uniform(0.1, 1.0, m))
            mu = part if mu is None else mu.merge(part)
        assert abs(mu.total_weight - mu.weights.sum()) <= 1e-12 * mu.total_weight

    def test_thinning_caps_samples_and_preserves_mass(self):
        rng = np.random.default_rng(1)
        mu = OccupationMeasure.from_arrays(rng.normal(size=(400, 1)), rng.normal(size=(400, 1)),
                                           rng.uniform(0.1, 1.0, 400), max_samples=100)
        assert mu.n_samples == 100
        assert abs(mu.total_weight - mu.weights.sum()) <= 1e-12 * mu.total_weight

    def test_shape_mismatch_rejected(self):
        mu = OccupationMeasure.from_arrays(np.zeros((1, 2)), np.zeros((1, 2)), [1.0])
        with pytest.raises(ValueError):
            mu.merge(OccupationMeasure.from_arrays([[1.0]], [[1.0]], [1.0]))
        with pytest.raises(ValueError):
            OccupationMeasure.from_arrays([[1.0, 0.0]], [[1.0]], [1.0])


class TestResidence:
    def test_everything_inside(self):
        mu = OccupationMeasure.from_arrays([[0.0], [0.2]], [[0.0], [0.0]], [1.0, 2.0])
        assert residence_time(mu, Box((-1.0,), (1.0,))) == 1.0

    def test_disjoint_region(self):
        mu = OccupationMeasure.from_arrays([[0.0]], [[0.0]], [1.0])
        assert residence_time(mu, Ball((5.0,), 0.5)) == 0.0

    def test_additivity_over_disjoint_regions_dyadic(self):
        # Dyadic weights make the additivity exact in floating point.
        mu = OccupationMeasure.from_arrays([[0.0], [1.0], [2.0], [3.0]],
                                           np.zeros((4, 1)),
                                           [0.25, 0.5, 0.125, 0.125])
        left = Box((-0.5,), (1.5,))
        right = Box((1.6,), (3.5,))
        union_mass = residence_time(mu, left) + residence_time(mu, right)
        both = Box((-0.5,), (3.5,))
        assert union_mass == residence_time(mu, both) == 1.0

    def test_additivity_random_weights(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1.0, 1.0, (200, 2))
        mu = OccupationMeasure.from_arrays(X, np.zeros_like(X), rng.uniform(0.1, 1.0, 200))
        left = Box((-1.0, -1.0), (0.0, 1.0))
        right = Box((0.0000001, -1.0), (1.0, 1.0))
        total = residence_time(mu, left) + residence_time(mu, right)
        assert abs(total - 1.0) <= 1e-12


class TestEssentialAccumulation:
    def test_point_mass_gives_single_cell(self):
        mus = [OccupationMeasure.from_arrays([[0.013]] * m, np.zeros((m, 1)), [1.0] * m)
               for m in (2, 4)]
        cells = essential_accumulation_estimate(mus, 0.02, 0.9)
        np.testing.assert_allclose(cells, [[0.01]])

    def test_two_far_cells(self):
        X = np.array([[0.0], [5.0], [0.0], [5.0]])
        mus = [OccupationMeasure.from_arrays(X[:2], np.zeros((2, 1)), [1.0, 1.0]),
               OccupationMeasure.from_arrays(X, np.zeros((4, 1)), [1.0] * 4)]
        cells = essential_accumulation_estimate(mus, 1.0, 0.4)
        np.testing.assert_allclose(sorted(cells.ravel()), [0.5, 5.5])

    def test_requires_increasing_checkpoints(self):
        mu = OccupationMeasure.from_arrays([[0.0]], [[0.0]], [1.0])
        with pytest.raises(ValueError):
            essential_accumulation_estimate([], 0.1, 0.1)
        with pytest.raises(ValueError):
            essential_accumulation_estimate([mu], 0.1, 0.1)
        with pytest.raises(ValueError):
            essential_accumulation_estimate([mu, mu], 0.1, 0.1)

    def test_thinned_checkpoints_grow_by_weight(self):
        # Past max_samples every checkpoint holds max_samples samples; a
        # later one still carries more total weight.
        X = np.zeros((40, 1))
        early, late = (OccupationMeasure.from_arrays(X[:m], X[:m], np.ones(m), max_samples=10)
                       for m in (20, 40))
        assert early.n_samples == late.n_samples == 10
        cells = essential_accumulation_estimate([early, late], 1.0, 0.5)
        np.testing.assert_allclose(cells, [[0.5]])
        with pytest.raises(ValueError, match="more samples or more total weight"):
            essential_accumulation_estimate([late, early], 1.0, 0.5)

    @pytest.mark.parametrize("position, cell_size", [(np.nan, 1.0), (np.inf, 1.0),
                                                     (1.0, 1e-300), (-2.0 ** 64, 1.0)])
    def test_cell_index_outside_int64_raises(self, position, cell_size):
        # floor(x / cell) must be an int64: a cast would give a platform-defined index
        mus = [OccupationMeasure.from_arrays([[0.0], [position]][:m], np.zeros((m, 1)),
                                             np.ones(m)) for m in (1, 2)]
        with pytest.raises(ValueError, match="no int64 cell index"):
            essential_accumulation_estimate(mus, cell_size, 0.5)


class TestResiduals:
    def test_odd_velocities_cancel_for_every_g(self):
        mu = OccupationMeasure.from_arrays([[0.4], [0.4]], [[2.0], [-2.0]], [0.7, 0.7])
        bank = TestFunctionBank.from_box([-1.0], [1.0])
        for g in bank.functions:
            assert closed_residual(mu, g) == 0.0

    def test_single_sample_linear_g(self):
        mu = OccupationMeasure.from_arrays([[1.0, 2.0]], [[3.0, -1.0]], [2.0])
        g = linear_g([2.0, 5.0])
        assert closed_residual(mu, g) == 2.0 * 3.0 + 5.0 * (-1.0)

    def test_interpolated_constant_trajectory_is_zero(self):
        traj = make_trajectory([[1.0], [1.0], [1.0]], [0.5, 0.5])
        assert interpolated_residual(traj, quadratic_g()) == 0.0

    def test_interpolated_identity_g(self):
        traj = small_sgd_run(300)
        g = linear_g([1.0])
        expected = (traj.states[-1, 0] - traj.states[0, 0]) / traj.clock[-1]
        assert interpolated_residual(traj, g) == expected

    def test_interpolated_matches_fine_quadrature_for_quadratic(self):
        traj = small_sgd_run(50)
        g = quadratic_g()
        # Composite-trapezoid quadrature of <grad g(x(t)), x'(t)> along the
        # piecewise-linear interpolation, step t_N / 1e6 inside each segment
        # (the integrand jumps at segment boundaries).
        t_end = traj.clock[-1]
        h0 = t_end / 1e6
        total = 0.0
        for j in range(traj.n_steps):
            eps, v, x0 = traj.steps[j], traj.velocities[j, 0], traj.states[j, 0]
            sub = max(1, int(round(eps / h0)))
            s = np.linspace(0.0, eps, sub + 1)
            integrand = (x0 + v * s) * v
            total += np.trapezoid(integrand, s)
        quad = total / t_end
        assert abs(interpolated_residual(traj, g) - quad) <= 1e-8

    def test_zero_elapsed_clock_rejected(self):
        traj = make_trajectory([[0.0]], [])
        with pytest.raises(ValueError):
            interpolated_residual(traj, quadratic_g())

    def test_bound_zero_velocities(self):
        traj = make_trajectory([[1.0], [1.0]], [0.5])
        assert interpolation_bound(traj, 3.0) == 0.0

    def test_bound_saturates_for_large_steps(self):
        traj = make_trajectory([[0.0], [2.0]], [1.0])  # eps * ||v|| = 2 >= 1
        assert interpolation_bound(traj, 3.0) == 3.0 * 1.0 * 2.0 / 1.0

    def test_residual_sandwich_on_short_run(self):
        traj = small_sgd_run(2000)
        mu = accumulate(traj)
        bank = TestFunctionBank.from_positions(traj.states)
        for g in bank.functions:
            gap = abs(closed_residual(mu, g) - interpolated_residual(traj, g))
            assert gap <= interpolation_bound(traj, g.interpolation_constant) + 1e-9


class TestCentroidField:
    def test_balanced_velocities_average_out(self):
        mu = OccupationMeasure.from_arrays([[0.0], [0.0]], [[1.0], [-1.0]], [1.0, 1.0])
        assert centroid_field_estimate(mu, [0.0], 0.1) == 0.0

    def test_single_sample_returns_its_velocity(self):
        mu = OccupationMeasure.from_arrays([[0.3]], [[2.5]], [0.2])
        assert centroid_field_estimate(mu, [0.3], 0.05) == 2.5

    def test_two_far_clusters_are_local_means(self):
        rng = np.random.default_rng(4)
        xa = rng.normal(0.0, 0.01, (50, 1))
        xb = rng.normal(10.0, 0.01, (50, 1))
        va = rng.normal(1.0, 0.1, (50, 1))
        vb = rng.normal(-3.0, 0.1, (50, 1))
        w = rng.uniform(0.5, 1.0, 100)
        mu = OccupationMeasure.from_arrays(np.vstack([xa, xb]), np.vstack([va, vb]), w)
        h = 0.05
        kernel = w[:50] * np.exp(-0.5 * ((xa[:, 0] - 0.0) / h) ** 2)
        expected = float(kernel @ va[:, 0] / kernel.sum())
        assert abs(centroid_field_estimate(mu, [0.0], h)[0] - expected) <= 1e-6

    def test_measure_on_graph_of_singleton_map(self):
        X = np.arange(10, dtype=float).reshape(-1, 1) * 0.5
        H = singleton_map(1, lambda x: np.array([np.cos(x[0])]))
        V = np.cos(X)
        mu = OccupationMeasure.from_arrays(X, V, np.full(10, 0.1))
        gap = centroid_membership_gap(mu, H, X, 1e-3)
        assert gap <= 1e-6

    def test_undefined_far_from_samples(self):
        mu = OccupationMeasure.from_arrays([[0.0]], [[1.0]], [1.0])
        with pytest.raises(UndefinedEstimateError):
            centroid_field_estimate(mu, [1.0], 0.01)
        with pytest.raises(UndefinedEstimateError):
            centroid_membership_gap(mu, singleton_map(1, lambda x: x), [[5.0], [9.0]], 0.01)

    def test_membership_gap_on_deterministic_run(self):
        H = negate(clarke_map(abs_value()))
        traj = run_sgd(abs_value(), StepSchedule.constant(0.25), NoiseModel.none(),
                       3, 10.0, 0, [1.0], rule="min_norm")
        mu = accumulate(traj)
        gap = centroid_membership_gap(mu, H, [[1.0]], 1e-4)
        assert gap <= 1e-9

    def test_plugin_bandwidth_positive_and_scales(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0.0, 2.0, (500, 1))
        mu = OccupationMeasure.from_arrays(X, np.zeros_like(X), np.ones(500))
        h = plugin_bandwidth(mu)
        assert 0.0 < h < 2.0


class TestOscillationAndCirculation:
    def test_zero_weight_function(self):
        mu = OccupationMeasure.from_arrays([[0.0]], [[3.0]], [1.0])
        stat = oscillation_statistic(mu, lambda X: np.zeros(len(X)))
        assert stat.weighted_average[0] == 0.0
        assert stat.psi_weight == 0.0

    def test_constant_velocity(self):
        mu = OccupationMeasure.from_arrays([[0.0], [1.0]], [[2.0], [2.0]], [0.5, 1.5])
        stat = oscillation_statistic(mu, constant_one())
        assert stat.weighted_average[0] == 2.0
        assert stat.psi_weight == 2.0

    def test_alternating_velocities_cancel(self):
        mu = OccupationMeasure.from_arrays([[0.0], [0.0]], [[1.5], [-1.5]], [1.0, 1.0])
        assert oscillation_statistic(mu, constant_one()).weighted_average[0] == 0.0

    def test_linearity_in_psi(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(100, 2))
        V = rng.normal(size=(100, 2))
        mu = OccupationMeasure.from_arrays(X, V, rng.uniform(0.1, 1.0, 100))
        psi1 = bump_on_ball([0.0, 0.0], 2.0)
        psi2 = lambda P: 1.0 / (1.0 + np.exp(-np.atleast_2d(P)[:, 0]))
        combined = oscillation_statistic(mu, lambda P: psi1.value(P) + psi2(P))
        sep = (oscillation_statistic(mu, psi1).weighted_average
               + oscillation_statistic(mu, psi2).weighted_average)
        np.testing.assert_allclose(combined.weighted_average, sep, atol=1e-12)

    def test_zero_field(self):
        mu = OccupationMeasure.from_arrays([[1.0]], [[5.0]], [1.0])
        assert circulation(mu, lambda X: np.zeros_like(X)) == 0.0

    def test_gradient_field_coincides_with_closed_residual(self):
        traj = small_sgd_run(500)
        mu = accumulate(traj)
        g = quadratic_g()
        assert circulation(mu, g.gradient) == closed_residual(mu, g)


class TestVelocityMoment:
    def test_zero_velocities(self):
        mu = OccupationMeasure.from_arrays([[0.0]], [[0.0]], [1.0])
        assert velocity_moment(mu, 2.0) == 0.0

    def test_single_sample(self):
        mu = OccupationMeasure.from_arrays([[0.0, 0.0]], [[2.0, 0.0]], [1.0])
        assert velocity_moment(mu, 2.0) == 4.0

    def test_order_must_exceed_one(self):
        mu = OccupationMeasure.from_arrays([[0.0]], [[1.0]], [1.0])
        with pytest.raises(ValueError):
            velocity_moment(mu, 1.0)


class TestCheckpointIO:
    def test_round_trip_is_exact(self, tmp_path):
        traj = small_sgd_run(500)
        mu = accumulate(traj)
        csv_path, sidecar = save_checkpoint(mu, tmp_path / "checkpoint_500.csv",
                                            iteration=500, seed=9)
        assert sidecar.name == "checkpoint_500.json"
        loaded, meta = load_checkpoint(csv_path)
        assert meta == {"dimension": 1, "total_weight": mu.total_weight,
                        "iteration": 500, "seed": 9}
        np.testing.assert_array_equal(loaded.positions, mu.positions)
        np.testing.assert_array_equal(loaded.velocities, mu.velocities)
        np.testing.assert_array_equal(loaded.weights, mu.weights)
        bank = TestFunctionBank.from_positions(mu.positions)
        for g in bank.functions:
            assert abs(closed_residual(loaded, g) - closed_residual(mu, g)) <= 1e-12

    def test_csv_is_rfc4180_with_header(self, tmp_path):
        mu = OccupationMeasure.from_arrays([[1.0]], [[2.0]], [0.5])
        csv_path, _ = save_checkpoint(mu, tmp_path / "c.csv", iteration=1, seed=None)
        raw = csv_path.read_bytes()
        assert raw.startswith(b"j,x0,v0,weight\r\n")
        assert b"\r\n" in raw

    def test_any_iteration_round_trips(self, tmp_path):
        mu = OccupationMeasure.from_arrays([[1.0]], [[2.0]], [0.5])
        csv_path, _ = save_checkpoint(mu, tmp_path / "c.csv", iteration=0, seed=None)
        loaded, meta = load_checkpoint(csv_path)
        assert meta["iteration"] == 0
        np.testing.assert_array_equal(loaded.weights, mu.weights)

    def test_thinned_checkpoint_is_marked_standalone(self, tmp_path):
        mu = OccupationMeasure.from_arrays([[1.0]], [[2.0]], [0.5])
        csv_path, sidecar = save_checkpoint(mu, tmp_path / "checkpoint_9.csv", iteration=9,
                                            seed=None, prefix=False)
        assert '"standalone": true' in sidecar.read_text()
        loaded, meta = load_checkpoint(csv_path)
        assert "standalone" not in meta and loaded.total_weight == 0.5
        csv_path.unlink()
        with pytest.raises(FileNotFoundError, match="checkpoint_9.csv"):
            load_checkpoint(csv_path)  # not read from a trajectory.csv

    def test_csv_bytes_are_pinned(self, tmp_path):
        # 17 significant digits, signed zero, a subnormal and a large exponent.
        mu = OccupationMeasure.from_arrays([[0.1, -0.0], [1.2e17, 5e-324]],
                                           [[-1 / 3, 2.0], [0.0, 1e-5]], [0.25, 0.75])
        csv_path, _ = save_checkpoint(mu, tmp_path / "c.csv", iteration=2, seed=None)
        assert csv_path.read_bytes() == (
            b"j,x0,x1,v0,v1,weight\r\n"
            b"0,0.10000000000000001,-0,-0.33333333333333331,2,0.25\r\n"
            b"1,1.2e+17,4.9406564584124654e-324,0,1.0000000000000001e-05,0.75\r\n")


class TestBank:
    @pytest.mark.parametrize("n, degree", [(1, 0), (1, 3), (2, 3), (3, 2), (4, 4), (6, 3)])
    def test_monomials_keep_the_filtered_product_order(self, n, degree):
        old = [alpha for alpha in itertools.product(range(degree + 1), repeat=n)
               if 0 < sum(alpha) <= degree]
        assert [alpha for alpha in _exponents(n, degree) if any(alpha)] == old
        bank = TestFunctionBank.from_box(-np.ones(n), np.ones(n), degree=degree, n_bumps=0)
        X = np.random.default_rng(3).uniform(-1.0, 1.0, (5, n))
        for g, alpha in zip(bank.functions, old, strict=True):
            reference = reference_monomial(np.zeros(n), np.ones(n), alpha)
            assert g.name == reference.name
            assert g.interpolation_constant == reference.interpolation_constant
            np.testing.assert_array_equal(g.value(X), reference.value(X))
            np.testing.assert_array_equal(g.gradient(X), reference.gradient(X))

    def test_gradients_match_finite_differences(self):
        bank = TestFunctionBank.from_box([-1.0, 0.0], [2.0, 1.0])
        worst = bank.validate_gradients(np.random.default_rng(1))
        assert worst <= 1e-4

    def test_wrong_gradient_raises(self):
        bank = TestFunctionBank.from_box([-1.0], [1.0], degree=2, n_bumps=0)
        bad = dataclasses.replace(bank.functions[0], gradient=lambda X: 2.0 * np.ones_like(X))
        with pytest.raises(ValueError, match="finite differences"):
            dataclasses.replace(bank, functions=(bad,)).validate_gradients(
                np.random.default_rng(0), n_points=3)

    def test_bank_contains_monomials_and_bumps_and_weights(self):
        bank = TestFunctionBank.from_box([-1.0], [1.0], degree=3, n_bumps=2)
        names = [g.name for g in bank.functions]
        assert "u^1" in names and "u^3" in names
        assert sum(n.startswith("bump") for n in names) == 2
        wnames = [w.name for w in bank.weights]
        assert "one" in wnames and "ball_bump" in wnames

    def test_interpolation_constant_dominates_gradient_growth(self):
        # The constant must upper-bound both the gradient Lipschitz modulus
        # and twice the gradient sup-norm over the box (sampled check).
        bank = TestFunctionBank.from_box([-1.0, -1.0], [1.0, 1.0], degree=3)
        rng = np.random.default_rng(2)
        X = rng.uniform(-1.0, 1.0, (200, 2))
        Y = rng.uniform(-1.0, 1.0, (200, 2))
        for g in bank.functions:
            gx, gy = g.gradient(X), g.gradient(Y)
            norms = np.linalg.norm(gx, axis=1)
            assert 2.0 * norms.max() <= g.interpolation_constant + 1e-9
            diff = np.linalg.norm(gx - gy, axis=1)
            dist = np.linalg.norm(X - Y, axis=1)
            assert np.all(diff <= g.interpolation_constant * dist + 1e-9)


# Properties ---------------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Bounded so that a sum of a few of them stays finite.
WEIGHTS = st.floats(min_value=0.0, max_value=1e300)


@st.composite
def samples(draw, n=None, min_rows=1, max_rows=12, weights=WEIGHTS):
    m = draw(st.integers(min_rows, max_rows))
    n = draw(st.integers(1, 3)) if n is None else n
    return (draw(arrays(np.float64, (m, n), elements=FINITE)),
            draw(arrays(np.float64, (m, n), elements=FINITE)),
            draw(arrays(np.float64, m, elements=weights)))


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(samples())
    def test_checkpoint_round_trip_is_bit_exact(self, data):
        mu = OccupationMeasure.from_arrays(*data)
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, _ = save_checkpoint(mu, Path(tmp) / "c.csv", iteration=1, seed=0)
            loaded, meta = load_checkpoint(csv_path)
        assert meta["total_weight"] == mu.total_weight
        for name in ("positions", "velocities", "weights"):
            got, want = getattr(loaded, name), getattr(mu, name)
            assert got.flags.c_contiguous and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(samples(n), samples(n))))
    def test_merge_is_concatenation_and_keeps_mass(self, pair):
        a, b = pair
        first, second = OccupationMeasure.from_arrays(*a), OccupationMeasure.from_arrays(*b)
        merged = first.merge(second)
        for k, name in enumerate(("positions", "velocities", "weights")):
            np.testing.assert_array_equal(getattr(merged, name),
                                          np.concatenate([a[k], b[k]]))
        total = first.total_weight + second.total_weight
        assert abs(merged.total_weight - total) <= 1e-12 * total

    @settings(max_examples=150, deadline=None)
    @given(samples(min_rows=2, max_rows=60, weights=st.floats(1e-6, 1e6)),
           st.integers(1, 59))
    def test_thinning_caps_samples_and_keeps_weight(self, data, max_samples):
        x, v, w = data
        mu = OccupationMeasure.from_arrays(x, v, w, max_samples=max_samples)
        assert mu.n_samples == min(max_samples, w.shape[0])
        assert abs(mu.total_weight - w.sum()) <= 1e-12 * w.sum()
        if w.shape[0] > max_samples:
            assert np.all(mu.weights == mu.weights[0])

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.integers(1, 40), st.integers(1, 4)).flatmap(
        lambda shape: arrays(np.int64, shape, elements=st.integers(-3, 3)
                             | st.sampled_from([-2**63, 2**63 - 1]))))
    def test_unique_rows_match_numpy_unique(self, cells):
        # Few values per entry, so rows repeat; negatives and int64 extremes.
        rows, inverse = _unique_rows(cells)
        want_rows, want_inverse = np.unique(cells, axis=0, return_inverse=True)
        assert rows.dtype == want_rows.dtype and inverse.dtype == want_inverse.dtype
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(inverse, want_inverse.reshape(-1))

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(2, 30), st.integers(1, 3)),
                  elements=st.floats(-1e3, 1e3)),
           st.floats(1e-3, 1.0), st.data())
    def test_prefix_measure_is_a_view_of_the_run(self, states, step, data):
        traj = make_trajectory(states, np.full(states.shape[0] - 1, step))
        upto = data.draw(st.integers(1, traj.n_steps))
        mu = accumulate(traj, upto=upto)
        assert mu.n_samples == upto
        assert np.shares_memory(mu.positions, traj.states)
        assert np.shares_memory(mu.velocities, traj.velocities)
        assert np.shares_memory(mu.weights, traj.steps)


# Coordinates the power table must get right besides ordinary ones.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-310]


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()  # also tells -0.0 from 0.0


def _dimension_and_degree(most_monomials: int):
    """(n, degree) with degree 0-6 and at most ``most_monomials`` monomials."""
    return st.tuples(st.integers(1, 6), st.integers(0, 6)).filter(
        lambda nd: math.comb(nd[0] + nd[1], nd[0]) - 1 <= most_monomials)


@st.composite
def banks_and_measures(draw):
    # Up to 300 rows, so that sums run past numpy's 8-element pairwise block.
    n, degree = draw(_dimension_and_degree(210))
    upper = draw(arrays(np.float64, n, elements=st.floats(0.0, 1e3)))
    lower = (-upper if draw(st.booleans())  # centered at 0, where -0.0 gives u = -0.0
             else upper - draw(arrays(np.float64, n, elements=st.floats(0.0, 1e3))))
    bank = TestFunctionBank.from_box(lower, upper, degree=degree, n_bumps=draw(st.integers(0, 2)))
    m = draw(st.integers(1, 8) | st.integers(9, 300))
    # Each coordinate is a box edge, the center, an edge value or a free float.
    special = np.column_stack([bank.lower, bank.upper, bank.center]
                              + [np.full(n, e) for e in EDGE_VALUES])
    choice = draw(arrays(np.intp, (m, n), elements=st.integers(0, special.shape[1])))
    free = draw(arrays(np.float64, (m, n), elements=st.floats(-2e3, 2e3)))
    positions = np.where(choice < special.shape[1],
                         special[np.arange(n), np.minimum(choice, special.shape[1] - 1)], free)
    velocities = draw(arrays(np.float64, (m, n), elements=st.floats(-1e3, 1e3)))
    weights = draw(arrays(np.float64, m, elements=st.floats(0.0, 1e3))) + np.eye(1, m)[0]
    return bank, OccupationMeasure.from_arrays(positions, velocities, weights)


@st.composite
def boxes(draw):
    """(lower, upper, degree): some sides 0 or below 2e-9, where half is floored at 1e-9."""
    n, degree = draw(_dimension_and_degree(500))
    lower = draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    side = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1e-12, 1.5e-9])
                       | st.floats(0.0, 1e3)))
    return lower, lower + side, degree


class TestPowerTable:
    @settings(max_examples=300, deadline=None)
    @given(banks_and_measures())
    def test_table_gives_the_bits_of_the_per_monomial_formula(self, case):
        bank, mu = case
        residuals = bank.closed_residuals(mu)
        assert list(residuals) == [g.name for g in bank.functions]
        for g, alpha in zip(bank.functions, bank.exponents):
            reference = reference_monomial(bank.center, bank.half, alpha)
            for X in (mu.positions, mu.positions[0]):  # a sample table and one point
                assert _bits(g.value(X)) == _bits(reference.value(X))
                assert _bits(g.gradient(X)) == _bits(reference.gradient(X))
            assert (_bits(residuals[g.name]) == _bits(closed_residual(mu, reference))
                    == _bits(closed_residual(mu, g)))
        for g in bank.functions[len(bank.exponents):]:
            assert _bits(residuals[g.name]) == _bits(closed_residual(mu, g))

    @settings(max_examples=200, deadline=None)
    @given(boxes())
    def test_constants_give_the_bits_of_the_per_monomial_formula(self, box):
        lower, upper, degree = box
        bank = TestFunctionBank.from_box(lower, upper, degree=degree, n_bumps=0)
        assert np.all(bank.half >= 1e-9)
        for g, alpha in zip(bank.functions, bank.exponents, strict=True):
            reference = reference_monomial(bank.center, bank.half, alpha)
            assert _bits(g.interpolation_constant) == _bits(reference.interpolation_constant)

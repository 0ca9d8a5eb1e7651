import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svsa.geometry import Polytope, distance_to_hull, support_value
from svsa.maps import (SELECTION_RULES, MaxOfSmoothFunction, SetValuedMap, SmoothPiece,
                       _select_from, abs_value, check_linear_growth, clarke_map,
                       clarke_subdifferential, enlargement_sample, enlargement_slack,
                       half_square_norm, max_of_squares, negate, select_subgradient,
                       selection, singleton_map, uniform_ball)


def attract_origin(dim=1):
    return singleton_map(dim, lambda x: -x, growth_bound=1.0, name="attract_origin")


class TestClarkeSubdifferential:
    def test_abs_at_kink_has_both_slopes(self):
        gens = clarke_subdifferential(abs_value(), [0.0]).generators.ravel()
        assert sorted(gens) == [-1.0, 1.0]

    def test_abs_away_from_kink_is_singleton(self):
        gens = clarke_subdifferential(abs_value(), [2.0]).generators
        np.testing.assert_array_equal(gens, [[1.0]])

    def test_max_of_squares_tie(self):
        gens = clarke_subdifferential(max_of_squares(2), [1.0, 1.0]).generators
        assert gens.shape == (2, 2)
        rows = {tuple(r) for r in gens}
        assert rows == {(2.0, 0.0), (0.0, 2.0)}

    def test_gradients_validate_against_finite_differences(self):
        rng = np.random.default_rng(0)
        for f in (abs_value(), half_square_norm(3), max_of_squares(2)):
            worst = f.validate_gradients(rng, n_points=20, step=1e-6, tol=1e-4)
            assert worst <= 1e-4

    def test_wrong_gradient_raises(self):
        f = MaxOfSmoothFunction([SmoothPiece(lambda x: float(x @ x), lambda x: x.copy())], 2)
        with pytest.raises(ValueError, match="finite differences"):
            f.validate_gradients(np.random.default_rng(0), n_points=3)

    def test_support_matches_directional_derivative_when_smooth(self):
        # With one active piece, the support value in direction d equals the
        # directional derivative of f.
        rng = np.random.default_rng(1)
        f = max_of_squares(2)
        step = 1e-6
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, 2)
            if abs(x[0] ** 2 - x[1] ** 2) < 1e-2:
                continue  # stay clear of the kink
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            sub = clarke_subdifferential(f, x)
            fd = (f(x + step * d) - f(x - step * d)) / (2.0 * step)
            assert abs(support_value(sub, d) - fd) <= 1e-4


class TestSelection:
    def test_min_norm_at_kink_is_zero(self):
        H = clarke_map(abs_value())
        assert abs(selection(H, [0.0], "min_norm")[0]) <= 1e-9

    def test_singleton_under_any_rule(self):
        H = attract_origin(2)
        rng = np.random.default_rng(0)
        for rule in ("min_norm", "random_vertex", "random_hull"):
            np.testing.assert_array_equal(selection(H, [1.0, 2.0], rule, rng), [-1.0, -2.0])

    def test_min_norm_on_symmetric_segment(self):
        H = SetValuedMap(2, lambda x: Polytope([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(selection(H, [0.0, 0.0], "min_norm"), [0.5, 0.5], atol=1e-9)

    def test_selection_lands_in_hull(self):
        H = SetValuedMap(2, lambda x: Polytope([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        rng = np.random.default_rng(7)
        for rule in ("min_norm", "random_vertex", "random_hull"):
            for _ in range(50):
                y = selection(H, [0.0, 0.0], rule, rng)
                assert distance_to_hull(y, H.evaluate([0.0, 0.0])) <= 1e-9

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown selection rule"):
            selection(attract_origin(), [1.0], "nope", np.random.default_rng(0))

    def test_stochastic_rule_needs_rng(self):
        H = SetValuedMap(1, lambda x: Polytope([[-1.0], [1.0]]))
        with pytest.raises(ValueError, match="needs an rng"):
            selection(H, [0.0], "random_hull", None)


OBJECTIVES = {"abs": abs_value(), "quad2": half_square_norm(2),
              "maxsq2": max_of_squares(2), "maxsq3": max_of_squares(3)}


@st.composite
def objective_points(draw):
    # A point, then some coordinates overwritten by +-another coordinate so
    # that exact ties |x_j| = |x_k| (kinks of max_of_squares) come up often.
    name = draw(st.sampled_from(sorted(OBJECTIVES)))
    n = OBJECTIVES[name].dimension
    coordinate = st.floats(-3.0, 3.0, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0])
    x = draw(st.lists(coordinate, min_size=n, max_size=n))
    for j, k, flip in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                              st.booleans()), max_size=n)):
        x[j] = -x[k] if flip else x[k]
    return name, np.array(x)


class TestSelectSubgradient:
    @settings(max_examples=300, deadline=None)
    @given(objective_points(), st.sampled_from(SELECTION_RULES), st.sampled_from([1.0, -1.0]),
           st.integers(0, 2**32 - 1))
    def test_matches_selection_from_the_map_bit_for_bit(self, case, rule, sign, seed):
        name, x = case
        f = OBJECTIVES[name]
        H = clarke_map(f) if sign == 1.0 else negate(clarke_map(f))
        rng_fast, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        fast = select_subgradient(f, x, rule, rng_fast, sign)
        ref = _select_from(H.evaluate(x), rule, rng_ref)
        assert fast.dtype == ref.dtype and fast.shape == ref.shape
        assert fast.tobytes() == ref.tobytes()
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state

    def test_kink_goes_through_the_rule(self):
        rng = np.random.default_rng(0)
        assert select_subgradient(abs_value(), [0.0], "min_norm", None)[0] == 0.0
        with pytest.raises(ValueError, match="unknown selection rule"):
            select_subgradient(abs_value(), [0.0], "nope", rng)


class TestEnlargement:
    def test_zero_delta_collapses_to_map_value(self):
        y = enlargement_sample(attract_origin(), [3.0], 0.0, np.random.default_rng(0))
        assert y[0] == -3.0

    def test_sample_near_zero_map_stays_in_delta_ball(self):
        H = singleton_map(2, lambda x: np.zeros(2))
        rng = np.random.default_rng(1)
        for _ in range(200):
            y = enlargement_sample(H, [0.3, -0.2], 0.1, rng)
            assert np.linalg.norm(y) <= 0.1 + 1e-12

    def test_sample_from_abs_subdifferential_is_certified_member(self):
        # Every value of the subdifferential is inside [-1, 1] = value at the
        # kink, so the slack at z = x already certifies membership.
        H = clarke_map(abs_value())
        rng = np.random.default_rng(2)
        for _ in range(100):
            y = enlargement_sample(H, [0.0], 0.5, rng)
            assert enlargement_slack(H, [0.0], y, 0.5, rng=rng) <= 0.0

    def test_zero_delta_slack_reduces_to_distance(self):
        H = clarke_map(abs_value())
        assert 0.0 <= enlargement_slack(H, [0.0], [0.5], 0.0) <= 1e-12
        H1 = singleton_map(2, lambda x: np.array([1.0, 0.0]))
        assert abs(enlargement_slack(H1, [0.0, 0.0], [0.0, 0.0], 0.0) - 1.0) <= 1e-12

    def test_exact_member_has_zero_slack(self):
        H = attract_origin(2)
        assert enlargement_slack(H, [1.0, -1.0], [-1.0, 1.0], 0.0) <= 1e-12

    def test_monotonicity_across_levels(self):
        # A sample drawn at level delta stays certified at a comfortably
        # larger level; the sampled certificate needs the gap because a
        # positive slack is only an upper bound from the sampled z's.
        maps = [attract_origin(1),
                clarke_map(abs_value()),
                SetValuedMap(2, lambda x: Polytope([[1.0, 0.0], [0.0, 1.0]]))]
        rng = np.random.default_rng(3)
        for H in maps:
            x = np.zeros(H.dimension) + 0.1
            for _ in range(1000):
                delta = float(rng.uniform(0.0, 0.15))
                wider = 2.0 * delta + 0.05
                y = enlargement_sample(H, x, delta, rng)
                assert enlargement_slack(H, x, y, wider, z_samples=48, rng=rng) <= 0.0

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            enlargement_sample(attract_origin(), [0.0], -0.1, np.random.default_rng(0))


def test_uniform_ball_stays_in_ball():
    rng = np.random.default_rng(4)
    for dim in (1, 2, 5):
        draws = np.array([uniform_ball(rng, dim) for _ in range(500)])
        assert np.all(np.linalg.norm(draws, axis=1) <= 1.0 + 1e-12)
        assert np.abs(draws.mean(axis=0)).max() <= 0.2


def test_negate_flips_generators():
    H = clarke_map(abs_value())
    gens = negate(H).evaluate([2.0]).generators
    np.testing.assert_array_equal(gens, [[-1.0]])


def test_linear_growth_check():
    H = attract_origin(2)
    pts = np.random.default_rng(5).uniform(-5.0, 5.0, (50, 2))
    assert check_linear_growth(H, pts) <= 0.0
    H_fast = singleton_map(1, lambda x: 10.0 * x, growth_bound=1.0)
    assert check_linear_growth(H_fast, [[5.0]]) > 0.0


def test_max_of_smooth_requires_pieces_and_positive_tolerance():
    with pytest.raises(ValueError):
        MaxOfSmoothFunction((), 1)
    with pytest.raises(ValueError):
        abs_value(activity_tol=0.0)

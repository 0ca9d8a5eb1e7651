import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svsa.geometry import (Polytope, contains, distance_to_hull, min_norm_point,
                           project_to_hull, support_value, wolfe_certificate)

from helpers import grid_search_hull_point, random_polytope


class TestMinNormPoint:
    def test_symmetric_segment(self):
        p = min_norm_point(Polytope([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-9)

    def test_single_generator(self):
        np.testing.assert_array_equal(min_norm_point(Polytope([[2.0]])), [2.0])

    def test_interval_through_origin(self):
        assert abs(min_norm_point(Polytope([[-1.0], [1.0]]))[0]) <= 1e-9

    def test_offset_segment_matches_grid_search(self):
        poly = Polytope([[1.0, 1.0], [3.0, 1.0]])
        p = min_norm_point(poly)
        np.testing.assert_allclose(p, [1.0, 1.0], atol=1e-9)
        oracle, _ = grid_search_hull_point(poly.generators)
        assert np.linalg.norm(p - oracle) <= 1e-3

    def test_wolfe_certificate_on_random_polytopes(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            poly = Polytope(random_polytope(rng))
            p = min_norm_point(poly)
            assert wolfe_certificate(poly, p) >= -1e-9

    def test_tie_broken_by_lowest_index(self):
        # Two identical singleton-optimal generators: the first is returned.
        p = min_norm_point(Polytope([[1.0, 0.0], [1.0, 0.0], [5.0, 5.0]]))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-9)


class TestDistanceToHull:
    def test_point_on_segment(self):
        assert distance_to_hull([0.3, 0.7], Polytope([[1.0, 0.0], [0.0, 1.0]])) <= 1e-9

    def test_origin_to_diagonal_segment(self):
        d = distance_to_hull([0.0, 0.0], Polytope([[1.0, 0.0], [0.0, 1.0]]))
        assert abs(d - np.sqrt(0.5)) <= 1e-9
        _, oracle = grid_search_hull_point([[1.0, 0.0], [0.0, 1.0]])
        assert abs(d - oracle) <= 1e-3

    def test_one_dimensional_interval(self):
        assert abs(distance_to_hull([5.0], Polytope([[1.0], [2.0]])) - 3.0) <= 1e-9

    def test_convex_combinations_have_zero_distance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            G = random_polytope(rng)
            lam = rng.dirichlet(np.ones(G.shape[0]))
            assert distance_to_hull(lam @ G, Polytope(G)) <= 1e-9

    def test_agrees_with_grid_search(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            G = random_polytope(rng)
            y = rng.uniform(-3.0, 3.0, G.shape[1])
            d = distance_to_hull(y, Polytope(G))
            _, oracle = grid_search_hull_point(G, target=y)
            assert abs(d - oracle) <= 1e-3

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            distance_to_hull([1.0, 2.0], Polytope([[1.0], [2.0]]))
        for copy in (True, False):
            with pytest.raises(ValueError, match="mismatched dimensions"):
                Polytope([[1.0, 2.0], [1.0]], copy=copy)

    def test_projection_is_feasible_and_attains_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            G = random_polytope(rng)
            y = rng.uniform(-3.0, 3.0, G.shape[1])
            poly = Polytope(G)
            z = project_to_hull(y, poly)
            assert distance_to_hull(z, poly) <= 1e-8
            assert abs(np.linalg.norm(z - y) - distance_to_hull(y, poly)) <= 1e-8


class TestSupportValue:
    def test_axis_direction(self):
        assert support_value(Polytope([[1.0, 0.0], [0.0, 1.0]]), [1.0, 0.0]) == 1.0

    def test_interval(self):
        assert support_value(Polytope([[-1.0], [1.0]]), [1.0]) == 1.0

    def test_max_over_generators(self):
        assert support_value(Polytope([[1.0, 1.0], [3.0, 1.0]]), [1.0, 2.0]) == 5.0

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            support_value(Polytope([[1.0, 0.0]]), [0.0, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_positive_homogeneity_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        G = random_polytope(rng)
        d = rng.uniform(-1.0, 1.0, G.shape[1])
        if not np.any(d):
            d[0] = 1.0
        poly = Polytope(G)
        assert support_value(poly, 2.0 * d) == 2.0 * support_value(poly, d)


def test_contains_matches_distance():
    poly = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert contains([0.2, 0.2], poly)
    assert not contains([1.0, 1.0], poly)


class TestPolytopeConstruction:
    @pytest.mark.parametrize("generators", [np.array([[1, 2]]), [[1, 2], [3, 4]],
                                            [[1.0, 2.0]]])
    def test_no_copy_converts_int_and_list_input(self, generators):
        poly = Polytope(generators, copy=False)
        assert poly.generators.dtype == float
        np.testing.assert_array_equal(poly.generators, np.atleast_2d(generators))

    def test_no_copy_shares_float_input(self):
        G = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.shares_memory(Polytope(G, copy=False).generators, G)
        assert not np.shares_memory(Polytope(G).generators, G)

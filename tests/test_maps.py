import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svsa.engine import shb_flow_map
from svsa.games import game_from_json, game_map, generalized_rps, matching_pennies
from svsa.geometry import distance_to_hull, support_value
from svsa.maps import (SELECTION_RULES, MaxOfSmoothFunction, SetValuedMap, SmoothPiece,
                       _select_from, abs_value, active_gradients, check_linear_growth, clarke_map,
                       clarke_subdifferential, enlargement_sample, enlargement_slack,
                       half_square_norm, max_of_squares, near_max, negate, select_subgradients,
                       singleton_map, uniform_ball)

from helpers import THREE_PLAYER_TIES


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
        assert abs(H.select([0.0], "min_norm")[0]) <= 1e-9

    def test_singleton_under_any_rule(self):
        H = attract_origin(2)
        rng = np.random.default_rng(0)
        for rule in ("min_norm", "random_vertex", "random_hull"):
            np.testing.assert_array_equal(H.select([1.0, 2.0], rule, rng), [-1.0, -2.0])

    def test_min_norm_on_symmetric_segment(self):
        H = SetValuedMap(2, lambda x: np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(H.select([0.0, 0.0], "min_norm"), [0.5, 0.5], atol=1e-9)

    def test_selection_lands_in_hull(self):
        H = SetValuedMap(2, lambda x: np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        rng = np.random.default_rng(7)
        for rule in ("min_norm", "random_vertex", "random_hull"):
            for _ in range(50):
                y = H.select([0.0, 0.0], rule, rng)
                assert distance_to_hull(y, H.evaluate([0.0, 0.0])) <= 1e-9

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown selection rule"):
            attract_origin().select([1.0], "nope", np.random.default_rng(0))

    def test_stochastic_rule_needs_rng(self):
        H = SetValuedMap(1, lambda x: np.array([[-1.0], [1.0]]))
        with pytest.raises(ValueError, match="needs an rng"):
            H.select([0.0], "random_hull", None)


OBJECTIVES = {"abs": abs_value(), "quad2": half_square_norm(2),
              "maxsq2": max_of_squares(2), "maxsq3": max_of_squares(3)}


@st.composite
def tied_points(draw, n):
    # A point, then some coordinates overwritten by +-another coordinate so
    # that exact ties |x_j| = |x_k| (kinks of max_of_squares) come up often.
    coordinate = st.floats(-3.0, 3.0, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0])
    x = draw(st.lists(coordinate, min_size=n, max_size=n))
    for j, k, flip in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                              st.booleans()), max_size=n)):
        x[j] = -x[k] if flip else x[k]
    return np.array(x)


@st.composite
def objective_stacks(draw):
    name = draw(st.sampled_from(sorted(OBJECTIVES)))
    n = OBJECTIVES[name].dimension
    return name, np.array([draw(tied_points(n)) for _ in range(draw(st.integers(1, 4)))])


class TestSelectSubgradient:
    @settings(max_examples=300, deadline=None)
    @given(objective_stacks(), st.sampled_from(SELECTION_RULES), st.sampled_from([1.0, -1.0]),
           st.integers(0, 2**32 - 1))
    def test_matches_selection_from_the_map_bit_for_bit(self, case, rule, sign, seed):
        # Row by row, on a stack that mixes smooth points and kinks, each row
        # drawing from its own generator.
        name, X = case
        f = OBJECTIVES[name]
        H = clarke_map(f) if sign == 1.0 else negate(clarke_map(f))
        rngs = [np.random.default_rng([seed, r]) for r in range(len(X))]
        refs = [np.random.default_rng([seed, r]) for r in range(len(X))]
        G = select_subgradients(f, X, rule, rngs, sign)
        assert G.shape == X.shape and G.dtype == np.float64
        for x, g, rng, ref_rng in zip(X, G, rngs, refs):
            ref = _select_from(H.evaluate(x), rule, ref_rng)
            assert (sign * g).tobytes() == ref.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["abs", "quad", "maxsq"]), st.integers(1, 4), st.booleans(),
           st.data())
    def test_min_norm_rows_do_not_depend_on_their_stack(self, family, n, wide, data):
        # A checkpoint's circulation field is the run's field cut at its prefix:
        # each row's min-norm selection reads that row alone, so the selections
        # on any split of a stack into runs of rows are the same runs of the
        # selection on the whole, kinks included.  With ``wide`` the stack is
        # the left columns of a wider array, as a heavy-ball state's q part is.
        f = {"abs": lambda k: abs_value(), "quad": half_square_norm,
             "maxsq": max_of_squares}[family](n)
        n = f.dimension
        X = np.array(data.draw(st.lists(tied_points(n), min_size=1, max_size=40)))
        if wide:
            X = np.hstack([X, np.ones((len(X), 2))])[:, :n]
        whole = select_subgradients(f, X, "min_norm", None)
        cuts = sorted({0, len(X), *data.draw(st.lists(st.integers(0, len(X)), max_size=6))})
        for a, b in zip(cuts, cuts[1:]):
            assert select_subgradients(f, X[a:b], "min_norm", None).tobytes() == \
                whole[a:b].tobytes()

    def test_kink_goes_through_the_rule(self):
        rng = np.random.default_rng(0)
        assert select_subgradients(abs_value(), np.zeros((1, 1)), "min_norm", None)[0, 0] == 0.0
        with pytest.raises(ValueError, match="unknown selection rule"):
            select_subgradients(abs_value(), np.zeros((1, 1)), "nope", [rng])


@st.composite
def profiles(draw, game):
    # Small integer weights per player: ties between best responses, the
    # equilibria and the uniform profile among them, come up often.
    parts = []
    for k in game.action_counts:
        w = np.array(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)), dtype=float)
        parts.append(w / w.sum() if w.sum() > 0 else np.full(k, 1.0 / k))
    return np.concatenate(parts)


def _pair(points):
    return st.tuples(points, points).map(np.concatenate)


_A = np.array([[-0.5, 0.3], [-0.2, -0.7]])
_PENNIES, _RPS = matching_pennies(), generalized_rps(1.0, 2.0)
_TIES = game_from_json(THREE_PLAYER_TIES)
_PLAIN = SetValuedMap(2, lambda x: np.array([[1.0, 0.0], [0.0, 1.0], x]))

# name -> (map, points): every constructor, negated, with kinks and ties forced
SELECT_MAPS = {
    **{f"subdiff_{name}": (clarke_map(f), tied_points(f.dimension))
       for name, f in OBJECTIVES.items()},
    **{f"-subdiff_{name}": (negate(clarke_map(f)), tied_points(f.dimension))
       for name, f in OBJECTIVES.items()},
    "--subdiff_maxsq3": (negate(negate(clarke_map(OBJECTIVES["maxsq3"]))), tied_points(3)),
    "affine": (singleton_map(2, lambda x: _A @ x), tied_points(2)),
    "-affine": (negate(singleton_map(2, lambda x: _A @ x)), tied_points(2)),
    "heavy_ball_quad2": (shb_flow_map(OBJECTIVES["quad2"], 1.0), _pair(tied_points(2))),
    "-heavy_ball_quad2": (negate(shb_flow_map(OBJECTIVES["quad2"], 1.0)), _pair(tied_points(2))),
    "heavy_ball_maxsq2": (shb_flow_map(OBJECTIVES["maxsq2"], 0.5), _pair(tied_points(2))),
    "-heavy_ball_maxsq2": (negate(shb_flow_map(OBJECTIVES["maxsq2"], 0.5)),
                           _pair(tied_points(2))),
    "--heavy_ball_maxsq2": (negate(negate(shb_flow_map(OBJECTIVES["maxsq2"], 0.5))),
                            _pair(tied_points(2))),
    "pennies": (game_map(_PENNIES), profiles(_PENNIES)),
    "rps": (game_map(_RPS), profiles(_RPS)),
    "-rps": (negate(game_map(_RPS)), profiles(_RPS)),
    "three_player_ties": (game_map(_TIES), profiles(_TIES)),
    "plain": (_PLAIN, tied_points(2)),
    "-plain": (negate(_PLAIN), tied_points(2)),
}

# (map, point) pairs at a kink or tie of every constructor that has them
FORCED_KINKS = [("subdiff_abs", [0.0]), ("-subdiff_abs", [0.0]), ("-subdiff_abs", [-0.0]),
                ("-subdiff_maxsq3", [1.0, -1.0, 1.0]), ("subdiff_maxsq2", [0.0, 0.0]),
                ("heavy_ball_maxsq2", [1.0, -1.0, 0.5, 0.0]), ("pennies", [0.5] * 4),
                ("rps", [1.0 / 3.0] * 6), ("-rps", [1.0 / 3.0] * 6),
                ("three_player_ties", [0.5, 0.5, 1 / 3, 1 / 3, 1 / 3, 0.5, 0.5]),
                ("plain", [0.5, 0.5])]


def _outcome(call):
    """A selection's dtype, shape and bytes, or the message of its ValueError."""
    try:
        y = call()
    except ValueError as exc:
        return str(exc)
    return y.dtype.str, y.shape, y.tobytes()


def _assert_select_is_selecting_from_the_value(H, x, rule, seed):
    rng, ref_rng = (None, None) if seed is None else (np.random.default_rng(seed),
                                                      np.random.default_rng(seed))
    ref = _outcome(lambda: _select_from(H.evaluate(x), rule, ref_rng))
    assert _outcome(lambda: H.select(x, rule, rng)) == ref
    if seed is not None:
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    return ref


class TestSelectEntry:
    # H.select is _select_from(H.evaluate(x)) bit for bit and draw for draw,
    # errors included (an unknown rule; a random rule without an rng at a kink).
    RULES = SELECTION_RULES + ("nope",)

    @settings(max_examples=500, deadline=None)
    @given(st.data(), st.sampled_from(sorted(SELECT_MAPS)), st.sampled_from(RULES),
           st.none() | st.integers(0, 2**32 - 1))
    def test_matches_selecting_from_the_value(self, data, name, rule, seed):
        H, points = SELECT_MAPS[name]
        _assert_select_is_selecting_from_the_value(H, data.draw(points), rule, seed)

    @pytest.mark.parametrize("name, x", FORCED_KINKS)
    def test_matches_at_forced_kinks(self, name, x):
        H = SELECT_MAPS[name][0]
        assert H.evaluate(x).n_generators > 1
        for rule in self.RULES:
            for seed in (None, 3):
                ref = _assert_select_is_selecting_from_the_value(H, np.array(x), rule, seed)
                assert isinstance(ref, str) == (rule == "nope" or
                                                seed is None and rule != "min_norm")


class TestLonePieceAtNonFinitePoints:
    # One piece is active wherever f has one, so at a NaN or infinite point the
    # value is its gradient there (at NaN it used to be empty, and evaluate and
    # select both raised).  select still selects from the value, at NaN up to
    # the sign bit of a NaN, which -g flips and -1.0 * g need not.
    POINTS = [[np.nan, 1.0], [np.inf, -2.0], [-np.inf, np.inf]]

    @pytest.mark.parametrize("q", POINTS)
    def test_the_lone_gradient_is_active(self, q):
        f, q = half_square_norm(2), np.array(q)
        (g,) = active_gradients(f, q)
        assert g.tobytes() == q.tobytes()
        assert clarke_subdifferential(f, q).generators.tobytes() == q.tobytes()
        assert select_subgradients(f, q[None], "min_norm", None).tobytes() == q.tobytes()

    @pytest.mark.parametrize("q", POINTS)
    @pytest.mark.parametrize("name", ["subdiff", "-subdiff", "heavy_ball", "-heavy_ball"])
    def test_select_is_selecting_from_the_value(self, name, q):
        f, q, p = half_square_norm(2), np.array(q), np.array([0.5, -0.0])
        if name.endswith("subdiff"):
            H, x, want = clarke_map(f), q, q
        else:
            H, x, want = shb_flow_map(f, 0.5), np.concatenate([q, p]), np.concatenate([-0.5 * p,
                                                                                       q - p])
        if name.startswith("-"):
            H, want = negate(H), -want
        value = H.evaluate(x)
        assert value.n_generators == 1 and np.array_equal(value.generators[0], want,
                                                          equal_nan=True)
        for rule in SELECTION_RULES:
            y = H.select(x, rule, np.random.default_rng(0))
            assert y.dtype == np.float64 and np.array_equal(y, want, equal_nan=True)
            if not np.isnan(q).any():
                assert y.tobytes() == _select_from(value, rule, None).tobytes()


class TestNaNActivity:
    # A NaN value is never active, wherever its piece stands (Python's max
    # skips a NaN unless it comes first), and a point whose values are all NaN
    # has no active piece.

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from(["maxsq2", "maxsq3"]), st.sampled_from(SELECTION_RULES),
           st.integers(0, 2**32 - 1))
    def test_permuting_coordinates_permutes_the_result(self, data, name, rule, seed):
        f = OBJECTIVES[name]
        n = f.dimension
        x = data.draw(tied_points(n))
        x[sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))] = np.nan
        perm = data.draw(st.permutations(range(n)))
        y = x[perm]
        # piece k at y is piece perm[k] at x, and its gradient is permuted alike
        gx, gy = (clarke_subdifferential(f, z).generators for z in (x, y))
        assert sorted(map(tuple, gx[:, perm].tolist())) == sorted(map(tuple, gy.tolist()))
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        G = select_subgradients(f, np.stack([x, y]), rule, rngs)
        for g, z in zip(G, (x, y)):
            want = clarke_map(f).select(z, rule, np.random.default_rng(seed))
            assert g.tobytes() == want.tobytes()

    def test_all_nan_values_raise(self):
        for f, x in ((abs_value(), [np.nan]), (max_of_squares(2), [np.nan, np.nan])):
            with pytest.raises(ValueError, match="every value of the activity test is NaN"):
                active_gradients(f, x)
            with pytest.raises(ValueError, match="every value of the activity test is NaN"):
                select_subgradients(f, np.array([[1.0] * f.dimension, x]), "min_norm", None)

    def test_near_max(self):
        nan = float("nan")
        assert near_max([(nan, 1.0, 1.0 - 1e-9, 0.5), (2.0, nan), (-np.inf, -np.inf)],
                        1e-8) == [[1, 2], [0], [0, 1]]


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
                SetValuedMap(2, lambda x: np.array([[1.0, 0.0], [0.0, 1.0]]))]
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

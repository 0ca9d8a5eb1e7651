import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (THREE_PLAYER_TIES, reference_best_response_indices,
                     reference_displacements, reference_strategy_draw)
from svsa.games import (Game, PotentialGame, best_response, best_response_indices,
                        builtin_games, game_from_json, game_map, game_to_json,
                        generalized_rps, matching_pennies, potential_2x2,
                        strategy_draw)
from svsa.geometry import distance_to_hull


@st.composite
def tied_games(draw):
    """A 2- or 3-player game with small integer payoffs, a player and rational
    opponent profiles: exact ties are frequent."""
    counts = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    size = int(np.prod(counts))
    payoffs = tuple(np.array(draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size)),
                             dtype=float).reshape(counts) for _ in counts)
    i = draw(st.integers(0, len(counts) - 1))
    opponents = []
    for j, k in enumerate(counts):
        if j != i:
            w = np.array(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)), dtype=float)
            opponents.append(w / w.sum() if w.sum() > 0 else np.full(k, 1.0 / k))
    return Game(payoffs), i, opponents


class TestBestResponse:
    def test_matching_pennies_against_heads(self):
        gens = best_response(matching_pennies(), 0, [[1.0, 0.0]]).generators
        np.testing.assert_array_equal(gens, [[1.0, 0.0]])

    def test_matching_pennies_indifference_returns_whole_simplex_vertices(self):
        gens = best_response(matching_pennies(), 0, [[0.5, 0.5]]).generators
        assert gens.shape == (2, 2)

    def test_top_tie_among_three_actions(self):
        u1 = np.array([[2.0], [2.0], [1.0]])  # opponent has one action
        game = Game((u1, np.zeros((3, 1))))
        idx = best_response_indices(game, 0, [[1.0]])
        np.testing.assert_array_equal(idx, [0, 1])

    def test_vertices_attain_max_payoff(self):
        rng = np.random.default_rng(0)
        game = generalized_rps(1.0, 2.0)
        for _ in range(50):
            opp = rng.dirichlet(np.ones(3))
            u = game.pure_action_payoffs(0, [opp])
            for a in best_response_indices(game, 0, [opp]):
                assert u[a] >= u.max() - game.br_tol

    def test_payoff_scaling_leaves_argmax_unchanged(self):
        rng = np.random.default_rng(1)
        game = generalized_rps(1.0, 2.0)
        scaled = Game((7.5 * game.payoffs[0], game.payoffs[1]))
        for _ in range(50):
            opp = rng.dirichlet(np.ones(3))
            np.testing.assert_array_equal(best_response_indices(game, 0, [opp]),
                                          best_response_indices(scaled, 0, [opp]))


    @settings(max_examples=300, deadline=None)
    @given(tied_games(), st.integers(0, 2**32 - 1))
    def test_matches_the_numpy_formula_and_its_draws(self, case, seed):
        game, i, opponents = case
        idx = best_response_indices(game, i, opponents)
        want = reference_best_response_indices(game, i, opponents)
        assert idx.dtype == want.dtype and np.array_equal(idx, want)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):  # also from a state with a buffered uint32
            assert np.array_equal(strategy_draw(game, i, opponents, rng),
                                  reference_strategy_draw(game, i, opponents, ref))
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", range(5))
    def test_a_range_of_one_draws_nothing(self, seed):
        # A unique best response skips rng.integers(1); that keeps the random
        # stream only because numpy leaves the generator untouched for it.
        rng, buffered = np.random.default_rng(seed), set()
        for draw in (lambda: None, lambda: rng.integers(3), lambda: rng.integers(2**40),
                     lambda: rng.random()):
            draw()
            state = rng.bit_generator.state
            buffered.add(state["has_uint32"])
            assert rng.integers(1) == 0
            assert rng.bit_generator.state == state
        assert buffered == {0, 1}  # with and without a buffered uint32

    @pytest.mark.parametrize("action", [0, 1])
    def test_a_nan_payoff_is_an_error_wherever_it_sits(self, action):
        # Finite payoffs against weights off the simplex: the first product
        # overflows to [inf, -inf] and the second makes it NaN.  max() on
        # floats would skip a NaN that is not first, so it must raise.
        u = np.zeros((2, 2, 2))
        u[action] = [[1e308, 1e308], [-1e308, -1e308]]
        game = Game((u, u, u))
        opponents = [[0.5, 0.5], [1.0, 1.0]]
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(game.pure_action_payoffs(0, opponents)[action])
            with pytest.raises(ValueError, match="NaN payoff"):
                best_response_indices(game, 0, opponents)
            with pytest.raises(ValueError, match="NaN payoff"):
                strategy_draw(game, 0, opponents, np.random.default_rng(0))


class TestGameMap:
    def test_singleton_best_responses(self):
        game = matching_pennies()
        xi = np.array([1.0, 0.0, 1.0, 0.0])
        gens = game_map(game).evaluate(xi).generators
        # Against heads, player 1 plays heads, player 2 plays tails.
        np.testing.assert_array_equal(gens, [[0.0, 0.0, -1.0, 1.0]])

    def test_zero_at_nash_point(self):
        H = game_map(matching_pennies())
        xi_star = np.array([0.5, 0.5, 0.5, 0.5])
        assert distance_to_hull(np.zeros(4), H.evaluate(xi_star)) <= 1e-9

    def test_uniform_is_nash_for_symmetric_rps(self):
        H = game_map(generalized_rps(1.0, 1.0))
        xi_star = np.full(6, 1.0 / 3.0)
        assert distance_to_hull(np.zeros(6), H.evaluate(xi_star)) <= 1e-9

    def test_full_indifference_product_contains_zero(self):
        H = game_map(matching_pennies())
        poly = H.evaluate(np.array([0.5, 0.5, 0.5, 0.5]))
        assert poly.n_generators == 4  # both vertex sets are full
        assert distance_to_hull(np.zeros(4), poly) <= 1e-9


# name -> (game, profiles at which every player has tied best responses)
DISPLACEMENT_GAMES = {
    "pennies": (matching_pennies(), [[0.5] * 4]),
    "rps": (generalized_rps(1.0, 2.0), [[1 / 3] * 6]),
    "three_player_ties": (game_from_json(THREE_PLAYER_TIES),
                          [[0.5, 0.5, 1 / 3, 1 / 3, 1 / 3, 0.5, 0.5],
                           [0.5, 0.5, 0.0, 0.0, 1.0, 0.5, 0.5]]),
}


@st.composite
def displacement_cases(draw):
    """A game of DISPLACEMENT_GAMES and a profile: a forced tie, small integer
    weights (ties are frequent) or arbitrary weights, per player."""
    name = draw(st.sampled_from(sorted(DISPLACEMENT_GAMES)))
    game, ties = DISPLACEMENT_GAMES[name]
    if draw(st.booleans()):
        return game, np.array(draw(st.sampled_from(ties)))
    weights = st.integers(0, 3).map(float) | st.floats(0.0, 1.0)
    parts = []
    for k in game.action_counts:
        w = np.array(draw(st.lists(weights, min_size=k, max_size=k)))
        parts.append(w / w.sum() if w.sum() > 0 else np.full(k, 1.0 / k))
    return game, np.concatenate(parts)


class TestDisplacementGenerators:
    @settings(max_examples=300, deadline=None)
    @given(displacement_cases())
    def test_match_the_per_segment_builder_byte_for_byte(self, case):
        game, xi = case
        gens, want = game_map(game).evaluate(xi).generators, reference_displacements(game, xi)
        assert gens.dtype == want.dtype and gens.shape == want.shape
        assert gens.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(DISPLACEMENT_GAMES))
    def test_forced_ties_give_every_combination(self, name):
        game, ties = DISPLACEMENT_GAMES[name]
        for xi in map(np.array, ties):
            want = reference_displacements(game, xi)
            assert want.shape[0] > 1
            assert game_map(game).evaluate(xi).generators.tobytes() == want.tobytes()


class TestStrategyDraw:
    def test_singleton_is_deterministic(self):
        rng = np.random.default_rng(0)
        draws = {tuple(strategy_draw(matching_pennies(), 0, [[1.0, 0.0]], rng))
                 for _ in range(20)}
        assert draws == {(1.0, 0.0)}

    def test_uniform_tie_breaking_frequency(self):
        rng = np.random.default_rng(1)
        count = 0
        for _ in range(10_000):
            a = strategy_draw(matching_pennies(), 0, [[0.5, 0.5]], rng)
            count += int(a[0] == 1.0)
        assert abs(count / 10_000 - 0.5) <= 0.02

    def test_draw_lies_in_best_response_set(self):
        rng = np.random.default_rng(2)
        game = generalized_rps(1.0, 2.0)
        for _ in range(100):
            opp = rng.dirichlet(np.ones(3))
            a = strategy_draw(game, 0, [opp], rng)
            assert distance_to_hull(a, best_response(game, 0, [opp])) <= 1e-12


class TestPayoffViews:
    def test_three_player_payoffs_match_the_moved_tensor(self):
        rng = np.random.default_rng(5)
        game = Game(tuple(rng.normal(size=(2, 3, 4)) for _ in range(3)))
        for i in range(3):
            opponents = [rng.dirichlet(np.ones(k)) for j, k in enumerate((2, 3, 4)) if j != i]
            want = np.moveaxis(game.payoffs[i], i, 0)
            for strategy in reversed(opponents):
                want = want @ strategy
            assert game.pure_action_payoffs(i, opponents).tobytes() == want.tobytes()

    @pytest.mark.parametrize("build", [
        lambda: Game(tuple(np.random.default_rng(2).normal(size=(3, 3, 3, 3)))),
        lambda: generalized_rps(1.0, 2.0), potential_2x2], ids=["3_players", "rps", "potential"])
    def test_unpickled_game_keeps_the_payoff_bits(self, build):
        # A contiguous copy of the third player's moved payoff tensor changes
        # the matmul bits, so unpickling must rebuild the views.
        game = build()
        copy = pickle.loads(pickle.dumps(game))
        assert type(copy) is type(game) and copy.name == game.name
        rng = np.random.default_rng(3)
        for i in range(game.n_players):
            opponents = [rng.dirichlet(np.ones(k))
                         for j, k in enumerate(game.action_counts) if j != i]
            assert (copy.pure_action_payoffs(i, opponents).tobytes()
                    == game.pure_action_payoffs(i, opponents).tobytes())


class TestEquality:
    @pytest.mark.parametrize("build", [matching_pennies, generalized_rps, potential_2x2],
                             ids=["pennies", "rps", "potential"])
    def test_equal_builds_and_unpickled_copies_are_equal(self, build):
        game = build()
        assert game == build() and not game != build()
        assert game == pickle.loads(pickle.dumps(game))

    def test_any_differing_field_makes_games_unequal(self):
        rps = generalized_rps(1.0, 2.0)
        assert rps != generalized_rps(1.0, 3.0)
        assert rps != Game(rps.payoffs, name="other")
        assert rps != Game(rps.payoffs, name=rps.name, br_tol=1e-6)
        assert matching_pennies() != Game(matching_pennies().payoffs[:1] * 2,
                                          name="matching_pennies")
        potential = potential_2x2()
        assert potential != Game(potential.payoffs, name=potential.name)  # another type
        assert potential != dataclasses.replace(potential, potential=np.eye(2))
        assert rps != "generalized_rps" and rps != rps.payoffs


    @pytest.mark.parametrize("build", [matching_pennies, generalized_rps, potential_2x2],
                             ids=["pennies", "rps", "potential"])
    def test_equal_games_hash_equal(self, build):
        game = build()
        copy = pickle.loads(pickle.dumps(game))
        assert hash(game) == hash(build()) == hash(copy)
        assert {game: "value"}[copy] == "value"

    def test_signed_zeros_hash_equal(self):
        u = np.array([[0.0, 1.0], [1.0, 0.0]])
        zero, negative = Game((u, np.zeros((2, 2)))), Game((u, -np.zeros((2, 2))))
        assert zero == negative and hash(zero) == hash(negative)

    def test_the_potential_is_part_of_the_key(self):
        potential = potential_2x2()
        other = dataclasses.replace(potential, potential=np.eye(2))
        plain = Game(potential.payoffs, name=potential.name)
        assert len({potential: 0, other: 1, plain: 2}) == 3


class TestBuiltinGames:
    def test_matching_pennies_is_zero_sum_with_even_nash(self):
        game = matching_pennies()
        assert game.is_zero_sum()
        # At the even mix both players are exactly indifferent.
        np.testing.assert_allclose(game.pure_action_payoffs(0, [[0.5, 0.5]]), 0.0)
        np.testing.assert_allclose(game.pure_action_payoffs(1, [[0.5, 0.5]]), 0.0)

    def test_generalized_rps_structure(self):
        game = generalized_rps(1.0, 2.0)
        m = game.payoffs[0]
        assert np.all(np.diag(m) == 0.0)
        assert sorted(np.unique(m)) == [-2.0, 0.0, 1.0]
        assert not game.is_zero_sum()
        assert generalized_rps(1.0, 1.0).is_zero_sum()
        with pytest.raises(ValueError):
            generalized_rps(0.0, 1.0)

    def test_symmetric_rps_uniform_indifference(self):
        game = generalized_rps(1.0, 1.0)
        u = game.pure_action_payoffs(0, [np.full(3, 1.0 / 3.0)])
        np.testing.assert_allclose(u, 0.0, atol=1e-15)

    def test_potential_game_pure_equilibria(self):
        game = potential_2x2()
        # Both coordinated profiles best-respond to themselves.
        for a in (0, 1):
            vertex = np.zeros(2)
            vertex[a] = 1.0
            assert a in best_response_indices(game, 0, [vertex])
            assert a in best_response_indices(game, 1, [vertex])
        assert game.potential_value([[1.0, 0.0], [1.0, 0.0]]) == 2.0
        assert game.potential_value([[0.0, 1.0], [0.0, 1.0]]) == 1.0

    def test_registry_names(self):
        assert set(builtin_games()) == {"matching_pennies", "generalized_rps",
                                        "potential_2x2"}


class TestJsonInterchange:
    def test_round_trip(self):
        game = generalized_rps(1.0, 2.0)
        doc = game_to_json(game)
        again = game_from_json(json.dumps(doc))
        for u, v in zip(game.payoffs, again.payoffs):
            np.testing.assert_array_equal(u, v)
        assert again.action_counts == (3, 3)

    def test_malformed_documents_rejected(self):
        with pytest.raises(ValueError):
            game_from_json({"players": 2, "action_counts": [2, 2]})
        with pytest.raises(ValueError):
            game_from_json({"players": 2, "action_counts": [2, 2],
                            "payoff_tensors": [[[1.0]], [[1.0]]]})

    @pytest.mark.parametrize("players, counts", [(2.7, [2, 2]), (2, [2.9, 2]), (True, [2]),
                                                 (1, [True]), (0, []), (2, [2, 0])])
    def test_counts_must_be_positive_integers(self, players, counts):
        # int() would read 2.7 as 2 and true as 1; the rule of a config's game table.
        tensors = [np.zeros((2, 2)).tolist()] * 2
        with pytest.raises(ValueError, match="positive integers"):
            game_from_json({"players": players, "action_counts": counts,
                            "payoff_tensors": tensors})


def test_game_validation():
    with pytest.raises(ValueError):
        Game(())
    with pytest.raises(ValueError):
        Game((np.zeros((2, 2)), np.zeros((2, 3))))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="payoffs must be finite"):
            Game((np.array([[0.0, bad], [1.0, 0.0]]), np.zeros((2, 2))))
        with pytest.raises(ValueError, match="the potential must be finite"):
            PotentialGame((np.eye(2), np.eye(2)), potential=[[bad, 0.0], [0.0, 1.0]])
    for a, b in ((np.inf, 2.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="payoffs must be finite"):
            generalized_rps(a, b)

"""Finite-action games on products of simplices.

Payoffs are multilinear in the mixed profiles; for two players they are
matrices U[i, j] = payoff under the pure profile (i, j).  Best responses of
a player are the vertex sets attaining the maximal per-pure-action payoff
within a tie tolerance, which for multilinear payoffs is the exact argmax
face of the simplex.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .artifacts import _is_count
from .geometry import Polytope
from .maps import SetValuedMap, near_max

BR_TIE_TOL = 1e-9


def _equal(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_equal, a, b))
    return bool(np.array_equal(a, b))


def _hash_key(a):
    """What ``_equal`` compares, as a hashable value; -0.0 counts as 0.0."""
    if isinstance(a, tuple):
        return tuple(map(_hash_key, a))
    if isinstance(a, np.ndarray):
        return a.shape, (a + 0.0).tobytes()
    return a


@dataclass(frozen=True)
class Game:
    payoffs: tuple[np.ndarray, ...]
    name: str = ""
    br_tol: float = BR_TIE_TOL

    def __post_init__(self):
        payoffs = tuple(np.asarray(u, dtype=float) for u in self.payoffs)
        object.__setattr__(self, "payoffs", payoffs)
        m = len(payoffs)
        if m < 1:
            raise ValueError("a game needs at least one player")
        shape = payoffs[0].shape
        if len(shape) != m or any(u.shape != shape for u in payoffs):
            raise ValueError("each payoff tensor must have one axis per player, all equal shapes")
        if 0 in shape:
            raise ValueError("every player needs at least one action")
        if not all(np.isfinite(u).all() for u in payoffs):
            raise ValueError("payoffs must be finite")
        # Each player's tensor with its own axis first, built once.  It stays a
        # view: a contiguous copy could change the bits of the matmuls below.
        object.__setattr__(self, "_own_axis_first",
                           tuple(np.moveaxis(u, i, 0) for i, u in enumerate(payoffs)))

    def __reduce__(self):  # unpickling rebuilds the views; it never copies them
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other):
        """Same type and equal fields, payoff arrays compared element by element."""
        if type(other) is not type(self):
            return NotImplemented
        return all(_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def __hash__(self):
        return hash((type(self),) + tuple(_hash_key(getattr(self, f.name)) for f in fields(self)))

    @property
    def n_players(self) -> int:
        return len(self.payoffs)

    @property
    def action_counts(self) -> tuple[int, ...]:
        return self.payoffs[0].shape

    @property
    def profile_dimension(self) -> int:
        return int(sum(self.action_counts))

    def is_zero_sum(self) -> bool:
        total = sum(self.payoffs[1:], start=self.payoffs[0].copy())
        return bool(np.all(total == 0.0))

    def pure_action_payoffs(self, i: int, opponents: Sequence) -> np.ndarray:
        """Payoffs u_a of player i per pure action a against mixed opponents.

        ``opponents`` lists the other players' mixed strategies in player order.
        """
        tensor = self._own_axis_first[i]
        for strategy in reversed(opponents):
            tensor = tensor @ np.asarray(strategy, dtype=float)
        return tensor


def initial_profile(game: Game, xi0: Sequence | None = None) -> list[np.ndarray]:
    """The stage-0 profile of fictitious play: uniform play, or ``xi0``
    checked to hold one point of each player's action simplex."""
    if xi0 is None:
        return [np.full(k, 1.0 / k) for k in game.action_counts]
    parts = [np.asarray(s, dtype=float) for s in xi0]
    if len(parts) != game.n_players or not all(  # written so that NaN fails
            s.shape == (k,) and np.all(s >= -1e-12) and abs(s.sum() - 1.0) <= 1e-9
            for k, s in zip(game.action_counts, parts)):
        raise ValueError("initial profile must be a point on each action simplex")
    return parts


def best_response_indices(game: Game, i: int, opponents: Sequence) -> list[int]:
    """Player i's actions within ``br_tol`` of its best payoff, in increasing
    order: the max and the tie test of ``np.flatnonzero(u >= u.max() - br_tol)``
    on plain floats."""
    u = game.pure_action_payoffs(i, opponents).tolist()
    if math.isnan(sum(u)) and any(map(math.isnan, u)):  # near_max would pass over a NaN
        raise ValueError(f"player {i} has a NaN payoff")
    return near_max([u], game.br_tol)[0]


def draw_best_response(idx: Sequence[int], rng: np.random.Generator) -> int:
    """An entry of ``idx`` uniformly at random.  A unique best response draws
    nothing: ``rng.integers(1)`` would leave the generator unchanged anyway."""
    return idx[rng.integers(len(idx))] if len(idx) > 1 else idx[0]


def best_response(game: Game, i: int, opponents: Sequence) -> Polytope:
    """Vertex generators of the best-response face of player i's simplex."""
    k = game.action_counts[i]
    idx = best_response_indices(game, i, opponents)
    gens = np.zeros((len(idx), k))
    gens[np.arange(len(idx)), idx] = 1.0
    return Polytope(gens, copy=False)


def strategy_draw(game: Game, i: int, opponents: Sequence,
                  rng: np.random.Generator) -> np.ndarray:
    """A pure action supported on the best-response set, uniform over ties."""
    out = np.zeros(game.action_counts[i])
    out[draw_best_response(best_response_indices(game, i, opponents), rng)] = 1.0
    return out


def game_map(game: Game) -> SetValuedMap:
    """The averaged best-response displacement map on the concatenated profile:
    generators are (b^1 - xi^1, ..., b^m - xi^m) over all combinations of
    best-response vertices b^i."""
    offsets = [0, *itertools.accumulate(game.action_counts)]
    players = range(game.n_players)
    others = [[j for j in players if j != i] for i in players]

    def generators(xi):
        parts = [xi[offsets[i]:offsets[i + 1]] for i in players]
        vertex_lists = [best_response_indices(game, i, [parts[j] for j in others[i]])
                        for i in players]
        combos = list(itertools.product(*vertex_lists))
        gens = np.empty((len(combos), xi.shape[0]))
        gens[:] = -xi
        for row, combo in zip(gens, combos):  # (-xi_a) + 1.0 at each chosen action a
            for start, a in zip(offsets, combo):
                row[start + a] += 1.0
        return gens

    # Displacements live in a product of differences of simplices: bounded by
    # sqrt(2) per player, so a constant growth bound applies.
    bound = np.sqrt(2.0 * game.n_players)
    return SetValuedMap(game.profile_dimension, generators, growth_bound=float(bound),
                        name=f"best_response_displacement({game.name})")


# Built-in example games -----------------------------------------------------

def matching_pennies() -> Game:
    u1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return Game((u1, -u1), name="matching_pennies")


def generalized_rps(a: float = 1.0, b: float = 2.0) -> Game:
    """Cyclic three-action game: 0 on the diagonal, +a for a win, -b for a loss.

    With b > a the averaged best-response orbit spirals outward and play
    keeps cycling instead of converging.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("win and loss payoffs must be positive")
    m = np.array([[0.0, -b, a],
                  [a, 0.0, -b],
                  [-b, a, 0.0]])
    return Game((m, m.T), name=f"generalized_rps(a={a}, b={b})")


@dataclass(frozen=True, eq=False)  # Game's equality and hash cover the potential too
class PotentialGame(Game):
    potential: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "potential", np.asarray(self.potential, dtype=float))
        if not np.isfinite(self.potential).all():
            raise ValueError("the potential must be finite")

    def potential_value(self, profile: Sequence) -> float:
        value = self.potential
        for strategy in reversed([np.asarray(s, dtype=float) for s in profile]):
            value = value @ strategy
        return float(value)


def potential_2x2() -> PotentialGame:
    """A 2x2 coordination game; both coordinated profiles are pure equilibria
    and the common payoff matrix is an exact potential."""
    u = np.array([[2.0, 0.0], [0.0, 1.0]])
    return PotentialGame((u, u.copy()), name="potential_2x2", potential=u.copy())


def builtin_games() -> dict[str, Callable[..., Game]]:
    return {
        "matching_pennies": matching_pennies,
        "generalized_rps": generalized_rps,
        "potential_2x2": potential_2x2,
    }


# JSON interchange -------------------------------------------------------------

def game_from_json(doc: dict | str) -> Game:
    """Load a game from {"players": m, "action_counts": [...],
    "payoff_tensors": [nested arrays]} (a dict or a JSON string)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    try:
        players, counts = doc["players"], list(doc["action_counts"])
        tensors = [np.asarray(t, dtype=float) for t in doc["payoff_tensors"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed game document: {exc}") from exc
    if not (_is_count(players, 1) and all(_is_count(k, 1) for k in counts)):
        raise ValueError("players and action_counts must be positive integers, "
                         f"got {players!r} and {counts!r}")
    if len(counts) != players or len(tensors) != players:
        raise ValueError("player count does not match action_counts/payoff_tensors")
    expected = tuple(counts)
    for t in tensors:
        if t.shape != expected:
            raise ValueError(f"payoff tensor shape {t.shape} does not match {expected}")
    return Game(tuple(tensors), name=str(doc.get("name", "")))


def game_to_json(game: Game) -> dict:
    return {
        "name": game.name,
        "players": game.n_players,
        "action_counts": list(game.action_counts),
        "payoff_tensors": [u.tolist() for u in game.payoffs],
    }

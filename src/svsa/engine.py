"""Stochastic approximation engines.

The generic recursion draws one element of the (optionally enlarged)
set-valued map per step, adds martingale noise, and records the full run:
states, velocities v_{i+1} = (x_{i+1} - x_i)/eps_i, step sizes, enlargement
radii, noise draws and the algorithmic clock t_i = sum_{j<i} eps_j.
A hard guard radius makes the boundedness event observable: runs that
leave the ball are truncated and marked escaped instead of projected.
Every engine (the generic recursion, heavy ball, fictitious play) is a step
function x_i -> x_{i+1} fed to the one loop that does this recording.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import games as games_mod
from .geometry import Polytope
from .maps import (SELECTION_RULES, MaxOfSmoothFunction, SetValuedMap, clarke_subdifferential,
                   enlargement_sample, select_subgradient)
from .maps import _select_from  # noqa: F401  (bench/tracing.py wraps it at this name)

DEFAULT_SELECTION_RULE = "random_hull"


# Step-size schedules -------------------------------------------------------

@dataclass(frozen=True)
class StepSchedule:
    """Deterministic positive step sizes eps_i.

    Kinds: power (a/(i+1)^rho), logarithmic (a/ln(i+2)), constant (a).
    Power with rho in (0, 1] and logarithmic vanish with divergent partial
    sums; the constant kind is intended for negative controls only and is
    reported as non-conforming by ``violations``.
    """
    kind: str
    a: float
    rho: float = 1.0

    def __post_init__(self):
        if self.kind not in ("power", "logarithmic", "constant"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.a <= 0.0:
            raise ValueError("schedule scale must be positive")
        if self.kind == "power" and self.rho <= 0.0:
            raise ValueError("power exponent must be positive")

    @classmethod
    def power(cls, a: float, rho: float) -> "StepSchedule":
        return cls("power", a, rho)

    @classmethod
    def logarithmic(cls, a: float) -> "StepSchedule":
        return cls("logarithmic", a)

    @classmethod
    def constant(cls, a: float) -> "StepSchedule":
        return cls("constant", a)

    def step(self, i: int) -> float:
        if self.kind == "power":
            return self.a / (i + 1) ** self.rho
        if self.kind == "logarithmic":
            return self.a / math.log(i + 2)
        return self.a

    def values(self, n: int) -> np.ndarray:
        i = np.arange(n, dtype=float)
        if self.kind == "power":
            return self.a / (i + 1.0) ** self.rho
        if self.kind == "logarithmic":
            return self.a / np.log(i + 2.0)
        return np.full(n, self.a)

    def violations(self) -> list[str]:
        """Non-empty iff the schedule breaks the vanishing/divergence requirements."""
        out = []
        if self.kind == "constant":
            out.append("schedule: constant step sizes do not vanish (negative-control only)")
        elif self.kind == "power" and self.rho > 1.0:
            out.append(f"schedule: sum of step sizes is finite for rho={self.rho} > 1; "
                       "divergence is required")
        return out


# Noise models ---------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean i.i.d. perturbations with a declared finite moment order q > 1.

    Kinds: gaussian(sigma), uniform_ball(radius), student_t(df, scale), none.
    """
    kind: str
    sigma: float = 0.0
    radius: float = 0.0
    df: float = 0.0
    scale: float = 0.0
    moment_order: float = 2.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform_ball", "student_t", "none"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not all(v >= 0.0 for v in (self.sigma, self.radius, self.scale, self.df)) or (
                self.kind == "student_t" and self.df == 0.0):
            raise ValueError("noise scales must be non-negative and a student-t df positive")

    @classmethod
    def gaussian(cls, sigma: float, moment_order: float = 2.0) -> "NoiseModel":
        return cls("gaussian", sigma=sigma, moment_order=moment_order)

    @classmethod
    def uniform_ball_noise(cls, radius: float, moment_order: float = 2.0) -> "NoiseModel":
        return cls("uniform_ball", radius=radius, moment_order=moment_order)

    @classmethod
    def student_t(cls, df: float, scale: float, moment_order: float = 2.0) -> "NoiseModel":
        return cls("student_t", df=df, scale=scale, moment_order=moment_order)

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls("none")

    def sample(self, n: int, dimension: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "none":
            return np.zeros((n, dimension))
        if self.kind == "gaussian":
            return rng.normal(0.0, self.sigma, (n, dimension))
        if self.kind == "student_t":
            return self.scale * rng.standard_t(self.df, (n, dimension))
        directions = rng.normal(size=(n, dimension))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        radii = rng.uniform(size=(n, 1)) ** (1.0 / dimension)
        return self.radius * radii * directions / norms

    def mean_square_norm(self, dimension: int) -> float | None:
        """Analytic E||eta||^2 where known, else None."""
        if self.kind == "none":
            return 0.0
        if self.kind == "gaussian":
            return dimension * self.sigma ** 2
        if self.kind == "uniform_ball":
            return self.radius ** 2 * dimension / (dimension + 2.0)
        if self.df > 2.0:
            return dimension * self.scale ** 2 * self.df / (self.df - 2.0)
        return None

    def violations(self) -> list[str]:
        out = []
        if self.moment_order <= 1.0:
            out.append("noise: declared moment order must exceed 1")
        if self.kind == "student_t" and self.df <= self.moment_order:
            out.append(f"noise: student-t with df={self.df} has no finite moment of "
                       f"order {self.moment_order}")
        return out


# Trajectories ---------------------------------------------------------------

@dataclass
class Trajectory:
    """Full record of a run.

    ``states`` holds x_0..x_m, one more row than ``velocities``/``steps``/
    ``deltas``/``noises``; ``clock[i]`` is the elapsed algorithmic time before
    step i (clock[0] = 0).  ``status`` is "completed" or "escaped"; on escape,
    ``escape_index`` is the state index whose norm first exceeded the guard.
    """
    states: np.ndarray
    velocities: np.ndarray
    steps: np.ndarray
    deltas: np.ndarray
    noises: np.ndarray
    clock: np.ndarray
    status: str = "completed"
    escape_index: int | None = None
    escape_norm: float | None = None
    seed: int | None = None

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    @property
    def n_steps(self) -> int:
        return self.velocities.shape[0]

    @property
    def elapsed(self) -> float:
        return float(self.clock[-1])


def _as_rng(seed) -> tuple[np.random.Generator, int | None]:
    if isinstance(seed, np.random.Generator):
        return seed, None
    return np.random.default_rng(seed), int(seed)


def sa_step(x, i: int, H: SetValuedMap, schedule: StepSchedule, noise: NoiseModel,
            delta_i: float, rng: np.random.Generator,
            rule: str = DEFAULT_SELECTION_RULE, eta=None):
    """One recursion step: x_next = x + eps_i * (y + eta) with y drawn from
    the delta_i-enlargement of H at x.

    Returns (x_next, v, eta) with v recomputed as (x_next - x)/eps_i so the
    definitional velocity identity holds bit-exactly.  ``eta`` may be forced
    for deterministic tests.
    """
    x = np.asarray(x, dtype=float)
    eps_i = schedule.step(i)
    if eps_i <= 0.0:
        raise ValueError("step size must be positive")
    y = enlargement_sample(H, x, delta_i, rng, rule)
    if eta is None:
        eta = noise.sample(1, H.dimension, rng)[0]
    else:
        eta = np.asarray(eta, dtype=float)
    x_next = x + eps_i * (y + eta)
    v = (x_next - x) / eps_i
    return x_next, v, eta


def _start(x0, n_steps: int, guard_radius: float, rule: str = DEFAULT_SELECTION_RULE) -> np.ndarray:
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if rule not in SELECTION_RULES:
        raise ValueError(f"unknown selection rule {rule!r}; expected one of {SELECTION_RULES}")
    x0 = np.asarray(x0, dtype=float).copy()
    if guard_radius <= np.linalg.norm(x0):
        raise ValueError("guard radius must exceed the norm of the initial state")
    return x0


def _iterate(x0: np.ndarray, advance, eps: np.ndarray, deltas: np.ndarray,
             noises: np.ndarray, guard_radius: float, seed_val) -> Trajectory:
    """The one recursion loop: x_{i+1} = advance(i, x_i) for ``len(eps)``
    steps or until a state leaves the guard ball.

    Records v_{i+1} = (x_{i+1} - x_i)/eps_i in one pass after it, and the clock;
    ``deltas`` and ``noises`` are the per-step records of the run, truncated with it.
    """
    if not np.all(eps > 0.0):
        raise ValueError("step sizes must be positive")
    n_steps = eps.shape[0]
    states = np.empty((n_steps + 1, x0.shape[0]))
    states[0] = x0
    bound = guard_radius * guard_radius
    status, escape_index, escape_norm = "completed", None, None
    m = n_steps
    x = x0
    for i in range(n_steps):
        x_next = advance(i, x)
        states[i + 1] = x_next
        sq = float(x_next @ x_next)
        if not math.isfinite(sq) or sq > bound:
            status, escape_index, m = "escaped", i + 1, i + 1
            escape_norm = math.sqrt(sq) if math.isfinite(sq) else math.inf
            break
        x = x_next
    if m < n_steps:  # release the unused tail of an escaped run
        states, eps = states[:m + 1].copy(), eps[:m].copy()
        deltas, noises = deltas[:m].copy(), noises[:m].copy()
    velocities = np.diff(states, axis=0) / eps[:, None]
    clock = np.concatenate([[0.0], np.cumsum(eps)])
    return Trajectory(states=states, velocities=velocities, steps=eps, deltas=deltas,
                      noises=noises, clock=clock, status=status,
                      escape_index=escape_index, escape_norm=escape_norm, seed=seed_val)


def run_sa(x0, H: SetValuedMap, schedule: StepSchedule, noise: NoiseModel,
           delta_schedule: StepSchedule | None, n_steps: int, guard_radius: float,
           seed, rule: str = DEFAULT_SELECTION_RULE) -> Trajectory:
    """Iterate the recursion for ``n_steps`` steps or until escape.

    ``delta_schedule=None`` means delta_i = 0 throughout.  Equal seeds give
    bit-identical trajectories.
    """
    x0 = _start(x0, n_steps, guard_radius, rule)
    rng, seed_val = _as_rng(seed)
    eps = schedule.values(n_steps)
    deltas = delta_schedule.values(n_steps) if delta_schedule is not None else np.zeros(n_steps)
    noises = noise.sample(n_steps, x0.shape[0], rng)

    def advance(i, x):
        y = enlargement_sample(H, x, deltas[i], rng, rule)
        return x + eps[i] * (y + noises[i])

    return _iterate(x0, advance, eps, deltas, noises, guard_radius, seed_val)


def run_sgd(f: MaxOfSmoothFunction, schedule: StepSchedule, noise: NoiseModel,
            n_steps: int, guard_radius: float, seed, x0,
            rule: str = DEFAULT_SELECTION_RULE) -> Trajectory:
    """Stochastic subgradient descent: the recursion driven by -subdiff(f),
    with zero enlargement; bit for bit ``run_sa`` on ``negate(clarke_map(f))``."""
    x0 = _start(x0, n_steps, guard_radius, rule)
    rng, seed_val = _as_rng(seed)
    eps = schedule.values(n_steps)
    noises = noise.sample(n_steps, x0.shape[0], rng)

    def advance(i, x):
        return x + eps[i] * (select_subgradient(f, x, rule, rng, -1.0) + noises[i])

    return _iterate(x0, advance, eps, np.zeros(n_steps), noises, guard_radius, seed_val)


# Stochastic heavy ball ------------------------------------------------------

def run_shb(f: MaxOfSmoothFunction, alpha_schedule: StepSchedule,
            beta_schedule: StepSchedule, noise: NoiseModel, n_steps: int,
            guard_radius: float, seed, q0, p0=None,
            rule: str = DEFAULT_SELECTION_RULE) -> Trajectory:
    """Heavy-ball recursion on the (position, momentum) pair:

        p_{i+1} = (1 - beta_i) p_i - beta_i g_i + beta_i eta_{i+1},
        q_{i+1} = q_i + alpha_i p_{i+1},

    with g_i one element of subdiff(f)(q_i).  The recorded state is
    x_i = (q_i, p_i), the recorded step size is beta_i, and the recorded
    noise is (0, eta_{i+1}).
    """
    q0 = np.asarray(q0, dtype=float)
    m_dim = q0.shape[0]
    p0 = np.zeros(m_dim) if p0 is None else np.asarray(p0, dtype=float)
    x0 = _start(np.concatenate([q0, p0]), n_steps, guard_radius, rule)
    rng, seed_val = _as_rng(seed)
    alphas = alpha_schedule.values(n_steps)
    betas = beta_schedule.values(n_steps)
    if np.any(betas > 1.0):
        raise ValueError("beta steps must not exceed 1")
    etas = noise.sample(n_steps, m_dim, rng)
    noises = np.zeros((n_steps, 2 * m_dim))
    noises[:, m_dim:] = etas

    def advance(i, x):
        q, p = x[:m_dim], x[m_dim:]
        g = select_subgradient(f, q, rule, rng)
        b = betas[i]
        p = (1.0 - b) * p - b * g + b * etas[i]
        return np.concatenate([q + alphas[i] * p, p])

    return _iterate(x0, advance, betas, np.zeros(n_steps), noises, guard_radius, seed_val)


def shb_single_variable_coefficients(alphas, betas) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the equivalent position-only recursion

        q_{i+1} = q_i + b_i (-g_i + eta_{i+1}) + a_i (q_i - q_{i-1}),

    where a_i = alpha_i (1 - beta_i) / alpha_{i-1} and b_i = alpha_i beta_i.
    Index 0 is NaN (the change of variables needs q_{i-1})."""
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    a = np.full(alphas.shape, np.nan)
    a[1:] = alphas[1:] * (1.0 - betas[1:]) / alphas[:-1]
    b = alphas * betas
    return a, b


def shb_flow_map(f: MaxOfSmoothFunction, c: float) -> SetValuedMap:
    """The continuous-time companion of the heavy-ball recursion:
    H(q, p) = {-c p} x (subdiff(f)(q) - p)."""
    m_dim = f.dimension

    def ev(x):
        q, p = x[:m_dim], x[m_dim:]
        G = clarke_subdifferential(f, q).generators
        gens = np.empty((G.shape[0], 2 * m_dim))
        gens[:, :m_dim] = -c * p
        gens[:, m_dim:] = G - p
        return Polytope(gens, copy=False)

    return SetValuedMap(2 * m_dim, ev, name=f"heavy_ball_flow({f.name}, c={c})")


# Fictitious play ------------------------------------------------------------

def run_fictitious_play(game: "games_mod.Game", n_steps: int, seed,
                        xi0: Sequence | None = None) -> Trajectory:
    """Simultaneous fictitious play on the running average of past play.

    Each stage, every player draws a vertex of its best-response set against
    the opponents' averages (uniform tie-breaking) and the average updates as
    xi_{n+1} = xi_n + (x_{n+1} - xi_n)/(n+2), the initial profile counting as
    the stage-0 play.  The recorded state is the concatenated average, the
    step size is 1/(n+2) and the noise is zero.
    """
    rng, seed_val = _as_rng(seed)
    dim = game.profile_dimension
    xi0 = _start(np.concatenate(games_mod.initial_profile(game, xi0)), n_steps, math.inf)

    ends = np.cumsum(game.action_counts).tolist()
    spans = list(zip([0] + ends, ends))
    # (player, its first coordinate, its opponents' spans), built once per run
    players = [(i, a, spans[:i] + spans[i + 1:]) for i, (a, _) in enumerate(spans)]
    eps = 1.0 / (np.arange(n_steps, dtype=float) + 2.0)
    eps_list = eps.tolist()

    def advance(n, xi):
        play = np.zeros(dim)
        for i, start, others in players:
            idx = games_mod.best_response_indices(game, i, [xi[a:b] for a, b in others])
            play[start + games_mod.draw_best_response(idx, rng)] = 1.0
        return xi + eps_list[n] * (play - xi)

    return _iterate(xi0, advance, eps, np.zeros(n_steps), np.zeros((n_steps, dim)),
                    math.inf, seed_val)

"""Stochastic approximation engines.

The generic recursion draws one element of the (optionally enlarged)
set-valued map per step, adds martingale noise, and records the full run:
states, velocities v_{i+1} = (x_{i+1} - x_i)/eps_i, step sizes, enlargement
radii, noise draws and the algorithmic clock t_i = sum_{j<i} eps_j.
A hard guard radius makes the boundedness event observable: runs that
leave the ball are truncated and marked escaped instead of projected.
Every engine (the generic recursion, heavy ball, fictitious play) is a step
function fed to the one loop that does this recording.  The loop steps the
seeds of a batch in lockstep, a stack of S states at a time; a single-seed
run is the batch of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import games as games_mod
from .maps import (MaxOfSmoothFunction, SetValuedMap, active_gradients, check_rule,
                   enlargement_sample, select_subgradients)
# bench/tracing.py wraps these two at these names
from .maps import _select_from, clarke_subdifferential  # noqa: F401

DEFAULT_SELECTION_RULE = "random_hull"
LOCKSTEP_BATCH_BYTES = 256 * 2**20  # bound on one lockstep batch's stacked states and noises


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
        """eps_i in Python arithmetic (``**``, ``math.log``): it may differ from
        ``values(n)[i]`` (numpy) in the last bit, as on 10 of the first 200
        steps of power(0.5, 0.6) and 8 of 200k logarithmic steps."""
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
        object.__setattr__(self, "sigma", self.sigma + 0.0)  # numpy's normal rejects -0.0

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
        with np.errstate(over="ignore"):
            draws = self.radius * radii * directions / norms
        over = ~np.isfinite(draws).all(axis=1)  # radius * radii * directions overflowed
        draws[over] = self.radius * radii[over] * (directions[over] / norms[over])
        return draws

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


def sa_step(x, i: int, H: SetValuedMap, schedule: StepSchedule, noise: NoiseModel,
            delta_i: float, rng: np.random.Generator,
            rule: str = DEFAULT_SELECTION_RULE, eta=None):
    """One recursion step: x_next = x + eps_i * (y + eta) with y drawn from
    the delta_i-enlargement of H at x.

    Returns (x_next, v, eta) with v recomputed as (x_next - x)/eps_i so the
    definitional velocity identity holds bit-exactly.  ``eta`` may be forced
    for deterministic tests.  A chain of ``sa_step`` calls sharing one rng is
    not ``run_sa`` with that seed: the noise is drawn after the selection,
    while ``run_sa`` draws a run's noises before its first step, and eps_i is
    ``schedule.step(i)``, which may differ from the ``schedule.values`` that
    ``run_sa`` records in the last bit.
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


def _iterate(x0, advance, eps: np.ndarray, seeds: Iterable, guard_radius: float,
             noise: NoiseModel, noise_columns: int | None = None,
             deltas: np.ndarray | None = None,
             rule: str = DEFAULT_SELECTION_RULE) -> Iterator[Trajectory]:
    """The one recursion loop: the run of each of ``seeds`` from x0 for
    ``len(eps)`` steps (an int seeds its own generator; a Generator is used as
    given and recorded as seed None).  ``X = advance(i, X, rngs, eta)`` maps
    the (S', n) stack of the seeds still inside the guard ball to their next
    states; ``rngs`` are their generators and ``eta`` their (S', noise_columns)
    noise at step i, which each seed draws first from its generator into the
    last ``noise_columns`` columns (default: all) of a zero record.  A seed
    stops at its first state outside the ball, as its own run would.

    The seeds are stepped in lockstep, in batches of consecutive seeds whose
    states and noises (16 bytes per step and coordinate of a seed) fit in
    LOCKSTEP_BATCH_BYTES; a batch starts once the previous one is consumed.
    Returns the runs one by one, in seed order.
    """
    n_steps = len(eps)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    check_rule(rule)
    x0 = np.asarray(x0, dtype=float).copy()
    if guard_radius <= math.hypot(*x0.tolist()):
        raise ValueError("guard radius must exceed the norm of the initial state")
    if not np.all(eps > 0.0):
        raise ValueError("step sizes must be positive")
    seeds, columns = list(seeds), noise_columns or x0.shape[0]
    deltas = np.zeros(n_steps) if deltas is None else deltas
    size = max(1, LOCKSTEP_BATCH_BYTES // (16 * (n_steps + 1) * x0.shape[0]))
    return itertools.chain.from_iterable(
        _lockstep(x0, advance, eps, guard_radius, noise, columns, deltas, seeds[k:k + size])
        for k in range(0, len(seeds), size))


def _lockstep(x0: np.ndarray, advance, eps: np.ndarray, guard_radius: float,
              noise: NoiseModel, noise_columns: int, deltas: np.ndarray,
              seeds: list) -> Iterator[Trajectory]:
    """One lockstep batch of ``_iterate``.  The runs' states, noises, steps,
    deltas and clock are views of the stacked records; v_{i+1} =
    (x_{i+1} - x_i)/eps_i is recorded when a run is reached, so a caller that
    lets each run go holds the velocities of one run at a time."""
    rngs = [s if isinstance(s, np.random.Generator) else np.random.default_rng(s) for s in seeds]
    S, n_steps, n = len(seeds), len(eps), x0.shape[0]
    noises = np.zeros((S, n_steps, n))
    etas = noises[:, :, n - noise_columns:]
    if noise.kind != "none":  # that kind draws nothing
        for r, rng in enumerate(rngs):
            etas[r] = noise.sample(n_steps, noise_columns, rng)
    states = np.empty((S, n_steps + 1, n))
    states[:, 0] = x0
    bound = guard_radius * guard_radius
    # hypot(*x) <= radius puts x inside the ball with a finite x @ x; any other
    # stack is decided row by row
    radius = min(0.5 * guard_radius, 1e150)
    ends, norms = [n_steps] * S, [None] * S
    live, rows = list(range(S)), slice(None)  # rows: the live seeds' index into the records
    X = np.repeat(x0[None], S, axis=0)
    by_step = states.transpose(1, 0, 2)  # by_step[i] is the (S, n) stack of step i
    for i in range(n_steps):
        X = advance(i, X, rngs, etas[rows, i])
        by_step[i + 1, rows] = X
        if math.hypot(*X.ravel().tolist()) <= radius:  # the stack's norm bounds each row's
            continue
        with np.errstate(over="ignore"):
            squares = [float(x @ x) for x in X]
        keep = []
        for j, (r, sq) in enumerate(zip(live, squares)):
            if math.isfinite(sq):
                inside, norm = sq <= bound, math.sqrt(sq)
            else:  # x @ x overflows from about 1.3e154; hypot does not
                norm = math.hypot(*X[j].tolist())
                inside = norm <= guard_radius  # False for a NaN norm, recorded as inf
            if inside:
                keep.append(j)
            else:
                ends[r], norms[r] = i + 1, norm if norm == norm else math.inf
        if not keep:
            break
        if len(keep) < len(live):
            live, rngs = [live[j] for j in keep], [rngs[j] for j in keep]
            rows, X = np.array(live), X[keep]
    clock = np.concatenate([[0.0], np.cumsum(eps)])

    def run(r: int) -> Trajectory:
        m, norm, seed = ends[r], norms[r], seeds[r]
        return Trajectory(states=states[r, :m + 1],
                          velocities=np.diff(states[r, :m + 1], axis=0) / eps[:m, None],
                          steps=eps[:m], deltas=deltas[:m], noises=noises[r, :m],
                          clock=clock[:m + 1], status="completed" if norm is None else "escaped",
                          escape_index=None if norm is None else m, escape_norm=norm,
                          seed=None if isinstance(seed, np.random.Generator) else int(seed))

    return map(run, range(S))


def run_sa_seeds(x0, H: SetValuedMap, schedule: StepSchedule, noise: NoiseModel,
                 delta_schedule: StepSchedule | None, n_steps: int, guard_radius: float,
                 seeds: Iterable,
                 rule: str = DEFAULT_SELECTION_RULE) -> Iterator[Trajectory]:
    """``run_sa`` for each of ``seeds``, stepped in lockstep (the runs come one
    by one, as ``_iterate`` returns them); each row selects from H on its own."""
    eps = schedule.values(n_steps)
    deltas = delta_schedule.values(n_steps) if delta_schedule is not None else np.zeros(n_steps)

    def advance(i, X, rngs, eta):
        Y = np.empty(X.shape)
        for j, rng in enumerate(rngs):
            Y[j] = enlargement_sample(H, X[j], deltas.item(i), rng, rule)
        return X + eps.item(i) * (Y + eta)

    return _iterate(x0, advance, eps, seeds, guard_radius, noise, deltas=deltas, rule=rule)


def run_sa(x0, H: SetValuedMap, schedule: StepSchedule, noise: NoiseModel,
           delta_schedule: StepSchedule | None, n_steps: int, guard_radius: float,
           seed, rule: str = DEFAULT_SELECTION_RULE) -> Trajectory:
    """Iterate the recursion for ``n_steps`` steps or until escape.

    ``delta_schedule=None`` means delta_i = 0 throughout.  Equal seeds give
    bit-identical trajectories.
    """
    return next(run_sa_seeds(x0, H, schedule, noise, delta_schedule, n_steps, guard_radius,
                             [seed], rule))


def run_sgd_seeds(f: MaxOfSmoothFunction, schedule: StepSchedule, noise: NoiseModel,
                  n_steps: int, guard_radius: float, seeds: Iterable, x0,
                  rule: str = DEFAULT_SELECTION_RULE) -> Iterator[Trajectory]:
    """``run_sgd`` for each of ``seeds``, stepped in lockstep (the runs come one
    by one): the pieces of f are evaluated once per step on the stack of states."""
    eps = schedule.values(n_steps)

    def advance(i, X, rngs, eta):
        return X + eps.item(i) * (eta - select_subgradients(f, X, rule, rngs, -1.0))

    return _iterate(x0, advance, eps, seeds, guard_radius, noise, rule=rule)


def run_sgd(f: MaxOfSmoothFunction, schedule: StepSchedule, noise: NoiseModel,
            n_steps: int, guard_radius: float, seed, x0,
            rule: str = DEFAULT_SELECTION_RULE) -> Trajectory:
    """Stochastic subgradient descent: the recursion driven by -subdiff(f),
    with zero enlargement; bit for bit ``run_sa`` on ``negate(clarke_map(f))``."""
    return next(run_sgd_seeds(f, schedule, noise, n_steps, guard_radius, [seed], x0, rule))


# Stochastic heavy ball ------------------------------------------------------

def run_shb_seeds(f: MaxOfSmoothFunction, alpha_schedule: StepSchedule,
                  beta_schedule: StepSchedule, noise: NoiseModel, n_steps: int,
                  guard_radius: float, seeds: Iterable, q0, p0=None,
                  rule: str = DEFAULT_SELECTION_RULE) -> Iterator[Trajectory]:
    """``run_shb`` for each of ``seeds``, stepped in lockstep (the runs come one
    by one)."""
    q0 = np.asarray(q0, dtype=float)
    m_dim = q0.shape[0]
    p0 = np.zeros(m_dim) if p0 is None else np.asarray(p0, dtype=float)
    alphas = alpha_schedule.values(n_steps)
    betas = beta_schedule.values(n_steps)
    if np.any(betas > 1.0):
        raise ValueError("beta steps must not exceed 1")

    def advance(i, X, rngs, eta):
        g = select_subgradients(f, X[:, :m_dim], rule, rngs)
        b = betas.item(i)
        p = (1.0 - b) * X[:, m_dim:] - b * g + b * eta
        return np.concatenate([X[:, :m_dim] + alphas.item(i) * p, p], axis=1)

    return _iterate(np.concatenate([q0, p0]), advance, betas, seeds, guard_radius, noise,
                    m_dim, rule=rule)


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
    return next(run_shb_seeds(f, alpha_schedule, beta_schedule, noise, n_steps, guard_radius,
                              [seed], q0, p0, rule))


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

    def generators(x):  # a list of rows: off the kinks select takes its one row as is
        p, grads = x[m_dim:], active_gradients(f, x[:m_dim])
        return [np.concatenate((-c * p, g - p)) for g in grads]

    return SetValuedMap(2 * m_dim, generators, name=f"heavy_ball_flow({f.name}, c={c})")


# Fictitious play ------------------------------------------------------------

def run_fictitious_play_seeds(game: "games_mod.Game", n_steps: int, seeds: Iterable,
                              xi0: Sequence | None = None) -> Iterator[Trajectory]:
    """``run_fictitious_play`` for each of ``seeds``, stepped in lockstep (the
    runs come one by one); each row draws its best responses on its own."""
    xi0 = np.concatenate(games_mod.initial_profile(game, xi0))
    ends = np.cumsum(game.action_counts).tolist()
    spans = list(zip([0] + ends, ends))
    # (player, its first coordinate, its opponents' slices), built once per run
    players = [(i, a, [slice(*span) for span in spans[:i] + spans[i + 1:]])
               for i, (a, _) in enumerate(spans)]
    eps = 1.0 / (np.arange(n_steps, dtype=float) + 2.0)

    # looked up once per run, through the module, so a wrapper installed there sees every call
    best_responses, draw = games_mod.best_response_indices, games_mod.draw_best_response

    def advance(n, X, rngs, eta):
        play = np.zeros(X.shape)
        for j, rng in enumerate(rngs):
            part = X[j].__getitem__
            for i, start, others in players:
                play[j, start + draw(best_responses(game, i, list(map(part, others))), rng)] = 1.0
        return X + eps.item(n) * (play - X)

    return _iterate(xi0, advance, eps, seeds, math.inf, NoiseModel.none())


def run_fictitious_play(game: "games_mod.Game", n_steps: int, seed,
                        xi0: Sequence | None = None) -> Trajectory:
    """Simultaneous fictitious play on the running average of past play.

    Each stage, every player draws a vertex of its best-response set against
    the opponents' averages (uniform tie-breaking) and the average updates as
    xi_{n+1} = xi_n + (x_{n+1} - xi_n)/(n+2), the initial profile counting as
    the stage-0 play.  The recorded state is the concatenated average, the
    step size is 1/(n+2) and the noise is zero.
    """
    return next(run_fictitious_play_seeds(game, n_steps, [seed], xi0))

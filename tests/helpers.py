"""Shared test utilities: independent oracles and small builders.

The convex-hull oracles here deliberately avoid the package's active-set
path: they search over convex weights directly, refining a simplex grid down
to a 1e-4 weight resolution.
"""

from __future__ import annotations

import hashlib

import numpy as np

from svsa.engine import Trajectory
from svsa.maps import _select_from
from svsa.occupation import SmoothTestFunction


# A 2x3x2 integer-payoff game in which every player ties now and then, up to
# three ways: the uniform draw over ties.
THREE_PLAYER_TIES = {
    "name": "three_player_ties", "players": 3, "action_counts": [2, 3, 2],
    "payoff_tensors": [[[[1, 0], [0, -1], [1, 0]], [[0, -1], [1, 0], [0, -1]]],
                       [[[0, 1], [1, 0], [0, 1]], [[0, 1], [1, 0], [0, 1]]],
                       [[[1, 0], [1, 0], [0, -1]], [[0, 1], [0, 1], [-1, 0]]]]}


def digest(a) -> str:
    """Short SHA-256 of an array's dtype, shape and bytes."""
    a = np.ascontiguousarray(a)
    head = f"{a.dtype.str}{a.shape}".encode()
    return hashlib.sha256(head + a.tobytes()).hexdigest()[:16]


def compositions(total: int, parts: int):
    """All tuples of ``parts`` non-negative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def grid_search_hull_point(generators, target=None, resolution: float = 1e-4,
                           coarse: int = 12, beam: int = 12):
    """Closest point of conv(generators) to ``target`` by refining grid search
    over convex weights.

    Starts from a dense simplex lattice of pitch 1/coarse and repeatedly
    halves the pitch, moving mass pairwise between coordinates, until the
    pitch drops below ``resolution``.  Returns (point, distance).
    """
    G = np.asarray(generators, dtype=float)
    k, n = G.shape
    y = np.zeros(n) if target is None else np.asarray(target, dtype=float)
    if k == 1:
        return G[0].copy(), float(np.linalg.norm(G[0] - y))

    if k == 2:
        lam = np.linspace(0.0, 1.0, int(round(1.0 / resolution)) + 1)
        pts = np.outer(lam, G[0]) + np.outer(1.0 - lam, G[1])
        d = np.linalg.norm(pts - y, axis=1)
        j = int(np.argmin(d))
        return pts[j], float(d[j])

    def evaluate(batch):
        pts = batch @ G
        return np.linalg.norm(pts - y, axis=1)

    lattice = np.array([c for c in compositions(coarse, k)], dtype=float) / coarse
    dists = evaluate(lattice)
    order = np.argsort(dists)[:beam]
    candidates = lattice[order]

    h = 1.0 / coarse
    while h > resolution:
        h *= 0.5
        pool = [candidates]
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                moved = candidates.copy()
                moved[:, i] += h
                moved[:, j] -= h
                pool.append(moved[moved[:, j] >= -1e-15])
        batch = np.concatenate(pool)
        batch = np.unique(np.round(batch / (h * 0.5)).astype(np.int64), axis=0) * (h * 0.5)
        batch = batch[np.all(batch >= -1e-15, axis=1)]
        d = evaluate(batch)
        order = np.argsort(d)[:beam]
        candidates = batch[order]

    d = evaluate(candidates)
    j = int(np.argmin(d))
    return candidates[j] @ G, float(d[j])


def reference_euler(H, x0, dt: float, T: float, rule: str, rng=None) -> np.ndarray:
    """The points of the Euler curve by the plain loop: every step selects
    from the polytope ``H.evaluate(x)``, and none is skipped."""
    x = np.asarray(x0, dtype=float).copy()
    points = [x]
    for _ in range(int(round(T / dt))):
        x = x + dt * _select_from(H.evaluate(x), rule, rng)
        assert np.all(np.isfinite(x))
        points.append(x)
    return np.array(points)


def random_polytope(rng: np.random.Generator, max_generators: int = 4,
                    max_dim: int = 3, scale: float = 2.0):
    k = int(rng.integers(1, max_generators + 1))
    n = int(rng.integers(1, max_dim + 1))
    return rng.uniform(-scale, scale, (k, n))


def make_trajectory(states, steps, noises=None, seed=None) -> Trajectory:
    """Trajectory from raw states and step sizes, velocities recomputed."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.ndim == 2 and states.shape[1] != 1 and states.shape[0] == 1:
        states = states.T
    steps = np.asarray(steps, dtype=float)
    m = steps.shape[0]
    assert states.shape[0] == m + 1
    velocities = (states[1:] - states[:-1]) / steps[:, None]
    clock = np.concatenate([[0.0], np.cumsum(steps)])
    if noises is None:
        noises = np.zeros_like(velocities)
    return Trajectory(states=states, velocities=velocities, steps=steps,
                      deltas=np.zeros(m), noises=np.asarray(noises, dtype=float),
                      clock=clock, status="completed", seed=seed)


def reference_monomial(center, half, alpha) -> SmoothTestFunction:
    """The monomial prod_k u_k ** alpha_k of u = (x - center)/half by the plain
    per-function formula: ``alpha[k]/half[k] * np.prod(U ** e, axis=-1)`` for
    each gradient column.  The bank's power table must give the same bits."""
    alpha = np.asarray(alpha, dtype=float)
    if len(alpha) == 1:
        name = f"u^{int(alpha[0])}"
    else:
        name = "*".join(f"u{k}^{int(a)}" for k, a in enumerate(alpha) if a > 0)

    def value(X):
        U = (np.asarray(X, dtype=float) - center) / half
        return np.prod(U ** alpha, axis=-1)

    def gradient(X):
        U = (np.asarray(X, dtype=float) - center) / half
        out = np.zeros_like(U)
        for k in range(len(alpha)):
            if alpha[k] == 0:
                continue
            e = alpha.copy()
            e[k] -= 1.0
            out[..., k] = alpha[k] / half[k] * np.prod(U ** e, axis=-1)
        return out

    bound = np.outer(alpha, alpha)
    np.fill_diagonal(bound, alpha * np.maximum(alpha - 1.0, 0.0))
    lip = float(np.sqrt(np.sum((bound / np.outer(half, half)) ** 2)))
    grad_sup = float(np.sqrt(np.sum((alpha / half) ** 2)))
    return SmoothTestFunction(name, value, gradient, max(lip, 2.0 * grad_sup))


def reference_best_response_indices(game, i, opponents) -> np.ndarray:
    """Player i's best responses by the plain numpy formula, the payoff vector
    from the moved payoff tensor and the opponents in reversed order."""
    u = np.moveaxis(game.payoffs[i], i, 0)
    for strategy in reversed([np.asarray(s, dtype=float) for s in opponents]):
        u = u @ strategy
    return np.flatnonzero(u >= u.max() - game.br_tol)


def reference_strategy_draw(game, i, opponents, rng: np.random.Generator) -> np.ndarray:
    """The draw over the reference best responses, always calling
    ``rng.integers`` (a unique best response draws from a range of one)."""
    idx = reference_best_response_indices(game, i, opponents)
    out = np.zeros(game.action_counts[i])
    out[idx[int(rng.integers(idx.size))]] = 1.0
    return out

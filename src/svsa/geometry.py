"""Convex primitives over finitely generated polytopes.

Everything here works on the V-representation: a polytope is the convex
hull of a finite generator list.  Distances and norms are Euclidean.
"""

from __future__ import annotations

import numpy as np

# Stopping tolerance for the min-norm optimality certificate.
WOLFE_TOL = 1e-9

_MAX_CYCLES = 10_000


class Polytope:
    """Convex hull of a non-empty finite set of generators in R^n."""

    __slots__ = ("generators",)

    def __init__(self, generators, copy: bool = True):
        try:
            g = (np.array if copy else np.asarray)(generators, dtype=float)
        except ValueError as exc:
            if "inhomogeneous" not in str(exc):
                raise
            raise ValueError(f"generators have mismatched dimensions: {exc}") from exc
        if g.ndim == 1:
            g = g.reshape(1, -1)
        if g.ndim != 2 or g.shape[0] == 0 or g.shape[1] == 0:
            raise ValueError(f"expected a non-empty (k, n) generator array, got shape {g.shape}")
        self.generators = g

    @property
    def dimension(self) -> int:
        return self.generators.shape[1]

    @property
    def n_generators(self) -> int:
        return self.generators.shape[0]

    def __repr__(self) -> str:
        return f"Polytope({self.n_generators} generators in R^{self.dimension})"


def _check_point(y, dimension: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim == 0:
        y = y.reshape(1)
    if y.shape != (dimension,):
        raise ValueError(f"point of dimension {y.shape} does not match polytope in R^{dimension}")
    return y


def _affine_weights(S: np.ndarray) -> np.ndarray:
    # Affine minimizer of ||S^T w|| subject to sum(w) = 1, via the KKT system.
    k = S.shape[0]
    A = np.empty((k + 1, k + 1))
    A[:k, :k] = S @ S.T
    A[:k, k] = 1.0
    A[k, :k] = 1.0
    A[k, k] = 0.0
    b = np.zeros(k + 1)
    b[k] = 1.0
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return sol[:k]


def min_norm_point(poly: Polytope, tol: float = WOLFE_TOL) -> np.ndarray:
    """Point of minimum Euclidean norm in the hull, by Wolfe's method.

    Maintains a corral of generators and alternates between adding the
    generator most aligned against the current point and pruning corral
    members whose affine weight turns non-positive.  Stops once the
    optimality certificate min_g <p, g - p> >= -tol holds; generator ties
    are broken by lowest index (numpy argmin order).
    """
    G = poly.generators
    k = G.shape[0]
    if k == 1:
        return G[0].copy()

    norms_sq = np.einsum("ij,ij->i", G, G)
    corral = [int(np.argmin(norms_sq))]
    weights = np.array([1.0])
    x = G[corral[0]].copy()

    for _ in range(_MAX_CYCLES):
        scores = G @ x
        xx = float(x @ x)
        j = int(np.argmin(scores))
        if scores[j] >= xx - tol:
            break
        if j in corral:
            # Numerical stall: the best candidate is already in the corral.
            break
        corral.append(j)
        weights = np.append(weights, 0.0)

        while True:
            S = G[corral]
            alpha = _affine_weights(S)
            if np.all(alpha > 1e-14):
                weights = alpha
                x = S.T @ alpha
                break
            # Minor cycle: step toward the affine minimizer until a weight
            # hits zero, drop those generators, and try again.
            mask = alpha <= 1e-14
            denom = weights[mask] - alpha[mask]
            denom = np.where(denom <= 0.0, np.inf, denom)
            theta = min(1.0, float(np.min(weights[mask] / denom)))
            weights = (1.0 - theta) * weights + theta * alpha
            keep = weights > 1e-14
            if not np.any(keep):
                keep[int(np.argmax(weights))] = True
            corral = [c for c, kept in zip(corral, keep) if kept]
            weights = weights[keep]
            weights = weights / weights.sum()
            if len(corral) == 1:
                x = G[corral[0]].copy()
                break
    return x


def distance_to_hull(y, poly: Polytope) -> float:
    """Euclidean distance from y to the hull (0 iff y is a hull point)."""
    y = _check_point(y, poly.dimension)
    shifted = Polytope(poly.generators - y, copy=False)
    return float(np.linalg.norm(min_norm_point(shifted)))


def project_to_hull(y, poly: Polytope) -> np.ndarray:
    """Closest hull point to y."""
    y = _check_point(y, poly.dimension)
    shifted = Polytope(poly.generators - y, copy=False)
    return y + min_norm_point(shifted)


def contains(y, poly: Polytope, tol: float = WOLFE_TOL) -> bool:
    return distance_to_hull(y, poly) <= tol


def support_value(poly: Polytope, direction) -> float:
    """Support function of the hull: max over generators of <g, direction>."""
    d = _check_point(direction, poly.dimension)
    if not np.any(d):
        raise ValueError("support direction must be non-zero")
    return float(np.max(poly.generators @ d))


def wolfe_certificate(poly: Polytope, p) -> float:
    """min over generators g of <p, g - p>; >= -tol certifies optimality."""
    p = _check_point(p, poly.dimension)
    return float(np.min(poly.generators @ p) - p @ p)

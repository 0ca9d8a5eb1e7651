"""Set-valued maps, subdifferentials of max-of-smooth functions, and
graph-enlargement sampling.

A map H: R^n => R^n is represented by a pure function, ``generators``, returning
the finite generator list of H(x); all values are convex hulls of those
generators.  Randomized operations take an explicit numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .geometry import Polytope, distance_to_hull, min_norm_point

SELECTION_RULES = ("min_norm", "random_vertex", "random_hull")

DEFAULT_ACTIVITY_TOL = 1e-8


def check_rule(rule: str) -> None:
    if rule not in SELECTION_RULES:
        raise ValueError(f"unknown selection rule {rule!r}; expected one of {SELECTION_RULES}")


class SetValuedMap:
    """A map x -> Polytope with non-empty compact convex (hull) values, given by
    ``generators(x)``: the rows of H(x), as a 2-D float array or a list of 1-D
    float arrays.  ``sign`` is 1, or -1 on a map made by ``negate``, whose
    values are the negated rows."""

    __slots__ = ("dimension", "generators", "growth_bound", "name", "sign")

    def __init__(self, dimension: int, generators: Callable[[np.ndarray], Sequence[np.ndarray]],
                 growth_bound: float | None = None, name: str = ""):
        self.dimension = int(dimension)
        self.generators = generators
        self.growth_bound = growth_bound
        self.name = name
        self.sign = 1.0

    def evaluate(self, x) -> Polytope:
        return self._hull(self.generators(np.asarray(x, dtype=float)))

    def select(self, x, rule: str, rng: np.random.Generator | None = None) -> np.ndarray:
        """One element of H(x): the min-norm point, a random generator, or a
        random hull point (flat Dirichlet weights).  It is
        ``_select_from(self.evaluate(x), rule, rng)`` bit for bit and draw for
        draw, with no polytope for one row (``1.0 * g`` is a copy of g)."""
        check_rule(rule)
        return self.select_row(self.generators(np.asarray(x, dtype=float)), rule, rng)

    def select_row(self, rows, rule: str, rng: np.random.Generator | None) -> np.ndarray:
        """``select`` on the rows ``generators(x)`` returned, for a rule already
        checked: a lone row is taken as is, with no draw."""
        if len(rows) == 1:
            return self.sign * rows[0]
        return _select_from(self._hull(rows), rule, rng)

    def _hull(self, rows) -> Polytope:
        # a negated value holds -g; select's one row is -1.0 * g, which may
        # differ from it in the sign bit of a NaN only
        value = Polytope(rows)
        return value if self.sign > 0 else Polytope(-value.generators, copy=False)

    def __repr__(self) -> str:
        label = self.name or "anonymous"
        return f"SetValuedMap({label}, R^{self.dimension})"


def negate(H: SetValuedMap) -> SetValuedMap:
    """The map x -> -H(x), on the generators of H."""
    neg = SetValuedMap(H.dimension, H.generators, growth_bound=H.growth_bound,
                       name=f"-({H.name})" if H.name else "")
    neg.sign = -H.sign
    return neg


def singleton_map(dimension: int, func: Callable[[np.ndarray], np.ndarray],
                  growth_bound: float | None = None, name: str = "") -> SetValuedMap:
    """Wrap a single-valued vector field as a set-valued map."""
    return SetValuedMap(dimension, lambda x: np.asarray(func(x), dtype=float).reshape(1, -1),
                        growth_bound=growth_bound, name=name)


def check_linear_growth(H: SetValuedMap, points) -> float:
    """Max over points/generators of ||g|| - C(1 + ||x||); <= 0 certifies the bound."""
    if H.growth_bound is None:
        raise ValueError("map declares no growth bound")
    worst = -np.inf
    for x in np.atleast_2d(np.asarray(points, dtype=float)):
        g = H.evaluate(x).generators
        slack = np.linalg.norm(g, axis=1).max() - H.growth_bound * (1.0 + np.linalg.norm(x))
        worst = max(worst, float(slack))
    return worst


@dataclass(frozen=True)
class SmoothPiece:
    """One smooth branch f_k of a finite max, with its gradient.

    Both act on the last axis, so one call evaluates a whole stack of points:
    ``value`` maps (..., n) to (...) and ``gradient`` maps (..., n) to (..., n).
    """
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]


class MaxOfSmoothFunction:
    """f(x) = max_k f_k(x) over finitely many smooth pieces.

    The generalized gradient at x is the hull of the gradients of the pieces
    active within ``activity_tol`` of the max; the tolerance keeps the set
    upper semicontinuous under floating point.
    """

    __slots__ = ("pieces", "dimension", "activity_tol", "name")

    def __init__(self, pieces: Sequence[SmoothPiece], dimension: int,
                 activity_tol: float = DEFAULT_ACTIVITY_TOL, name: str = ""):
        if not pieces:
            raise ValueError("need at least one piece")
        if activity_tol <= 0.0:
            raise ValueError("activity tolerance must be positive")
        self.pieces = tuple(pieces)
        self.dimension = int(dimension)
        self.activity_tol = float(activity_tol)
        self.name = name

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return max(float(p.value(x)) for p in self.pieces)

    def validate_gradients(self, rng: np.random.Generator, n_points: int = 20,
                           box: tuple[float, float] = (-2.0, 2.0),
                           step: float = 1e-6, tol: float = 1e-4) -> float:
        """Worst central finite-difference error of any piece gradient.

        Raises if the error exceeds ``tol`` at any of the random points.
        """
        lo, hi = box
        return check_gradients([(f"piece {k}", p.value, p.gradient)
                                for k, p in enumerate(self.pieces)],
                               lambda: rng.uniform(lo, hi, self.dimension),
                               n_points, step, tol)


def check_gradients(functions: Sequence[tuple[str, Callable, Callable]],
                    draw_point: Callable[[], np.ndarray], n_points: int,
                    step: float, tol: float) -> float:
    """Worst central finite-difference error of each (name, value, gradient)
    over ``n_points`` points from ``draw_point``; raises ValueError past ``tol``."""
    worst = 0.0
    for _ in range(n_points):
        x = draw_point()
        shifts = step * np.eye(x.shape[0])
        for name, value, gradient in functions:
            grad = np.asarray(gradient(x), dtype=float)
            fd = np.array([(value(x + e) - value(x - e)) / (2.0 * step) for e in shifts])
            err = float(np.max(np.abs(fd - grad)))
            worst = max(worst, err)
            if err > tol:
                raise ValueError(f"gradient of {name} disagrees with finite differences "
                                 f"({err:.3g} > {tol:.3g}) at {x}")
    return worst


def near_max(rows: Iterable[Sequence[float]], tol: float) -> list[list[int]]:
    """For each row of floats, the indices k with ``row[k] >= max(row) - tol``,
    the one activity test.  A NaN is never near the max, wherever it stands in
    its row; a row of NaNs alone raises ValueError."""
    near = []
    for row in rows:
        cut = max(row) - tol
        ks = [k for k, v in enumerate(row) if v >= cut]
        if not ks:  # max() returned a leading NaN (it skips a later one): retake it
            numbers = [v for v in row if v == v]
            if not numbers:
                raise ValueError("every value of the activity test is NaN")
            cut = max(numbers) - tol
            ks = [k for k, v in enumerate(row) if v >= cut]
        near.append(ks)
    return near


def active_gradients(f: MaxOfSmoothFunction, x) -> list[np.ndarray]:
    """Gradients of the pieces within ``f.activity_tol`` of the max at x (one off the kinks).
    A lone piece is active at every x, a NaN or infinite one included, so its
    value is not evaluated: the result is its gradient there, as in
    ``select_subgradients``."""
    x = np.asarray(x, dtype=float)
    if len(f.pieces) == 1:
        return [np.asarray(f.pieces[0].gradient(x), dtype=float)]
    (ks,) = near_max([[float(p.value(x)) for p in f.pieces]], f.activity_tol)
    return [np.asarray(f.pieces[k].gradient(x), dtype=float) for k in ks]


def clarke_subdifferential(f: MaxOfSmoothFunction, x) -> Polytope:
    """The generalized gradient of f at x as a polytope."""
    return Polytope(active_gradients(f, x))


def select_subgradients(f: MaxOfSmoothFunction, X: np.ndarray, rule: str,
                        rngs: Sequence | None, sign: float = 1.0) -> np.ndarray:
    """For each row x of the (S, n) stack X, the element g of subdiff(f)(x)
    whose ``sign * g`` is ``_select_from(Polytope(sign * subdiff(f)(x)), rule, rngs[r])``,
    bit for bit and draw for draw (``rngs`` may be None for ``min_norm``).
    With sign = -1 a step along ``eta - g`` is one along ``(sign * g) + eta``:
    IEEE subtraction adds the negation.

    Each piece is evaluated once on the whole stack, and one ``near_max`` call
    runs the activity test on plain floats, row by row, as ``active_gradients``
    does.  A row with one active piece takes its gradient, with no polytope and
    no draw; a row at a kink selects from its polytope alone.  A single piece
    is active everywhere, so it needs no activity test.  Only pieces some row
    selects are differentiated, once each; a mix of them gives a new float64 array.
    """
    pieces = f.pieces
    if len(pieces) == 1:
        return pieces[0].gradient(X)
    actives = near_max(zip(*[p.value(X).tolist() for p in pieces]), f.activity_tol)
    first = actives[0]
    if len(first) == 1 and actives.count(first) == len(actives):  # one piece on every row
        return pieces[first[0]].gradient(X)
    G = np.array(pieces[first[0]].gradient(X), dtype=float)
    grads = {first[0]: G}  # G's row r is the first piece's gradient until it is set
    for r, a in enumerate(actives):
        for k in a:
            if k not in grads:
                grads[k] = np.asarray(pieces[k].gradient(X), dtype=float)
        if len(a) > 1:  # a kink: its own pieces' rows, and sign * (sign * y) is y
            rows = np.array([grads[k][r] for k in a])
            G[r] = sign * _select_from(Polytope(sign * rows, copy=False), rule,
                                       None if rngs is None else rngs[r])
        elif a[0] != first[0]:
            G[r] = grads[a[0]][r]
    return G


def clarke_map(f: MaxOfSmoothFunction, growth_bound: float | None = None) -> SetValuedMap:
    """The subdifferential of f as a set-valued map."""
    return SetValuedMap(f.dimension, lambda x: active_gradients(f, x), growth_bound=growth_bound,
                        name=f"subdiff({f.name})" if f.name else "subdiff")


def _select_from(poly: Polytope, rule: str, rng: np.random.Generator | None) -> np.ndarray:
    g = poly.generators
    check_rule(rule)
    if g.shape[0] == 1:
        return g[0].copy()
    if rule == "min_norm":
        return min_norm_point(poly)
    if rng is None:
        raise ValueError(f"selection rule {rule!r} needs an rng")
    if rule == "random_vertex":
        return g[int(rng.integers(g.shape[0]))].copy()
    w = rng.dirichlet(np.ones(g.shape[0]))
    return w @ g


def uniform_ball(rng: np.random.Generator, dimension: int) -> np.ndarray:
    """Uniform draw from the closed unit ball."""
    d = rng.normal(size=dimension)
    norm = math.sqrt(d.dot(d))  # np.linalg.norm's formula for a vector
    if norm == 0.0:
        return np.zeros(dimension)
    radius = rng.uniform() ** (1.0 / dimension)
    return (radius / norm) * d


def enlargement_sample(H: SetValuedMap, x, delta: float, rng: np.random.Generator | None,
                       rule: str = "random_hull") -> np.ndarray:
    """Draw y from the delta-enlargement of H at x.

    Constructs z = x + delta*u and y = h + delta*w with u, w uniform on the
    unit ball and h a selection from H(z); y then belongs to the enlarged
    value by construction.  With delta = 0 this is a plain selection.
    """
    if delta < 0.0:
        raise ValueError("delta must be non-negative")
    x = np.asarray(x, dtype=float)
    if delta == 0.0:
        return H.select(x, rule, rng)
    if rng is None:
        raise ValueError("enlargement sampling with delta > 0 needs an rng")
    z = x + delta * uniform_ball(rng, H.dimension)
    h = H.select(z, rule, rng)
    return h + delta * uniform_ball(rng, H.dimension)


def _grid_offsets(dimension: int, per_axis: int = 5) -> np.ndarray:
    axes = [np.linspace(-1.0, 1.0, per_axis)] * dimension
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    inside = np.linalg.norm(pts, axis=1) <= 1.0
    return pts[inside]


def enlargement_slack(H: SetValuedMap, x, y, delta: float, z_samples: int = 32,
                      rng: np.random.Generator | None = None) -> float:
    """min over sampled z in the closed delta-ball of d(y, H(z)) - delta.

    A value <= 0 certifies membership of y in the delta-enlargement at x;
    a positive value is only an upper bound obtained from the sampled z's
    (the certificate is one-sided).  With delta = 0 this reduces to the
    distance from y to H(x).  The candidate set always contains z = x and,
    in dimension <= 3, a deterministic lattice over the ball.
    """
    if z_samples < 1:
        raise ValueError("z_samples must be >= 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if delta == 0.0:
        return distance_to_hull(y, H.evaluate(x))
    candidates = [x]
    if H.dimension <= 3:
        candidates.extend(x + delta * off for off in _grid_offsets(H.dimension))
    if rng is None:
        rng = np.random.default_rng(0)
    candidates.extend(x + delta * uniform_ball(rng, H.dimension) for _ in range(z_samples))
    best = min(distance_to_hull(y, H.evaluate(z)) for z in candidates)
    return best - delta


# Ready-made nonsmooth test functions -------------------------------------

def _constant(shape, c: float) -> np.ndarray:
    out = np.empty(shape)
    out.fill(c)
    return out


def _column(x: np.ndarray, k: int):
    """``x[..., k]``, as a float for one point: the pieces below stay scalar
    arithmetic at a single point and vectorize on a stack."""
    return x.T[k].T


def abs_value(activity_tol: float = DEFAULT_ACTIVITY_TOL) -> MaxOfSmoothFunction:
    """f(x) = |x| on R, as max(x, -x)."""
    pieces = (
        SmoothPiece(lambda x: _column(x, 0), lambda x: _constant(x.shape, 1.0)),
        SmoothPiece(lambda x: -_column(x, 0), lambda x: _constant(x.shape, -1.0)),
    )
    return MaxOfSmoothFunction(pieces, 1, activity_tol=activity_tol, name="abs")


def half_square_norm(dimension: int) -> MaxOfSmoothFunction:
    """f(x) = ||x||^2 / 2, smooth (a single piece)."""
    piece = SmoothPiece(lambda x: 0.5 * np.vecdot(x, x), lambda x: x.copy())
    return MaxOfSmoothFunction((piece,), dimension, name=f"half_square_norm{dimension}")


def max_of_squares(dimension: int, activity_tol: float = DEFAULT_ACTIVITY_TOL) -> MaxOfSmoothFunction:
    """f(x) = max_k x_k^2 (squared by multiplication: a scalar ``x ** 2`` goes
    through libm ``pow``, which is not correctly rounded)."""
    def make(k):
        def value(x, k=k):
            c = _column(x, k)
            return c * c

        def grad(x, k=k):
            g = np.zeros(x.shape)
            g.T[k] = 2.0 * x.T[k]
            return g
        return SmoothPiece(value, grad)
    pieces = tuple(make(k) for k in range(dimension))
    return MaxOfSmoothFunction(pieces, dimension, activity_tol=activity_tol,
                               name=f"max_of_squares{dimension}")

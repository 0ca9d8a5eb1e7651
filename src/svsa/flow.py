"""Explicit Euler integration of the velocity inclusion x' in H(x), with
finite-horizon proxies for limit sets, recurrence and stable zeros.

Each step moves along one selected element of H, so a produced curve is
consistent with the map by construction.  Recurrence and stability checks
are sampled certificates over selection strategies: a positive answer
exhibits a witness, a negative one only means none was found in the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .csvio import write_csv
from .geometry import distance_to_hull
from .maps import SELECTION_RULES, SetValuedMap
from .maps import _select_from  # noqa: F401  (bench/tracing.py wraps it at this name)

STABLE_ZERO_TOL = 1e-9


@dataclass
class Curve:
    """Grid curve gamma(s_k) produced by explicit Euler over a selection."""
    times: np.ndarray
    points: np.ndarray
    dt: float
    rule: str

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def save_csv(self, path) -> None:
        write_csv(path, ["s"] + [f"x{k}" for k in range(self.dimension)],
                  np.column_stack([self.times, self.points]))


def euler_di(H: SetValuedMap, x0, dt: float, T: float, rule: str = "min_norm",
             rng: np.random.Generator | None = None) -> Curve:
    """gamma(s_{k+1}) = gamma(s_k) + dt * H.select(gamma(s_k)); deterministic
    for the min-norm rule, whose curve stays at a state a step leaves bitwise
    unchanged (-0.0 -> 0.0 is a change): H is pure, so each later step would too."""
    if dt <= 0.0 or T < dt:
        raise ValueError("need dt > 0 and T >= dt")
    n_steps = int(round(T / dt))
    x = np.asarray(x0, dtype=float).copy()
    points = np.empty((n_steps + 1, x.shape[0]))
    points[0] = x
    for k in range(n_steps):
        y = x + dt * H.select(x, rule, rng)
        if not all(map(math.isfinite, y.tolist())):
            raise RuntimeError(f"integration produced a non-finite state at step {k + 1}")
        points[k + 1] = y
        if rule == "min_norm" and y.tobytes() == x.tobytes():
            points[k + 2:] = y
            break
        x = y
    times = dt * np.arange(n_steps + 1)
    return Curve(times=times, points=points, dt=dt, rule=rule)


def limit_set_estimate(curve: Curve, tail_fraction: float) -> np.ndarray:
    """Points of the trailing ``tail_fraction`` of the curve: a finite-horizon
    outer stand-in for the limit set."""
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError("tail_fraction must lie in (0, 1)")
    m = max(1, math.ceil(tail_fraction * curve.n_points))
    return curve.points[-m:]


def recurrence_proxy(H: SetValuedMap, x, T: float, dt: float, eps_return: float,
                     tau_min: float, rules: Sequence[str] = SELECTION_RULES,
                     rng: np.random.Generator | None = None, restarts: int = 3) -> bool:
    """True iff some integrated curve from x returns within ``eps_return`` of x
    at a time >= tau_min.  One-sided: False only means no witness was found
    under the given selection rules and random restarts."""
    if tau_min >= T:
        raise ValueError("tau_min must be smaller than the horizon T")
    x = np.asarray(x, dtype=float)
    for rule in rules:
        reps = 1 if rule == "min_norm" else max(1, restarts)
        for _ in range(reps):
            try:
                curve = euler_di(H, x, dt, T, rule=rule, rng=rng)
            except RuntimeError:
                continue  # a diverging selection provides no witness
            late = curve.points[curve.times >= tau_min]
            if late.size and float(np.linalg.norm(late - x, axis=1).min()) <= eps_return:
                return True
    return False


@dataclass(frozen=True)
class LyapunovCurveReport:
    max_increase: float          # largest one-step increase of V along the grid
    decrease: float              # V(gamma(0)) - V(gamma(end))
    initial_in_target: bool | None


def lyapunov_check(V: Callable[[np.ndarray], float], curves: Sequence[Curve],
                   in_target: Callable[[np.ndarray], bool] | None = None) -> list[LyapunovCurveReport]:
    """Per curve: the worst grid increase of V (should not exceed the
    integrator tolerance) and the realized decrease, flagging whether the
    start point lies in the exempt set."""
    reports = []
    for curve in curves:
        values = np.array([float(V(p)) for p in curve.points])
        increments = np.diff(values)
        max_up = float(increments.max(initial=0.0))
        flag = None if in_target is None else bool(in_target(curve.points[0]))
        reports.append(LyapunovCurveReport(max_increase=max(max_up, 0.0),
                                           decrease=float(values[0] - values[-1]),
                                           initial_in_target=flag))
    return reports


def stable_zero_check(H: SetValuedMap, x, T: float, dt: float, trials: int,
                      rng: np.random.Generator | None = None) -> bool:
    """Sampled certificate that x is a zero of H from which every solution is
    constant: requires 0 in H(x) and every integrated curve (min-norm plus
    ``trials`` randomized selections) to stay within 10*dt*(1 + ||x||) of x."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    x = np.asarray(x, dtype=float)
    if distance_to_hull(np.zeros(x.shape[0]), H.evaluate(x)) > STABLE_ZERO_TOL:
        return False
    # First-order wobble allowance: one Euler step moves at most dt*C(1+||x||).
    eps_stay = 10.0 * dt * (1.0 + float(np.linalg.norm(x)))
    runs = [("min_norm", 1)]
    if rng is not None:
        runs += [("random_vertex", trials), ("random_hull", trials)]
    for rule, reps in runs:
        for _ in range(reps):
            try:
                curve = euler_di(H, x, dt, T, rule=rule, rng=rng)
            except RuntimeError:
                return False
            drift = float(np.linalg.norm(curve.points - x, axis=1).max())
            if drift > eps_stay:
                return False
    return True

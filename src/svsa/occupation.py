"""Weighted occupation measures on (position, velocity) pairs and the
measure-level diagnostics built on them.

A measure holds samples (x_j, v_{j+1}) with weights eps_j; every query
normalizes by the total weight, so the measure has unit mass.  The measure of
a trajectory prefix is a view of the run, and two measures merge by
concatenation.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .artifacts import _is_count, finite, write_csv, write_json
from .engine import Trajectory
from .geometry import distance_to_hull
from .maps import SetValuedMap, check_gradients

# Probes farther than this many bandwidths from every sample are undefined.
KERNEL_REACH = 5.0


class UndefinedEstimateError(RuntimeError):
    """Raised when a kernel estimate has no sample support at the query point."""


class OccupationMeasure:
    """The step-weighted empirical measure of samples (x_j, v_{j+1}) with
    weights eps_j, built once by ``from_arrays`` and never changed after."""

    __slots__ = ("positions", "velocities", "weights", "total_weight")

    def __init__(self, positions: np.ndarray, velocities: np.ndarray, weights: np.ndarray):
        self.positions, self.velocities, self.weights = positions, velocities, weights
        self.total_weight = float(weights.sum())

    @classmethod
    def from_arrays(cls, positions, velocities, weights) -> "OccupationMeasure":
        """Measure of the given samples.  C-contiguous float64 arrays are kept as
        given, so the measure of a trajectory prefix is a view of the run."""
        x = np.ascontiguousarray(np.atleast_2d(positions), dtype=float)
        v = np.ascontiguousarray(np.atleast_2d(velocities), dtype=float)
        w = np.ascontiguousarray(np.atleast_1d(weights), dtype=float)
        if x.shape != v.shape or w.shape != x.shape[:1]:
            raise ValueError("positions, velocities and weights do not line up")
        if not np.all(w >= 0.0):  # NaN fails too
            raise ValueError("weights must be non-negative")
        return cls(x, v, w)

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    @property
    def n_samples(self) -> int:
        return self.weights.shape[0]

    def merge(self, other: "OccupationMeasure") -> "OccupationMeasure":
        """Measure of the samples of both, concatenated: every sample is kept, so
        merging is exact and associative."""
        if other.dimension != self.dimension:
            raise ValueError("cannot merge measures of different dimensions")
        return OccupationMeasure.from_arrays(
            np.concatenate([self.positions, other.positions]),
            np.concatenate([self.velocities, other.velocities]),
            np.concatenate([self.weights, other.weights]))


def accumulate(trajectory: Trajectory, upto: int | None = None) -> OccupationMeasure:
    """Occupation measure of a trajectory prefix: samples (x_j, v_{j+1}, eps_j)
    for j < upto (defaults to the full run), a view of the run's arrays."""
    m = trajectory.n_steps if upto is None else min(int(upto), trajectory.n_steps)
    if m < 1:
        raise ValueError("trajectory must contain at least one step")
    return OccupationMeasure.from_arrays(trajectory.states[:m],
                                         trajectory.velocities[:m],
                                         trajectory.steps[:m])


# Regions ---------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def contains(self, points: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center, dtype=float)
        return np.linalg.norm(np.atleast_2d(points) - c, axis=1) <= self.radius


@dataclass(frozen=True)
class Box:
    lower: tuple
    upper: tuple

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(points)
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        return np.all((p >= lo) & (p <= hi), axis=1)


def residence_time(measure: OccupationMeasure, region) -> float:
    """Normalized weight of the samples whose position lies in the region."""
    mask = region.contains(measure.positions)
    return float(measure.weights[mask].sum() / measure.total_weight)


def _unique_rows(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(cells, axis=0, return_inverse=True)`` for an (M, n) integer
    array, from one row lexsort: the distinct rows in lexicographic order and
    the index of each input row among them."""
    order = np.lexsort(cells.T[::-1])  # the last key sorts first: column 0
    rows = cells[order]
    starts = np.ones(rows.shape[0], dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=starts[1:])
    inverse = np.empty(rows.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return rows[starts], inverse


def _prefix_means(measures: Sequence[OccupationMeasure], terms: np.ndarray) -> list[float]:
    """np.sum(w * terms) / W over the samples of each of the ``measures``, of
    weights w and total W.  Here and in the other functions of ``measures``,
    each is the first samples of the last (a run's prefixes are views of it):
    each sample's term is computed once, on the last, elementwise or over its
    own row, and a sum over a slice has the bits of a sum over a copy.  A mean
    that is not finite while W is (a product overflowed) is retaken as
    np.sum((w / W) * terms); with W infinite, w / W is 0, so it is kept."""
    w = measures[-1].weights
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf or nan
        products = w * terms
        means = [float(np.sum(products[:m.n_samples]) / m.total_weight) for m in measures]
        return [mean if math.isfinite(mean) or not math.isfinite(m.total_weight) else
                float(np.sum((w[:m.n_samples] / m.total_weight) * terms[:m.n_samples]))
                for m, mean in zip(measures, means)]


def _cell_residences(measures: Sequence[OccupationMeasure],
                     cell_size: float) -> list[dict[tuple, float]]:
    """The normalized weight of each lattice cell that a prefix visits, by cell index."""
    cells = np.floor(measures[-1].positions / cell_size)
    if not np.all(np.abs(cells) < 2.0 ** 63):  # NaN fails too
        raise ValueError(f"a position has no int64 cell index at cell size {cell_size!r}")
    uniq, inverse = _unique_rows(cells.astype(np.int64))
    keys, out = list(map(tuple, uniq.tolist())), []
    for m in measures:
        visits = inverse[:m.n_samples]
        masses = (np.bincount(visits, weights=m.weights, minlength=len(keys))
                  / m.total_weight).tolist()
        out.append({keys[k]: masses[k]
                    for k in np.flatnonzero(np.bincount(visits, minlength=len(keys))).tolist()})
    return out


def essential_accumulation_estimate(checkpoints: Sequence[OccupationMeasure],
                                    cell_size: float, threshold: float,
                                    residences: Sequence[dict] | None = None) -> np.ndarray:
    """Cells (by center) that retain at least ``threshold`` residence time in
    one of the last half of the checkpoints.

    The lattice is axis-aligned with pitch ``cell_size`` anchored at the
    origin.  This is a finite-horizon proxy: a cell qualifying in some late
    checkpoint stands in for a neighborhood with non-vanishing limsup
    residence time.  ``residences``, when given, holds the ``_cell_residences``
    of each checkpoint at ``cell_size``, which are then not recomputed.
    """
    if len(checkpoints) == 0:
        raise ValueError("no checkpoints given")
    if len(checkpoints) < 2:
        raise ValueError("need at least two checkpoints at increasing iteration counts")
    if any(b.n_samples <= a.n_samples for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("each checkpoint must hold more samples than the one before")
    if threshold <= 0.0 or cell_size <= 0.0:
        raise ValueError("cell_size and threshold must be positive")

    qualifying: set[tuple] = set()
    for k in range(len(checkpoints) // 2, len(checkpoints)):  # the last half
        cells = (residences[k] if residences is not None
                 else _cell_residences([checkpoints[k]], cell_size)[0])
        for cell, mass in cells.items():
            if mass >= threshold:
                qualifying.add(cell)
    if not qualifying:
        return np.empty((0, checkpoints[0].dimension))
    cells = np.array(sorted(qualifying), dtype=float)
    return (cells + 0.5) * cell_size


# Velocity integrals -----------------------------------------------------------

def circulation(measure: OccupationMeasure, field: Callable[[np.ndarray], np.ndarray]) -> float:
    """Normalized weighted sum of <field(x_j), v_{j+1}>.

    ``field`` must accept the full (M, n) position array and return (M, n).
    """
    return _prefix_circulations([measure], np.asarray(field(measure.positions), dtype=float))[0]


def _prefix_circulations(measures: Sequence[OccupationMeasure], values: np.ndarray) -> list[float]:
    """``circulation`` of each prefix, ``values`` the field at the last one's positions."""
    return _prefix_means(measures, np.einsum("ij,ij->i", values, measures[-1].velocities))


def closed_residual(measure: OccupationMeasure, g: "SmoothTestFunction") -> float:
    """How far the measure is from annihilating <grad g(x), v>; decays to 0
    along conforming runs."""
    return circulation(measure, g.gradient)


def interpolated_residual(trajectory: Trajectory, g: "SmoothTestFunction") -> float:
    """Exact time average of <grad g, x'> along the piecewise-linear
    interpolation of the run: (g(x_last) - g(x_0)) / t_last."""
    t = trajectory.elapsed
    if t <= 0.0:
        raise ValueError("trajectory has zero elapsed clock")
    return float((g.value(trajectory.states[-1]) - g.value(trajectory.states[0])) / t)


def interpolation_bound(trajectory: Trajectory, grad_constant: float) -> float:
    """Upper bound on |measure residual - interpolated residual|:
    (C / t_last) * sum_j eps_j ||v_{j+1}|| min(1, eps_j ||v_{j+1}||),
    valid whenever C dominates both the gradient Lipschitz constant and twice
    the gradient sup-norm of g over the hull of the states."""
    t = trajectory.elapsed
    if t <= 0.0:
        raise ValueError("trajectory has zero elapsed clock")
    speeds = np.linalg.norm(trajectory.velocities, axis=1)
    ev = trajectory.steps * speeds
    return float(grad_constant / t * np.sum(ev * np.minimum(1.0, ev)))


def velocity_moment(measure: OccupationMeasure, q: float) -> float:
    """Normalized weighted q-th moment of the velocity norms (q > 1)."""
    return _prefix_velocity_moments([measure], q)[0]


def _prefix_velocity_moments(measures: Sequence[OccupationMeasure], q: float) -> list[float]:
    if q <= 1.0:
        raise ValueError("moment order must exceed 1")
    v = measures[-1].velocities
    with np.errstate(over="ignore"):  # a moment too large for a float is inf
        speeds = np.linalg.norm(v, axis=1)
        for j in np.flatnonzero(speeds == math.inf).tolist():  # the square overflowed
            speeds[j] = math.hypot(*v[j].tolist())
        return _prefix_means(measures, speeds ** q)


class OscillationStatistic(NamedTuple):
    weighted_average: np.ndarray  # sum_j eps_j psi(x_j) v_{j+1} / sum_j eps_j
    psi_weight: float             # sum_j eps_j psi(x_j), for the conditional form


def oscillation_statistic(measure: OccupationMeasure, psi) -> OscillationStatistic:
    """Step-weighted, psi-localized velocity average, plus the localized mass
    so callers can form the conditional average and check that the localized
    fraction stays bounded away from zero."""
    return _prefix_oscillation_statistics([measure], psi)[0]


def _prefix_oscillation_statistics(measures: Sequence[OccupationMeasure],
                                   psi) -> list[OscillationStatistic]:
    fn = psi.value if isinstance(psi, WeightFunction) else psi
    pw = measures[-1].weights * np.asarray(fn(measures[-1].positions), dtype=float)
    return [OscillationStatistic(np.asarray((pw[:m.n_samples] @ m.velocities) / m.total_weight,
                                            dtype=float), float(pw[:m.n_samples].sum()))
            for m in measures]


# Centroid field ----------------------------------------------------------------

def plugin_bandwidth(measure: OccupationMeasure) -> float:
    """Plug-in kernel bandwidth 1.06 * sigma_hat * M^(-1/(4+n)) with sigma_hat
    the root-mean weighted per-coordinate deviation."""
    w = measure.weights / measure.total_weight
    mean = w @ measure.positions
    var = w @ (measure.positions - mean) ** 2
    sigma = math.sqrt(float(var.mean()))
    h = 1.06 * sigma * measure.n_samples ** (-1.0 / (4 + measure.dimension))
    return max(h, 1e-12)


def centroid_field_estimate(measure: OccupationMeasure, x, bandwidth: float) -> np.ndarray:
    """Kernel-weighted mean velocity at x (Gaussian kernel, sample weights).

    Raises UndefinedEstimateError when no sample lies within KERNEL_REACH
    bandwidths of x.
    """
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    x = np.asarray(x, dtype=float)
    d2 = np.einsum("ij,ij->i", measure.positions - x, measure.positions - x)
    if float(d2.min(initial=np.inf)) > (KERNEL_REACH * bandwidth) ** 2:
        raise UndefinedEstimateError(f"no sample within {KERNEL_REACH} bandwidths of {x}")
    kernel = measure.weights * np.exp(-0.5 * d2 / bandwidth ** 2)
    return (kernel @ measure.velocities) / kernel.sum()


def centroid_membership_gap(measure: OccupationMeasure, H: SetValuedMap,
                            probe_points, bandwidth: float) -> float:
    """Max over defined probes of the distance from the estimated mean
    velocity to the map value there."""
    worst = None
    for p in np.atleast_2d(np.asarray(probe_points, dtype=float)):
        try:
            est = centroid_field_estimate(measure, p, bandwidth)
        except UndefinedEstimateError:
            continue
        gap = distance_to_hull(est, H.evaluate(p))
        worst = gap if worst is None else max(worst, gap)
    if worst is None:
        raise UndefinedEstimateError("estimator undefined at every probe point")
    return float(worst)


# Checkpoint serialization --------------------------------------------------------

def checkpoint_sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


def trajectory_columns(n: int) -> list[str]:
    """Header of a run's trajectory.csv for an n-dimensional state."""
    return (["j", "t"] + [f"x{k}" for k in range(n)] + [f"v{k}" for k in range(n)]
            + ["eps", "delta"] + [f"eta{k}" for k in range(n)])


def save_checkpoint(measure: OccupationMeasure, csv_path, iteration: int,
                    seed: int | None, diagnostics: dict | None = None,
                    prefix: bool = False) -> tuple[Path, ...]:
    """Write a JSON sidecar with dimension, total weight, iteration and seed,
    and the run's diagnostics block when one is given; return the paths
    written.

    A run's checkpoint is a ``prefix`` of the trajectory.csv beside
    ``csv_path``: only the sidecar is written, and ``load_checkpoint`` reads
    the first ``iteration`` rows of the trajectory.  Any other measure (a
    ``merge``, say) has its sample table written first to ``csv_path`` as CSV
    (header row, 17 significant digits), which ``load_checkpoint`` reads
    instead."""
    csv_path = Path(csv_path)
    n = measure.dimension
    if not prefix:
        header = ["j"] + [f"x{k}" for k in range(n)] + [f"v{k}" for k in range(n)] + ["weight"]
        write_csv(csv_path, header, np.column_stack([np.arange(measure.n_samples),
                                                     measure.positions, measure.velocities,
                                                     measure.weights]))
    sidecar = checkpoint_sidecar_path(csv_path)
    meta = {"dimension": n, "total_weight": measure.total_weight,
            "iteration": int(iteration), "seed": seed}
    if diagnostics is not None:
        meta["diagnostics"] = diagnostics
    write_json(sidecar, finite(meta))
    return (sidecar,) if prefix else (csv_path, sidecar)


def _trajectory_prefix(path: Path, n: int, rows: int) -> tuple[np.ndarray, ...]:
    """Positions, velocities and steps of the first ``rows`` rows of a trajectory.csv.

    Only the ``x*`` and ``eps`` fields are parsed, of ``rows`` + 1 rows: the
    velocities are v_{j+1} = (x_{j+1} - x_j)/eps_j, the engine's own operation
    on the same bits, so they are the ones written.  The file holds no x_m, so
    when the prefix ends at its last row, that row's ``v*`` are read as written
    (an escaped run's overflowing last velocity among them)."""
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if len(header) != 3 * n + 4 or header != trajectory_columns(n):
            raise ValueError(f"{path.name} has {len(header)} columns, expected "
                             f"{3 * n + 4} for dimension {n}")
        # a row is 3n + 4 fields of a character or more, 3n + 3 commas and a
        # line end (but the last), so no more rows fit in the file
        size = os.fstat(fh.fileno()).st_size
        if rows > (size + 1) // (6 * n + 8):
            raise ValueError(f"{path.name} is {size} bytes, too short for the {rows} rows "
                             "the checkpoint needs")
        last = "\n"

        def lines():  # the file's lines, noting its last one that is not empty
            nonlocal last
            for line in fh:
                if line != "\n":
                    last = line
                yield line

        data = np.loadtxt(lines(), delimiter=",", usecols=[*range(2, n + 2), 2 * n + 2],
                          max_rows=rows + 1, ndmin=2)
    if data.shape[0] < rows:
        raise ValueError(f"{path.name} has {data.shape[0]} rows, the checkpoint needs {rows}")
    X, eps = data[:, :n], data[:rows, n]
    V = np.diff(X, axis=0) / eps[:len(X) - 1, None]
    if len(X) == rows:  # the prefix ends the file
        V = np.concatenate([V, np.loadtxt([last], delimiter=",",
                                          usecols=range(n + 2, 2 * n + 2), ndmin=2)])
    return X[:rows], V, eps


def load_checkpoint(csv_path) -> tuple[OccupationMeasure, dict]:
    """The measure and sidecar of a checkpoint: its samples from ``csv_path``
    when that file exists or the sidecar marks it ``standalone`` (as older
    versions did for a thinned measure), else the sidecar's ``iteration``
    first rows of the trajectory.csv beside it.  The returned sidecar leaves
    out the ``standalone`` mark, which only says where the samples are."""
    csv_path = Path(csv_path)
    sidecar = checkpoint_sidecar_path(csv_path)
    with open(sidecar) as fh:
        meta = json.load(fh)
    if not (isinstance(meta, dict) and _is_count(meta.get("dimension"), 1)):
        raise ValueError(f"{sidecar.name}: a JSON object with a positive integer dimension "
                         "required")
    n = meta["dimension"]
    if meta.pop("standalone", False) or csv_path.exists():
        source = csv_path
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != 2 * n + 2:
            raise ValueError(f"checkpoint has {data.shape[1]} columns, expected {2 * n + 2}")
        columns = data[:, 1:n + 1], data[:, n + 1:2 * n + 1], data[:, 2 * n + 1]
    else:
        if not _is_count(meta.get("iteration"), 1):
            raise ValueError(f"{sidecar.name}: a positive integer iteration required to read "
                             "the trajectory rows")
        source = csv_path.parent / "trajectory.csv"
        columns = _trajectory_prefix(source, n, meta["iteration"])
    # the column slices are not contiguous, so from_arrays copies them
    measure = OccupationMeasure.from_arrays(*columns)
    if finite(measure.total_weight) != finite(meta.get("total_weight")):
        raise ValueError(f"{source.name} rows weigh {measure.total_weight!r}, "
                         f"{sidecar.name} says {meta.get('total_weight')!r}")
    return measure, meta


# Test function bank ----------------------------------------------------------------

@dataclass(frozen=True)
class SmoothTestFunction:
    """A smooth scalar observable with vectorized value/gradient and an
    interpolation constant dominating max(Lip(grad), 2 sup||grad||) over the
    bank's box."""
    name: str
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    interpolation_constant: float


@dataclass(frozen=True)
class WeightFunction:
    """A bounded continuous localizer psi."""
    name: str
    value: Callable[[np.ndarray], np.ndarray]


def _power_rows(U: np.ndarray, degree: int) -> list:
    """[None, u, u**2, ..., u**(degree - 1)] (at least u) for the (..., n) array
    U: the powers that a gradient of a degree-``degree`` monomial reads, never
    u**degree.  Entry a is an (n, ...) array whose row k is u_k ** a,
    contiguous; each power is one np.power of U with an (n,) array exponent as
    in ``U ** alpha`` (numpy's scalar ``** 2.0`` and ``U * U`` differ)."""
    n = U.shape[-1]
    return [None] + [np.moveaxis(U if a == 1 else np.power(U, np.full(n, float(a))), -1, 0).copy()
                     for a in range(1, max(degree, 2))]


def _monomial_gradient(rows: list, half: np.ndarray, alpha, out: np.ndarray) -> np.ndarray:
    """Gradient in x of prod_k u_k ** alpha_k, u = (x - center)/half, into
    ``out`` from the power rows of u: column k is (f_1 * f_2 ...) * c, the
    factors f of the product for alpha - e_k multiplied left to right as
    np.prod does, less the exact factors u ** 0 = 1, times c = alpha_k/half_k
    (products commute, so one factor gives c * f_1); 0 when alpha_k is 0."""
    for k, a in enumerate(alpha):
        column = out[..., k]
        if not a:
            column[...] = 0.0
            continue
        c = a / half[k]
        first, *rest = [rows[b - (j == k)][j] for j, b in enumerate(alpha) if b - (j == k)] + [c]
        if not rest:
            column[...] = first
            continue
        np.multiply(first, rest[0], out=column)
        for f in rest[1:]:
            column *= f
    return out


def _monomial(center: np.ndarray, half: np.ndarray, alpha,
              interpolation_constant: float) -> SmoothTestFunction:
    if len(alpha) == 1:
        name = f"u^{alpha[0]}"
    else:
        name = "*".join(f"u{k}^{a}" for k, a in enumerate(alpha) if a > 0)
    exponent = np.asarray(alpha, dtype=float)

    def value(X):
        return np.prod(((np.asarray(X, dtype=float) - center) / half) ** exponent, axis=-1)

    def gradient(X):
        U = (np.asarray(X, dtype=float) - center) / half
        return _monomial_gradient(_power_rows(U, sum(alpha)), half, alpha, np.empty_like(U))

    return SmoothTestFunction(name, value, gradient, interpolation_constant)


def _interpolation_constants(exponents: np.ndarray, half: np.ndarray) -> np.ndarray:
    """max(Lip(grad), 2 sup||grad||) over the box of each monomial, a row of
    ``exponents`` each, in one pass.  Hessian entries over the box in
    normalized coordinates |u| <= 1 are bounded by a_i a_j (a_i (a_i - 1) on
    the diagonal); each sum runs over one contiguous row, as np.sum of the
    single monomial's array does."""
    a = exponents.astype(float)
    K, n = a.shape
    bound = a[:, :, None] * a[:, None, :]
    bound[:, np.arange(n), np.arange(n)] = a * np.maximum(a - 1.0, 0.0)
    lip = np.sqrt(np.sum(((bound / np.outer(half, half)) ** 2).reshape(K, n * n), axis=1))
    twice_sup = 2.0 * np.sqrt(np.sum((a / half) ** 2, axis=1))
    return np.where(twice_sup > lip, twice_sup, lip)  # max(lip, twice_sup)


def _radial_bump(center: np.ndarray, width: float, tag: int) -> SmoothTestFunction:
    def value(X):
        D = np.asarray(X, dtype=float) - center
        return np.exp(-0.5 * np.sum(D * D, axis=-1) / width ** 2)

    def gradient(X):
        D = np.asarray(X, dtype=float) - center
        g = np.exp(-0.5 * np.sum(D * D, axis=-1) / width ** 2)
        return -D / width ** 2 * g[..., None]

    # Global bounds for the Gaussian profile: ||Hess|| <= 1/w^2 and
    # sup ||grad|| = e^{-1/2}/w.
    lip = 1.0 / width ** 2
    grad_sup = math.exp(-0.5) / width
    return SmoothTestFunction(f"bump{tag}", value, gradient, max(lip, 2.0 * grad_sup))


def constant_one() -> WeightFunction:
    return WeightFunction("one", lambda X: np.ones(np.atleast_2d(X).shape[0]))


def coordinate_sigmoid(axis: int, center: float, scale: float) -> WeightFunction:
    def value(X):
        t = (np.atleast_2d(X)[:, axis] - center) / scale
        return 1.0 / (1.0 + np.exp(-t))
    return WeightFunction(f"sigmoid{axis}", value)


def bump_on_ball(center, radius: float) -> WeightFunction:
    """Smooth bump supported on the closed ball: exp(1 - 1/(1 - r^2)) inside,
    0 outside."""
    c = np.asarray(center, dtype=float)

    def value(X):
        r2 = np.sum((np.atleast_2d(X) - c) ** 2, axis=1) / radius ** 2
        out = np.zeros(r2.shape[0])
        inside = r2 < 1.0
        with np.errstate(divide="ignore"):
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out

    return WeightFunction("ball_bump", value)


def _exponents(n: int, degree: int):
    """Exponent tuples of length n and total degree at most ``degree``, in
    lexicographic order."""
    if n == 0:
        yield ()
        return
    for a in range(degree + 1):
        for rest in _exponents(n - 1, degree - a):
            yield (a,) + rest


@dataclass(frozen=True)
class TestFunctionBank:
    """Smooth observables g (monomials over a box plus seeded radial bumps)
    and bounded continuous localizers psi.  The first functions are the
    monomials prod_k u_k ** a_k of u = (x - center)/half, a row a of ``exponents`` each."""
    __test__ = False  # not a pytest class, despite the name
    functions: tuple[SmoothTestFunction, ...]
    weights: tuple[WeightFunction, ...]
    lower: np.ndarray
    upper: np.ndarray
    exponents: np.ndarray
    center: np.ndarray
    half: np.ndarray

    @staticmethod
    def from_box(lower, upper, degree: int = 3, n_bumps: int = 4,
                 seed: int = 7) -> "TestFunctionBank":
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        n = lower.shape[0]
        center = 0.5 * (lower + upper)
        half = np.maximum(0.5 * (upper - lower), 1e-9)

        exponents = np.array([a for a in _exponents(n, degree) if any(a)],
                             dtype=np.int64).reshape(-1, n)
        functions = [_monomial(center, half, alpha, c) for alpha, c
                     in zip(exponents, _interpolation_constants(exponents, half).tolist())]
        rng = np.random.default_rng(seed)
        width = 0.25 * float(np.linalg.norm(half))
        for tag in range(n_bumps):
            c = rng.uniform(lower, upper)
            functions.append(_radial_bump(c, width, tag))

        weights = [constant_one()]
        weights += [coordinate_sigmoid(k, float(center[k]), float(half[k]))
                    for k in range(n)]
        weights.append(bump_on_ball(center, float(np.linalg.norm(half)) + 1e-9))
        return TestFunctionBank(tuple(functions), tuple(weights), lower, upper,
                                exponents, center, half)

    @staticmethod
    def from_positions(positions, degree: int = 3, n_bumps: int = 4,
                       seed: int = 7) -> "TestFunctionBank":
        X = np.atleast_2d(np.asarray(positions, dtype=float))
        lower = X.min(axis=0)
        upper = X.max(axis=0)
        pad = 1e-9 * (1.0 + np.abs(upper - lower))
        return TestFunctionBank.from_box(lower - pad, upper + pad, degree=degree,
                                         n_bumps=n_bumps, seed=seed)

    def closed_residuals(self, measure: OccupationMeasure) -> dict[str, float]:
        """``closed_residual`` of every function, by name."""
        return self.prefix_closed_residuals([measure])[0]

    def prefix_closed_residuals(self, measures: Sequence[OccupationMeasure]) -> list[dict]:
        """``closed_residuals`` of each prefix, one function at a time."""
        out: list[dict[str, float]] = [{} for _ in measures]
        for g, values in zip(self.functions, self._gradients(measures[-1].positions)):
            for residuals, r in zip(out, _prefix_circulations(measures, values)):
                residuals[g.name] = r
        return out

    def _gradients(self, X: np.ndarray):
        """Each function's gradient at the (M, n) positions X in turn: the
        monomials' from one table of the powers of u that they read, into one
        reused buffer, which is freed before the bumps make their own."""
        U = X - self.center
        U /= self.half
        rows, G = _power_rows(U, int(self.exponents.sum(axis=1).max(initial=0))), np.empty_like(U)
        for a in self.exponents:
            yield _monomial_gradient(rows, self.half, a, G)
        del U, rows, G
        for g in self.functions[len(self.exponents):]:
            yield g.gradient(X)

    def validate_gradients(self, rng: np.random.Generator, n_points: int = 10,
                           step: float = 1e-6, tol: float = 1e-4) -> float:
        """Worst central-difference error over random box points; raises past tol."""
        return check_gradients([(g.name, g.value, g.gradient) for g in self.functions],
                               lambda: rng.uniform(self.lower, self.upper),
                               n_points, step, tol)

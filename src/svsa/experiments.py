"""Batch experiment pipeline: JSON configs, seeded runs with geometric
checkpointing, the diagnostics suite, and CSV/JSON artifacts.

Output layout, per experiment root:
    manifest.json                      config hash, inventory, bounded fraction
    <seed>/trajectory.csv              j, t, x*, v*, eps, delta, eta*
    <seed>/checkpoint_<N>.csv/.json    occupation-measure snapshots
    <seed>/summary.json                per-checkpoint diagnostics

The pipeline is a pure function of (config, seeds): reruns produce
byte-identical summaries (no timestamps are written).
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import games as games_mod
from .csvio import write_csv
from .engine import (NoiseModel, StepSchedule, Trajectory, run_fictitious_play,
                     run_sa, run_sgd, run_shb)
from .geometry import min_norm_point  # noqa: F401  (bench/tracing.py wraps it at this name)
from .maps import (SELECTION_RULES, MaxOfSmoothFunction, SetValuedMap, abs_value,
                   clarke_map, half_square_norm, max_of_squares, negate,
                   select_subgradient, singleton_map)
from .maps import clarke_subdifferential  # noqa: F401  (likewise)
from .occupation import (OccupationMeasure, TestFunctionBank,
                         UndefinedEstimateError, _cell_residences, accumulate,
                         centroid_membership_gap, circulation, closed_residual,
                         essential_accumulation_estimate, load_checkpoint,
                         oscillation_statistic, plugin_bandwidth,
                         save_checkpoint, velocity_moment)


class ConfigError(ValueError):
    """Schema-level problems with an experiment document."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# Named ingredients ------------------------------------------------------------

def named_function(name: str) -> MaxOfSmoothFunction:
    if name == "abs":
        return abs_value()
    for prefix, build in (("quad", half_square_norm), ("maxsq", max_of_squares)):
        if isinstance(name, str) and name.startswith(prefix):
            digits = name[len(prefix):] or "1"
            if digits.isdecimal() and int(digits) >= 1:
                return build(int(digits))
    raise ConfigError([f"unknown objective function {name!r}"])


def named_map(name: str, dimension: int) -> SetValuedMap:
    if name == "attract_origin":
        return singleton_map(dimension, lambda x: -x, growth_bound=1.0, name="attract_origin")
    if name == "doubling":
        return singleton_map(dimension, lambda x: x.copy(), growth_bound=1.0, name="doubling")
    if name == "sign_descent":
        if dimension != 1:
            raise ConfigError(["sign_descent is one-dimensional"])
        return negate(clarke_map(abs_value(), growth_bound=1.0))
    raise ConfigError([f"unknown custom map {name!r}"])


def _game_from_doc(doc) -> games_mod.Game:
    if isinstance(doc, str):
        doc = {"name": doc}
    if "payoff_tensors" in doc:
        return games_mod.game_from_json(doc)
    name = doc.get("name")
    builders = games_mod.builtin_games()
    if name not in builders:
        raise ConfigError([f"unknown game {name!r}"])
    kwargs = {k: v for k, v in doc.items() if k != "name"}
    return builders[name](**kwargs)


_KNOWN_EQUILIBRIA = {
    "matching_pennies": [[0.5, 0.5], [0.5, 0.5]],
    "generalized_rps": [[1 / 3] * 3, [1 / 3] * 3],
}


# Config --------------------------------------------------------------------------

def _schedule_from_doc(doc: dict, label: str) -> StepSchedule:
    try:
        kind = doc["kind"]
        if kind == "power":
            return StepSchedule.power(float(doc["a"]), float(doc["rho"]))
        if kind == "logarithmic":
            return StepSchedule.logarithmic(float(doc["a"]))
        if kind == "constant":
            return StepSchedule.constant(float(doc["a"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError([f"{label}: malformed schedule ({exc})"]) from exc
    raise ConfigError([f"{label}: unknown schedule kind {doc.get('kind')!r}"])


_NOISE_FIELDS = {"gaussian": ("sigma",), "uniform_ball": ("radius",), "student_t": ("df", "scale")}


def _noise_from_doc(doc: dict | None) -> NoiseModel:
    if doc is None or doc.get("kind") == "none":
        return NoiseModel.none()
    if doc.get("kind") not in _NOISE_FIELDS:
        raise ConfigError([f"noise: unknown kind {doc.get('kind')!r}"])
    try:
        return NoiseModel(doc["kind"], moment_order=float(doc.get("moment_order", 2.0)),
                          **{k: float(doc[k]) for k in _NOISE_FIELDS[doc["kind"]]})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError([f"noise: malformed model ({exc})"]) from exc


def _start_problems(problem: dict, guard_radius: float) -> list[str]:
    """The initial state must be given, match the problem's dimension and lie
    strictly inside the guard ball (fictitious play starts on the simplices)."""
    kind = problem["kind"]
    if kind == "fictitious_play":
        if problem.get("game") is None:
            return ["problem.game: required for kind 'fictitious_play'"]
        return []
    keys = ("q0", "p0") if kind == "shb" else ("x0",)
    required = (keys[0], "map", "dim") if kind == "custom_map" else (keys[0], "f")
    missing = [f"problem.{key}: required for kind {kind!r}"
               for key in required if key not in problem]
    if missing:
        return missing
    dim = problem["dim"] if kind == "custom_map" else named_function(problem["f"]).dimension
    present = [key for key in keys if key in problem]
    try:
        start = [np.asarray(problem[key], dtype=float) for key in present]
    except (TypeError, ValueError):
        return [f"problem.{'/'.join(present)}: a list of numbers required"]
    wrong = [f"problem.{key}: {dim} coordinates required"
             for key, part in zip(present, start) if part.shape != (dim,)]
    if wrong:
        return wrong
    norm = float(np.linalg.norm(np.concatenate(start)))
    if not guard_radius > norm:
        return [f"guard_radius: must exceed the initial state's norm {norm:.6g}"]
    return []


DEFAULT_DIAGNOSTICS = {
    "bank_degree": 3,
    "bank_bumps": 4,
    "bank_seed": 7,
    "velocity_moment_order": 2.0,
    "residence_cell_size": 0.02,
    "essential_threshold": 0.05,
    "centroid_probes": None,
    "circulation": True,
}


@dataclass
class ExperimentConfig:
    name: str
    problem: dict
    n_steps: int
    seeds: list[int]
    guard_radius: float = 1e3
    checkpoint_base: int = 1000
    schedule: StepSchedule | None = None
    noise: NoiseModel = field(default_factory=NoiseModel.none)
    delta: StepSchedule | None = None
    selection_rule: str = "random_hull"
    strict_bounded: bool = False
    diagnostics: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_doc(cls, doc: dict) -> "ExperimentConfig":
        problems = []
        if not isinstance(doc, dict):
            raise ConfigError(["experiment document must be a JSON object"])
        name = doc.get("name")
        if not isinstance(name, str) or not name:
            problems.append("name: required non-empty string")
        problem = doc.get("problem")
        if not isinstance(problem, dict) or problem.get("kind") not in (
                "sgd", "shb", "fictitious_play", "custom_map"):
            problems.append("problem.kind: one of sgd, shb, fictitious_play, custom_map")
        n_steps = doc.get("n_steps")
        if not isinstance(n_steps, int) or n_steps < 1:
            problems.append("n_steps: positive integer required")
        seeds = doc.get("seeds")
        if not isinstance(seeds, list) or not seeds or not all(isinstance(s, int) for s in seeds):
            problems.append("seeds: non-empty list of integers required")
        checkpoint_base = doc.get("checkpoint_base", 1000)
        if not isinstance(checkpoint_base, int) or checkpoint_base < 1:
            problems.append("checkpoint_base: positive integer required")
        elif isinstance(n_steps, int) and n_steps >= 1 and n_steps < checkpoint_base:
            problems.append("n_steps must be at least checkpoint_base")
        if problems:
            raise ConfigError(problems)

        kind = problem["kind"]
        schedule = None
        if kind in ("sgd", "shb", "custom_map"):
            if "schedule" not in doc:
                raise ConfigError([f"problem kind {kind!r} requires a schedule"])
            schedule = _schedule_from_doc(doc["schedule"], "schedule")
        noise = _noise_from_doc(doc.get("noise"))
        delta_doc = doc.get("delta")
        delta = None
        if delta_doc and delta_doc.get("kind") not in (None, "zero"):
            delta = _schedule_from_doc(delta_doc, "delta")
            if kind != "custom_map":
                problems.append(f"delta: only custom_map runs are enlarged, not {kind!r}")

        rule = doc.get("selection_rule", "random_hull")
        if rule not in SELECTION_RULES:
            problems.append(f"selection_rule: one of {', '.join(SELECTION_RULES)}")
        guard_radius = float(doc.get("guard_radius", 1e3))
        problems.extend(_start_problems(problem, guard_radius))
        diagnostics = doc.get("diagnostics", {})
        problems.extend(f"diagnostics.{key}: unknown key"
                        for key in sorted(set(diagnostics) - set(DEFAULT_DIAGNOSTICS)))
        if problems:
            raise ConfigError(problems)

        diagnostics = {**DEFAULT_DIAGNOSTICS, **diagnostics}
        return cls(name=name, problem=problem, n_steps=n_steps, seeds=list(seeds),
                   guard_radius=guard_radius, checkpoint_base=checkpoint_base,
                   schedule=schedule, noise=noise, delta=delta, selection_rule=rule,
                   strict_bounded=bool(doc.get("strict_bounded", False)),
                   diagnostics=diagnostics, raw=doc)

    @classmethod
    def from_path(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError([f"unparseable JSON: {exc}"]) from exc
        return cls.from_doc(doc)

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def validate_config(config: "ExperimentConfig | dict") -> list[str]:
    """Assumption checks on the declared parametric families; empty iff the
    run conforms to the convergence framework."""
    if isinstance(config, dict):
        config = ExperimentConfig.from_doc(config)
    out: list[str] = []
    kind = config.problem["kind"]
    if config.schedule is not None:
        out.extend(config.schedule.violations())
    out.extend(config.noise.violations())
    if kind == "shb":
        beta = config.schedule
        alpha_doc = config.problem.get("alpha_schedule")
        alpha = _schedule_from_doc(alpha_doc, "alpha_schedule") if alpha_doc else None
        if alpha is not None and beta is not None:
            if alpha.kind != beta.kind:
                out.append("heavy ball: alpha and beta schedules of different kinds have "
                           "no positive limit ratio")
            elif alpha.kind == "power" and alpha.rho != beta.rho:
                direction = "0" if alpha.rho > beta.rho else "infinity"
                out.append(f"heavy ball: alpha_i/beta_i tends to {direction}; "
                           "a positive finite limit ratio is required")
            if alpha.violations():
                out.extend(f"heavy ball (alpha): {v.split(': ', 1)[1]}"
                           for v in alpha.violations())
    return out


# Running -------------------------------------------------------------------------

def _build_run(config: ExperimentConfig, seed: int) -> tuple[Trajectory, dict]:
    """Execute the configured problem for one seed; returns the trajectory and
    problem-specific extras for the summary."""
    prob = config.problem
    kind = prob["kind"]
    extras: dict = {}
    if kind == "sgd":
        f = named_function(prob["f"])
        traj = run_sgd(f, config.schedule, config.noise, config.n_steps,
                       config.guard_radius, seed, np.asarray(prob["x0"], dtype=float),
                       rule=config.selection_rule)
        extras["objective"] = prob["f"]
    elif kind == "shb":
        f = named_function(prob["f"])
        c = float(prob.get("c", 1.0))
        beta = config.schedule
        alpha_doc = prob.get("alpha_schedule")
        if alpha_doc:
            alpha = _schedule_from_doc(alpha_doc, "alpha_schedule")
        else:
            alpha = StepSchedule(beta.kind, c * beta.a, beta.rho)
        q0 = np.asarray(prob["q0"], dtype=float)
        p0 = np.asarray(prob["p0"], dtype=float) if "p0" in prob else None
        traj = run_shb(f, alpha, beta, config.noise, config.n_steps,
                       config.guard_radius, seed, q0, p0, rule=config.selection_rule)
        extras["objective"] = prob["f"]
        extras["momentum_ratio"] = c
    elif kind == "fictitious_play":
        game = _game_from_doc(prob["game"])
        xi0 = prob.get("xi0")
        traj = run_fictitious_play(game, config.n_steps, seed, xi0=xi0)
        base = prob["game"] if isinstance(prob["game"], str) else prob["game"].get("name", "")
        key = base.split("(")[0]
        if key in _KNOWN_EQUILIBRIA:
            star = np.concatenate([np.asarray(s, float) for s in _KNOWN_EQUILIBRIA[key]])
            extras["nash_gap_inf"] = float(np.abs(traj.states[-1] - star).max())
    else:
        H = named_map(prob["map"], int(prob["dim"]))
        traj = run_sa(np.asarray(prob["x0"], dtype=float), H, config.schedule,
                      config.noise, config.delta, config.n_steps, config.guard_radius,
                      seed, rule=config.selection_rule)
        extras["map"] = prob["map"]
    return traj, extras


def _circulation_field(config: ExperimentConfig):
    """Min-norm subgradient selection of the objective, where one is declared."""
    prob = config.problem
    if prob["kind"] not in ("sgd", "shb"):
        return None
    f = named_function(prob["f"])

    def fieldfn(points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        out = np.zeros_like(points)  # heavy-ball states carry (q, p); p's part stays 0
        for r, x in enumerate(points[:, :f.dimension]):
            out[r, :f.dimension] = select_subgradient(f, x, "min_norm", None)
        return out

    return fieldfn


def checkpoint_iterations(n_steps: int, base: int) -> list[int]:
    """Geometric checkpoints base * 2^k, always including the final count."""
    its = []
    m = base
    while m < n_steps:
        its.append(m)
        m *= 2
    its.append(n_steps)
    return its


def _checkpoint_diagnostics(measure: OccupationMeasure, diag: dict, iteration: int,
                            circulation_field=None, problem_map=None) -> dict:
    bank = TestFunctionBank.from_positions(measure.positions,
                                           degree=int(diag["bank_degree"]),
                                           n_bumps=int(diag["bank_bumps"]),
                                           seed=int(diag["bank_seed"]))
    entry: dict = {
        "iteration": int(iteration),
        "n_samples": measure.n_samples,
        "total_weight": measure.total_weight,
        "closed_residuals": {g.name: closed_residual(measure, g) for g in bank.functions},
        "oscillation": {},
        "velocity_moment": {"order": diag["velocity_moment_order"],
                            "value": velocity_moment(measure, float(diag["velocity_moment_order"]))},
    }
    for psi in bank.weights:
        stat = oscillation_statistic(measure, psi)
        entry["oscillation"][psi.name] = {"average": stat.weighted_average.tolist(),
                                          "psi_weight": stat.psi_weight}
    cell = float(diag["residence_cell_size"])
    cells = _cell_residences(measure, cell)
    listed = sorted((c for c in cells.items() if c[1] >= 1e-3),
                    key=lambda kv: (-kv[1], kv[0]))[:1000]
    entry["residence_grid"] = {"cell_size": cell,
                               "cells": [{"cell": list(map(int, c)), "mass": m}
                                         for c, m in listed]}
    if circulation_field is not None:
        entry["circulation"] = {"min_norm_subgradient":
                                circulation(measure, circulation_field)}
    probes = diag.get("centroid_probes")
    if probes:
        h = plugin_bandwidth(measure)
        try:
            gap = (centroid_membership_gap(measure, problem_map, np.asarray(probes, float), h)
                   if problem_map is not None else None)
        except UndefinedEstimateError:
            gap = None
        entry["centroid"] = {"bandwidth": h, "probes": probes, "gap": gap}
    return entry


def _problem_map(config: ExperimentConfig) -> SetValuedMap | None:
    prob = config.problem
    if prob["kind"] == "sgd":
        return negate(clarke_map(named_function(prob["f"])))
    if prob["kind"] == "custom_map":
        return named_map(prob["map"], int(prob["dim"]))
    if prob["kind"] == "fictitious_play":
        return games_mod.game_map(_game_from_doc(prob["game"]))
    return None


def _write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    n = traj.dimension
    m = traj.n_steps
    cols = (["j", "t"] + [f"x{k}" for k in range(n)] + [f"v{k}" for k in range(n)]
            + ["eps", "delta"] + [f"eta{k}" for k in range(n)])
    data = np.column_stack([np.arange(m), traj.clock[:m], traj.states[:m],
                            traj.velocities, traj.steps, traj.deltas, traj.noises])
    write_csv(path, cols, data)


def run_seed(doc: dict, seed: int, out_dir: str | None) -> dict:
    """Run one seed of an experiment document; writes per-seed artifacts when
    ``out_dir`` is given and returns the summary dictionary."""
    config = ExperimentConfig.from_doc(doc)
    traj, extras = _build_run(config, seed)
    iterations = [i for i in checkpoint_iterations(config.n_steps, config.checkpoint_base)
                  if i <= traj.n_steps]
    if not iterations or iterations[-1] != traj.n_steps:
        iterations.append(traj.n_steps)
    measures = [accumulate(traj, upto=i) for i in iterations]

    diag = config.diagnostics
    circulation_field = _circulation_field(config) if diag.get("circulation", True) else None
    problem_map = _problem_map(config) if diag.get("centroid_probes") else None
    checkpoints = [_checkpoint_diagnostics(m, diag, i, circulation_field, problem_map)
                   for m, i in zip(measures, iterations)]

    summary: dict = {
        "experiment": config.name,
        "config_hash": config.config_hash(),
        "seed": seed,
        "status": traj.status,
        "escape": None if traj.status == "completed" else
                  {"index": traj.escape_index, "norm": traj.escape_norm},
        "n_steps": traj.n_steps,
        "elapsed_clock": traj.elapsed,
        "final_state": traj.states[-1].tolist(),
        "checkpoints": checkpoints,
    }
    summary.update(extras)
    if len(measures) >= 2:
        centers = essential_accumulation_estimate(
            measures, float(diag["residence_cell_size"]), float(diag["essential_threshold"]))
        summary["essential_cells"] = {
            "cell_size": diag["residence_cell_size"],
            "threshold": diag["essential_threshold"],
            "centers": centers.tolist(),
        }

    if out_dir is not None:
        seed_dir = Path(out_dir)
        seed_dir.mkdir(parents=True, exist_ok=True)
        _write_trajectory_csv(traj, seed_dir / "trajectory.csv")
        for m, i in zip(measures, iterations):
            save_checkpoint(m, seed_dir / f"checkpoint_{i}.csv", iteration=i, seed=seed,
                            diagnostics=diag)
        with open(seed_dir / "summary.json", "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return summary


@dataclass
class ExperimentReport:
    name: str
    config_hash: str
    seed_summaries: list[dict]
    bounded_fraction: float
    output_dir: Path | None
    files: list[str]

    @property
    def any_escaped(self) -> bool:
        return any(s["status"] == "escaped" for s in self.seed_summaries)


def run_experiment(config: "ExperimentConfig | dict", out_dir=None,
                   seeds: Sequence[int] | None = None, jobs: int = 1) -> ExperimentReport:
    """Run every seed, write artifacts under ``out_dir``/<name>/<seed>/, and
    assemble the cross-seed report.  Seeds are independent and may run in
    parallel processes."""
    if isinstance(config, dict):
        config = ExperimentConfig.from_doc(config)
    seed_list = list(seeds) if seeds is not None else list(config.seeds)
    if not seed_list:
        raise ConfigError(["no seeds to run"])

    root = None
    if out_dir is not None:
        root = Path(out_dir) / config.name
        root.mkdir(parents=True, exist_ok=True)

    def seed_out(s: int) -> str | None:
        return None if root is None else str(root / str(s))

    if jobs > 1 and len(seed_list) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(run_seed, config.raw, s, seed_out(s)) for s in seed_list]
            summaries = [f.result() for f in futures]
    else:
        summaries = [run_seed(config.raw, s, seed_out(s)) for s in seed_list]

    bounded = sum(1 for s in summaries if s["status"] == "completed") / len(summaries)
    files: list[str] = []
    if root is not None:
        files = sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()
                       and p.name != "manifest.json")
        manifest = {
            "experiment": config.name,
            "config_hash": config.config_hash(),
            "config": config.raw,
            "bounded_fraction": bounded,
            "files": files,
        }
        with open(root / "manifest.json", "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return ExperimentReport(name=config.name, config_hash=config.config_hash(),
                            seed_summaries=summaries, bounded_fraction=bounded,
                            output_dir=root, files=files)


def diagnose_checkpoint(csv_path) -> dict:
    """Recompute the measure-level diagnostics of a serialized checkpoint.

    Uses the run's diagnostics block from the sidecar (defaults for a sidecar
    without one) and the same bank construction as the pipeline (box from the
    stored samples, fixed bump seed), so values match the original report
    exactly.  Circulation and centroid probes need the problem, so they are
    left out.
    """
    measure, meta = load_checkpoint(csv_path)
    diag = {**DEFAULT_DIAGNOSTICS, **meta.get("diagnostics", {}), "centroid_probes": None}
    entry = _checkpoint_diagnostics(measure, diag, meta["iteration"])
    entry["sidecar"] = meta
    return entry

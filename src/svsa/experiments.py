"""Batch experiment pipeline: JSON configs, seeded runs with geometric
checkpointing, the diagnostics suite, and CSV/JSON artifacts.

Output layout, per experiment root:
    manifest.json                      config hash, inventory, bounded fraction
    <seed>/trajectory.csv              j, t, x*, v*, eps, delta, eta*
    <seed>/checkpoint_<N>.json         occupation-measure snapshot: a sidecar whose
                                       samples are the first N trajectory rows
    <seed>/summary.json                per-checkpoint diagnostics

The pipeline is a pure function of (config, seeds): reruns produce
byte-identical summaries (no timestamps are written).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import games as games_mod
from .artifacts import _is_count, finite, write_csv, write_json
from .engine import (DEFAULT_SELECTION_RULE, NoiseModel, StepSchedule, Trajectory,
                     run_fictitious_play_seeds, run_sa_seeds, run_sgd_seeds, run_shb_seeds)
from .engine import (run_fictitious_play, run_sa, run_sgd,  # noqa: F401  (likewise)
                     run_shb)
from .geometry import min_norm_point  # noqa: F401  (bench/tracing.py wraps it at this name)
from .maps import (SELECTION_RULES, MaxOfSmoothFunction, SetValuedMap, abs_value,
                   clarke_map, half_square_norm, max_of_squares, negate,
                   select_subgradients, singleton_map)
from .maps import clarke_subdifferential  # noqa: F401  (likewise)
from .occupation import (OccupationMeasure, TestFunctionBank, UndefinedEstimateError,
                         _cell_residences, _prefix_circulations,
                         _prefix_oscillation_statistics, _prefix_velocity_moments,
                         accumulate, centroid_membership_gap,
                         essential_accumulation_estimate, load_checkpoint,
                         plugin_bandwidth, save_checkpoint, trajectory_columns)
from .occupation import (circulation, closed_residual,  # noqa: F401  (likewise)
                         oscillation_statistic, velocity_moment)


class ConfigError(ValueError):
    """Schema-level problems with an experiment document."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# What building a value from a malformed document raises (OverflowError: a JSON
# integer too large for a float).
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _is_number(v) -> bool:
    """A JSON number (not a boolean) that converts to a finite float."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


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
    name = doc.get("name")
    build = games_mod.builtin_games().get(name) if isinstance(name, str) else None
    if build is None and "payoff_tensors" not in doc:
        raise ConfigError([f"unknown game {name!r}"])
    try:
        if "payoff_tensors" in doc:
            return games_mod.game_from_json(doc)
        return build(**{k: v for k, v in doc.items() if k != "name"})
    except _MALFORMED as exc:
        raise ConfigError([f"problem.game: {exc}"]) from exc


_KNOWN_EQUILIBRIA = {
    "matching_pennies": [[0.5, 0.5], [0.5, 0.5]],
    "generalized_rps": [[1 / 3] * 3, [1 / 3] * 3],
}


# Config tables -------------------------------------------------------------------
# Each block of a document has a table: key -> (the value's test, what it requires).
# A block with a kind has one table per kind, held with the keys that kind requires.

_ANY = (lambda v: True, "")  # a name, a game or a profile: checked as it is built
_OBJECT = (lambda v: isinstance(v, dict), "a JSON object")
_OBJECT_OR_NULL = (lambda v: v is None or isinstance(v, dict), "a JSON object")  # null: absent
_COUNT = (_is_count, "a non-negative integer")
_POSITIVE_COUNT = (lambda v: _is_count(v, 1), "positive integer")
_FINITE = (_is_number, "a finite number")
_POSITIVE = (lambda v: _is_number(v) and v > 0.0, "a positive number")
_NON_NEGATIVE = (lambda v: _is_number(v) and v >= 0.0, "a non-negative number")
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_POINT = (lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers")
_POINTS = (lambda v: v is None or isinstance(v, list) and all(map(_POINT[0], v)),
           "a list of points")  # null: none

_TOP = {
    "name": (lambda v: isinstance(v, str) and v not in ("", ".", "..") and "/" not in v
             and "\0" not in v, "a non-empty string usable as a directory name"),
    "problem": _OBJECT, "schedule": _OBJECT, "noise": _OBJECT_OR_NULL,
    "delta": _OBJECT_OR_NULL, "diagnostics": _OBJECT,
    "n_steps": _POSITIVE_COUNT, "checkpoint_base": _POSITIVE_COUNT,
    # each seed runs once, into its own directory
    "seeds": (lambda v: isinstance(v, list) and bool(v) and all(map(_is_count, v))
              and len(set(v)) == len(v), "non-empty list of non-negative integers without repeats"),
    "guard_radius": (_is_number, "a number"),
    "selection_rule": (lambda v: v in SELECTION_RULES, f"one of {', '.join(SELECTION_RULES)}"),
    "strict_bounded": _BOOL,
}
_PROBLEMS = {
    "sgd": ({"f": _ANY, "x0": _POINT}, ("x0", "f")),
    "shb": ({"f": _ANY, "c": _POSITIVE, "q0": _POINT, "p0": _POINT,
             "alpha_schedule": _OBJECT_OR_NULL}, ("q0", "f")),
    "fictitious_play": ({"game": (lambda v: isinstance(v, (str, dict)),
                                  "a builtin name or a JSON object"), "xi0": _POINTS},
                        ("game",)),
    "custom_map": ({"map": _ANY, "dim": _POSITIVE_COUNT, "x0": _POINT}, ("x0", "map", "dim")),
}
_SCHEDULES = {
    "power": ({"a": _POSITIVE, "rho": _POSITIVE}, ("a", "rho")),
    "logarithmic": ({"a": _POSITIVE}, ("a",)),
    "constant": ({"a": _POSITIVE}, ("a",)),
}
_DELTAS = {**_SCHEDULES, "zero": ({}, ())}  # zero: no enlargement
_NOISES = {
    "gaussian": ({"sigma": _NON_NEGATIVE, "moment_order": _FINITE}, ("sigma",)),
    "uniform_ball": ({"radius": _NON_NEGATIVE, "moment_order": _FINITE}, ("radius",)),
    "student_t": ({"df": _POSITIVE, "scale": _NON_NEGATIVE, "moment_order": _FINITE},
                  ("df", "scale")),
    "none": ({}, ()),
}
# An inline game; a builtin game's arguments are checked by its function's signature
_GAME = {
    "name": (lambda v: isinstance(v, str), "a string"), "players": _POSITIVE_COUNT,
    "action_counts": (lambda v: isinstance(v, list) and all(_is_count(k, 1) for k in v),
                      "a list of positive integers"),
    "payoff_tensors": _ANY,
}


def _problems(block, path: str, table: dict, required=()) -> list[str]:
    """Everything wrong with the block at ``path`` ("" for the document): it is
    not an object, or a key is not in ``table``, is ``required`` and missing,
    or fails its test."""
    if not isinstance(block, dict):
        return [f"{path or 'document'}: a JSON object required"]
    at = f"{path}." if path else ""
    return ([f"{at}{key}: unknown key" for key in block if key not in table]
            + [f"{at}{key}: required" for key in required if key not in block]
            + [f"{at}{key}: {what} required" for key, (ok, what) in table.items()
               if key in block and not ok(block[key])])


def _kinded(block: dict, path: str, tables: dict) -> list[str]:
    """``_problems`` of a block against its kind's table; a block of no known
    kind has no table, so that is its one problem."""
    kind = block.get("kind")
    if not (isinstance(kind, str) and kind in tables):  # (a list kind is unhashable)
        return [f"{path}.kind: one of {', '.join(tables)} required"]
    table, required = tables[kind]
    return _problems(block, path, {"kind": _ANY, **table}, required)


def _check(problems: list[str]) -> None:
    if problems:
        raise ConfigError(problems)


def _built(cls, block: dict):
    """The StepSchedule or NoiseModel of a checked block: its kind, its numbers as floats."""
    return cls(block["kind"], **{k: float(v) for k, v in block.items() if k != "kind"})


@dataclass(frozen=True)
class Problem:
    """The problem block, resolved once: the differential inclusion x' in H(x)
    the run follows and its occupation measure is tested against, and the
    start.  ``start`` holds x0, (q0, p0), or one simplex point per player."""
    kind: str
    start: tuple[np.ndarray, ...]
    objective: MaxOfSmoothFunction | None = None
    velocity_map: SetValuedMap | None = None
    game: games_mod.Game | None = None
    alpha: StepSchedule | None = None
    equilibrium: np.ndarray | None = None
    extras: dict = field(default_factory=dict)


def _resolve_problem(doc: dict, beta: StepSchedule | None, guard_radius: float) -> Problem:
    """The one building of a checked ``problem`` block: the objective, the
    velocity map (-subdiff(f) for sgd, the named map, or the game's averaged
    best-response map), the game, the start and the heavy-ball step ratio."""
    kind = doc["kind"]
    if kind == "fictitious_play":
        game = _game_from_doc(doc["game"])
        try:
            start = tuple(games_mod.initial_profile(game, doc.get("xi0")))
        except _MALFORMED as exc:
            raise ConfigError([f"problem.xi0: {exc}"]) from exc
        # none for an inline game that borrows a builtin name but not its action counts
        known = _KNOWN_EQUILIBRIA.get(game.name.split("(")[0], [])
        star = (np.concatenate([np.asarray(s, float) for s in known])
                if [len(s) for s in known] == list(game.action_counts) else None)
        return Problem(kind, start, velocity_map=games_mod.game_map(game), game=game,
                       equilibrium=star)
    alpha = None
    if kind == "custom_map":
        f, H = None, named_map(doc["map"], doc["dim"])
        dim, extras = H.dimension, {"map": doc["map"]}
    else:
        f = named_function(doc["f"])
        H = negate(clarke_map(f)) if kind == "sgd" else None
        dim, extras = f.dimension, {"objective": doc["f"]}
    present = [key for key in (("q0", "p0") if kind == "shb" else ("x0",)) if key in doc]
    start = [np.asarray(doc[key], dtype=float) for key in present]
    _check([f"problem.{key}: {dim} coordinates required"
            for key, part in zip(present, start) if part.shape != (dim,)])
    norm = math.hypot(*np.concatenate(start).tolist())
    if not guard_radius > norm:
        raise ConfigError([f"guard_radius: must exceed the initial state's norm {norm:.6g}"])
    if kind == "shb":
        c = float(doc.get("c", 1.0))
        if not c * beta.a > 0.0:
            raise ConfigError(["problem.c: a positive number required"])
        if beta.step(0) > 1.0:
            raise ConfigError(["schedule: heavy-ball beta steps must not exceed 1"])
        alpha_doc = doc.get("alpha_schedule")
        alpha = (_built(StepSchedule, alpha_doc) if alpha_doc is not None
                 else StepSchedule(beta.kind, c * beta.a, beta.rho))
        if "p0" not in doc:
            start.append(np.zeros(dim))
        extras["momentum_ratio"] = c
    return Problem(kind, tuple(start), objective=f, velocity_map=H, alpha=alpha, extras=extras)


# The largest bank: the degree bounds its power table, (degree - 1) floats per
# coordinate of a sample, and the count its work, 0.12 ms per sample and
# checkpoint for the 3002 monomials of the 6-D degree-8 bank; the same count
# caps the bumps, 0.23 ms for 3002 (6,000 samples, measured on a 2-core Xeon).
MAX_BANK_DEGREE = 8
MAX_BANK_MONOMIALS = math.comb(MAX_BANK_DEGREE + 6, 6) - 1

# The diagnostics block: key -> (default, test).
_DIAGNOSTIC_KEYS = {
    "bank_degree": (3, _COUNT), "bank_bumps": (4, _COUNT), "bank_seed": (7, _COUNT),
    "velocity_moment_order": (2.0, (lambda v: _is_number(v) and v > 1.0, "a number above 1")),
    "residence_cell_size": (0.02, _POSITIVE), "essential_threshold": (0.05, _POSITIVE),
    "centroid_probes": (None, _POINTS), "circulation": (True, _BOOL),
}
DEFAULT_DIAGNOSTICS = {key: default for key, (default, _) in _DIAGNOSTIC_KEYS.items()}
_DIAGNOSTICS = {key: test for key, (_, test) in _DIAGNOSTIC_KEYS.items()}


def _diagnostics_from_doc(block: dict, dimension: int) -> dict:
    """A checked diagnostics block (of a config or of a checkpoint sidecar),
    merged over the defaults, with its rules for a state of ``dimension``."""
    diag = {**DEFAULT_DIAGNOSTICS, **block}
    problems = []
    if diag["centroid_probes"] is not None and any(len(p) != dimension
                                                   for p in diag["centroid_probes"]):
        problems.append(f"diagnostics.centroid_probes: a list of points with "
                        f"{dimension} coordinates required")
    degree = diag["bank_degree"]
    if (degree > MAX_BANK_DEGREE
            or math.comb(degree + dimension, dimension) - 1 > MAX_BANK_MONOMIALS):
        problems.append(f"diagnostics.bank_degree: at most {MAX_BANK_DEGREE}, and at most "
                        f"{MAX_BANK_MONOMIALS} monomials in {dimension} dimensions, required")
    if diag["bank_bumps"] > MAX_BANK_MONOMIALS:
        problems.append(f"diagnostics.bank_bumps: at most {MAX_BANK_MONOMIALS} required")
    _check(problems)
    return diag


@dataclass
class ExperimentConfig:
    name: str
    problem: Problem
    n_steps: int
    seeds: list[int]
    guard_radius: float
    checkpoint_base: int
    schedule: StepSchedule | None
    noise: NoiseModel
    delta: StepSchedule | None
    selection_rule: str
    strict_bounded: bool
    diagnostics: dict
    raw: dict

    @classmethod
    def from_doc(cls, doc: dict) -> "ExperimentConfig":
        """Check every block of ``doc`` against its table and raise once with
        every problem found; then build the config from the checked blocks,
        applying the rules across keys that no table states."""
        if not isinstance(doc, dict):
            raise ConfigError(_problems(doc, "", _TOP))
        problems = _problems(doc, "", _TOP, ("name", "problem", "n_steps", "seeds"))
        problem = doc.get("problem")
        kind = problem.get("kind") if isinstance(problem, dict) else None
        blocks = [(problem, "problem", _PROBLEMS), (doc.get("schedule"), "schedule", _SCHEDULES),
                  (doc.get("noise"), "noise", _NOISES), (doc.get("delta"), "delta", _DELTAS)]
        if kind == "shb":
            blocks.append((problem.get("alpha_schedule"), "problem.alpha_schedule", _SCHEDULES))
        problems += [p for block, path, tables in blocks if isinstance(block, dict)
                     for p in _kinded(block, path, tables)]
        game = problem.get("game") if kind == "fictitious_play" else None
        if isinstance(game, dict) and "payoff_tensors" in game:
            problems += _problems(game, "problem.game", _GAME, ("players", "action_counts"))
        if isinstance(doc.get("diagnostics"), dict):
            problems += _problems(doc["diagnostics"], "diagnostics", _DIAGNOSTICS)
        if kind in ("sgd", "shb", "custom_map") and "schedule" not in doc:
            problems.append(f"problem kind {kind!r} requires a schedule")
        _check(problems)

        n_steps, checkpoint_base = doc["n_steps"], doc.get("checkpoint_base", 1000)
        if n_steps < checkpoint_base:
            raise ConfigError(["n_steps must be at least checkpoint_base"])
        schedule = _built(StepSchedule, doc["schedule"]) if kind != "fictitious_play" else None
        noise = _built(NoiseModel, doc.get("noise") or {"kind": "none"})  # null: no noise
        delta = doc.get("delta") or {"kind": "zero"}
        delta = _built(StepSchedule, delta) if delta["kind"] != "zero" else None
        if delta is not None and kind != "custom_map":
            raise ConfigError([f"delta: only custom_map runs are enlarged, not {kind!r}"])

        guard_radius = float(doc.get("guard_radius", 1e3))
        resolved = _resolve_problem(problem, schedule, guard_radius)
        steps = [(label, s.values(n_steps)) for label, s in
                 (("schedule", schedule), ("alpha_schedule", resolved.alpha)) if s is not None]
        _check([f"{label}: the step size reaches 0 within n_steps"
                for label, eps in steps if not eps.min() > 0.0]
               + [f"{label}: the step size passes the float range within n_steps"
                  for label, eps in steps if not eps.max() < math.inf])
        diagnostics = _diagnostics_from_doc(doc.get("diagnostics", {}),
                                            sum(part.shape[0] for part in resolved.start))
        reach = 1.0 if kind == "fictitious_play" else guard_radius  # a profile is in [0, 1]^n
        if not reach / diagnostics["residence_cell_size"] < 2.0 ** 62:  # states have int64 cells
            raise ConfigError([f"diagnostics.residence_cell_size: above {reach / 2.0 ** 62:.6g} "
                               f"required, so that each state has an int64 cell"])
        return cls(name=doc["name"], problem=resolved, n_steps=n_steps, seeds=list(doc["seeds"]),
                   guard_radius=guard_radius, checkpoint_base=checkpoint_base,
                   schedule=schedule, noise=noise, delta=delta,
                   selection_rule=doc.get("selection_rule", DEFAULT_SELECTION_RULE),
                   strict_bounded=doc.get("strict_bounded", False),
                   diagnostics=diagnostics, raw=doc)

    @classmethod
    def from_path(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # also a file that is not UTF-8
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
    if config.schedule is not None:
        out.extend(config.schedule.violations())
    out.extend(config.noise.violations())
    alpha, beta = config.problem.alpha, config.schedule
    if alpha is not None:
        if alpha.kind != beta.kind:
            out.append("heavy ball: alpha and beta schedules of different kinds have "
                       "no positive limit ratio")
        elif alpha.kind == "power" and alpha.rho != beta.rho:
            direction = "0" if alpha.rho > beta.rho else "infinity"
            out.append(f"heavy ball: alpha_i/beta_i tends to {direction}; "
                       "a positive finite limit ratio is required")
        out.extend(f"heavy ball (alpha): {v.split(': ', 1)[1]}" for v in alpha.violations())
    return out


# Running -------------------------------------------------------------------------

def _build_runs(config: ExperimentConfig, seeds: Sequence[int]) -> Iterator[Trajectory]:
    """Execute the configured problem for ``seeds``; the runs come one by one,
    in seed order, as the engine's lockstep batches produce them."""
    prob = config.problem
    if prob.kind == "sgd":
        return run_sgd_seeds(prob.objective, config.schedule, config.noise, config.n_steps,
                             config.guard_radius, seeds, prob.start[0],
                             rule=config.selection_rule)
    if prob.kind == "shb":
        return run_shb_seeds(prob.objective, prob.alpha, config.schedule, config.noise,
                             config.n_steps, config.guard_radius, seeds, *prob.start,
                             rule=config.selection_rule)
    if prob.kind == "fictitious_play":
        return run_fictitious_play_seeds(prob.game, config.n_steps, seeds, xi0=prob.start)
    return run_sa_seeds(prob.start[0], prob.velocity_map, config.schedule, config.noise,
                        config.delta, config.n_steps, config.guard_radius, seeds,
                        rule=config.selection_rule)


_FIELD_BLOCK = 4096  # rows of points per stacked evaluation: bounds its temporaries


def _circulation_field(f: MaxOfSmoothFunction, points: np.ndarray) -> np.ndarray:
    """Min-norm subgradient selection of the objective at each of the (M, n) points."""
    out = np.zeros_like(points)  # heavy-ball states carry (q, p); p's part stays 0
    for r in range(0, points.shape[0], _FIELD_BLOCK):
        block = points[r:r + _FIELD_BLOCK, :f.dimension]
        out[r:r + _FIELD_BLOCK, :f.dimension] = select_subgradients(f, block, "min_norm", None)
    return out


def checkpoint_iterations(n_steps: int, base: int) -> list[int]:
    """Geometric checkpoints base * 2^k, always including the final count."""
    its = []
    m = base
    while m < n_steps:
        its.append(m)
        m *= 2
    its.append(n_steps)
    return its


def _checkpoint_diagnostics(measures: Sequence[OccupationMeasure], iterations: Sequence[int],
                            diag: dict, problem: Problem | None) -> tuple[list[dict], list[dict]]:
    """The entries and cell residences of the checkpoints at ``iterations``,
    each measure a prefix of the last, for ``run`` and ``diagnose`` alike.  The
    ``problem`` adds its objective's circulation (the field evaluated once, on
    the last positions) and centroid gaps; a loose measure has none.  Prefixes
    whose positions span the same box, bit for bit (``tobytes`` tells -0.0 from
    0.0), share one bank and one pass over the samples of the last."""
    def box(k):
        m = measures[k]
        return m.positions.min(axis=0).tobytes() + m.positions.max(axis=0).tobytes()

    f = problem.objective if problem is not None and diag["circulation"] else None
    run_field = _circulation_field(f, measures[-1].positions) if f is not None else None
    probes = diag["centroid_probes"] if problem is not None else None
    q, cell = float(diag["velocity_moment_order"]), float(diag["residence_cell_size"])
    entries, residences = [], []
    for _, run in itertools.groupby(range(len(measures)), box):
        ks = list(run)
        group, last, i = [measures[k] for k in ks], measures[ks[-1]], iterations[ks[-1]]
        bank = TestFunctionBank.from_positions(last.positions, degree=int(diag["bank_degree"]),
                                               n_bumps=int(diag["bank_bumps"]),
                                               seed=int(diag["bank_seed"]))
        new = [{"iteration": int(iterations[k]), "n_samples": m.n_samples,
                "total_weight": m.total_weight, "closed_residuals": residuals, "oscillation": {},
                "velocity_moment": {"order": diag["velocity_moment_order"], "value": moment}}
               for k, m, residuals, moment in zip(ks, group, bank.prefix_closed_residuals(group),
                                                  _prefix_velocity_moments(group, q))]
        for psi in bank.weights:
            for entry, stat in zip(new, _prefix_oscillation_statistics(group, psi)):
                entry["oscillation"][psi.name] = {"average": stat.weighted_average.tolist(),
                                                  "psi_weight": stat.psi_weight}
        cells = _cell_residences(group, cell)
        for entry, masses in zip(new, cells):
            listed = sorted((c for c in masses.items() if c[1] >= 1e-3),
                            key=lambda kv: (-kv[1], kv[0]))[:1000]
            entry["residence_grid"] = {"cell_size": cell,
                                       "cells": [{"cell": list(map(int, c)), "mass": m}
                                                 for c, m in listed]}
        if f is not None:
            for entry, value in zip(new, _prefix_circulations(group, run_field[:i])):
                entry["circulation"] = {"min_norm_subgradient": value}
        for entry, measure in zip(new, group if probes else ()):
            h = plugin_bandwidth(measure)
            try:
                gap = (centroid_membership_gap(measure, problem.velocity_map,
                                               np.asarray(probes, float), h)
                       if problem.velocity_map is not None else None)
            except UndefinedEstimateError:
                gap = None
            entry["centroid"] = {"bandwidth": h, "probes": probes, "gap": gap}
        entries += new
        residences += cells
    return entries, residences


def _write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    m = traj.n_steps
    data = np.column_stack([np.arange(m), traj.clock[:m], traj.states[:m],
                            traj.velocities, traj.steps, traj.deltas, traj.noises])
    write_csv(path, trajectory_columns(traj.dimension), data)


def run_seed(config: ExperimentConfig, seeds: Sequence[int], root: Path | None) -> list[dict]:
    """The summaries of ``seeds``, run in lockstep, with their artifacts under
    ``root``/<seed> when given: what each worker of ``run_experiment`` runs."""
    return [_seed_results(config, traj, s, root)
            for traj, s in zip(_build_runs(config, seeds), seeds)]


def _run_chunk(doc: dict, seeds: Sequence[int], root: Path | None) -> list[dict]:
    return run_seed(ExperimentConfig.from_doc(doc), seeds, root)  # a config does not pickle


def _seed_results(config: ExperimentConfig, traj: Trajectory, seed: int,
                  root: Path | None) -> dict:
    """The diagnostics, summary and artifacts (under ``root``/<seed>) of one seed's run."""
    prob, diag = config.problem, config.diagnostics
    iterations = checkpoint_iterations(traj.n_steps, config.checkpoint_base)
    measures = [accumulate(traj, upto=i) for i in iterations]
    checkpoints, residences = _checkpoint_diagnostics(measures, iterations, diag, prob)

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
    summary.update(prob.extras)
    if prob.equilibrium is not None:
        summary["nash_gap_inf"] = float(np.abs(traj.states[-1] - prob.equilibrium).max())
    if len(measures) >= 2:
        centers = essential_accumulation_estimate(
            measures, float(diag["residence_cell_size"]), float(diag["essential_threshold"]),
            residences)
        summary["essential_cells"] = {
            "cell_size": diag["residence_cell_size"],
            "threshold": diag["essential_threshold"],
            "centers": centers.tolist(),
        }
    summary = finite(summary)

    if root is not None:
        seed_dir = root / str(seed)
        seed_dir.mkdir(parents=True, exist_ok=True)
        # Checkpoint files of an earlier run into this directory would be
        # diagnosed from their old samples or against this run's trajectory.
        for stale in seed_dir.glob("checkpoint_*"):
            if stale.suffix in (".csv", ".json"):
                stale.unlink()
        _write_trajectory_csv(traj, seed_dir / "trajectory.csv")
        # A checkpoint's samples are rows of trajectory.csv: only its sidecar
        # is written, with the config's diagnostics block as given: the
        # defaults are merged in when it is read.
        for m, i in zip(measures, iterations):
            save_checkpoint(m, seed_dir / f"checkpoint_{i}.csv", iteration=i, seed=seed,
                            diagnostics=config.raw.get("diagnostics", {}), prefix=True)
        write_json(seed_dir / "summary.json", summary)
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
    assemble the cross-seed report.  ``run_seed`` runs min(``jobs``, seeds)
    consecutive chunks of the seeds, whose sizes differ by at most one: one
    chunk in this process, more in a pool of one worker each."""
    if isinstance(config, dict):
        config = ExperimentConfig.from_doc(config)
    seed_list = list(seeds) if seeds is not None else list(config.seeds)
    _check(_problems({"seeds": seed_list}, "", _TOP))  # the config's seeds rule
    if not _is_count(jobs, 1):
        raise ValueError(f"jobs: a positive integer required, not {jobs!r}")

    root = None
    if out_dir is not None:
        root = Path(out_dir) / config.name
        root.mkdir(parents=True, exist_ok=True)
        # diagnose would read an earlier run's config for this run's checkpoints
        (root / "manifest.json").unlink(missing_ok=True)

    workers = min(jobs, len(seed_list))
    if workers == 1:
        summaries = run_seed(config, seed_list, root)
    else:
        from concurrent.futures import ProcessPoolExecutor  # imported here: it slows every start
        cuts = [k * len(seed_list) // workers for k in range(workers + 1)]  # sizes within one
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_chunk, config.raw, seed_list[a:b], root)
                       for a, b in zip(cuts, cuts[1:])]
            summaries = [s for f in futures for s in f.result()]

    bounded = sum(1 for s in summaries if s["status"] == "completed") / len(summaries)
    files: list[str] = []
    if root is not None:  # this run's seeds only; another seed's directory is left as it is
        files = sorted(str(p.relative_to(root)) for s in seed_list
                       for p in (root / str(s)).rglob("*") if p.is_file())
        write_json(root / "manifest.json", finite({
            "experiment": config.name,
            "config_hash": config.config_hash(),
            "config": config.raw,
            "bounded_fraction": bounded,
            "files": files,
        }))
    return ExperimentReport(name=config.name, config_hash=config.config_hash(),
                            seed_summaries=summaries, bounded_fraction=bounded,
                            output_dir=root, files=files)


def diagnose_checkpoint(csv_path) -> dict:
    """A checkpoint's entry, recomputed by ``run``'s own call with the sidecar's
    diagnostics block (checked by a config's rules).  The problem comes from
    the ``manifest.json`` two directories up when its ``files`` list this
    sidecar, so the entry equals the summary's on every key; any other
    checkpoint (a loose measure, a seed directory an earlier run left under
    the same name) has no ``circulation`` or ``centroid``."""
    measure, meta = load_checkpoint(csv_path)
    if not _is_count(meta.get("iteration"), 1):
        raise ValueError("checkpoint sidecar: a positive integer iteration required")
    block = meta.get("diagnostics", {})
    _check(_problems(block, "diagnostics", _DIAGNOSTICS))
    diag, problem = _diagnostics_from_doc(block, measure.dimension), None
    seed_dir = Path(csv_path).absolute().parent  # a relative path has its directories too
    manifest = seed_dir.parent / "manifest.json"
    if manifest.exists():
        try:
            run = json.loads(manifest.read_text())
            files = run.get("files") if isinstance(run, dict) else None
            if isinstance(files, list) and f"{seed_dir.name}/{Path(csv_path).stem}.json" in files:
                problem = ExperimentConfig.from_doc(run.get("config")).problem
                if sum(map(len, problem.start)) != measure.dimension:
                    raise ValueError("its config's state is not the checkpoint's dimension")
        except ValueError as exc:  # not JSON, or a config that no longer builds
            raise ValueError(f"{manifest.name}: {exc}") from exc
    entry = _checkpoint_diagnostics([measure], [meta["iteration"]], diag, problem)[0][0]
    entry["sidecar"] = meta
    return finite(entry)

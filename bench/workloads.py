"""The four benchmark workloads.

Each workload builds its inputs from the run seed at set-up, then offers one
pass: a fixed list of operations (library or CLI calls) that the harness runs
back to back and times.  Checking the outputs happens after a pass, outside
the timed region.

    sgd_abs_seeds       run_experiment(doc, out_dir=None): SGD on |x|, 4 seeds,
                        engine-bound, nothing written.
    shb_quad2_pipeline  `svsa run` of heavy ball on quad2 (4-D state, 5 nested
                        checkpoints, circulation on), then `svsa diagnose` on
                        every checkpoint: the write path beside the read path.
    fp_rps_pipeline     `svsa run` of fictitious play on generalized RPS (6-D,
                        never converges, two centroid probes), then diagnose.
    flow_certificates   flow and geometry library calls only: stable zero,
                        recurrence, Euler energy dissipation, enlargement slack,
                        hull distance and projection.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import svsa.cli as cli
import svsa.engine as engine
import svsa.experiments as experiments
import svsa.flow as flow
import svsa.games as games
import svsa.geometry as geometry
import svsa.maps as maps

SCHEDULE = {"kind": "power", "a": 0.5, "rho": 0.6}
NOISE = {"kind": "gaussian", "sigma": 0.5}

# Measure-level diagnostics that `svsa diagnose` must reproduce exactly.
DIAGNOSED_KEYS = ("closed_residuals", "oscillation", "velocity_moment", "residence_grid")

# A point on the cycling attractor of the generalized RPS best-response
# dynamics: the state after 60 time units of min-norm Euler (dt = 1e-2) from
# the pure profile (1, 0, 0, 1, 0, 0), rounded to six digits.
RPS_ORBIT_POINT = [0.147357, 0.300795, 0.551848, 0.147357, 0.300795, 0.551848]
RPS_EQUILIBRIUM = [1.0 / 3.0] * 6
PENNIES_EQUILIBRIUM = [0.5] * 4


def derive_seeds(seed: int, count: int) -> list[int]:
    """Config seeds generated from the run seed."""
    rng = np.random.default_rng([seed, 0x5eed])
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=count)]


def summary_digest(summary: dict) -> str:
    """SHA-256 of the bytes ``run_seed`` writes as summary.json."""
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    """svsa.cli.main in-process, with its standard output captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


@dataclass
class OpResult:
    name: str
    value: Any
    error: BaseException | None
    seconds: float


@dataclass
class PassCheck:
    """What a finished pass produced, judged outside the timed region."""
    problems: list[tuple[int, str]] = field(default_factory=list)  # (op index, message)
    steps: int = 0
    digests: dict[str, str] = field(default_factory=dict)          # seed -> sha256


class Workload:
    name = ""

    def operations(self, out: Path) -> list[tuple[str, Callable[[], Any]]]:
        raise NotImplementedError

    def check(self, results: list[OpResult], out: Path) -> PassCheck:
        raise NotImplementedError


class SgdAbsSeeds(Workload):
    name = "sgd_abs_seeds"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        n_steps = 1_000 if smoke else 25_000
        self.doc = {
            "name": self.name,
            "problem": {"kind": "sgd", "f": "abs", "x0": [1.0]},
            "schedule": SCHEDULE,
            "noise": NOISE,
            "n_steps": n_steps,
            "guard_radius": 100.0,
            "seeds": derive_seeds(seed, 4),
            "checkpoint_base": n_steps,
            "diagnostics": {"circulation": False},
        }

    def operations(self, out):
        return [("run_experiment", lambda: experiments.run_experiment(self.doc, out_dir=None))]

    def check(self, results, out):
        report = results[0].value
        checked = PassCheck()
        if report is None:
            return checked
        for summary in report.seed_summaries:
            if summary["status"] != "completed":
                checked.problems.append((0, f"seed {summary['seed']}: {summary['status']}"))
            checked.steps += summary["n_steps"]
            checked.digests[str(summary["seed"])] = summary_digest(summary)
        if len(report.seed_summaries) != len(self.doc["seeds"]):
            checked.problems.append((0, "a seed is missing from the report"))
        return checked


class CliPipeline(Workload):
    """`svsa run` on a generated config, then `svsa diagnose` per checkpoint."""

    def __init__(self, doc: dict, workdir: Path):
        self.doc = doc
        self.config_path = workdir / f"{self.name}.json"
        self.config_path.write_text(json.dumps(doc, indent=2))
        self.iterations = experiments.checkpoint_iterations(doc["n_steps"],
                                                            doc["checkpoint_base"])

    def _seed_dir(self, out: Path, seed: int) -> Path:
        return out / self.doc["name"] / str(seed)

    def operations(self, out):
        ops = [("run", lambda: _cli(["run", str(self.config_path), "--out", str(out)]))]
        for seed in self.doc["seeds"]:
            for it in self.iterations:
                path = self._seed_dir(out, seed) / f"checkpoint_{it}.csv"
                ops.append(("diagnose", lambda p=path: _cli(["diagnose", str(p)])))
        return ops

    def check(self, results, out):
        checked = PassCheck()
        problems = checked.problems
        for index, result in enumerate(results):
            if result.value is not None and result.value[0] != 0:
                problems.append((index, f"{result.name} exited with {result.value[0]}"))
        for s, seed in enumerate(self.doc["seeds"]):
            path = self._seed_dir(out, seed) / "summary.json"
            try:
                raw = path.read_bytes()
            except OSError as exc:
                problems.append((0, f"seed {seed}: no summary.json ({exc})"))
                continue
            summary = json.loads(raw)
            checked.digests[str(seed)] = hashlib.sha256(raw).hexdigest()
            checked.steps += summary["n_steps"]
            if summary["status"] != "completed":
                problems.append((0, f"seed {seed}: {summary['status']}"))
            by_iteration = {c["iteration"]: c for c in summary["checkpoints"]}
            for k, it in enumerate(self.iterations):
                index = 1 + s * len(self.iterations) + k
                result = results[index]
                if result.value is not None and result.value[0] == 0:
                    entry = json.loads(result.value[1])
                    original = by_iteration.get(it)
                    for key in DIAGNOSED_KEYS:
                        if original is None or entry.get(key) != original.get(key):
                            problems.append((index, f"seed {seed} checkpoint {it}: "
                                                    f"diagnose differs from summary in {key}"))
        return checked


class ShbQuad2Pipeline(CliPipeline):
    name = "shb_quad2_pipeline"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        n_steps, base = (1_000, 100) if smoke else (10_000, 1_000)
        super().__init__({
            "name": self.name,
            "problem": {"kind": "shb", "f": "quad2", "c": 1.0, "q0": [1.0, 1.0]},
            "schedule": SCHEDULE,
            "noise": NOISE,
            "n_steps": n_steps,
            "guard_radius": 100.0,
            "seeds": derive_seeds(seed, 1),
            "checkpoint_base": base,
        }, workdir)


class FpRpsPipeline(CliPipeline):
    name = "fp_rps_pipeline"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        n_steps, base = (600, 200) if smoke else (6_000, 2_000)
        super().__init__({
            "name": self.name,
            "problem": {"kind": "fictitious_play",
                        "game": {"name": "generalized_rps", "a": 1.0, "b": 2.0}},
            "n_steps": n_steps,
            "seeds": derive_seeds(seed, 1),
            "checkpoint_base": base,
            "diagnostics": {"centroid_probes": [RPS_EQUILIBRIUM, RPS_ORBIT_POINT]},
        }, workdir)


class FlowCertificates(Workload):
    name = "flow_certificates"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        scale = 0.1 if smoke else 1.0
        self.pennies = games.game_map(games.matching_pennies())
        self.rps = games.game_map(games.generalized_rps(1.0, 2.0))
        self.sign_descent = maps.negate(maps.clarke_map(maps.abs_value()))
        self.heavy_ball = engine.shb_flow_map(maps.half_square_norm(2), 1.0)
        self.maxsq3 = maps.clarke_map(maps.max_of_squares(3))
        rng = np.random.default_rng([seed, 0xf10])
        # With randomized selections the Euler wobble around this equilibrium
        # outgrows stable_zero_check's 10 dt (1 + |x|) allowance after about
        # t = 0.4 (T = 1 fails on every seed tried), so the horizon stays short.
        self.stable = {"T": 0.3, "dt": 1e-3, "trials": 3}
        self.rps_recurrence = {"T": 20.0, "dt": 1e-2, "eps_return": 0.1, "tau_min": 2.0}
        self.sign_start = [float(rng.uniform(0.3, 1.0))]
        self.sign_recurrence = {"T": 2.0, "dt": 1e-3, "eps_return": 0.05, "tau_min": 1.0}
        self.euler = {"dt": 1e-3, "T": 10.0 * scale}
        n_kinks = 2 if smoke else 12
        self.kinks = []
        for _ in range(n_kinks):
            x = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0], size=3)
            self.kinks.append((x, rng.dirichlet(np.ones(3)), 0.5 * maps.uniform_ball(rng, 3)))
        self.slack_delta = 0.1
        self.hull_points = rng.normal(0.0, 1.0, size=(30 if smoke else 400, 6))
        self.rng_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=3)]

    def operations(self, out):
        return [
            ("stable_zero", self._stable_zero),
            ("recurrence_rps", lambda: flow.recurrence_proxy(
                self.rps, RPS_ORBIT_POINT, rules=("min_norm",), **self.rps_recurrence)),
            ("recurrence_sign_descent", self._sign_recurrence),
            ("euler_heavy_ball", lambda: flow.euler_di(
                self.heavy_ball, [1.0, 1.0, 0.0, 0.0], rule="min_norm", **self.euler)),
            ("enlargement_slack", self._slacks),
            ("hull_queries", self._hull_queries),
        ]

    def _stable_zero(self):
        s = self.stable
        return flow.stable_zero_check(self.pennies, PENNIES_EQUILIBRIUM, s["T"], s["dt"],
                                      trials=s["trials"],
                                      rng=np.random.default_rng(self.rng_seeds[0]))

    def _sign_recurrence(self):
        r = self.sign_recurrence
        return flow.recurrence_proxy(self.sign_descent, self.sign_start, r["T"], r["dt"],
                                     r["eps_return"], r["tau_min"],
                                     rng=np.random.default_rng(self.rng_seeds[1]))

    def _slacks(self):
        rng = np.random.default_rng(self.rng_seeds[2])
        out = []
        for x, weights, offset in self.kinks:
            value = self.maxsq3.evaluate(x)
            y = weights @ value.generators + self.slack_delta * offset
            out.append((value.n_generators,
                        maps.enlargement_slack(self.maxsq3, x, y, self.slack_delta, rng=rng)))
        return out

    def _hull_queries(self):
        value = self.rps.evaluate(RPS_EQUILIBRIUM)
        return value, [(geometry.distance_to_hull(y, value), geometry.project_to_hull(y, value))
                       for y in self.hull_points]

    def _curve_steps(self, params: dict) -> int:
        return int(round(params["T"] / params["dt"]))

    def check(self, results, out):
        checked = PassCheck()
        problems = checked.problems
        values = [r.value for r in results]
        stable, rps_rec, sign_rec, curve, slacks, hull = values
        if stable is not True:
            problems.append((0, "matching-pennies equilibrium not certified as a stable zero"))
        else:
            checked.steps += (1 + 2 * self.stable["trials"]) * self._curve_steps(self.stable)
        if rps_rec is not True:
            problems.append((1, "no return found on the RPS best-response cycle"))
        else:
            checked.steps += self._curve_steps(self.rps_recurrence)
        if sign_rec is not False:
            problems.append((2, "sign descent reported a return to its start"))
        else:
            runs = 1 + 2 * 3  # min_norm once, two randomized rules x 3 restarts
            checked.steps += runs * self._curve_steps(self.sign_recurrence)
        if curve is not None:
            checked.steps += curve.n_points - 1
            dt = curve.dt
            V = 0.5 * np.sum(curve.points[:, :2] ** 2, axis=1) \
                + 0.5 * np.sum(curve.points[:, 2:] ** 2, axis=1)
            target = -np.sum(curve.points[:-1, 2:] ** 2, axis=1)
            error = float(np.abs(np.diff(V) / dt - target).max())
            if error > 5.0 * dt:
                problems.append((3, f"energy-rate error {error:.3g} exceeds 5 dt"))
        if slacks is not None:
            for k, slack in slacks:
                if k != 3:
                    problems.append((4, f"maxsq3 kink value has {k} generators, not 3"))
                if slack > 0.0:
                    problems.append((4, f"positive slack {slack:.3g} for a known member"))
        if hull is not None:
            value, answers = hull
            if value.n_generators != 9:
                problems.append((5, f"RPS equilibrium value has {value.n_generators} "
                                    "generators, not 9"))
            for y, (distance, point) in zip(self.hull_points, answers):
                shifted = geometry.Polytope(value.generators - y)
                certificate = geometry.wolfe_certificate(shifted, point - y)
                if certificate < -geometry.WOLFE_TOL:
                    problems.append((5, f"Wolfe certificate {certificate:.3g} below "
                                        "-WOLFE_TOL"))
                if abs(distance - float(np.linalg.norm(point - y))) > 1e-12 * (1.0 + distance):
                    problems.append((5, "distance and projection disagree"))
        return checked


WORKLOADS = {w.name: w for w in (SgdAbsSeeds, ShbQuad2Pipeline, FpRpsPipeline,
                                 FlowCertificates)}

"""Layer tracing for the svsa benchmark, installed from outside the package.

The tracer wraps public functions of the eight svsa modules at the names their
callers look up (a module that imports a function by name holds its own
reference, so the defining module alone is not enough).  Coarse calls become
spans: name, layer, start, end, parent span and the operation id they belong
to.  Calls made once per recursion or integration step (map evaluations,
selections, best-response draws, min-norm and hull queries, kernel probes)
are aggregated into their parent span as a count plus busy time, so the span
store stays a fixed size however many steps a run takes.

A layer's busy time sums its outermost frames (a frame nested in a frame of
the same layer is not counted twice); its self time sums, over all its
frames, the duration minus the time covered by child frames of any layer.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

import svsa.cli
import svsa.engine
import svsa.experiments
import svsa.flow
import svsa.games
import svsa.geometry
import svsa.maps
import svsa.occupation

LAYERS = ("geometry", "maps", "engine", "occupation", "flow", "games",
          "experiments", "cli")

# Occupation-layer calls that make up the per-checkpoint diagnostics.
DIAGNOSTIC_CALLS = ("occupation.closed_residual", "occupation.circulation",
                    "occupation.oscillation_statistic", "occupation.velocity_moment",
                    "occupation.cell_residences", "occupation.plugin_bandwidth",
                    "occupation.centroid_membership_gap",
                    "occupation.essential_accumulation_estimate")

MB = 1e6


class Tracer:
    """Span store and counters for one traced pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.busy: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self.call_time: dict[str, float] = defaultdict(float)
        self._frames: list[list] = []     # [layer, record or None, child seconds]
        self._open: list[dict] = []       # open span records, innermost last
        self._depth: dict[str, int] = defaultdict(int)
        self._guards: dict[str, int] = defaultdict(int)
        self._op = -1
        self._installed: list[tuple[object, str, object]] = []

    # Operations ---------------------------------------------------------------

    def begin_op(self, name: str) -> None:
        """Open the root span of one benchmark operation."""
        self._op += 1
        self._push("bench", f"op.{name}", span=True)
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        self._pop(self._frames[-1], self._op_start, time.perf_counter(), "op")

    # Frames -------------------------------------------------------------------

    def _push(self, layer: str, name: str, span: bool) -> list:
        record = None
        if span:
            record = {"id": len(self.spans), "name": name, "layer": layer,
                      "op": self._op, "parent": self._open[-1]["id"] if self._open else None,
                      "start": 0.0, "end": 0.0, "self_s": 0.0, "agg": {}}
            self.spans.append(record)
            self._open.append(record)
        frame = [layer, record, 0.0]
        self._frames.append(frame)
        self._depth[layer] += 1
        return frame

    def _pop(self, frame: list, start: float, end: float, name: str) -> None:
        self._frames.pop()
        layer, record, child = frame
        duration = end - start
        own = duration - child
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.busy[layer] += duration
        self.own[layer] += own
        self.call_time[name] += duration
        if self._frames:
            self._frames[-1][2] += duration
        if record is not None:
            self._open.pop()
            record["start"], record["end"], record["self_s"] = start, end, own
        else:
            agg = self._open[-1]["agg"]
            entry = agg.get(name)
            if entry is None:
                agg[name] = [1, duration]
            else:
                entry[0] += 1
                entry[1] += duration

    def wrap(self, fn, layer: str, name: str, span: bool, guard: str | None, observe):
        """A traced stand-in for ``fn``.  Calls nested inside another call that
        holds the same ``guard`` pass straight through, uncounted."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if guard is not None:
                if tracer._guards[guard]:
                    return fn(*args, **kwargs)
                tracer._guards[guard] += 1
            frame = tracer._push(layer, name, span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._pop(frame, start, clock(), name)
                if guard is not None:
                    tracer._guards[guard] -= 1
                if observe is not None:
                    observe(tracer.counters, args, None, exc)
                raise
            tracer._pop(frame, start, clock(), name)
            if guard is not None:
                tracer._guards[guard] -= 1
            if observe is not None:
                observe(tracer.counters, args, result, None)
            return result

        return traced

    # Installation -------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, layer, name, span, guard, observe in _sites():
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer, name, span, guard, observe))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # Results ------------------------------------------------------------------

    def store_bytes(self) -> int:
        """Serialized size of the span store."""
        return len(json.dumps(self.spans))

    def layer_metrics(self) -> dict[str, float]:
        c, busy, own, t = self.counters, self.busy, self.own, self.call_time
        steps = c["engine.steps"]
        write_mb = c["occupation.checkpoint_write_bytes"] / MB
        write_s = t["occupation.save_checkpoint"]
        return {
            "engine.calls": c["engine.calls"],
            "engine.steps": steps,
            "engine.busy_s": busy["engine"],
            "engine.self_s": own["engine"],
            "engine.us_per_step": 1e6 * busy["engine"] / steps if steps else 0.0,
            "maps.evaluations": c["maps.evaluations"],
            "maps.busy_s": busy["maps"],
            "maps.kink_share": _share(c["maps.kinks"], c["maps.evaluations"]),
            "geometry.min_norm_calls": c["geometry.min_norm_calls"],
            "geometry.multi_generator_share": _share(c["geometry.multi_generator"],
                                                     c["geometry.min_norm_calls"]),
            "geometry.hull_queries": c["geometry.hull_queries"],
            "geometry.busy_s": busy["geometry"],
            "games.best_response_calls": c["games.best_response_calls"],
            "games.busy_s": busy["games"],
            "occupation.accumulate_calls": c["occupation.accumulate_calls"],
            "occupation.samples_accumulated": c["occupation.samples_accumulated"],
            "occupation.field_rows": c["occupation.field_rows"],
            "occupation.diagnostics_s": sum(t[name] for name in DIAGNOSTIC_CALLS),
            "occupation.checkpoint_write_s": write_s,
            "occupation.checkpoint_write_mb": write_mb,
            "occupation.checkpoint_write_mb_per_s": write_mb / write_s if write_s else 0.0,
            "occupation.checkpoint_load_s": t["occupation.load_checkpoint"],
            "occupation.centroid_defined_share": _share(c["occupation.centroid_defined"],
                                                        c["occupation.centroid_probes"]),
            "experiments.busy_s": busy["experiments"],
            "experiments.self_s": own["experiments"],
            "experiments.trajectory_mb": c["experiments.trajectory_bytes"] / MB,
            "flow.euler_calls": c["flow.euler_calls"],
            "flow.euler_steps": c["flow.euler_steps"],
            "flow.busy_s": busy["flow"],
            "flow.witness_share": _share(c["flow.witnesses"], c["flow.certificate_queries"]),
            "cli.commands": c["cli.commands"],
            "cli.self_s": own["cli"],
            "cli.nonzero_exits": c["cli.nonzero_exits"],
        }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# Observers: (counters, args, result, exception) -> None ----------------------------

def _count(key):
    def observe(c, args, result, exc):
        c[key] += 1
    return observe


def _engine_run(c, args, result, exc):
    c["engine.calls"] += 1
    if result is not None:
        c["engine.steps"] += result.n_steps


def _map_evaluation(c, args, result, exc):
    c["maps.evaluations"] += 1
    if result is not None and result.generators.shape[0] > 1:
        c["maps.kinks"] += 1


def _min_norm(c, args, result, exc):
    c["geometry.min_norm_calls"] += 1
    if args[0].generators.shape[0] > 1:
        c["geometry.multi_generator"] += 1


def _accumulate(c, args, result, exc):
    c["occupation.accumulate_calls"] += 1
    if result is not None:
        c["occupation.samples_accumulated"] += result.n_samples


def _field_rows(c, args, result, exc):
    c["occupation.field_rows"] += args[0].n_samples


def _checkpoint_write(c, args, result, exc):
    if result is not None:
        c["occupation.checkpoint_write_bytes"] += sum(os.path.getsize(p) for p in result)


def _centroid_probe(c, args, result, exc):
    c["occupation.centroid_probes"] += 1
    if exc is None:
        c["occupation.centroid_defined"] += 1


def _trajectory_write(c, args, result, exc):
    if exc is None:
        c["experiments.trajectory_bytes"] += os.path.getsize(args[1])


def _euler(c, args, result, exc):
    c["flow.euler_calls"] += 1
    if result is not None:
        c["flow.euler_steps"] += result.n_points - 1


def _certificate(c, args, result, exc):
    c["flow.certificate_queries"] += 1
    if result:
        c["flow.witnesses"] += 1


def _cli_main(c, args, result, exc):
    c["cli.commands"] += 1
    if exc is not None or result != 0:
        c["cli.nonzero_exits"] += 1


def _sites():
    """(owner, attribute, layer, name, span, guard, observer) for every
    lookup site the benchmark's workloads reach."""
    cli, eng, exp, flw = svsa.cli, svsa.engine, svsa.experiments, svsa.flow
    gam, geo, mps, occ = svsa.games, svsa.geometry, svsa.maps, svsa.occupation
    sites = []

    def add(owners, attr, layer, name, span, guard=None, observe=None):
        for owner in owners:
            sites.append((owner, attr, layer, name, span, guard, observe))

    # cli
    add([cli], "main", "cli", "cli.main", True, observe=_cli_main)
    # experiments
    add([cli, exp], "run_experiment", "experiments", "experiments.run_experiment", True,
        guard="experiments.run")
    add([exp], "run_seed", "experiments", "experiments.run_seed", True)
    add([exp], "_checkpoint_diagnostics", "experiments", "experiments.checkpoint_diagnostics",
        True)
    add([exp], "_write_trajectory_csv", "experiments", "experiments.write_trajectory_csv",
        True, observe=_trajectory_write)
    add([cli], "diagnose_checkpoint", "experiments", "experiments.diagnose_checkpoint", True)
    # engine: run_sgd calls run_sa through the engine module
    for attr in ("run_sgd", "run_shb", "run_fictitious_play", "run_sa"):
        add([exp], attr, "engine", f"engine.{attr}", True, guard="engine.run",
            observe=_engine_run)
    add([eng], "run_sa", "engine", "engine.run_sa", True, guard="engine.run",
        observe=_engine_run)
    # occupation
    add([exp], "accumulate", "occupation", "occupation.accumulate", True,
        observe=_accumulate)
    add([exp], "save_checkpoint", "occupation", "occupation.save_checkpoint", True,
        observe=_checkpoint_write)
    add([exp], "load_checkpoint", "occupation", "occupation.load_checkpoint", True)
    add([exp], "circulation", "occupation", "occupation.circulation", True,
        observe=_field_rows)
    add([exp], "essential_accumulation_estimate", "occupation",
        "occupation.essential_accumulation_estimate", True)
    add([exp], "centroid_membership_gap", "occupation",
        "occupation.centroid_membership_gap", True)
    for attr, name in (("closed_residual", "closed_residual"),
                       ("oscillation_statistic", "oscillation_statistic"),
                       ("velocity_moment", "velocity_moment"),
                       ("_cell_residences", "cell_residences"),
                       ("plugin_bandwidth", "plugin_bandwidth")):
        add([exp], attr, "occupation", f"occupation.{name}", False)
    add([occ], "centroid_field_estimate", "occupation", "occupation.centroid_field_estimate",
        False, observe=_centroid_probe)
    # flow: recurrence_proxy and stable_zero_check call euler_di through flow
    add([flw], "euler_di", "flow", "flow.euler_di", True, observe=_euler)
    add([flw], "recurrence_proxy", "flow", "flow.recurrence_proxy", True,
        observe=_certificate)
    add([flw], "stable_zero_check", "flow", "flow.stable_zero_check", True,
        observe=_certificate)
    # maps: a map evaluation may nest (negate wraps the subdifferential map),
    # so only the outermost one counts
    add([mps.SetValuedMap], "evaluate", "maps", "maps.evaluate", False,
        guard="maps.evaluate", observe=_map_evaluation)
    add([eng, mps, exp], "clarke_subdifferential", "maps", "maps.clarke_subdifferential",
        False, guard="maps.evaluate", observe=_map_evaluation)
    add([eng, mps, flw], "_select_from", "maps", "maps.select", False)
    add([mps], "enlargement_slack", "maps", "maps.enlargement_slack", True)
    # games: strategy_draw and game_map both go through best_response_indices
    add([gam], "strategy_draw", "games", "games.strategy_draw", False)
    add([gam], "best_response_indices", "games", "games.best_response_indices", False,
        observe=_count("games.best_response_calls"))
    # geometry
    add([geo, mps, exp], "min_norm_point", "geometry", "geometry.min_norm_point", False,
        observe=_min_norm)
    add([geo, mps, flw, occ], "distance_to_hull", "geometry", "geometry.distance_to_hull",
        False, observe=_count("geometry.hull_queries"))
    add([geo], "project_to_hull", "geometry", "geometry.project_to_hull", False,
        observe=_count("geometry.hull_queries"))
    return sites

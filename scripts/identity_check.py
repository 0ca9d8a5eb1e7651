"""Check that this checkout writes the same results as another one.

    python3 scripts/identity_check.py --baseline DIR [--work DIR]

Runs a fixed list of experiment configs with the svsa package of each
checkout (this one and ``--baseline``, say the parent commit made with
``git archive`` or ``git clone``): small sgd, heavy-ball, fictitious-play and
custom-map runs, runs whose test-function banks have degree 0 (1-D), 1 (3-D)
and 5 (4-D), an escaping run, the three run workloads of
``bench/workloads.py`` at seed 7, a heavy-ball run with four checkpoints,
and fictitious play with centroid probes, from the uniform start (both
players tie at step 0) and on an integer-payoff 3-player game that ties
often, so the uniform draw over ties is compared.  Seeds of a
config are stepped in lockstep, so several configs run a few seeds at once:
sgd on maxsq3 from a tie with random vertices (kinks on most steps), heavy
ball on maxsq2, and sgd on |x| where some seeds escape mid-run and the others
complete (the script fails if that config does not show both statuses).
A constant-step doubling map overflows at its second step, so its
trajectory.csv holds an ``inf`` velocity, written by both checkouts (the
script fails if no ``inf`` or ``-inf`` entry is in it).
Constant-step noisy sgd on quad1 wanders, so the box of its positions, and
with it the test-function bank, grows after the first checkpoint (the script
fails if its checkpoints do not span at least two boxes).  The
heavy-ball seeds config and the mixed-status config also run with ``jobs=2``,
under ``pooled/``: two workers, each stepping a chunk of consecutive seeds in
lockstep (the mixed config's chunks [1, 2] and [3, 4] each hold one escape);
the script fails unless each pooled config writes the same bytes, manifest
included, as its ``jobs=1`` run in the same checkout.  Then
it runs ``svsa diagnose`` on every checkpoint, named ``checkpoint_<N>.csv`` as
on the command line, and loads it with ``occupation.load_checkpoint``: the
SHA-256 of the bytes of the measure's positions, velocities and weights go to
``measures/<seed dir>/checkpoint_<N>.txt``, so a measure that differs shows
even where the diagnose output would not.  Last it runs the six operations of
the ``flow_certificates`` workload at seed 7, writes every Euler curve they
integrate with ``Curve.save_csv`` (``flow/curve_<k>.csv``, in the order they
were integrated), the state of the generator each curve drew from, taken
right after it (``flow/curve_<k>.rng.json``, ``null`` for a curve without
one), so a skipped or added draw shows, and their results as JSON
(``flow/results.json``: the certificate booleans, the enlargement slacks, the
hull distances and projections).

It compares byte for byte: every summary.json, trajectory.csv and checkpoint
sidecar, manifest.json without its ``files`` list, every diagnose exit code
and standard output, every checkpoint's measure digests, and the flow curves,
generator states and results.  A run stores every checkpoint as its sidecar
alone, so a file that only one checkout writes, a checkpoint CSV included, is
a difference.
Every JSON file and every diagnose standard output, on both sides, must also
parse as strict JSON, with ``NaN`` and ``Infinity`` rejected (JSON has
neither); each that does not is printed as ``NOT JSON: <file>``.  Within each
side, every diagnose must also exit 0 and print its seed's summary.json entry
for that checkpoint on every key, with ``sidecar`` the checkpoint's sidecar,
since ``run`` and ``diagnose`` make an entry by the same call; each that does
not is printed as ``NOT THE SUMMARY: <file>``.  It prints each difference and
exits 1 if there is a difference, a file that is not JSON or a diagnose that
is not the summary, 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

SCHEDULE = {"kind": "power", "a": 0.5, "rho": 0.6}


def _sgd(name: str, **extra) -> dict:
    return {"name": name, "problem": {"kind": "sgd", "f": "abs", "x0": [1.0]},
            "schedule": SCHEDULE, "noise": {"kind": "gaussian", "sigma": 0.5},
            "n_steps": 4000, "guard_radius": 100.0, "seeds": [1, 2],
            "checkpoint_base": 1000, **extra}


MIXED_STATUSES = "sgd_abs_escapes_mixed"  # seeds 1 and 4 escape, 2 and 3 complete
GROWING_BOX = "sgd_quad1_growing_box"
OVERFLOW = "doubling_overflow"  # x_2 = inf, so the velocity v_1 is inf
SHB_SEEDS = {"name": "shb_maxsq2_seeds",
             "problem": {"kind": "shb", "f": "maxsq2", "q0": [1.0, -1.0]},
             "schedule": SCHEDULE, "noise": {"kind": "gaussian", "sigma": 0.3},
             "n_steps": 1000, "seeds": [1, 2, 3], "checkpoint_base": 250}
POOLED = (SHB_SEEDS["name"], MIXED_STATUSES)  # rerun with jobs=2 (two workers) under pooled/

CONFIGS = [
    _sgd("sgd_abs_small"),
    _sgd("sgd_abs_diag", diagnostics={"bank_degree": 2, "bank_bumps": 1,
                                      "residence_cell_size": 0.05}),
    # Banks whose monomial gradients read no power (degree 0 has no monomial,
    # degree 1 only constant columns) and up to three factors a column (5, 4-D).
    _sgd("sgd_abs_bank0", diagnostics={"bank_degree": 0, "bank_bumps": 1}),
    {"name": "sgd_maxsq3_bank1",
     "problem": {"kind": "sgd", "f": "maxsq3", "x0": [1.0, -0.5, 0.25]},
     "schedule": SCHEDULE, "noise": {"kind": "gaussian", "sigma": 0.3},
     "n_steps": 600, "guard_radius": 50.0, "seeds": [2], "checkpoint_base": 200,
     "diagnostics": {"bank_degree": 1}},
    {"name": "shb_maxsq2_bank5",
     "problem": {"kind": "shb", "f": "maxsq2", "q0": [1.0, -1.0]},
     "schedule": SCHEDULE, "noise": {"kind": "gaussian", "sigma": 0.3},
     "n_steps": 1000, "seeds": [5], "checkpoint_base": 250,
     "diagnostics": {"bank_degree": 5, "bank_bumps": 0}},
    {"name": "runaway",
     "problem": {"kind": "custom_map", "map": "doubling", "dim": 1, "x0": [1.0]},
     "schedule": {"kind": "constant", "a": 1.0}, "n_steps": 50, "guard_radius": 5.0,
     "seeds": [0], "checkpoint_base": 10},
    {"name": "fp_mp",
     "problem": {"kind": "fictitious_play", "game": "matching_pennies",
                 "xi0": [[1.0, 0.0], [1.0, 0.0]]},
     "n_steps": 4000, "seeds": [1], "checkpoint_base": 1000,
     "diagnostics": {"centroid_probes": [[0.5, 0.5, 0.5, 0.5], [0.9, 0.1, 0.2, 0.8]]}},
    {"name": "sgd_maxsq2",
     "problem": {"kind": "sgd", "f": "maxsq2", "x0": [1.0, -0.5]},
     "schedule": SCHEDULE, "noise": {"kind": "gaussian", "sigma": 0.3},
     "n_steps": 600, "guard_radius": 50.0, "seeds": [1], "checkpoint_base": 200,
     "diagnostics": {"bank_degree": 2, "centroid_probes": [[0.0, 0.0]]}},
    {"name": "shb_quad1",
     "problem": {"kind": "shb", "f": "quad1", "c": 1.5, "q0": [1.0], "p0": [0.2],
                 "alpha_schedule": {"kind": "power", "a": 0.4, "rho": 0.6}},
     "schedule": SCHEDULE, "noise": {"kind": "student_t", "df": 4.0, "scale": 0.2},
     "n_steps": 600, "seeds": [2], "checkpoint_base": 200},
    {"name": "sign_descent",
     "problem": {"kind": "custom_map", "map": "sign_descent", "dim": 1, "x0": [0.7]},
     "schedule": {"kind": "logarithmic", "a": 0.3},
     "delta": {"kind": "power", "a": 0.2, "rho": 0.3},
     "noise": {"kind": "uniform_ball", "radius": 0.1},
     "n_steps": 600, "seeds": [4], "checkpoint_base": 200,
     "diagnostics": {"residence_cell_size": 0.05, "essential_threshold": 0.1,
                     "velocity_moment_order": 3, "bank_bumps": 2, "bank_seed": 5,
                     "centroid_probes": [[0.0], [0.5]]}},
    {"name": "shb_maxsq2_base250",
     "problem": {"kind": "shb", "f": "maxsq2", "q0": [1.0, 0.5]},
     "schedule": SCHEDULE, "noise": {"kind": "gaussian", "sigma": 0.3},
     "n_steps": 2000, "seeds": [1], "checkpoint_base": 250},
    {"name": "fp_mp_uniform",
     "problem": {"kind": "fictitious_play", "game": "matching_pennies"},
     "n_steps": 2000, "seeds": [1, 2], "checkpoint_base": 500},
    {"name": "fp_three_player_ties",
     "problem": {"kind": "fictitious_play", "game": {
         "name": "three_player_ties", "players": 3, "action_counts": [2, 3, 2],
         "payoff_tensors": [[[[1, 0], [0, -1], [1, 0]], [[0, -1], [1, 0], [0, -1]]],
                            [[[0, 1], [1, 0], [0, 1]], [[0, 1], [1, 0], [0, 1]]],
                            [[[1, 0], [1, 0], [0, -1]], [[0, 1], [0, 1], [-1, 0]]]]}},
     "n_steps": 2000, "seeds": [3], "checkpoint_base": 500,
     "diagnostics": {"centroid_probes": [[0.5, 0.5, 1 / 3, 1 / 3, 1 / 3, 0.5, 0.5],
                                         [1.0, 0.0, 0.0, 1.0, 0.0, 0.5, 0.5]]}},
    {"name": "sgd_maxsq3_tie_seeds",
     "problem": {"kind": "sgd", "f": "maxsq3", "x0": [1.0, -1.0, 1.0]},
     "schedule": {"kind": "constant", "a": 0.1}, "selection_rule": "random_vertex",
     "n_steps": 600, "seeds": [1, 2, 3, 4], "checkpoint_base": 200},
    SHB_SEEDS,
    _sgd(MIXED_STATUSES, schedule={"kind": "constant", "a": 0.05},
         noise={"kind": "gaussian", "sigma": 4.0}, n_steps=3000, guard_radius=2.5,
         seeds=[1, 2, 3, 4], checkpoint_base=500),
    {"name": GROWING_BOX, "problem": {"kind": "sgd", "f": "quad1", "x0": [0.0]},
     "schedule": {"kind": "constant", "a": 0.01}, "noise": {"kind": "gaussian", "sigma": 1.0},
     "n_steps": 4000, "seeds": [3], "checkpoint_base": 250},
    {"name": OVERFLOW,
     "problem": {"kind": "custom_map", "map": "doubling", "dim": 1, "x0": [1.0]},
     "schedule": {"kind": "constant", "a": 1e300}, "n_steps": 50, "guard_radius": 1e308,
     "seeds": [0], "checkpoint_base": 10, "diagnostics": {"residence_cell_size": 1e290}},
]
WORKLOAD_SEED = 7
RUN_WORKLOADS = ("sgd_abs_seeds", "shb_quad2_pipeline", "fp_rps_pipeline")


def produce(out: Path) -> None:
    """Run every config with the svsa package on sys.path and diagnose every
    checkpoint; diagnose results go to ``out/diagnose``."""
    sys.path.insert(0, str(ROOT / "bench"))
    import svsa.cli
    import svsa.experiments as experiments
    import workloads

    configs = CONFIGS + [workloads.WORKLOADS[name](WORKLOAD_SEED, out, False).doc
                         for name in RUN_WORKLOADS]
    runs = out / "runs"
    for doc in configs:
        report = experiments.run_experiment(doc, out_dir=runs)
        statuses = {s["status"] for s in report.seed_summaries}
        if doc["name"] == MIXED_STATUSES and statuses != {"completed", "escaped"}:
            raise SystemExit(f"{MIXED_STATUSES}: statuses {sorted(statuses)}, not both")
        if doc["name"] == GROWING_BOX and len(boxes := checkpoint_boxes(runs / GROWING_BOX)) < 2:
            raise SystemExit(f"{GROWING_BOX}: the checkpoints span {len(boxes)} box, not two")
        if doc["name"] == OVERFLOW and not {"inf", "-inf"} & set(
                (runs / OVERFLOW / "0" / "trajectory.csv").read_text().replace("\n", ",")
                .split(",")):
            raise SystemExit(f"{OVERFLOW}: no inf entry in its trajectory.csv")
        if doc["name"] in POOLED:
            experiments.run_experiment(doc, out_dir=out / "pooled", jobs=2)
            serial, pooled = (file_bytes(root / doc["name"]) for root in (runs, out / "pooled"))
            differ = sorted(rel for rel in serial.keys() | pooled.keys()
                            if serial.get(rel) != pooled.get(rel))
            if differ:
                raise SystemExit(f"{doc['name']}: jobs=2 wrote other bytes than jobs=1: "
                                 f"{', '.join(differ)}")
    for sidecar in sorted(runs.rglob("checkpoint_*.json")):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = svsa.cli.main(["diagnose", str(sidecar.with_suffix(".csv"))])
        rel = sidecar.relative_to(runs).with_suffix(".txt")
        for kind, text in (("diagnose", f"exit {code}\n{stdout.getvalue()}"),
                           ("measures", measure_digests(sidecar.with_suffix(".csv")))):
            (out / kind / rel).parent.mkdir(parents=True, exist_ok=True)
            (out / kind / rel).write_text(text)
    produce_flow(out / "flow")


def measure_digests(csv_path: Path) -> str:
    """The SHA-256 of the bytes of the positions, velocities and weights that
    ``load_checkpoint`` reads for a checkpoint, with their shapes, one line each."""
    from svsa.occupation import load_checkpoint

    measure, _ = load_checkpoint(csv_path)
    return "".join(f"{name} {array.shape} {hashlib.sha256(array.tobytes()).hexdigest()}\n"
                   for name, array in (("positions", measure.positions),
                                       ("velocities", measure.velocities),
                                       ("weights", measure.weights)))


def file_bytes(directory: Path) -> dict[str, bytes]:
    """Relative path -> bytes of every file under ``directory``."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in directory.rglob("*") if p.is_file()}


def checkpoint_boxes(experiment: Path) -> set[bytes]:
    """The distinct boxes, min and max of the positions as bits, that the prefix
    checkpoints of each seed of an experiment span."""
    boxes = set()
    for trajectory in experiment.glob("*/trajectory.csv"):
        summary = json.loads((trajectory.parent / "summary.json").read_text())
        n = len(summary["final_state"])
        states = np.loadtxt(trajectory, delimiter=",", skiprows=1, usecols=range(2, 2 + n),
                            ndmin=2)
        boxes |= {states[:i].min(axis=0).tobytes() + states[:i].max(axis=0).tobytes()
                  for i in (c["iteration"] for c in summary["checkpoints"])}
    return boxes


def produce_flow(out: Path) -> None:
    """Run the flow_certificates operations at WORKLOAD_SEED; write every Euler
    curve they integrate, the state of its generator after it (null without
    one) and their results."""
    import svsa.flow as flow
    import workloads

    curves, euler_di = [], flow.euler_di

    def recorded(H, x0, dt, T, rule="min_norm", rng=None):
        curve = euler_di(H, x0, dt, T, rule=rule, rng=rng)
        curves.append((curve, None if rng is None else rng.bit_generator.state))
        return curve

    flow.euler_di = recorded  # recurrence_proxy and stable_zero_check look it up here
    try:
        workload = workloads.WORKLOADS["flow_certificates"](WORKLOAD_SEED, out, False)
        results = {name: operation() for name, operation in workload.operations(out)}
    finally:
        flow.euler_di = euler_di
    out.mkdir(parents=True)
    for k, (curve, state) in enumerate(curves):
        curve.save_csv(out / f"curve_{k:02d}.csv")
        (out / f"curve_{k:02d}.rng.json").write_text(json.dumps(state, sort_keys=True) + "\n")
    (out / "results.json").write_text(json.dumps(_plain(results), indent=1) + "\n")


def _plain(value):
    """An operation's result for JSON: arrays as lists, a polytope as its
    generators, a curve as its length (its CSV holds the points)."""
    import svsa.flow as flow
    from svsa.geometry import Polytope

    if isinstance(value, flow.Curve):
        return {"curve_points": value.n_points}
    if isinstance(value, Polytope):
        value = value.generators
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def compared_files(out: Path) -> dict[str, bytes]:
    """Relative path -> the bytes compared; manifest.json without its file list."""
    files = {}
    for path in sorted(out.rglob("*")):
        rel = str(path.relative_to(out))
        if not path.is_file():
            continue
        if path.name == "manifest.json":
            manifest = json.loads(path.read_bytes())
            manifest.pop("files", None)
            files[rel] = json.dumps(manifest, sort_keys=True).encode()
        else:
            files[rel] = path.read_bytes()
    return files


def _reject(constant: str):
    raise ValueError(f"{constant} is not JSON")


def not_json(out: Path) -> list[str]:
    """The JSON files and diagnose standard outputs under ``out`` that are not
    strict JSON."""
    bad = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = str(path.relative_to(out))
        if path.suffix == ".json":
            text = path.read_bytes()
        elif rel.startswith("diagnose"):
            text = path.read_bytes().split(b"\n", 1)[1]  # after the "exit <code>" line
            if not text:  # a failed diagnose prints nothing
                continue
        else:
            continue
        try:
            json.loads(text, parse_constant=_reject)
        except ValueError:
            bad.append(f"{out.name}/{rel}")
    return bad


def not_the_summary(out: Path) -> list[str]:
    """The diagnose outputs under ``out`` that failed or differ on some key from
    the summary entry of their checkpoint, ``sidecar`` from its sidecar file."""
    def canonical(doc) -> str:
        return json.dumps(doc, sort_keys=True)

    bad = []
    for path in sorted((out / "diagnose").rglob("*.txt")):
        rel = path.relative_to(out / "diagnose")
        status, _, text = path.read_text().partition("\n")
        summary = json.loads((out / "runs" / rel.parent / "summary.json").read_text())
        iteration = int(rel.stem.split("_")[1])
        want = [c for c in summary["checkpoints"] if c["iteration"] == iteration]
        sidecar = json.loads((out / "runs" / rel.with_suffix(".json")).read_text())
        entry = json.loads(text) if status == "exit 0" else {}  # a failure prints nothing
        printed_sidecar = entry.pop("sidecar", None)
        if ([canonical(entry)] != [canonical(c) for c in want]
                or canonical(printed_sidecar) != canonical(sidecar)):
            bad.append(f"{out.name}/diagnose/{rel}")
    return bad


def run_side(checkout: Path, out: Path) -> tuple[dict[str, bytes], list[str], list[str]]:
    shutil.rmtree(out, ignore_errors=True)  # a rerun in the same --work starts afresh
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--produce", str(out)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: producing the runs failed ({proc.returncode}):\n"
                         f"{proc.stderr[-3000:]}")
    return compared_files(out), not_json(out), not_the_summary(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", type=Path, help="the checkout to compare with")
    parser.add_argument("--work", type=Path, help="where to write both sides' runs "
                        "(default: a temporary directory, removed at the end)")
    parser.add_argument("--produce", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.produce is not None:
        produce(args.produce)
        return 0
    if args.baseline is None:
        parser.error("--baseline is required")

    with contextlib.ExitStack() as stack:
        work = args.work or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        before, bad, unlike = run_side(args.baseline, work / "before")
        after, bad_after, unlike_after = run_side(ROOT, work / "after")
        bad += bad_after
        unlike += unlike_after
        differ = sorted(rel for rel in before.keys() | after.keys()
                        if before.get(rel) != after.get(rel))
        for rel in differ:
            print(f"DIFFERS: {rel}")
        for rel in bad:
            print(f"NOT JSON: {rel}")
        for rel in unlike:
            print(f"NOT THE SUMMARY: {rel}")
        compared = len(before.keys() | after.keys())
        print(f"{compared - len(differ)} of {compared} files identical "
              f"({sum(rel.startswith('diagnose') for rel in after)} diagnose outputs, "
              f"{sum(rel.startswith('measures') for rel in after)} measure digests)")
    return 1 if differ or bad or unlike else 0


if __name__ == "__main__":
    sys.exit(main())

"""svsa benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Load is a closed loop from this single process and thread: the workload's
operations run back to back, one pass after another, until the next pass
would end past ``--seconds``.  Every pass is checked for correct outputs
outside its timed region.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` half
the time runs untraced and half traced, and the JSON carries the per-layer
metrics.  Each timing is the median over passes.  Set-up (importing svsa,
building configs, games and temp dirs) is timed in several fresh
interpreters plus this one, and its median is reported.

A fixed calibration kernel (``calibration.py``) runs before the first pass,
after every pass and after every set-up; the JSON's times are divided by the
kernel time around them and read in reference-host seconds (``*_ref_s``,
``setup_s``), so that the drift of a shared host's speed cancels.  The table
above the JSON also prints the raw wall-clock figures.

``--smoke`` shrinks every workload to a tiny size for the self-test
(``python3 bench/selftest.py``).  Scratch files live under ``.bench_work/``
in the checkout; the span store of a traced run is written to
``.bench_work/traces/`` when the run ends.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import calibration

# One thread of load: numpy's BLAS pool would otherwise spin on the second core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

WORKLOAD_NAMES = ("sgd_abs_seeds", "shb_quad2_pipeline", "fp_rps_pipeline",
                  "flow_certificates")
SETUP_PROBES = 8            # fresh interpreters timed besides this one
ROADMAP_US_PER_STEP = 19.7  # run_sgd on abs, per step, before this benchmark existed
# Span store bound per traced pass: per-step calls are aggregated, so it does
# not grow with the number of steps.
TRACE_STORE_LIMIT_KIB = 64
MB = 1e6

# The JSON result: times in reference-host seconds (see calibration.py).
END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "steps_per_ref_s": "1/s",
                    "peak_rss_mb": "MB"}
# Printed in the table for every workload but left out of the JSON result: the
# raw wall-clock figures drift with the host's speed, and the rest are zero on
# some workloads, so no regression bound can apply to them.
REPORTED_UNITS = {"wall_s": "s", "setup_raw_s": "s", "steps_per_s": "1/s",
                  "artifact_mb": "MB", "diagnose_s": "s", "failed_ops_share": "ratio",
                  "host_speed": "ratio"}
LAYER_UNITS = {
    "engine.calls": "count", "engine.steps": "count", "engine.busy_s": "s",
    "engine.self_s": "s", "engine.us_per_step": "us/step",
    "maps.evaluations": "count", "maps.busy_s": "s", "maps.kink_share": "ratio",
    "geometry.min_norm_calls": "count", "geometry.multi_generator_share": "ratio",
    "geometry.hull_queries": "count", "geometry.busy_s": "s",
    "games.best_response_calls": "count", "games.busy_s": "s",
    "occupation.accumulate_calls": "count", "occupation.samples_accumulated": "count",
    "occupation.field_rows": "count", "occupation.diagnostics_s": "s",
    "occupation.checkpoint_write_s": "s", "occupation.checkpoint_write_mb": "MB",
    "occupation.checkpoint_write_mb_per_s": "MB/s", "occupation.checkpoint_load_s": "s",
    "occupation.centroid_defined_share": "ratio",
    "experiments.busy_s": "s", "experiments.self_s": "s", "experiments.trajectory_mb": "MB",
    "flow.euler_calls": "count", "flow.euler_steps": "count", "flow.busy_s": "s",
    "flow.witness_share": "ratio",
    "cli.commands": "count", "cli.self_s": "s", "cli.nonzero_exits": "count",
    "trace.overhead_share": "ratio", "trace.store_kib": "KiB",
}


@dataclass
class PassStats:
    wall: float
    steps: int
    artifact_bytes: int
    diagnose_s: float
    ops: int
    failed: int
    problems: list[str]
    digests: dict[str, str]
    layers: dict[str, float] | None = None
    self_s: dict[str, float] | None = None
    store_kib: float = 0.0
    kernel: float = 0.0     # calibration kernel seconds around this pass

    @property
    def ref_wall(self) -> float:
        return self.wall * calibration.REFERENCE_S / self.kernel


def set_up(name: str, seed: int, smoke: bool, workdir: Path):
    """Import svsa and build the workload; returns it with the seconds taken."""
    started = time.perf_counter()
    import workloads
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed, workdir, smoke)
    return workload, time.perf_counter() - started


def probe_setup(args) -> list[tuple[float, float]]:
    """Time set-up in fresh interpreters, one after another.

    Each sample is (set-up seconds, calibration kernel seconds just after)."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up failed in a fresh interpreter (exit {proc.returncode})")
        samples.append(tuple(float(v) for v in proc.stdout.split()[-2:]))
    return samples


def run_pass(workload, out: Path, tracer=None) -> PassStats:
    from workloads import OpResult
    out.mkdir(parents=True)
    ops = workload.operations(out)
    results = []
    if tracer is not None:
        tracer.install()
    try:
        started = time.perf_counter()
        for name, fn in ops:
            if tracer is not None:
                tracer.begin_op(name)
            t0 = time.perf_counter()
            try:
                value, error = fn(), None
            except (Exception, SystemExit) as exc:
                value, error = None, exc
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_op()
            results.append(OpResult(name, value, error, t1 - t0))
        wall = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    checked = workload.check(results, out)
    artifact_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    shutil.rmtree(out)
    problems = [f"{r.name}: {type(r.error).__name__}: {r.error}"
                for r in results if r.error is not None]
    problems += [f"{results[i].name}: {message}" for i, message in checked.problems]
    failed = {i for i, r in enumerate(results) if r.error is not None}
    failed |= {i for i, _ in checked.problems}
    stats = PassStats(wall=wall, steps=checked.steps, artifact_bytes=artifact_bytes,
                      diagnose_s=sum(r.seconds for r in results if r.name == "diagnose"),
                      ops=len(results), failed=len(failed), problems=problems,
                      digests=checked.digests)
    if tracer is not None:
        stats.layers = tracer.layer_metrics()
        stats.self_s = dict(tracer.own)
        stats.store_kib = tracer.store_bytes() / 1024
    return stats


def measure(workload, seconds: float, workdir: Path, label: str, make_tracer=None):
    """Closed loop: passes back to back until the next would end past ``seconds``."""
    passes: list[PassStats] = []
    spans: list[list[dict]] = []
    started = time.perf_counter()
    before = calibration.kernel_seconds()
    while True:
        tracer = make_tracer() if make_tracer is not None else None
        stats = run_pass(workload, workdir / f"{label}-{len(passes)}", tracer)
        passes.append(stats)
        if tracer is not None:
            spans.append(tracer.spans)
        after = calibration.kernel_seconds()
        stats.kernel = (before + after) / 2
        before = after
        print(f"pass {label} {len(passes)}: wall {stats.wall:.4f} s, {stats.steps} steps, "
              f"{stats.ops} ops, {stats.failed} failed", flush=True)
        elapsed = time.perf_counter() - started
        if elapsed + median(p.wall + p.kernel for p in passes) > seconds:
            return passes, spans


def machine_header(args) -> list[str]:
    def cpu_model() -> str:
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def l3_size() -> str:
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        try:
            for index in sorted(base.glob("index*")):
                if (index / "level").read_text().strip() == "3":
                    return (index / "size").read_text().strip()
        except OSError:
            pass
        return "unknown"

    def git_commit() -> str:
        head = ROOT / ".git" / "HEAD"
        try:
            ref = head.read_text().strip()
            if ref.startswith("ref: "):
                ref = (ROOT / ".git" / ref[5:]).read_text().strip()
            return ref
        except OSError:
            return "unknown (not a git checkout)"

    def source_digest() -> str:
        import hashlib
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src" / "svsa").glob("*.py")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return digest.hexdigest()

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return [
        f"# svsa benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds} s, trace {args.trace}{', smoke' if args.smoke else ''}",
        f"# nproc {os.cpu_count()} (usable {affinity}); cpu {cpu_model()}; L3 {l3_size()}",
        f"# python {platform.python_version()}; numpy {numpy_version}; "
        f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}",
        f"# commit {git_commit()}; src/svsa sha256 {source_digest()}",
        f"# seed {args.seed}",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        workdir = WORK_ROOT / f"probe-{os.getpid()}"
        try:
            _, seconds = set_up(args.workload, args.seed, args.smoke, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        calibration.kernel_seconds()  # first call pays lazy numpy set-up
        print(repr(seconds), repr(calibration.kernel_seconds()))
        return 0

    for line in machine_header(args):
        print(line, flush=True)
    setup_samples = probe_setup(args)
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        workload, seconds = set_up(args.workload, args.seed, args.smoke, workdir)
        calibration.kernel_seconds()  # first call pays lazy numpy set-up
        setup_samples.append((seconds, calibration.kernel_seconds()))
        if not args.smoke:
            # Warm-up: lazy imports and first-call set-up happen outside timing.
            import workloads
            (workdir / "warm").mkdir()
            warm = workloads.WORKLOADS[args.workload](args.seed, workdir / "warm", True)
            run_pass(warm, workdir / "warm-pass")
        return report(args, workload, workdir, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, workload, workdir: Path, setup_samples: list[tuple[float, float]]) -> int:
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced, _ = measure(workload, budget, workdir, "untraced")
    traced, spans = [], []
    rss_before_trace = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        from tracing import Tracer
        traced, spans = measure(workload, budget, workdir, "traced", Tracer)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passes = untraced + traced

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    digest_sets = {tuple(sorted(p.digests.items())) for p in passes}
    if len(digest_sets) > 1:
        problems.append("summary.json differs between reruns of the same config and seeds")
    ref_wall = median(p.ref_wall for p in untraced)
    end_to_end = {
        "wall_ref_s": ref_wall,
        "setup_s": median(s * calibration.REFERENCE_S / k for s, k in setup_samples),
        "steps_per_ref_s": median(p.steps / p.ref_wall for p in untraced),
        "peak_rss_mb": rss_kib * 1024 / MB,
    }
    reported = {
        "wall_s": median(p.wall for p in untraced),
        "setup_raw_s": median(s for s, _ in setup_samples),
        "steps_per_s": median(p.steps / p.wall for p in untraced),
        "artifact_mb": median(p.artifact_bytes for p in untraced) / MB,
        "diagnose_s": median(p.diagnose_s for p in untraced),
        "failed_ops_share": failed / attempted,
        "host_speed": calibration.REFERENCE_S / median(p.kernel for p in untraced),
    }
    print(f"end to end ({len(untraced)} untraced passes; timings are medians over passes, "
          f"setup_s over {len(setup_samples)} interpreters; *_ref_s and setup_s in "
          f"reference-host seconds, host_speed = reference kernel time / kernel time here):")
    for name, value in {**end_to_end, **reported}.items():
        unit = END_TO_END_UNITS.get(name) or REPORTED_UNITS[name]
        print(f"  {name:<18} {value:.6g} {unit}")
    print(f"  failed ops: {failed} of {attempted} attempted")
    for seed, digest in sorted(next(iter(digest_sets))):
        print(f"  summary.json sha256 seed {seed}: {digest}")
    if not passes[0].digests:
        print("  summary.json: none (this workload writes no summaries)")

    metrics = end_to_end
    units = END_TO_END_UNITS
    if args.trace:
        from tracing import LAYERS
        metrics = {name: median(p.layers[name] for p in traced)
                   for name in traced[0].layers}
        metrics["trace.overhead_share"] = median(p.ref_wall for p in traced) / ref_wall - 1.0
        store = max(p.store_kib for p in traced)
        metrics["trace.store_kib"] = store
        units = LAYER_UNITS
        if store > TRACE_STORE_LIMIT_KIB:
            problems.append(f"span store reached {store:.1f} KiB in one pass "
                            f"(limit {TRACE_STORE_LIMIT_KIB} KiB)")
        print(f"per layer ({len(traced)} traced passes, medians):")
        for name, value in metrics.items():
            print(f"  {name:<40} {value:.6g} {units[name]}")
        traced_wall = median(p.wall for p in traced)
        shares = {layer: median(p.self_s.get(layer, 0.0) for p in traced) / traced_wall
                  for layer in LAYERS + ("bench",)}
        print("  self time by layer, share of traced wall: " + ", ".join(
            f"{layer} {share:.0%}" for layer, share in shares.items()))
        print(f"  span store: at most {store:.1f} KiB per pass (limit "
              f"{TRACE_STORE_LIMIT_KIB} KiB); peak RSS grew "
              f"{(rss_kib - rss_before_trace) * 1024 / MB:.2f} MB over the traced passes")
        if args.workload == "sgd_abs_seeds":
            print(f"  engine.us_per_step {metrics['engine.us_per_step']:.2f} us/step traced, "
                  f"beside the ROADMAP baseline {ROADMAP_US_PER_STEP} us/step "
                  "(information only)")
        trace_dir = WORK_ROOT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "passes": spans}))
        print(f"  spans written to {trace_path.relative_to(ROOT)}")

    for message in problems[:20]:
        print(f"PROBLEM: {message}")
    if len(problems) > 20:
        print(f"PROBLEM: ... and {len(problems) - 20} more")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

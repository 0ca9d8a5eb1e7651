"""Self-test of the svsa benchmark, at smoke size.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json with tracing off and on, and checks
that each run exits 0, reports correct outputs, and prints every end-to-end
(untraced) or per-layer (traced) metric of BENCHMARK.json with its unit.
Then copies BENCHMARK.json and the benchmark directory alone into a scratch
directory and checks that the benchmark fails there without printing a
result.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 170


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run(cwd: Path, spec: dict, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, spec, workload, trace)
    label = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = last_json(proc.stdout)
    if result is None:
        return [f"{label}: last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: outputs not correct\n{proc.stdout[-3000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted is {result.get('attempted')!r}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(f"{label}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{label}: {m['name']} unit {got.get('unit')!r}, expected {m['unit']!r}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: {m['name']} value {got.get('value')!r}")
        if not trace and not got.get("value"):
            problems.append(f"{label}: end-to-end metric {m['name']} is 0")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """Without the repository's sources the benchmark must fail, printing no result."""
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("bare directory: benchmark exited 0")
    if last_json(proc.stdout) is not None:
        problems.append("bare directory: benchmark printed a result")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_workload(spec, workload["name"], trace)
            print(f"{workload['name']} trace {trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
            problems += found
    found = check_bare_directory(spec)
    print(f"bare directory fails without a result: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Record benchmark runs in BENCH_<n>.json and compare them with the last one.

    python3 scripts/bench_record.py [--baseline DIR]

Runs ``bench/run.py --trace 0`` of this checkout on every workload of
BENCHMARK.json for its ``run_seconds``, 10 times with seeds 1..10.  With
``--baseline DIR`` (a second checkout, say of the parent commit, made with
``git archive`` or ``git clone``) each of the 10 pairs also runs that
checkout's ``bench/run.py`` on the same seed, alternating which of the two
goes first, and the file records the runs as "before" and "after".

BENCH_<n>.json holds ``nproc``, the machine header the harness prints, what
each side is (its commit, marked when the tree has uncommitted changes, and
the src/svsa hash the harness prints), every run's end-to-end metrics and
their medians per workload.  Beside each run's metrics it keeps the raw
``wall_s`` and the ``host_speed`` of the calibration kernel from the
harness's table, and the script prints each side's median ``host_speed``: a
``*_ref_s`` metric is a raw time divided by the kernel's, so two sides that
ran under different calibration show it there.  n is one more than the
highest existing record, or that record's own number when it was made from
the same source (a rerun before committing replaces it).  The script then prints the relative change
of the medians against the highest-numbered earlier BENCH_*.json (its
"after" runs), and, with a baseline, after against before.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # alternating pairs per workload: enough to claim a gain on 9 of 10
TABLE_FIGURES = ("wall_s", "host_speed")  # raw figures of the harness table, kept per run


def source_of(checkout: Path) -> str:
    """The checkout's commit, marked when its tree has uncommitted changes."""
    if not (checkout / ".git").exists():
        return "not a git checkout"
    git = ["git", "-C", str(checkout)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                          check=True).stdout.strip()
    dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True, check=True).stdout.strip()
    return head + (" + uncommitted changes" if dirty else "")


def bench_files() -> dict[int, Path]:
    found = (re.fullmatch(r"BENCH_(\d+)\.json", p.name) for p in ROOT.glob("BENCH_*.json"))
    return {int(m.group(1)): ROOT / m.group(0) for m in found if m}


def record_number(source: str) -> int:
    """One more than the highest record, or its number if it records ``source``."""
    files = bench_files()
    if not files:
        return 1
    last = max(files)
    sides = json.loads(files[last].read_text()).get("sides", {})
    return last if sides.get("after", {}).get("source") == source else last + 1


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run: its header lines and final JSON line."""
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "table": table_figures(lines),
            "header": [line for line in lines if line.startswith("# ")]}


def table_figures(lines: list[str]) -> dict[str, float]:
    """``TABLE_FIGURES`` read from the harness's end-to-end table, whose rows
    are ``  <name> <value> <unit>``; a figure the table lacks is an error."""
    rows = (re.fullmatch(r"\s+(\w+)\s+(\S+) \S+", line) for line in lines)
    found = {m.group(1): float(m.group(2)) for m in rows if m and m.group(1) in TABLE_FIGURES}
    missing = [name for name in TABLE_FIGURES if name not in found]
    if missing:
        raise SystemExit(f"the harness table lacks {', '.join(missing)}")
    return found


def medians(runs: list[dict]) -> dict[str, float]:
    return {name: median(r["metrics"][name] for r in runs) for name in runs[0]["metrics"]}


def print_change(title: str, old: dict, new: dict) -> None:
    print(title)
    for workload in new:
        if workload not in old:
            print(f"  {workload}: not in the earlier record")
            continue
        parts = [f"{name} {old[workload][name]:.6g} -> {value:.6g} "
                 f"({value / old[workload][name] - 1.0:+.1%})"
                 for name, value in new[workload].items()
                 if old[workload].get(name)]
        print(f"  {workload}: " + "; ".join(parts))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", type=Path, help="checkout to record as 'before'")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    checkouts = {"after": ROOT}
    if args.baseline is not None:
        checkouts = {"before": args.baseline.resolve(), "after": ROOT}
    sources = {label: source_of(checkout) for label, checkout in checkouts.items()}
    n = record_number(sources["after"])
    runs: dict[str, dict[str, list]] = {label: {} for label in checkouts}
    for workload in names:
        for pair in range(PAIRS):
            seed = 1 + pair
            order = list(checkouts) if pair % 2 == 0 else list(checkouts)[::-1]
            for label in order:
                run = run_once(checkouts[label], workload, seed, seconds)
                runs[label].setdefault(workload, []).append(run)
                print(f"{workload} seed {seed} {label}: " + ", ".join(
                    f"{k} {v:.6g}" for k, v in run["metrics"].items())
                    + f"; host_speed {run['table']['host_speed']:.3g}"
                    + f"; failed {run['failed']} of {run['attempted']}", flush=True)

    headers = {label: by_workload[names[0]][0]["header"] for label, by_workload in runs.items()}
    record = {
        "n": n,
        "nproc": os.cpu_count(),
        "machine": [line for line in headers["after"] if line.startswith(("# nproc", "# python"))],
        "command": f"bench/run.py --seconds {seconds} --trace 0, seeds 1..{PAIRS}",
        "sides": {label: {"source": sources[label],
                          "harness": [ln for ln in headers[label] if ln.startswith("# commit")]}
                  for label in checkouts},
        "runs": runs,
        "medians": {label: {w: medians(r) for w, r in by_workload.items()}
                    for label, by_workload in runs.items()},
    }
    earlier = {k: p for k, p in bench_files().items() if k < n}
    out = ROOT / f"BENCH_{n}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out.name}")
    print("host_speed (medians; each *_ref_s metric is a raw time times host_speed):")
    for workload in names:
        print(f"  {workload}: " + ", ".join(
            f"{label} {median(r['table']['host_speed'] for r in by_workload[workload]):.3g}"
            for label, by_workload in runs.items()))
    if "before" in record["medians"]:
        print_change("after against before (medians):", record["medians"]["before"],
                     record["medians"]["after"])
    if earlier:
        last = earlier[max(earlier)]
        previous = json.loads(last.read_text())["medians"]["after"]
        print_change(f"against {last.name} (medians):", previous, record["medians"]["after"])
    else:
        print("no earlier BENCH_*.json to compare with")
    return 0


if __name__ == "__main__":
    sys.exit(main())

import concurrent.futures
import contextlib
import functools
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import svsa.engine as engine
import svsa.experiments as experiments
from hypothesis.extra.numpy import arrays
from svsa.cli import main
from svsa.engine import Trajectory
from svsa.experiments import (DEFAULT_DIAGNOSTICS, ConfigError, ExperimentConfig,
                              _checkpoint_diagnostics, checkpoint_iterations,
                              diagnose_checkpoint, named_function, named_map,
                              run_experiment, validate_config)
from svsa.maps import half_square_norm
from svsa.occupation import (OccupationMeasure, accumulate, essential_accumulation_estimate,
                             load_checkpoint, save_checkpoint)

from helpers import reference_checkpoint_entry, reference_trajectory_prefix


def sgd_doc(n_steps=4000, seeds=(1, 2), base=1000):
    return {
        "name": "sgd_abs_small",
        "problem": {"kind": "sgd", "f": "abs", "x0": [1.0]},
        "schedule": {"kind": "power", "a": 0.5, "rho": 0.6},
        "noise": {"kind": "gaussian", "sigma": 0.5},
        "n_steps": n_steps,
        "guard_radius": 100.0,
        "seeds": list(seeds),
        "checkpoint_base": base,
    }


SHB_PROBLEM = {"kind": "shb", "f": "quad1", "q0": [1.0]}
FP_PROBLEM = {"kind": "fictitious_play", "game": "matching_pennies"}
INLINE_PENNIES = {"players": 2, "action_counts": [2, 2],
                  "payoff_tensors": [[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]]}


def mixed_status_doc():
    """Constant-step sgd on |x| with loud noise: seeds 1 and 4 leave the guard
    ball mid-run, seeds 2, 3 and 5 complete."""
    return {"name": "mixed", "problem": {"kind": "sgd", "f": "abs", "x0": [1.0]},
            "schedule": {"kind": "constant", "a": 0.05},
            "noise": {"kind": "gaussian", "sigma": 4.0}, "n_steps": 1000,
            "guard_radius": 2.5, "seeds": [1, 2, 3, 4, 5], "checkpoint_base": 250}


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class _InlinePool:
    """A ProcessPoolExecutor stand-in: it records its size and the seed
    chunks submitted to it, and runs each submit at once in this process."""

    def __init__(self, max_workers):
        self.max_workers, self.chunks = max_workers, []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, doc, seeds, root):
        self.chunks.append(list(seeds))
        future = concurrent.futures.Future()
        future.set_result(fn(doc, seeds, root))
        return future


def _inline_pools(monkeypatch) -> list[_InlinePool]:
    """Make every process pool an _InlinePool; the list collects them."""
    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: pools.append(_InlinePool(max_workers)) or pools[-1])
    return pools


def escape_doc():
    return {
        "name": "runaway",
        "problem": {"kind": "custom_map", "map": "doubling", "dim": 1, "x0": [1.0]},
        "schedule": {"kind": "constant", "a": 1.0},
        "n_steps": 50,
        "guard_radius": 5.0,
        "seeds": [0],
        "checkpoint_base": 10,
        "strict_bounded": True,
    }


def _escaping_doc(name, problem, a, cell_size, **diagnostics):
    """A run that escapes a 1e308 guard at step 2 on a constant step ``a``."""
    return {"name": name, "problem": problem, "schedule": {"kind": "constant", "a": a},
            "n_steps": 20, "guard_radius": 1e308, "seeds": [0], "checkpoint_base": 10,
            "diagnostics": {"residence_cell_size": cell_size, **diagnostics}}


class TestConfig:
    def test_schema_violations_are_listed(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_doc({"name": "", "problem": {"kind": "wat"},
                                       "n_steps": 0, "seeds": []})
        text = "; ".join(err.value.problems)
        assert "name" in text and "problem.kind" in text
        assert "n_steps" in text and "seeds" in text

    def test_cell_size_bound_follows_the_states(self):
        # the guard ball holds every recorded state, the unit box every profile
        doc = sgd_doc(n_steps=1000, base=500)
        for edit in ({"diagnostics": {"residence_cell_size": 100.0 / 2.0 ** 61}},
                     {"problem": FP_PROBLEM, "diagnostics": {"residence_cell_size": 1e-18}}):
            ExperimentConfig.from_doc(doc | edit)

    def test_checkpoint_base_bounded_by_steps(self):
        doc = sgd_doc(n_steps=500, base=1000)
        with pytest.raises(ConfigError, match="checkpoint_base"):
            ExperimentConfig.from_doc(doc)

    def test_named_ingredients(self):
        assert named_function("abs").dimension == 1
        assert named_function("quad3").dimension == 3
        assert named_function("maxsq2").dimension == 2
        assert named_map("attract_origin", 2).dimension == 2
        assert named_function("maxsq").dimension == 1
        for bad in ("mystery", "quadx", "maxsq0", "quad-1", "quad²", 7, None):
            with pytest.raises(ConfigError):
                named_function(bad)
        with pytest.raises(ConfigError):
            named_map("mystery", 1)

    def test_checkpoint_iterations_geometric_plus_final(self):
        assert checkpoint_iterations(10_000, 2000) == [2000, 4000, 8000, 10_000]
        assert checkpoint_iterations(8000, 1000) == [1000, 2000, 4000, 8000]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5000).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n), st.integers(1, n))))
    def test_checkpoints_of_a_shortened_run(self, case):
        # An escaped run of m <= n_steps steps is checkpointed as a run of m
        # steps: the configured checkpoints up to m, then m.
        n_steps, base, m = case
        reference = [i for i in checkpoint_iterations(n_steps, base) if i <= m]
        if not reference or reference[-1] != m:
            reference.append(m)
        assert checkpoint_iterations(m, base) == reference

    def test_start_norm_beyond_the_square_root_of_the_float_max(self, tmp_path):
        # The norm of x0 and of every state is taken without overflow: the run
        # leaves the 1e300 ball at x_333 = 2^333 1e200.
        doc = {"name": "huge",
               "problem": {"kind": "custom_map", "map": "doubling", "dim": 1, "x0": [1e200]},
               "schedule": {"kind": "constant", "a": 1.0}, "n_steps": 400,
               "guard_radius": 1e300, "seeds": [0], "checkpoint_base": 100,
               "diagnostics": {"residence_cell_size": 1e290}}
        with warnings.catch_warnings():
            # the bump diagnostics overflow; a cast of NaN or out of range still fails
            warnings.filterwarnings("ignore", r"(overflow|invalid value) encountered in (?!cast)",
                                    RuntimeWarning)
            run_experiment(doc, out_dir=tmp_path)
        summary = json.loads((tmp_path / "huge" / "0" / "summary.json").read_text())
        assert summary["escape"] == {"index": 333, "norm": 1.7498005798264095e300}


class TestValidate:
    def test_conforming_power_schedule(self):
        assert validate_config(sgd_doc()) == []

    def test_fast_power_schedule_flagged(self):
        doc = sgd_doc()
        doc["schedule"]["rho"] = 1.5
        violations = validate_config(doc)
        assert any("finite" in v for v in violations)

    def test_heavy_ball_ratio_mismatch_flagged(self):
        doc = {
            "name": "shb_mismatch",
            "problem": {"kind": "shb", "f": "quad1", "c": 1.0, "q0": [1.0],
                        "alpha_schedule": {"kind": "power", "a": 0.5, "rho": 0.7}},
            "schedule": {"kind": "power", "a": 0.5, "rho": 0.5},
            "n_steps": 100,
            "seeds": [1],
            "checkpoint_base": 50,
        }
        violations = validate_config(doc)
        assert any("tends to 0" in v for v in violations)

    def test_student_t_moment_flagged(self):
        doc = sgd_doc()
        doc["noise"] = {"kind": "student_t", "df": 1.5, "scale": 1.0, "moment_order": 2.0}
        assert any("student-t" in v for v in validate_config(doc))


class TestRunExperiment:
    def test_file_contract(self, tmp_path):
        report = run_experiment(sgd_doc(), out_dir=tmp_path)
        root = tmp_path / "sgd_abs_small"
        assert (root / "manifest.json").exists()
        for seed in (1, 2):
            sd = root / str(seed)
            assert (sd / "trajectory.csv").exists()
            # Every checkpoint is a prefix of the run: a sidecar, no sample CSV.
            checkpoints = sorted(sd.glob("checkpoint_*.json"))
            assert len(checkpoints) >= 2
            assert not list(sd.glob("checkpoint_*.csv"))
            assert (sd / "summary.json").exists()
        assert report.bounded_fraction == 1.0
        assert len(report.seed_summaries) == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        run_experiment(sgd_doc(n_steps=2000, base=1000), out_dir=tmp_path / "a")
        run_experiment(sgd_doc(n_steps=2000, base=1000), out_dir=tmp_path / "b")
        for rel in ("sgd_abs_small/1/summary.json", "sgd_abs_small/manifest.json",
                    "sgd_abs_small/1/checkpoint_1000.json", "sgd_abs_small/1/trajectory.csv"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_parallel_seeds_match_serial(self, tmp_path):
        # Seeds 1 and 4 escape mid-run; the pools cut the seeds into the
        # chunks [1, 2], [3, 4, 5] and [1], [2, 3], [4, 5].
        doc = mixed_status_doc()
        serial = run_experiment(doc, out_dir=tmp_path / "jobs1", jobs=1)
        assert [s["status"] for s in serial.seed_summaries] == [
            "escaped", "completed", "completed", "escaped", "completed"]
        files = _files(tmp_path / "jobs1")
        assert {"mixed/manifest.json", "mixed/4/summary.json", "mixed/4/trajectory.csv",
                "mixed/4/checkpoint_250.json"} <= set(files)
        for jobs in (2, 3):
            parallel = run_experiment(doc, out_dir=tmp_path / f"jobs{jobs}", jobs=jobs)
            assert parallel.seed_summaries == serial.seed_summaries
            assert parallel.files == serial.files
            assert _files(tmp_path / f"jobs{jobs}") == files

    @pytest.mark.parametrize("seeds, jobs", [
        ([5, 3, 9, 1, 7], 2), ([5, 3, 9, 1, 7], 3), ([5, 3, 9, 1, 7], 5), ([5, 3, 9, 1, 7], 6),
        ([4, 8, 2, 6, 0, 10, 12], 4), ([2, 0, 1], 10_000)],
        ids=["5_seeds_2_jobs", "5_seeds_3_jobs", "5_seeds_5_jobs", "5_seeds_6_jobs",
             "7_seeds_4_jobs", "3_seeds_10000_jobs"])
    def test_pool_runs_consecutive_chunks_in_seed_order(self, monkeypatch, seeds, jobs):
        pools = _inline_pools(monkeypatch)
        doc = sgd_doc(n_steps=200, seeds=seeds, base=100)
        serial = run_experiment(doc, jobs=1)
        assert pools == []
        report = run_experiment(doc, jobs=jobs)
        [pool] = pools
        assert pool.max_workers == len(pool.chunks) == min(jobs, len(seeds))
        assert [s for chunk in pool.chunks for s in chunk] == seeds
        sizes = [len(chunk) for chunk in pool.chunks]
        assert max(sizes) - min(sizes) <= 1
        assert report.seed_summaries == serial.seed_summaries

    def test_one_seed_starts_no_pool(self, monkeypatch):
        pools = _inline_pools(monkeypatch)
        run_experiment(sgd_doc(n_steps=200, seeds=(3,), base=100), jobs=4)
        assert pools == []

    @pytest.mark.parametrize("jobs", [0, -1, True, 2.0])
    def test_jobs_must_be_a_positive_integer(self, tmp_path, monkeypatch, jobs):
        pools = _inline_pools(monkeypatch)
        with pytest.raises(ValueError, match="jobs: a positive integer required"):
            run_experiment(sgd_doc(n_steps=200, base=100), out_dir=tmp_path, jobs=jobs)
        assert pools == [] and not list(tmp_path.iterdir())

    def test_manifest_lists_only_this_runs_seeds(self, tmp_path):
        doc = sgd_doc(n_steps=1000, seeds=(1, 2), base=500)
        run_experiment(doc, out_dir=tmp_path)
        root = tmp_path / "sgd_abs_small"
        report = run_experiment({**doc, "seeds": [1]}, out_dir=tmp_path)
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["config"]["seeds"] == [1]
        assert manifest["files"] == report.files == [
            "1/checkpoint_1000.json", "1/checkpoint_500.json", "1/summary.json",
            "1/trajectory.csv"]
        assert (root / "2" / "summary.json").exists()  # another run's seed is left as it is

    @pytest.mark.parametrize("problem", [None, SHB_PROBLEM], ids=["sgd", "shb"])
    def test_lockstep_batches_write_the_same_files(self, tmp_path, monkeypatch, problem):
        # A byte bound that holds one or two seeds splits five seeds into
        # consecutive batches; every file of the run is unchanged.
        doc = sgd_doc(n_steps=1000, seeds=(1, 2, 3, 4, 5), base=250)
        if problem is not None:
            doc["problem"] = problem
        run_experiment(doc, out_dir=tmp_path / "whole")
        per_seed = 16 * 1001 * (1 if problem is None else 2)
        sizes = []
        lockstep = engine._lockstep
        monkeypatch.setattr(engine, "_lockstep",
                            lambda *args: sizes.append(len(args[-1])) or lockstep(*args))
        for bound, expected in ((2 * per_seed + 1, [2, 2, 1]), (per_seed - 1, [1] * 5)):
            sizes.clear()
            monkeypatch.setattr(engine, "LOCKSTEP_BATCH_BYTES", bound)
            run_experiment(doc, out_dir=tmp_path / str(bound))
            assert sizes == expected
            whole = sorted(p.relative_to(tmp_path / "whole")
                           for p in (tmp_path / "whole").rglob("*") if p.is_file())
            assert whole == sorted(p.relative_to(tmp_path / str(bound))
                                   for p in (tmp_path / str(bound)).rglob("*") if p.is_file())
            for rel in whole:
                assert (tmp_path / str(bound) / rel).read_bytes() == \
                    (tmp_path / "whole" / rel).read_bytes(), rel

    def test_acceptance_batch_is_one_batch(self):
        # 10 seeds x 1M steps of a 1-D state: 160 MB of states and noises.
        assert engine.LOCKSTEP_BATCH_BYTES // (16 * (1_000_000 + 1)) >= 10

    def test_seed_override(self):
        report = run_experiment(sgd_doc(n_steps=1000, base=500), seeds=[7])
        assert [s["seed"] for s in report.seed_summaries] == [7]

    @pytest.mark.parametrize("seeds", [[], [7, 7], [-1], [True]])
    def test_seed_override_follows_the_seeds_rule(self, seeds):
        with pytest.raises(ConfigError, match="seeds: non-empty list of non-negative integers"):
            run_experiment(sgd_doc(n_steps=1000, base=500), seeds=seeds)

    def test_fictitious_play_summary_reports_nash_gap(self):
        doc = {
            "name": "fp_mp",
            "problem": {"kind": "fictitious_play", "game": "matching_pennies",
                        "xi0": [[1.0, 0.0], [1.0, 0.0]]},
            "n_steps": 4000,
            "seeds": [1],
            "checkpoint_base": 1000,
        }
        report = run_experiment(doc)
        summary = report.seed_summaries[0]
        assert "nash_gap_inf" in summary
        assert summary["nash_gap_inf"] <= 0.1

    def test_escape_is_reported_not_fatal(self):
        report = run_experiment(escape_doc())
        summary = report.seed_summaries[0]
        assert summary["status"] == "escaped"
        assert summary["escape"]["norm"] > 5.0
        assert report.bounded_fraction == 0.0

    def test_summary_structure(self):
        report = run_experiment(sgd_doc(n_steps=2000, seeds=(3,), base=1000))
        summary = report.seed_summaries[0]
        cp = summary["checkpoints"][-1]
        assert cp["iteration"] == 2000
        assert cp["closed_residuals"] and cp["oscillation"]
        assert cp["velocity_moment"]["order"] == 2.0
        assert "circulation" in cp
        assert summary["essential_cells"]["centers"]

    def test_essential_cells_concentrate_near_minimum(self):
        report = run_experiment(sgd_doc(n_steps=10_000, seeds=(1,), base=2000))
        centers = np.asarray(report.seed_summaries[0]["essential_cells"]["centers"])
        assert np.abs(centers).max() <= 0.2


# Coordinates that tie the box or sit on its edges: 0.0 and -0.0 compare equal
# but span boxes of different bits.
POOL_VALUES = [0.0, -0.0, 1.0, -1.0, 5e-324, 0.5, 2.0, -3.0]


@st.composite
def runs_and_checkpoints(draw):
    """A run of 1-300 steps in 1-6 dimensions, nested checkpoints that include
    1 and the run's length, and its diagnostics block."""
    n, degree = draw(st.tuples(st.integers(1, 6), st.integers(0, 6)).filter(
        lambda nd: math.comb(nd[0] + nd[1], nd[0]) - 1 <= 210))
    m = draw(st.integers(1, 8) | st.integers(9, 300))
    if draw(st.booleans()):  # coordinates from a few values, so the box may stop growing
        pool = draw(st.lists(st.sampled_from(POOL_VALUES), min_size=1, max_size=4))
        states = np.array(draw(st.lists(st.sampled_from(pool), min_size=(m + 1) * n,
                                        max_size=(m + 1) * n))).reshape(m + 1, n)
        if draw(st.booleans()):  # the box of every prefix past 1 is the box of the run
            states[:2] = [[min(pool)] * n, [max(pool)] * n]
    else:  # a random walk, whose box grows now and then
        steps = draw(arrays(np.float64, (m + 1, n), elements=st.floats(-1.0, 1.0)))
        states = np.cumsum(steps, axis=0)
    velocities = draw(arrays(np.float64, (m, n), elements=st.floats(-1e3, 1e3)
                             | st.sampled_from([1e200, -1e200])))
    weights = draw(arrays(np.float64, m, elements=st.floats(1e-3, 1.0)))
    traj = Trajectory(states=states, velocities=velocities, steps=weights,
                      deltas=np.zeros(m), noises=np.zeros((m, n)),
                      clock=np.concatenate([[0.0], np.cumsum(weights)]))
    inner = draw(st.lists(st.integers(1, m), max_size=6))
    iterations = sorted({1, m, *inner})
    diag = {**DEFAULT_DIAGNOSTICS, "bank_degree": degree, "bank_bumps": draw(st.integers(0, 4)),
            "velocity_moment_order": draw(st.sampled_from([1.5, 2.0, 3.0])),
            "residence_cell_size": draw(st.sampled_from([0.02, 0.3, 1.0]))}
    return traj, iterations, diag


class TestSharedPrefixPass:
    @settings(max_examples=150, deadline=None)
    @given(runs_and_checkpoints(), st.booleans())
    def test_each_entry_has_the_bits_of_its_own_measure(self, case, with_field):
        traj, iterations, diag = case
        measures = [accumulate(traj, upto=i) for i in iterations]
        f = half_square_norm(traj.dimension) if with_field else None
        problem = experiments.Problem("sgd", (traj.states[0],), objective=f) if with_field else None
        entries, residences = _checkpoint_diagnostics(measures, iterations, diag, problem)
        assert len(entries) == len(residences) == len(iterations)
        for entry, i in zip(entries, iterations):
            want = reference_checkpoint_entry(traj, i, diag, f=f)
            assert json.dumps(entry, sort_keys=True) == json.dumps(want, sort_keys=True)
        if len(measures) >= 2:
            cell, threshold = diag["residence_cell_size"], 0.05
            assert np.array_equal(
                essential_accumulation_estimate(measures, cell, threshold, residences),
                essential_accumulation_estimate(measures, cell, threshold))


class TestDiagnose:
    def _assert_round_trip(self, tmp_path, doc):
        report = run_experiment(doc, out_dir=tmp_path)
        summary = report.seed_summaries[0]
        entry = summary["checkpoints"][0]
        recomputed = diagnose_checkpoint(
            tmp_path / "sgd_abs_small" / "1" / "checkpoint_1000.csv")
        assert recomputed.pop("sidecar")["seed"] == 1
        assert json.dumps(recomputed, sort_keys=True) == json.dumps(entry, sort_keys=True)

    def test_round_trip_matches_report(self, tmp_path):
        self._assert_round_trip(tmp_path, sgd_doc(n_steps=2000, seeds=(1,), base=1000))

    def test_round_trip_uses_the_run_diagnostics_block(self, tmp_path):
        doc = sgd_doc(n_steps=2000, seeds=(1,), base=1000)
        doc["diagnostics"] = {"bank_degree": 2, "bank_bumps": 1, "residence_cell_size": 0.05}
        self._assert_round_trip(tmp_path, doc)


def _diagnose(path) -> tuple[int, str]:
    """Exit code and standard output of `svsa diagnose path`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["diagnose", str(path)])
    return code, out.getvalue()


def _write_sample_csvs(doc, seed, iterations, directory):
    """The checkpoint CSVs and sidecars that save_checkpoint writes for a run's
    prefix measures, as every checkpoint was stored before sidecar-only ones,
    with the diagnostics block that the run writes."""
    traj = next(experiments._build_runs(ExperimentConfig.from_doc(doc), [seed]))
    for i in iterations:
        save_checkpoint(accumulate(traj, upto=i), Path(directory) / f"checkpoint_{i}.csv",
                        iteration=i, seed=seed, diagnostics=doc.get("diagnostics", {}),
                        prefix=False)


LAYOUT_PROBLEMS = {
    "sgd": {"problem": {"kind": "sgd", "f": "maxsq2", "x0": [1.0, -0.5]},
            "schedule": {"kind": "power", "a": 0.5, "rho": 0.6},
            "noise": {"kind": "gaussian", "sigma": 0.3}, "guard_radius": 50.0},
    "shb": {"problem": {"kind": "shb", "f": "quad1", "q0": [1.0]},
            "schedule": {"kind": "power", "a": 0.5, "rho": 0.6},
            "noise": {"kind": "gaussian", "sigma": 0.3}, "guard_radius": 50.0},
    "fictitious_play": {"problem": {"kind": "fictitious_play", "game": "generalized_rps"}},
}


class TestCheckpointLayout:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(LAYOUT_PROBLEMS)), st.integers(1, 300), st.data())
    def test_sidecar_only_checkpoint_diagnoses_like_its_sample_csv(self, kind, n_steps, data):
        # The run's manifest lists its checkpoint, so diagnose has the problem;
        # a loose copy of the same samples has none, so it lacks the two
        # diagnostics that need it.
        base = data.draw(st.integers(max(1, n_steps // 16), n_steps))
        seed = data.draw(st.integers(0, 2**32 - 1))
        doc = {"name": "layout", "n_steps": n_steps, "seeds": [seed],
               "checkpoint_base": base, **LAYOUT_PROBLEMS[kind]}
        with tempfile.TemporaryDirectory() as tmp:
            run_experiment(doc, out_dir=Path(tmp) / "runs")
            seed_dir = Path(tmp) / "runs" / "layout" / str(seed)
            assert not list(seed_dir.glob("checkpoint_*.csv"))
            iterations = [int(p.stem.split("_")[1]) for p in seed_dir.glob("checkpoint_*.json")]
            assert n_steps in iterations
            loose = Path(tmp) / "loose"  # no manifest.json two directories up
            loose.mkdir()
            _write_sample_csvs(doc, seed, iterations, loose)
            summary = json.loads((seed_dir / "summary.json").read_text())
            for i, entry in zip(sorted(iterations), summary["checkpoints"]):
                code, text = _diagnose(seed_dir / f"checkpoint_{i}.csv")
                listed = json.loads(text)
                assert code == 0 and listed["iteration"] == i
                sidecar = listed.pop("sidecar")
                assert json.dumps(listed, sort_keys=True) == json.dumps(entry, sort_keys=True)
                code, text = _diagnose(loose / f"checkpoint_{i}.csv")
                reduced = {k: v for k, v in listed.items() if k not in ("circulation", "centroid")}
                assert code == 0 and json.loads(text) == {**reduced, "sidecar": sidecar}
                assert text == json.dumps({**reduced, "sidecar": sidecar}, sort_keys=True,
                                          indent=2) + "\n"

    def test_old_layout_with_sample_csvs_still_diagnoses(self, tmp_path):
        doc = sgd_doc(n_steps=2000, seeds=(1,), base=500)
        run_experiment(doc, out_dir=tmp_path)
        seed_dir = tmp_path / "sgd_abs_small" / "1"
        iterations = [500, 1000, 2000]
        new = [_diagnose(seed_dir / f"checkpoint_{i}.csv") for i in iterations]
        _write_sample_csvs(doc, 1, iterations, seed_dir)
        (seed_dir / "trajectory.csv").unlink()  # so the sample CSVs are what is read
        assert [_diagnose(seed_dir / f"checkpoint_{i}.csv") for i in iterations] == new
        assert all(code == 0 for code, _ in new)


    def test_rerun_into_the_same_directory_reports_the_new_run(self, tmp_path):
        # The first run runs longer and its checkpoints are stored in the old
        # layout, with sample CSVs; the second, edited under the same name,
        # stores sidecars only.
        first = {"name": "rerun", "problem": {"kind": "shb", "f": "maxsq2", "q0": [1.0, 0.5]},
                 "schedule": {"kind": "power", "a": 0.5, "rho": 0.6},
                 "noise": {"kind": "gaussian", "sigma": 0.3},
                 "n_steps": 4000, "seeds": [1], "checkpoint_base": 250}
        run_experiment(first, out_dir=tmp_path)
        seed_dir = tmp_path / "rerun" / "1"
        _write_sample_csvs(first, 1, [250, 500, 1000, 2000, 4000], seed_dir)
        assert len(list(seed_dir.glob("checkpoint_*.csv"))) == 5
        second = {**first, "noise": {"kind": "gaussian", "sigma": 0.6}, "n_steps": 2000}
        run_experiment(second, out_dir=tmp_path)
        summary = json.loads((seed_dir / "summary.json").read_text())
        assert sorted(p.name for p in seed_dir.glob("checkpoint_*")) == sorted(
            f"checkpoint_{entry['iteration']}.json" for entry in summary["checkpoints"])
        for entry in summary["checkpoints"]:
            recomputed = diagnose_checkpoint(seed_dir / f"checkpoint_{entry['iteration']}.csv")
            recomputed.pop("sidecar")
            assert json.dumps(recomputed, sort_keys=True) == json.dumps(entry, sort_keys=True)


READER_PROBLEMS = {
    **LAYOUT_PROBLEMS,
    "custom_map_delta": {"problem": {"kind": "custom_map", "map": "sign_descent", "dim": 1,
                                     "x0": [0.7]},
                         "schedule": {"kind": "logarithmic", "a": 0.3},
                         "delta": {"kind": "power", "a": 0.2, "rho": 0.3},
                         "noise": {"kind": "uniform_ball", "radius": 0.1}},
    # loud noise in a small ball: some seeds escape at a finite state
    "sgd_escapes": {"problem": {"kind": "sgd", "f": "abs", "x0": [1.0]},
                    "schedule": {"kind": "constant", "a": 0.05},
                    "noise": {"kind": "gaussian", "sigma": 4.0}, "guard_radius": 2.5},
    # x_2 = inf: the last velocity overflows
    "overflow": {"problem": {"kind": "custom_map", "map": "doubling", "dim": 1, "x0": [1.0]},
                 "schedule": {"kind": "constant", "a": 1e300}, "guard_radius": 1e308,
                 "diagnostics": {"residence_cell_size": 1e290}},
}


# Each kind with the dimension of its state, which the centroid probes take.
ONE_PATH_PROBLEMS = {
    "sgd": (LAYOUT_PROBLEMS["sgd"], 2),
    "shb": ({**LAYOUT_PROBLEMS["shb"],
             "problem": {"kind": "shb", "f": "maxsq2", "q0": [1.0, 0.5]}}, 4),
    "fictitious_play": (LAYOUT_PROBLEMS["fictitious_play"], 6),
    "custom_map_delta": (READER_PROBLEMS["custom_map_delta"], 1),
}


def _entries_by_path(seed_dir: Path) -> dict:
    summary = json.loads((seed_dir / "summary.json").read_text())
    return {seed_dir / f"checkpoint_{c['iteration']}.csv": c for c in summary["checkpoints"]}


def _reduced(entry: dict) -> dict:
    """A summary entry less the two diagnostics that need the problem."""
    return {k: v for k, v in entry.items() if k not in ("circulation", "centroid")}


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


class TestOnePath:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(ONE_PATH_PROBLEMS)), st.integers(1, 3) | st.integers(4, 300),
           st.booleans(), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4,
                                   unique=True), st.data())
    def test_diagnose_is_the_summary_entry(self, kind, n_steps, circulation, seeds, data):
        problem, n = ONE_PATH_PROBLEMS[kind]
        low = 0.0 if kind == "fictitious_play" else -1.5
        point = st.lists(st.floats(low, 1.5), min_size=n, max_size=n)
        probes = data.draw(st.none() | st.lists(point, max_size=3))
        doc = {"name": "one_path", "n_steps": n_steps, "seeds": seeds,
               "checkpoint_base": data.draw(st.integers(1, n_steps)), **problem,
               "diagnostics": {"circulation": circulation, "centroid_probes": probes}}
        with tempfile.TemporaryDirectory() as tmp:
            run_experiment(doc, out_dir=tmp)
            for seed in seeds:
                for path, entry in _entries_by_path(Path(tmp) / "one_path" / str(seed)).items():
                    recomputed = diagnose_checkpoint(path)
                    sidecar = recomputed.pop("sidecar")
                    assert _dumps(recomputed) == _dumps(entry)
                    assert sidecar == json.loads(path.with_suffix(".json").read_text())


class TestDiagnoseManifest:
    def test_a_seed_left_by_another_config_is_diagnosed_without_its_problem(self, tmp_path):
        # Run B, of the same name and dimension, lists only its seed 1, so seed
        # 2 is A's and must not be diagnosed with B's objective.
        a = {**sgd_doc(n_steps=1000, seeds=(1, 2), base=500),
             "diagnostics": {"centroid_probes": [[0.0], [0.5]]}}
        b = {**a, "problem": {"kind": "sgd", "f": "quad1", "x0": [1.0]}, "seeds": [1]}
        run_experiment(a, out_dir=tmp_path)
        root = tmp_path / "sgd_abs_small"
        left = _entries_by_path(root / "2")
        run_experiment(b, out_dir=tmp_path)
        for path, entry in left.items():
            code, text = _diagnose(path)
            diagnosed = json.loads(text)
            diagnosed.pop("sidecar")
            assert code == 0 and "circulation" in entry and "centroid" in entry
            assert _dumps(diagnosed) == _dumps(_reduced(entry))
        for path, entry in _entries_by_path(root / "1").items():
            code, text = _diagnose(path)
            diagnosed = json.loads(text)
            diagnosed.pop("sidecar")
            assert code == 0 and _dumps(diagnosed) == _dumps(entry)

    def test_a_run_stopped_before_its_manifest_leaves_none(self, tmp_path, monkeypatch):
        # The earlier run's manifest lists the same checkpoint names, but its
        # config is not the one that wrote them.
        a = sgd_doc(n_steps=1000, seeds=(1,), base=500)
        run_experiment(a, out_dir=tmp_path)
        write_json = experiments.write_json

        def stopped(path, doc):
            if Path(path).name == "manifest.json":
                raise OSError("stopped")
            write_json(path, doc)

        monkeypatch.setattr(experiments, "write_json", stopped)
        with pytest.raises(OSError, match="stopped"):
            run_experiment({**a, "problem": {"kind": "sgd", "f": "quad1", "x0": [1.0]}},
                           out_dir=tmp_path)
        root = tmp_path / "sgd_abs_small"
        assert not (root / "manifest.json").exists()
        for path, entry in _entries_by_path(root / "1").items():
            diagnosed = diagnose_checkpoint(path)
            diagnosed.pop("sidecar")
            assert _dumps(diagnosed) == _dumps(_reduced(entry))

    @pytest.mark.parametrize("edit", [
        lambda manifest: b"{not json",
        lambda manifest: b"\xff\xfe",
        lambda manifest: json.dumps({**manifest, "config": {**manifest["config"],
                                     "problem": {"kind": "sgd", "f": "quadx",
                                                 "x0": [1.0]}}}).encode(),
        lambda manifest: json.dumps({k: v for k, v in manifest.items()
                                     if k != "config"}).encode(),
        lambda manifest: json.dumps({**manifest, "config": {**manifest["config"],
                                     "problem": {"kind": "sgd", "f": "maxsq2",
                                                 "x0": [1.0, 0.0]}}}).encode(),
    ], ids=["not_json", "not_utf8", "config_does_not_build", "no_config", "other_dimension"])
    def test_a_listing_manifest_that_gives_no_problem_is_a_bad_checkpoint(self, tmp_path, capsys,
                                                                          edit):
        run_experiment(sgd_doc(n_steps=1000, seeds=(1,), base=500), out_dir=tmp_path)
        manifest = tmp_path / "sgd_abs_small" / "manifest.json"
        manifest.write_bytes(edit(json.loads(manifest.read_text())))
        capsys.readouterr()
        assert main(["diagnose", str(manifest.parent / "1" / "checkpoint_500.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bad checkpoint: manifest.json: ") and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda manifest: manifest.unlink(),
        lambda manifest: manifest.write_text("[1, 2]"),
        lambda manifest: manifest.write_text('{"files": "1/checkpoint_500.json"}'),
        lambda manifest: manifest.write_text('{"files": []}'),
    ], ids=["no_manifest", "not_an_object", "files_not_a_list", "not_listed"])
    def test_an_unlisted_checkpoint_prints_the_reduced_entry(self, tmp_path, edit):
        # The bytes diagnose printed before it read manifests: the summary
        # entry less circulation and centroid, and the sidecar.
        doc = {**sgd_doc(n_steps=1000, seeds=(1,), base=500),
               "diagnostics": {"centroid_probes": [[0.0]]}}
        run_experiment(doc, out_dir=tmp_path)
        edit(tmp_path / "sgd_abs_small" / "manifest.json")
        for path, entry in _entries_by_path(tmp_path / "sgd_abs_small" / "1").items():
            sidecar = json.loads(path.with_suffix(".json").read_text())
            assert _diagnose(path) == (0, json.dumps({**_reduced(entry), "sidecar": sidecar},
                                                     sort_keys=True, indent=2) + "\n")

    def test_a_relative_path_finds_its_manifest(self, tmp_path, monkeypatch):
        run_experiment(sgd_doc(n_steps=1000, seeds=(1,), base=500), out_dir=tmp_path)
        seed_dir = tmp_path / "sgd_abs_small" / "1"
        monkeypatch.chdir(seed_dir)
        entry = _entries_by_path(seed_dir)[seed_dir / "checkpoint_1000.csv"]
        diagnosed = diagnose_checkpoint("checkpoint_1000.csv")
        diagnosed.pop("sidecar")
        assert "circulation" in diagnosed and _dumps(diagnosed) == _dumps(entry)


# The diagnostics block of a sidecar written before sidecars kept the config's
# own: the config's block merged over every default of the time.
MERGED_DEFAULTS = {"bank_degree": 3, "bank_bumps": 4, "bank_seed": 7,
                   "velocity_moment_order": 2.0, "residence_cell_size": 0.02,
                   "essential_threshold": 0.05, "centroid_probes": None, "circulation": True}


def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestSidecarDiagnosticsBlock:
    @pytest.mark.parametrize("block", [None, {"residence_cell_size": 0.05, "bank_degree": 2}],
                             ids=["no_block", "block"])
    @pytest.mark.parametrize("kind", sorted(ONE_PATH_PROBLEMS))
    def test_a_new_default_writes_no_bytes(self, tmp_path, monkeypatch, kind, block):
        # An opt-in diagnostic adds its key with a default, as below; a config
        # that does not set it writes and diagnoses the bytes it did before.
        doc = {"name": "opt_in", "n_steps": 300, "seeds": [1, 2], "checkpoint_base": 50,
               **ONE_PATH_PROBLEMS[kind][0], **({} if block is None else {"diagnostics": block})}

        def outputs(out):
            run_experiment(doc, out_dir=out)
            diagnosed = {p: _diagnose(p.with_suffix(".csv"))
                         for p in sorted(out.rglob("checkpoint_*.json"))}
            return _files(out), {str(p.relative_to(out)): d for p, d in diagnosed.items()}

        before = outputs(tmp_path / "before")
        rule = (lambda v: v in ("cumulative", "window"), "cumulative or window")
        monkeypatch.setitem(experiments._DIAGNOSTIC_KEYS, "extra_rule", ("cumulative", rule))
        monkeypatch.setitem(experiments.DEFAULT_DIAGNOSTICS, "extra_rule", "cumulative")
        monkeypatch.setitem(experiments._DIAGNOSTICS, "extra_rule", rule)
        assert ExperimentConfig.from_doc(doc).diagnostics["extra_rule"] == "cumulative"
        after = outputs(tmp_path / "after")
        assert before[1] and all(code == 0 for code, _ in before[1].values())
        assert after == before

    @pytest.mark.parametrize("block", [None, {"bank_degree": 2, "centroid_probes": [[0.0]]}],
                             ids=["no_block", "block"])
    def test_a_sidecar_with_the_merged_block_diagnoses_alike(self, tmp_path, block):
        # Older versions wrote the merged block; it diagnoses to the same entry,
        # which echoes the sidecar as it is.
        doc = {**sgd_doc(n_steps=2000, seeds=(1,), base=500),
               **({} if block is None else {"diagnostics": block})}
        run_experiment(doc, out_dir=tmp_path)
        sidecars = sorted((tmp_path / "sgd_abs_small" / "1").glob("checkpoint_*.json"))
        assert len(sidecars) == 3
        for path in sidecars:
            meta = json.loads(path.read_text())
            assert meta["diagnostics"] == (block or {})
            code, text = _diagnose(path.with_suffix(".csv"))
            old = {**meta, "diagnostics": {**MERGED_DEFAULTS, **(block or {})}}
            path.write_text(json.dumps(old))
            old_code, old_text = _diagnose(path.with_suffix(".csv"))
            entry, old_entry = json.loads(text), json.loads(old_text)
            assert code == old_code == 0 and "circulation" in entry
            assert entry.pop("sidecar") == meta and old_entry.pop("sidecar") == old
            assert _dumps(old_entry) == _dumps(entry)


class TestPrefixReader:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(READER_PROBLEMS)), st.integers(1, 3) | st.integers(4, 300),
           st.data())
    def test_prefix_checkpoints_load_the_bits_of_the_run(self, kind, n_steps, data):
        # Velocities come from positions and steps; each prefix measure has the
        # bits of the run's and of the reader that parses every field.
        base = data.draw(st.integers(1, n_steps))
        seed = data.draw(st.integers(0, 2**32 - 1))
        doc = {"name": "reader", "n_steps": n_steps, "seeds": [seed],
               "checkpoint_base": base, **READER_PROBLEMS[kind]}
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_experiment(doc, out_dir=tmp)
            traj = next(experiments._build_runs(ExperimentConfig.from_doc(doc), [seed]))
            seed_dir = Path(tmp) / "reader" / str(seed)
            iterations = sorted(int(p.stem.split("_")[1])
                                for p in seed_dir.glob("checkpoint_*.json"))
            assert traj.n_steps in iterations
            for i in iterations:
                loaded, _ = load_checkpoint(seed_dir / f"checkpoint_{i}.csv")
                run = accumulate(traj, upto=i)
                parsed = OccupationMeasure.from_arrays(*reference_trajectory_prefix(
                    seed_dir / "trajectory.csv", traj.dimension, i))
                for want in (run, parsed):
                    for name in ("positions", "velocities", "weights"):
                        assert getattr(loaded, name).tobytes() == getattr(want, name).tobytes()

    def test_row_after_the_prefix_is_parsed(self, tmp_path):
        # v_500 is taken from x_500, the first field read of row 501.
        run_experiment(sgd_doc(n_steps=1000, seeds=(1,), base=500), out_dir=tmp_path)
        seed_dir = tmp_path / "sgd_abs_small" / "1"
        path = seed_dir / "trajectory.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        j, t, x, rest = lines[501].split(b",", 3)
        path.write_bytes(b"".join(lines[:501] + [b",".join([j, t, b"x", rest])] + lines[502:]))
        assert _diagnose(seed_dir / "checkpoint_500.csv")[0] == 1


def _truncate_trajectory(seed_dir):
    path = seed_dir / "trajectory.csv"
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:1000]))


def _drop_last_trajectory_column(seed_dir):
    path = seed_dir / "trajectory.csv"
    lines = path.read_bytes().splitlines()
    path.write_bytes(b"".join(line.rsplit(b",", 1)[0] + b"\r\n" for line in lines))


def _nan_step(seed_dir):
    # data row j = 500, inside the prefix of checkpoint_1000; eps is field 4 in 1-D
    path = seed_dir / "trajectory.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    fields = lines[501].split(b",")
    fields[4] = b"nan"
    path.write_bytes(b"".join(lines[:501] + [b",".join(fields)] + lines[502:]))


def _tamper_total_weight(seed_dir):
    sidecar = seed_dir / "checkpoint_1000.json"
    meta = json.loads(sidecar.read_text())
    meta["total_weight"] = float(np.nextafter(meta["total_weight"], np.inf))
    sidecar.write_text(json.dumps(meta))


class TestCli:
    def test_validate_exit_codes(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(sgd_doc()))
        assert main(["validate", str(good)]) == 0
        doc = sgd_doc()
        doc["schedule"]["rho"] = 1.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1

    def test_unparseable_config_is_code_1(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        for content in (b"{not json", b'{"name": "\xff"}'):
            broken.write_bytes(content)
            with pytest.raises(SystemExit) as exc:
                main(["validate", str(broken)])
            assert exc.value.code == 1
            assert "config error" in capsys.readouterr().err

    def test_missing_config_is_code_3(self, tmp_path):
        for path in (tmp_path / "nope.json", tmp_path):
            with pytest.raises(SystemExit) as exc:
                main(["run", str(path)])
            assert exc.value.code == 3

    def test_run_and_diagnose(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(sgd_doc(n_steps=2000, seeds=(1,), base=1000)))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        checkpoint = tmp_path / "out" / "sgd_abs_small" / "1" / "checkpoint_1000.csv"
        assert main(["diagnose", str(checkpoint)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["iteration"] == 1000

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["problem"].pop("x0"), "problem.x0"),
        (lambda doc: doc.update(selection_rule="nearest"), "selection_rule"),
        (lambda doc: doc.update(guard_radius=1.0), "guard_radius"),
        (lambda doc: doc["problem"].update(x0=[1.0, 0.0]), "problem.x0"),
        (lambda doc: doc.update(problem={"kind": "fictitious_play"}), "problem.game"),
        (lambda doc: doc["problem"].update(f="quadx"), "unknown objective function 'quadx'"),
        (lambda doc: doc["problem"].update(f="maxsq0"), "unknown objective function 'maxsq0'"),
        (lambda doc: doc["problem"].update(f=7), "unknown objective function 7"),
        (lambda doc: doc["noise"].update(sigma=-1), "noise.sigma: a non-negative number required"),
        (lambda doc: doc["noise"].update(moment_order="two"),
         "noise.moment_order: a finite number required"),
        (lambda doc: doc.update(diagnostics={"bank_degre": 2}), "diagnostics.bank_degre"),
        (lambda doc: doc.update(delta={"kind": "constant", "a": 0.1}), "delta"),
        (lambda doc: doc.update(guard_radius="big"), "guard_radius: a number required"),
        (lambda doc: doc.update(noise="gaussian"), "noise: a JSON object required"),
        (lambda doc: doc.update(delta="power"), "delta: a JSON object required"),
        (lambda doc: doc.update(diagnostics=7), "diagnostics: a JSON object required"),
        (lambda doc: doc.update(problem=SHB_PROBLEM | {"c": "x"}), "problem.c"),
        (lambda doc: doc.update(problem=FP_PROBLEM | {"game": {"name": "generalized_rps",
                                                                 "zzz": 1}}), "problem.game"),
        (lambda doc: doc.update(problem=SHB_PROBLEM, schedule={"kind": "constant", "a": 1.5}),
         "schedule: heavy-ball beta steps must not exceed 1"),
        (lambda doc: doc.update(problem=FP_PROBLEM | {"xi0": [[1, 0]]}), "problem.xi0"),
        (lambda doc: doc.update(problem=FP_PROBLEM | {"game": "mystery"}),
         "unknown game 'mystery'"),
        (lambda doc: doc.update(problem={"kind": "custom_map", "map": "mystery", "dim": 1,
                                         "x0": [1.0]}), "unknown custom map 'mystery'"),
        (lambda doc: doc.update(problem={"kind": "custom_map", "map": "sign_descent", "dim": 2,
                                         "x0": [1.0, 0.0]}), "sign_descent is one-dimensional"),
        (lambda doc: doc.update(diagnostics={"residence_cell_size": -1}),
         "diagnostics.residence_cell_size: a positive number required"),
        (lambda doc: doc.update(diagnostics={"essential_threshold": 0}),
         "diagnostics.essential_threshold: a positive number required"),
        (lambda doc: doc.update(diagnostics={"velocity_moment_order": 1}),
         "diagnostics.velocity_moment_order: a number above 1 required"),
        (lambda doc: doc.update(diagnostics={"bank_bumps": 1.5}),
         "diagnostics.bank_bumps: a non-negative integer required"),
        (lambda doc: doc.update(diagnostics={"bank_degree": -1}),
         "diagnostics.bank_degree: a non-negative integer required"),
        (lambda doc: doc.update(diagnostics={"bank_degree": 9}),
         "diagnostics.bank_degree: at most 8, and at most 3002 monomials in 1 dimensions"),
        (lambda doc: doc.update(diagnostics={"bank_bumps": 100000000000}),
         "diagnostics.bank_bumps: at most 3002 required"),
        (lambda doc: doc.update(problem={"kind": "custom_map", "map": "attract_origin",
                                         "dim": 7, "x0": [0.5] * 7},
                                diagnostics={"bank_degree": 7}),
         "diagnostics.bank_degree: at most 8, and at most 3002 monomials in 7 dimensions"),
        (lambda doc: doc["problem"].update(f="quad30", x0=[0.1] * 30),
         "diagnostics.bank_degree: at most 8, and at most 3002 monomials in 30 dimensions"),
        (lambda doc: doc.update(diagnostics={"circulation": "yes"}),
         "diagnostics.circulation: true or false required"),
        (lambda doc: doc.update(diagnostics={"centroid_probes": [[1, 2]]}),
         "diagnostics.centroid_probes: a list of points with 1 coordinates required"),
        (lambda doc: doc.update(seeds=[-1]), "seeds"),
        (lambda doc: doc.update(name="a/b"), "name"),
        (lambda doc: doc.update(strict_bounded="yes"), "strict_bounded"),
        (lambda doc: doc["schedule"].update(rho=1e300),
         "schedule: the step size reaches 0 within n_steps"),
        (lambda doc: doc.update(problem=SHB_PROBLEM | {"alpha_schedule": {
            "kind": "power", "a": 0.5, "rho": 1e300}}),
         "alpha_schedule: the step size reaches 0 within n_steps"),
        (lambda doc: doc.update(schedule={"kind": "logarithmic", "a": 1.5e308}),
         "schedule: the step size passes the float range within n_steps"),
        (lambda doc: doc.update(seeds=[True]), "seeds: non-empty list of non-negative integers"),
        (lambda doc: doc.update(checkpoint_base=True), "checkpoint_base: positive integer"),
        (lambda doc: doc.update(n_steps=True), "n_steps: positive integer required"),
        (lambda doc: doc.update(diagnostics={"bank_degree": True}),
         "diagnostics.bank_degree: a non-negative integer required"),
        (lambda doc: doc.update(guard_radius=True), "guard_radius: a number required"),
        (lambda doc: doc.update(problem=FP_PROBLEM | {"game": dict(
            INLINE_PENNIES, payoff_tensors=[[[float("nan"), -1], [-1, 1]], [[-1, 1], [1, -1]]])}),
         "problem.game: payoffs must be finite"),
        (lambda doc: doc.update(problem=FP_PROBLEM | {"game": dict(
            INLINE_PENNIES, payoff_tensors=[[[1, -1], [-1, 1]], [[-1, 1], [1, -math.inf]]])}),
         "problem.game: payoffs must be finite"),
        (lambda doc: doc.update(problem=FP_PROBLEM | {"game": {"name": "generalized_rps",
                                                                 "a": math.inf}}),
         "problem.game: payoffs must be finite"),
        (lambda doc: doc.update(problem={"kind": "custom_map", "map": "doubling", "dim": 1,
                                         "x0": [1.0]}, guard_radius=1e300),
         "diagnostics.residence_cell_size: above 2.1684e+281 required"),
        (lambda doc: doc.update(problem=FP_PROBLEM, diagnostics={"residence_cell_size": 1e-19}),
         "diagnostics.residence_cell_size: above 2.1684e-19 required"),
        (lambda doc: doc["schedule"].update(a=math.inf), "schedule.a: a positive number required"),
        (lambda doc: doc.update(problem=SHB_PROBLEM | {"alpha_schedule": {
            "kind": "power", "a": 0.5, "rho": True}}),
         "problem.alpha_schedule.rho: a positive number required"),
        (lambda doc: doc["noise"].update(sigma=math.inf),
         "noise.sigma: a non-negative number required"),
        (lambda doc: doc["noise"].update(moment_order="2"),
         "noise.moment_order: a finite number required"),
        (lambda doc: doc.update(n_step=5), "n_step: unknown key"),
        (lambda doc: doc["schedule"].update(rho_typo=0.6), "schedule.rho_typo: unknown key"),
        (lambda doc: doc["noise"].update(sigmaa=3), "noise.sigmaa: unknown key"),
        (lambda doc: doc["problem"].update(c=1.0), "problem.c: unknown key"),
        (lambda doc: doc.update(schedule={"kind": "constant", "a": 0.1, "rho": 0.5}),
         "schedule.rho: unknown key"),
        (lambda doc: doc["problem"].update(x0=["1.0"]), "problem.x0: a list of numbers required"),
        (lambda doc: doc["problem"].update(x0=[True]), "problem.x0: a list of numbers required"),
        (lambda doc: doc.update(problem=SHB_PROBLEM | {"p0": ["0.5"]}),
         "problem.p0: a list of numbers required"),
        (lambda doc: doc.update(problem=FP_PROBLEM | {"xi0": [["0.5", "0.5"], [0.5, 0.5]]}),
         "problem.xi0: a list of points required"),
        (lambda doc: doc.update(delta={}),
         "delta.kind: one of power, logarithmic, constant, zero required"),
        (lambda doc: doc.update(delta={"kind": None}),
         "delta.kind: one of power, logarithmic, constant, zero required"),
        (lambda doc: doc.update(schedule=None), "schedule: a JSON object required"),
        (lambda doc: doc.update(seeds=[1, 1]),
         "seeds: non-empty list of non-negative integers without repeats required"),
        (lambda doc: doc.update(problem=FP_PROBLEM | {"game": dict(INLINE_PENNIES, players="2")}),
         "problem.game.players: positive integer required"),
        (lambda doc: doc.update(problem=FP_PROBLEM | {"game": dict(INLINE_PENNIES, players=2.7)}),
         "problem.game.players: positive integer required"),
        (lambda doc: doc.update(problem=FP_PROBLEM | {"game": {
            "players": True, "action_counts": [2], "payoff_tensors": [[1, -1]]}}),
         "problem.game.players: positive integer required"),
        (lambda doc: doc.update(problem=FP_PROBLEM | {"game": dict(INLINE_PENNIES,
                                                                 action_counts=[2.9, 2])}),
         "problem.game.action_counts: a list of positive integers required"),
        (lambda doc: doc.update(problem=FP_PROBLEM | {"game": dict(INLINE_PENNIES, payof=1)}),
         "problem.game.payof: unknown key"),
    ], ids=["missing_x0", "unknown_rule", "guard_inside_start", "x0_length", "missing_game",
            "objective_suffix", "objective_dimension_0", "objective_not_a_string",
            "negative_sigma", "moment_order_not_a_number", "unknown_diagnostics_key",
            "delta_on_sgd", "guard_radius_not_a_number", "noise_not_an_object",
            "delta_not_an_object", "diagnostics_not_an_object", "momentum_ratio_not_a_number",
            "unknown_game_argument", "heavy_ball_beta_above_1", "profile_missing_a_player",
            "unknown_game", "unknown_custom_map", "sign_descent_in_2d",
            "negative_cell_size", "zero_threshold", "moment_order_1", "fractional_bumps",
            "negative_degree", "degree_above_8", "bumps_above_3002", "bank_above_3002_monomials",
            "default_degree_in_30_dimensions", "circulation_not_a_bool", "probe_of_wrong_dimension",
            "negative_seed", "name_not_a_directory_name", "strict_bounded_not_a_bool",
            "step_underflow", "heavy_ball_alpha_underflow", "step_overflow", "seed_is_a_bool",
            "checkpoint_base_is_a_bool", "n_steps_is_a_bool", "bank_degree_is_a_bool",
            "guard_radius_is_a_bool", "nan_payoff", "infinite_payoff", "rps_with_infinite_win",
            "cell_index_beyond_int64", "profile_cell_index_beyond_int64",
            "infinite_step", "alpha_rho_is_a_bool", "infinite_sigma", "moment_order_is_a_string",
            "misspelt_top_level_key", "misspelt_schedule_key", "misspelt_noise_key",
            "momentum_ratio_on_sgd", "rho_on_a_constant_schedule", "x0_of_strings",
            "x0_of_booleans", "p0_of_strings", "xi0_of_strings", "empty_delta", "delta_kind_null",
            "schedule_null", "repeated_seed", "players_a_string", "players_fractional",
            "players_a_bool", "action_counts_fractional", "misspelt_game_key"])
    def test_config_errors_exit_1_without_traceback(self, tmp_path, capsys, edit, message):
        doc = sgd_doc(n_steps=1000, base=500)
        edit(doc)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        for argv in (["run", str(cfg), "--out", str(tmp_path / "out")], ["validate", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert f"config error: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_velocity_moment_is_written_as_null(self, tmp_path):
        # JSON has no Infinity: a moment too large for a float is null, in the
        # summary and in diagnose, while a finite one stays a number.
        def strict(text):
            return json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in JSON"))

        doc = sgd_doc(n_steps=1000, seeds=(1,), base=500)
        doc["diagnostics"] = {"velocity_moment_order": 1000}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        seed_dir = tmp_path / "out" / "sgd_abs_small" / "1"
        summary = strict((seed_dir / "summary.json").read_text())
        assert [c["velocity_moment"] for c in summary["checkpoints"]] == [
            {"order": 1000, "value": None}] * 2
        for n in (500, 1000):
            code, out = _diagnose(seed_dir / f"checkpoint_{n}.csv")
            assert code == 0 and strict(out)["velocity_moment"] == {"order": 1000, "value": None}
        doc["diagnostics"] = {"velocity_moment_order": 3}
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        summary = strict((seed_dir / "summary.json").read_text())
        assert all(isinstance(c["velocity_moment"]["value"], float)
                   for c in summary["checkpoints"])

    def test_overflowing_escape_is_written_as_null(self, tmp_path):
        # A state that overflows escapes with an infinite norm, and the bank
        # residuals of the checkpoint holding it are infinite: both are null,
        # in the summary and in diagnose.  x_1 = 1e300 lies inside the ball,
        # so the run escapes at x_2 = inf, written as null too.
        def strict(text):
            return json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in JSON"))

        doc = {"name": "overflow",
               "problem": {"kind": "custom_map", "map": "doubling", "dim": 1, "x0": [1.0]},
               "schedule": {"kind": "constant", "a": 1e300}, "n_steps": 50,
               "guard_radius": 1e308, "seeds": [0], "checkpoint_base": 10,
               "diagnostics": {"residence_cell_size": 1e290}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
            seed_dir = tmp_path / "out" / "overflow" / "0"
            summary = strict((seed_dir / "summary.json").read_text())
            code, out = _diagnose(seed_dir / "checkpoint_2.csv")
        assert summary["escape"] == {"index": 2, "norm": None}
        assert summary["final_state"] == [None]
        residuals = summary["checkpoints"][0]["closed_residuals"]
        assert residuals["u^1"] is None and residuals["u^2"] is None
        assert code == 0 and strict(out)["closed_residuals"] == residuals

    def test_finite_state_with_an_overflowing_norm_escapes(self, tmp_path):
        # x_1 = [1.3e308, 1.3e308] has finite coordinates and an infinite
        # norm: it escapes, with the norm null and the residuals as numbers;
        # u0^1, whose products w_j <f, v> overflow, is retaken as the sum of
        # (w_j / W) <f, v>, which fits a float.
        def strict(text):
            return json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in JSON"))

        doc = {"name": "overflow",
               "problem": {"kind": "custom_map", "map": "doubling", "dim": 2,
                           "x0": [1.0, 1.0]},
               "schedule": {"kind": "constant", "a": 1.3e308}, "n_steps": 50,
               "guard_radius": 1e308, "seeds": [0], "checkpoint_base": 10,
               "diagnostics": {"residence_cell_size": 1e290}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
            seed_dir = tmp_path / "out" / "overflow" / "0"
            summary = strict((seed_dir / "summary.json").read_text())
            code, out = _diagnose(seed_dir / "checkpoint_1.csv")
        assert summary["escape"] == {"index": 1, "norm": None}
        assert summary["final_state"] == [1.3e308, 1.3e308]
        residuals = summary["checkpoints"][0]["closed_residuals"]
        assert residuals["u0^1"] == 999999972.7707809 and residuals["u0^2"] == 0.0
        assert code == 0 and strict(out)["closed_residuals"] == residuals

    @pytest.mark.parametrize("doc", [
        {**sgd_doc(n_steps=2000, seeds=(1,), base=500),
         "diagnostics": {"bank_degree": 2, "bank_bumps": 1, "residence_cell_size": 0.05}},
        _escaping_doc("sgd_quad1", {"kind": "sgd", "f": "quad1", "x0": [1.0]}, 1e300, 1e300),
    ], ids=["sgd_abs", "escaping_with_nulls"])
    def test_diagnose_prints_the_json_dumps_bytes_of_its_entry(self, tmp_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
            sidecars = sorted((tmp_path / "out" / doc["name"]).rglob("checkpoint_*.json"))
            assert sidecars
            for sidecar in sidecars:
                code, out = _diagnose(sidecar.with_suffix(".csv"))
                entry = diagnose_checkpoint(sidecar.with_suffix(".csv"))
                assert code == 0 and out == json.dumps(entry, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("doc, nulls", [
        (_escaping_doc("sgd_quad1", {"kind": "sgd", "f": "quad1", "x0": [1.0]}, 1e300, 1e300),
         [("0/summary.json", "checkpoints", 0, "circulation", "min_norm_subgradient")]),
        (_escaping_doc("doubling", {"kind": "custom_map", "map": "doubling", "dim": 1,
                                    "x0": [1.0]}, 1e300, 1e300, centroid_probes=[[1.0]]),
         [("0/summary.json", "checkpoints", 0, "centroid", "bandwidth"),
          ("0/summary.json", "checkpoints", 0, "centroid", "gap")]),
        (_escaping_doc("attract_origin", {"kind": "custom_map", "map": "attract_origin",
                                          "dim": 1, "x0": [1.0]}, 1e308, 1e290),
         [("0/summary.json", "checkpoints", 0, "total_weight"),
          ("0/summary.json", "checkpoints", 0, "oscillation", "one", "psi_weight"),
          ("0/summary.json", "elapsed_clock"), ("0/checkpoint_2.json", "total_weight")]),
    ], ids=["circulation", "centroid", "weights_and_clock"])
    def test_escaping_run_writes_every_document_as_json(self, tmp_path, capsys, doc, nulls):
        # JSON has no Infinity or NaN: each document is made finite once, at its
        # root, so every field that overflows is null, wherever it stands.
        def strict(text):
            return json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in JSON"))

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        root = tmp_path / "out" / doc["name"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
            printed = capsys.readouterr().out
            diagnosed = [_diagnose(p.with_suffix(".csv"))
                         for p in sorted(root.glob("0/checkpoint_*.json"))]
            report = run_experiment(doc)
        assert sum(line.startswith("seed ") for line in printed.splitlines()) == 1
        docs = {str(p.relative_to(root)): strict(p.read_text()) for p in root.rglob("*.json")}
        for file, *path in nulls:
            assert functools.reduce(lambda node, key: node[key], path, docs[file]) is None
        summary = docs["0/summary.json"]
        assert diagnosed
        for code, out in diagnosed:
            entry = strict(out)
            [checkpoint] = [c for c in summary["checkpoints"]
                            if c["iteration"] == entry["iteration"]]
            assert code == 0 and set(entry) - set(checkpoint) == {"sidecar"}
            assert all(entry[key] == checkpoint[key] for key in entry if key != "sidecar")
            assert entry["sidecar"] == docs[f"0/checkpoint_{entry['iteration']}.json"]
        assert report.seed_summaries[0] == summary

    def test_sidecar_with_an_infinite_total_weight_still_diagnoses(self, tmp_path):
        # Sidecars written before the null rule hold "Infinity"; the weight
        # check reads both spellings of an infinite sum alike.
        doc = _escaping_doc("attract_origin", {"kind": "custom_map", "map": "attract_origin",
                                               "dim": 1, "x0": [1.0]}, 1e308, 1e290)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_experiment(doc, out_dir=tmp_path)
            checkpoint = tmp_path / "attract_origin" / "0" / "checkpoint_2.csv"
            sidecar = checkpoint.with_suffix(".json")
            expected = _diagnose(checkpoint)
            sidecar.write_text(sidecar.read_text().replace('"total_weight": null',
                                                           '"total_weight": Infinity'))
            assert "Infinity" in sidecar.read_text()
            assert _diagnose(checkpoint) == expected and expected[0] == 0

    def test_empty_seeds_override_is_code_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(sgd_doc(n_steps=1000, base=500)))
        for seeds in (",", "-1", "1_0", "+1", "1,1", "1,,2", "1,", ""):
            assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--seeds", seeds]) == 1
            assert "--seeds expects" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("iteration"),
        lambda meta: meta.pop("dimension"),
        lambda meta: meta.update(diagnostics="x"),
        lambda meta: meta["diagnostics"].update(residence_cell_size=-1),
        lambda meta: meta["diagnostics"].update(residence_cell_size=1e-300),
        lambda meta: meta["diagnostics"].update(bank_bumps=100000000000),
        lambda meta: meta.update(iteration=True),
        lambda meta: meta.update(iteration=-5),
        lambda meta: meta.update(iteration=0),
        lambda meta: meta.update(iteration=2**63),
        lambda meta: meta.update(iteration=10**30),
        lambda meta: meta.update(dimension=2**40),
    ], ids=["no_iteration", "no_dimension", "diagnostics_not_an_object", "negative_cell_size",
            "cell_index_beyond_int64", "bumps_above_3002", "iteration_a_bool", "negative_iteration", "zero_iteration",
            "iteration_2_63", "iteration_10_30", "dimension_2_40"])
    def test_bad_sidecar_is_reported(self, tmp_path, capsys, edit):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(sgd_doc(n_steps=1000, seeds=(1,), base=500)))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        checkpoint = tmp_path / "out" / "sgd_abs_small" / "1" / "checkpoint_500.csv"
        sidecar = checkpoint.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        edit(meta)
        sidecar.write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["diagnose", str(checkpoint)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bad checkpoint:") and "Traceback" not in err

    @pytest.mark.parametrize("iteration", [True, -5, 0])
    def test_sample_csv_sidecar_needs_a_positive_iteration(self, tmp_path, capsys, iteration):
        # Samples read from the checkpoint's own CSV take no row count from the
        # iteration, so diagnose checks it (true would be reported as 1).
        _write_sample_csvs(sgd_doc(n_steps=1000, seeds=(1,), base=500), 1, [500], tmp_path)
        sidecar = tmp_path / "checkpoint_500.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "iteration": iteration}))
        capsys.readouterr()
        assert main(["diagnose", str(tmp_path / "checkpoint_500.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bad checkpoint:") and "Traceback" not in err

    def test_sample_csv_with_a_nan_weight_is_reported(self, tmp_path, capsys):
        # Its total weight is NaN, which the sidecar writes as null: the weight
        # check alone would let it through.
        (tmp_path / "checkpoint_2.csv").write_text("j,x0,v0,weight\r\n0,1,0,0.5\r\n"
                                                   "1,2,0,nan\r\n")
        (tmp_path / "checkpoint_2.json").write_text(json.dumps(
            {"dimension": 1, "total_weight": None, "iteration": 2, "seed": None}))
        assert main(["diagnose", str(tmp_path / "checkpoint_2.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bad checkpoint: weights must be non-negative")
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, code, message", [
        (_truncate_trajectory, 1, "bad checkpoint: trajectory.csv has 999 rows"),
        (_drop_last_trajectory_column, 1, "bad checkpoint: trajectory.csv has 6 columns, expected 7"),
        (_tamper_total_weight, 1, "bad checkpoint: trajectory.csv rows weigh"),
        (_nan_step, 1, "bad checkpoint: weights must be non-negative"),
        (lambda seed_dir: (seed_dir / "trajectory.csv").unlink(), 3, "cannot read checkpoint"),
    ], ids=["truncated_trajectory", "trajectory_column_missing", "tampered_total_weight",
            "nan_step", "missing_trajectory"])
    def test_bad_trajectory_rows_are_reported(self, tmp_path, capsys, edit, code, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(sgd_doc(n_steps=1000, seeds=(1,), base=500)))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        seed_dir = tmp_path / "out" / "sgd_abs_small" / "1"
        assert main(["diagnose", str(seed_dir / "checkpoint_500.csv")]) == 0
        edit(seed_dir)
        capsys.readouterr()
        assert main(["diagnose", str(seed_dir / "checkpoint_1000.csv")]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["run"], "the following arguments are required: config"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["run", "cfg.json", "--jobs", "x"], "argument --jobs: a positive integer required"),
        (["run", "cfg.json", "--jobs", "0"], "argument --jobs: a positive integer required"),
    ], ids=["no_config", "unknown_command", "jobs_not_a_number", "zero_jobs"])
    def test_usage_error_is_code_1(self, capsys, argv, message):
        # 2 is a strict-mode escape, so a typo must not exit with it.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: svsa") and f"error: {message}" in err

    def test_help_is_code_0(self, capsys):
        for argv in (["--help"], ["run", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
        assert "--jobs K" in capsys.readouterr().out

    def test_jobs_beyond_the_seeds_starts_one_worker_per_seed(self, tmp_path, monkeypatch):
        pools = _inline_pools(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(sgd_doc(n_steps=200, base=100)))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--jobs", "500"]) == 0
        assert [(pool.max_workers, pool.chunks) for pool in pools] == [(2, [[1], [2]])]

    def test_strict_escape_is_code_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(escape_doc()))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_seeds_override_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(sgd_doc(n_steps=1000, base=500)))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"),
                     "--seeds", "9"]) == 0
        assert (tmp_path / "out" / "sgd_abs_small" / "9" / "summary.json").exists()

    def test_module_entry_point(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(sgd_doc(n_steps=1000, base=500)))
        # the package's own directory, also when pytest put it on sys.path
        package_root = str(Path(experiments.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "svsa.cli", "validate", str(cfg)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0


# Property: from_doc is the one gate ------------------------------------------------

FUZZ_BASES = {
    "sgd": {
        "name": "fuzz_sgd",
        "problem": {"kind": "sgd", "f": "maxsq2", "x0": [1.0, -0.5]},
        "schedule": {"kind": "power", "a": 0.5, "rho": 0.6},
        "noise": {"kind": "gaussian", "sigma": 0.3, "moment_order": 2.0},
        "n_steps": 60, "guard_radius": 50.0, "seeds": [1], "checkpoint_base": 20,
        "selection_rule": "random_hull",
        "diagnostics": {"bank_degree": 2, "centroid_probes": [[0.0, 0.0]]},
    },
    "shb": {
        "name": "fuzz_shb",
        "problem": {"kind": "shb", "f": "quad1", "c": 1.5, "q0": [1.0], "p0": [0.2],
                    "alpha_schedule": {"kind": "power", "a": 0.4, "rho": 0.6}},
        "schedule": {"kind": "power", "a": 0.5, "rho": 0.6},
        "noise": {"kind": "student_t", "df": 4.0, "scale": 0.2},
        "n_steps": 60, "seeds": [2], "checkpoint_base": 20,
    },
    "fictitious_play": {
        "name": "fuzz_fp",
        "problem": {"kind": "fictitious_play",
                    "game": {"name": "generalized_rps", "a": 1.0, "b": 2.0},
                    "xi0": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
        "n_steps": 60, "seeds": [3], "checkpoint_base": 20,
        "diagnostics": {"centroid_probes": [[1 / 3] * 6], "circulation": False},
    },
    "custom_map": {
        "name": "fuzz_map",
        "problem": {"kind": "custom_map", "map": "sign_descent", "dim": 1, "x0": [0.7]},
        "schedule": {"kind": "logarithmic", "a": 0.3},
        "delta": {"kind": "power", "a": 0.2, "rho": 0.3},
        "noise": {"kind": "uniform_ball", "radius": 0.1},
        "n_steps": 60, "seeds": [4], "checkpoint_base": 20, "strict_bounded": False,
        "diagnostics": {"residence_cell_size": 0.05, "essential_threshold": 0.1,
                        "velocity_moment_order": 3, "bank_bumps": 2, "bank_seed": 5,
                        "centroid_probes": [[0.0], [0.5]]},
    },
}

# Fields that size the work of a run, bounded so each example stays small.  The
# bank holds C(degree + dimension, dimension) - 1 monomials and its bumps;
# from_doc bounds the degree and the bump count, and one past each bound is
# drawn too.
WORK_CAPS = {"n_steps": 200, "bank_degree": experiments.MAX_BANK_DEGREE + 1,
             "bank_bumps": experiments.MAX_BANK_MONOMIALS + 1}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8)
# Most fields hold numbers; drawing more of them gets more documents past from_doc.
FIELD_VALUES = JSON_VALUES | st.integers() | st.floats(allow_nan=False, allow_infinity=False)


def _field_paths(node, prefix=()):
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


def _fuzzed(base: str, path: tuple, value) -> dict:
    """A copy of the base document with the field at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(FUZZ_BASES[base]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def fuzzed_docs(draw):
    base = draw(st.sampled_from(sorted(FUZZ_BASES)))
    path = draw(st.sampled_from(list(_field_paths(FUZZ_BASES[base]))))
    value = draw(FIELD_VALUES)
    cap = WORK_CAPS.get(path[-1])
    if cap is not None and isinstance(value, int) and value > cap:
        value = cap
    return _fuzzed(base, path, value)


def _objects(node, path=()):
    """Each JSON object of a document with its path, but a builtin game's
    arguments, which its function's signature checks instead of a table."""
    if isinstance(node, dict):
        if not (path == ("problem", "game") and "payoff_tensors" not in node):
            yield path, node
        for key, child in node.items():
            yield from _objects(child, path + (key,))


@st.composite
def docs_with_a_misspelt_key(draw):
    """A base document with a key that its object's table does not list: a
    listed key with its last character dropped or upper-case letters appended
    (no table lists a key with either)."""
    doc = json.loads(json.dumps(FUZZ_BASES[draw(st.sampled_from(sorted(FUZZ_BASES)))]))
    path, node = draw(st.sampled_from(list(_objects(doc))))
    listed = draw(st.sampled_from(sorted(node)))
    key = draw(st.just(listed[:-1]) | st.text("XYZ", min_size=1, max_size=3).map(listed.__add__))
    node[key] = draw(FIELD_VALUES)
    return doc, ".".join(path + (key,))


class TestFuzzedConfigs:
    def test_bases_run(self):
        for doc in FUZZ_BASES.values():
            assert run_experiment(doc).seed_summaries

    # Draws that overflowed a float, each once with a RuntimeWarning:
    # (i + 1)^rho of the enlargement schedule (its delta is then 0),
    @example(_fuzzed("custom_map", ("delta", "rho"), 1e300))
    # the square of a velocity in the norm of velocity_moment,
    @example(_fuzzed("custom_map", ("noise", "radius"), 1e200))
    @example(_fuzzed("shb", ("problem", "alpha_schedule", "a"), 1e200))
    # the products eps_j <grad g, v> of a closed residual,
    @example(_fuzzed("sgd", ("schedule", "a"), 1e300))
    # a student-t draw times its scale,
    @example(_fuzzed("shb", ("noise", "scale"), 1e308))
    # a step of the recursion and the clock, a sum of steps,
    @example(_fuzzed("sgd", ("schedule", "a"), 1e308))
    # and a logarithmic step a / ln 2, which the config now rejects.
    @example(_fuzzed("custom_map", ("schedule", "a"), 1.7976931348623157e308))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(fuzzed_docs())
    def test_config_error_or_a_completed_run(self, doc):
        try:
            ExperimentConfig.from_doc(doc)
        except ConfigError:
            with tempfile.TemporaryDirectory() as tmp:
                cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
                cfg.write_text(json.dumps(doc))
                with pytest.raises(SystemExit) as exc:
                    main(["run", str(cfg), "--out", str(out)])
                assert exc.value.code == 1 and not out.exists()
            return
        report = run_experiment(doc, out_dir=None)
        assert {s["status"] for s in report.seed_summaries} <= {"completed", "escaped"}

    @settings(max_examples=100, deadline=None)
    @given(docs_with_a_misspelt_key())
    def test_a_misspelt_key_is_named(self, case):
        doc, key = case
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_doc(doc)
        assert f"{key}: unknown key" in err.value.problems
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
            cfg.write_text(json.dumps(doc))
            with pytest.raises(SystemExit) as exc:
                main(["run", str(cfg), "--out", str(out)])
            assert exc.value.code == 1 and not out.exists()


# Every config a committed tool runs -------------------------------------------------

REPO = Path(__file__).resolve().parents[1]


def _module(path: Path, monkeypatch):
    """A script or bench module of the repository, imported from its file (and
    listed in sys.modules for the test only: its dataclasses look it up there)."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, path.stem, module)
    spec.loader.exec_module(module)
    return module


class TestCommittedConfigs:
    """A stricter reader must not reject a config that the README shows, the
    identity check runs or the benchmark builds."""

    def test_readme_example(self):
        text = (REPO / "README.md").read_text()
        ExperimentConfig.from_doc(json.loads(text.split("```json\n", 1)[1].split("```", 1)[0]))

    def test_identity_check_configs(self, monkeypatch):
        script = _module(REPO / "scripts" / "identity_check.py", monkeypatch)
        assert script.SHB_SEEDS in script.CONFIGS
        for doc in script.CONFIGS:
            ExperimentConfig.from_doc(doc)

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_benchmark_workload_configs(self, tmp_path, monkeypatch, seed):
        workloads = _module(REPO / "bench" / "workloads.py", monkeypatch)
        built = [workload(seed, tmp_path, True) for workload in workloads.WORKLOADS.values()]
        docs = [w.doc for w in built if hasattr(w, "doc")]
        assert len(docs) == 3
        for doc in docs:
            ExperimentConfig.from_doc(doc)

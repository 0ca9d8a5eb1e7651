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
from svsa.cli import main
from svsa.experiments import (ConfigError, ExperimentConfig, checkpoint_iterations,
                              diagnose_checkpoint, named_function, named_map,
                              run_experiment, validate_config)
from svsa.maps import _select_from, clarke_subdifferential
from svsa.occupation import accumulate, circulation, save_checkpoint


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
        doc = sgd_doc(n_steps=2000, base=1000)
        serial = run_experiment(doc, out_dir=None, jobs=1)
        parallel = run_experiment(doc, out_dir=None, jobs=2)
        assert serial.seed_summaries == parallel.seed_summaries

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


class TestThinnedCheckpoints:
    def test_run_past_max_samples(self, monkeypatch, tmp_path):
        # Checkpoints 1000 and 2000 hold 700 thinned samples each: they are
        # not prefixes of the run, so their circulation uses their own samples.
        monkeypatch.setattr(experiments, "accumulate",
                            functools.partial(accumulate, max_samples=700))
        doc = {"name": "shb_thinned",
               "problem": {"kind": "shb", "f": "maxsq2", "q0": [1.0, 0.5]},
               "schedule": {"kind": "power", "a": 0.5, "rho": 0.6},
               "noise": {"kind": "gaussian", "sigma": 0.3},
               "n_steps": 2000, "seeds": [1], "checkpoint_base": 250}
        summary = run_experiment(doc, out_dir=tmp_path).seed_summaries[0]
        assert summary["status"] == "completed" and "essential_cells" in summary
        # Only the thinned checkpoints keep a sample CSV.
        seed_dir = tmp_path / "shb_thinned" / "1"
        assert sorted(p.name for p in seed_dir.glob("checkpoint_*.csv")) == [
            "checkpoint_1000.csv", "checkpoint_2000.csv"]

        config = ExperimentConfig.from_doc(doc)
        traj = next(experiments._build_runs(config, [1]))
        f = config.problem.objective

        def field(X):
            out = np.zeros_like(X)
            out[:, :2] = [_select_from(clarke_subdifferential(f, q), "min_norm", None)
                          for q in X[:, :2]]
            return out

        for entry in summary["checkpoints"]:
            m = accumulate(traj, upto=entry["iteration"], max_samples=700)
            assert entry["n_samples"] == m.n_samples == min(entry["iteration"], 700)
            assert entry["circulation"]["min_norm_subgradient"] == circulation(m, field)
        for entry in summary["checkpoints"]:
            recomputed = diagnose_checkpoint(seed_dir / f"checkpoint_{entry['iteration']}.csv")
            assert recomputed["n_samples"] == entry["n_samples"]
            assert recomputed["closed_residuals"] == entry["closed_residuals"]

        # A thinned sidecar is marked, so its samples never come from the
        # trajectory: without its CSV it is unreadable, and a total weight
        # that differs from the CSV's is rejected.
        sidecar = seed_dir / "checkpoint_1000.json"
        meta = json.loads(sidecar.read_text())
        assert meta["standalone"] is True
        assert "standalone" not in json.loads(_diagnose(seed_dir / "checkpoint_1000.csv")[1])[
            "sidecar"]
        _tamper_total_weight(seed_dir)
        assert _diagnose(seed_dir / "checkpoint_1000.csv")[0] == 1
        sidecar.write_text(json.dumps(meta))
        (seed_dir / "checkpoint_1000.csv").unlink()
        assert _diagnose(seed_dir / "checkpoint_1000.csv")[0] == 3


class TestDiagnose:
    def _assert_round_trip(self, tmp_path, doc):
        report = run_experiment(doc, out_dir=tmp_path)
        summary = report.seed_summaries[0]
        entry = summary["checkpoints"][0]
        recomputed = diagnose_checkpoint(
            tmp_path / "sgd_abs_small" / "1" / "checkpoint_1000.csv")
        assert recomputed["closed_residuals"].keys() == entry["closed_residuals"].keys()
        for name, value in entry["closed_residuals"].items():
            assert abs(recomputed["closed_residuals"][name] - value) <= 1e-12
        for name, stat in entry["oscillation"].items():
            np.testing.assert_allclose(recomputed["oscillation"][name]["average"],
                                       stat["average"], atol=1e-12)
            assert abs(recomputed["oscillation"][name]["psi_weight"]
                       - stat["psi_weight"]) <= 1e-12
        assert abs(recomputed["velocity_moment"]["value"]
                   - entry["velocity_moment"]["value"]) <= 1e-12
        assert recomputed["residence_grid"] == entry["residence_grid"]
        assert recomputed["sidecar"]["seed"] == 1

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
    prefix measures, as every checkpoint was stored before sidecar-only ones."""
    config = ExperimentConfig.from_doc(doc)
    traj = next(experiments._build_runs(config, [seed]))
    for i in iterations:
        save_checkpoint(accumulate(traj, upto=i), Path(directory) / f"checkpoint_{i}.csv",
                        iteration=i, seed=seed, diagnostics=config.diagnostics)


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
            _write_sample_csvs(doc, seed, iterations, tmp)
            for i in iterations:
                from_rows = _diagnose(seed_dir / f"checkpoint_{i}.csv")
                assert from_rows[0] == 0
                assert from_rows == _diagnose(Path(tmp) / f"checkpoint_{i}.csv")

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


    def test_rerun_into_the_same_directory_reports_the_new_run(self, monkeypatch, tmp_path):
        # The first run's checkpoints are thinned to sample CSVs and it runs
        # longer; the second, edited under the same name, stores sidecars only.
        first = {"name": "rerun", "problem": {"kind": "shb", "f": "maxsq2", "q0": [1.0, 0.5]},
                 "schedule": {"kind": "power", "a": 0.5, "rho": 0.6},
                 "noise": {"kind": "gaussian", "sigma": 0.3},
                 "n_steps": 4000, "seeds": [1], "checkpoint_base": 250}
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "accumulate",
                          functools.partial(accumulate, max_samples=700))
            run_experiment(first, out_dir=tmp_path)
        seed_dir = tmp_path / "rerun" / "1"
        assert (seed_dir / "checkpoint_1000.csv").exists()
        second = {**first, "noise": {"kind": "gaussian", "sigma": 0.6}, "n_steps": 2000}
        run_experiment(second, out_dir=tmp_path)
        summary = json.loads((seed_dir / "summary.json").read_text())
        assert sorted(p.name for p in seed_dir.glob("checkpoint_*")) == sorted(
            f"checkpoint_{entry['iteration']}.json" for entry in summary["checkpoints"])
        for entry in summary["checkpoints"]:
            recomputed = diagnose_checkpoint(seed_dir / f"checkpoint_{entry['iteration']}.csv")
            recomputed.pop("sidecar")
            assert recomputed == {k: entry[k] for k in recomputed}


def _truncate_trajectory(seed_dir):
    path = seed_dir / "trajectory.csv"
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:1000]))


def _drop_last_trajectory_column(seed_dir):
    path = seed_dir / "trajectory.csv"
    lines = path.read_bytes().splitlines()
    path.write_bytes(b"".join(line.rsplit(b",", 1)[0] + b"\r\n" for line in lines))


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
            "negative_degree", "degree_above_8", "bank_above_3002_monomials",
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
        # norm: it escapes, with the norm and the residuals that overflow null
        # and the ones that do not as numbers.
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
        assert residuals["u0^1"] is None and residuals["u0^2"] == 0.0
        assert code == 0 and strict(out)["closed_residuals"] == residuals

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
        for seeds in (",", "-1", "1_0", "+1", "1,1"):
            assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--seeds", seeds]) == 1
            assert "--seeds expects" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("iteration"),
        lambda meta: meta.pop("dimension"),
        lambda meta: meta.update(diagnostics="x"),
        lambda meta: meta["diagnostics"].update(residence_cell_size=-1),
        lambda meta: meta["diagnostics"].update(residence_cell_size=1e-300),
        lambda meta: meta.update(iteration=True),
        lambda meta: meta.update(iteration=-5),
        lambda meta: meta.update(iteration=0),
    ], ids=["no_iteration", "no_dimension", "diagnostics_not_an_object", "negative_cell_size",
            "cell_index_beyond_int64", "iteration_a_bool", "negative_iteration", "zero_iteration"])
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

    @pytest.mark.parametrize("edit, code, message", [
        (_truncate_trajectory, 1, "bad checkpoint: trajectory.csv has 999 rows"),
        (_drop_last_trajectory_column, 1, "bad checkpoint: trajectory.csv has 6 columns, expected 7"),
        (_tamper_total_weight, 1, "bad checkpoint: trajectory.csv rows weigh"),
        (lambda seed_dir: (seed_dir / "trajectory.csv").unlink(), 3, "cannot read checkpoint"),
    ], ids=["truncated_trajectory", "trajectory_column_missing", "tampered_total_weight",
            "missing_trajectory"])
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
# bank holds C(degree + dimension, dimension) - 1 monomials; from_doc bounds its
# degree, and one past that bound is drawn too.
WORK_CAPS = {"n_steps": 200, "bank_degree": experiments.MAX_BANK_DEGREE + 1, "bank_bumps": 20}

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
        for doc in [doc for doc, _ in script.CONFIGS] + [script.SHB_SEEDS]:
            ExperimentConfig.from_doc(doc)

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_benchmark_workload_configs(self, tmp_path, monkeypatch, seed):
        workloads = _module(REPO / "bench" / "workloads.py", monkeypatch)
        built = [workload(seed, tmp_path, True) for workload in workloads.WORKLOADS.values()]
        docs = [w.doc for w in built if hasattr(w, "doc")]
        assert len(docs) == 3
        for doc in docs:
            ExperimentConfig.from_doc(doc)

import json
import subprocess
import sys

import numpy as np
import pytest

from svsa.cli import main
from svsa.experiments import (ConfigError, ExperimentConfig, checkpoint_iterations,
                              diagnose_checkpoint, named_function, named_map,
                              run_experiment, validate_config)


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


class TestConfig:
    def test_schema_violations_are_listed(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_doc({"name": "", "problem": {"kind": "wat"},
                                       "n_steps": 0, "seeds": []})
        text = "; ".join(err.value.problems)
        assert "name" in text and "problem.kind" in text
        assert "n_steps" in text and "seeds" in text

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
            checkpoints = sorted(sd.glob("checkpoint_*.csv"))
            assert len(checkpoints) >= 2
            assert (sd / "summary.json").exists()
        assert report.bounded_fraction == 1.0
        assert len(report.seed_summaries) == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        run_experiment(sgd_doc(n_steps=2000, base=1000), out_dir=tmp_path / "a")
        run_experiment(sgd_doc(n_steps=2000, base=1000), out_dir=tmp_path / "b")
        for rel in ("sgd_abs_small/1/summary.json", "sgd_abs_small/manifest.json",
                    "sgd_abs_small/1/checkpoint_1000.csv"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_parallel_seeds_match_serial(self, tmp_path):
        doc = sgd_doc(n_steps=2000, base=1000)
        serial = run_experiment(doc, out_dir=None, jobs=1)
        parallel = run_experiment(doc, out_dir=None, jobs=2)
        assert serial.seed_summaries == parallel.seed_summaries

    def test_seed_override(self):
        report = run_experiment(sgd_doc(n_steps=1000, base=500), seeds=[7])
        assert [s["seed"] for s in report.seed_summaries] == [7]

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
        broken.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(broken)])
        assert exc.value.code == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_is_code_3(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(tmp_path / "nope.json")])
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
        (lambda doc: doc["noise"].update(sigma=-1), "noise: malformed model"),
        (lambda doc: doc["noise"].update(moment_order="two"), "noise: malformed model"),
        (lambda doc: doc.update(diagnostics={"bank_degre": 2}), "diagnostics.bank_degre"),
        (lambda doc: doc.update(delta={"kind": "constant", "a": 0.1}), "delta"),
    ], ids=["missing_x0", "unknown_rule", "guard_inside_start", "x0_length", "missing_game",
            "objective_suffix", "objective_dimension_0", "objective_not_a_string",
            "negative_sigma", "moment_order_not_a_number", "unknown_diagnostics_key",
            "delta_on_sgd"])
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
        proc = subprocess.run([sys.executable, "-m", "svsa.cli", "validate", str(cfg)],
                              capture_output=True, text=True)
        assert proc.returncode == 0

import json

import pytest

from subcities.cli import main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BASE = {
    "f": {"kind": "quadratic"},
    "g": {"kind": "power", "b": 1.0, "r": 0.5},
    "p": 2.0,
    "n": 1,
    "k_max": 3,
    "seed": 11,
}


class TestEnergyCurveMode:
    def test_writes_table_and_report(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "curve_samples": 10})
        out = tmp_path / "run"
        assert main(["energy-curve", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "energy_curve.csv").read_text().splitlines()
        assert lines[0] == "m,E,E',E''"
        assert len(lines) == 11
        report = json.loads((out / "report.json").read_text())
        assert report["result"]["atomization"]["satisfied"] is True
        assert report["version"]
        assert report["config_hash"]


class TestPlanRnMode:
    def test_full_pipeline(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "n": 2, "g": {"kind": "power", "b": 0.6, "r": 0.5}, "k_max": 4})
        out = tmp_path / "run"
        assert main(["plan-rn", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        res = report["result"]
        assert res["k_star"] >= 1
        assert res["masses"]
        assert res["profiles"][0]["radius"] > 0
        assert {"transport", "F", "G", "total"} <= set(res["objective"])
        assert (out / "density.csv").exists()
        assert (out / "density.pgm").exists()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "k_max": 4})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["plan-rn", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["plan-rn", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "density.csv").read_bytes() == (out2 / "density.csv").read_bytes()


class TestMuSubproblemMode:
    def test_runs_and_dumps_plan(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                **BASE,
                "domain": [[0.0, 1.0]],
                "grid": 200,
                "atoms": [
                    {"point": [0.35], "mass": 0.5},
                    {"point": [0.65], "mass": 0.5},
                ],
            },
        )
        out = tmp_path / "run"
        code = main(["mu-subproblem", "--config", str(cfg), "--out", str(out), "--dump-plans"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        objective = report["result"]["objective"]
        assert objective["total"] == pytest.approx(objective["transport"] + objective["F"])
        assert (out / "plan.csv").exists()

    def test_dump_plans_writes_the_one_solved_plan(self, tmp_path, monkeypatch):
        import numpy as np

        from subcities import (
            GridDensity,
            WeightedPointCloud,
            discrete_transport,
            normalize,
            to_point_cloud,
        )

        solve = discrete_transport.solve_discrete_transport
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(discrete_transport, "solve_discrete_transport", counted)
        atoms = [{"point": [0.35], "mass": 0.5}, {"point": [0.65], "mass": 0.5}]
        cfg = write_config(
            tmp_path, {**BASE, "domain": [[0.0, 1.0]], "grid": 200, "atoms": atoms}
        )
        out = tmp_path / "run"
        assert main(["mu-subproblem", "--config", str(cfg), "--out", str(out), "--dump-plans"]) == 0
        assert len(calls) == 1
        cloud = to_point_cloud(normalize(GridDensity.from_csv(out / "density.csv")))
        nu = WeightedPointCloud(np.array([[0.35], [0.65]]), np.array([0.5, 0.5]))
        solve(cloud, nu, 2.0).dump_csv(tmp_path / "direct.csv")
        assert (out / "plan.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()

    def test_nonconvergent_exit_code(self, tmp_path):
        # asymmetric atoms on a coarse grid cannot reach the default
        # mass-balance tolerance; the run must exit 2 with an error report
        cfg = write_config(
            tmp_path,
            {
                **BASE,
                "domain": [[0.0, 1.0]],
                "grid": 48,
                "atoms": [
                    {"point": [0.3], "mass": 0.35},
                    {"point": [0.62], "mass": 0.65},
                ],
            },
        )
        out = tmp_path / "run"
        assert main(["mu-subproblem", "--config", str(cfg), "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] == "NoConvergence"


class TestPlanBoundedMode:
    def test_runs_and_reports_heuristic_flags(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                **BASE,
                "g": {"kind": "power", "b": 0.4, "r": 0.5},
                "domain": [[0.0, 1.5]],
                "grid": 96,
                "rounds": 4,
                "atoms": [
                    {"point": [0.4], "mass": 0.5},
                    {"point": [1.1], "mass": 0.5},
                ],
            },
        )
        out = tmp_path / "run"
        assert main(["plan-bounded", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        res = report["result"]
        assert res["heuristic_flags"]["heuristic"] is True
        objective = res["objective"]
        assert objective["total"] == pytest.approx(
            objective["transport"] + objective["F"] + objective["G"]
        )
        assert len(res["atoms"]) >= 1


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path):
        assert main(["plan-rn", "--config", str(tmp_path / "nope.json")]) == 1

    def test_invalid_p(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "p": 0.5})
        assert main(["plan-rn", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1

    def test_flag_overrides_file(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "curve_samples": 8, "seed": 1})
        out = tmp_path / "run"
        assert main([
            "energy-curve", "--config", str(cfg), "--seed", "99", "--out", str(out)
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 99
        assert report["config"]["seed"] == 99

    def test_bad_mode_rejected(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        with pytest.raises(SystemExit):
            main(["frobnicate", "--config", str(cfg)])


class TestValidateMode:
    def test_tiny_instance(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                **BASE,
                "g": {"kind": "power", "b": 0.3, "r": 0.5},
                "domain": [[0.0, 1.0]],
                "rounds": 4,
                "validate": {
                    "grid": 24,
                    "sites": [[0.5]],
                    "mass_units": 8,
                    "objective_tol": 0.05,
                },
            },
        )
        out = tmp_path / "run"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        res = report["result"]
        assert res["passed"] is True
        assert res["objective_gap"] <= 0.05
        assert "quantization_note" in res

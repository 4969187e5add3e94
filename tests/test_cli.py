import json
import math

import pytest

from subcities import AtomicMeasure
from subcities.cli import _GRID_CELL_GUARD, RunConfig, main
from subcities.errors import ConfigError


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

VALIDATE = {"grid": 8, "sites": [[0.3], [0.7]], "mass_units": 4}


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
        # the evaluation's own plan, no LP solved: each cell's mass goes to
        # an atom of its highest score, and HiGHS finds no cheaper plan
        import numpy as np

        from subcities import GridDensity, discrete_transport, quadratic, solve_weights

        optimize = pytest.importorskip("scipy.optimize")
        calls = []
        monkeypatch.setattr(discrete_transport, "solve_discrete_transport", calls.append)
        atoms = [{"point": [0.35], "mass": 0.5}, {"point": [0.65], "mass": 0.5}]
        cfg = write_config(
            tmp_path, {**BASE, "domain": [[0.0, 1.0]], "grid": 200, "atoms": atoms}
        )
        out = tmp_path / "run"
        assert main(["mu-subproblem", "--config", str(cfg), "--out", str(out), "--dump-plans"]) == 0
        assert calls == []
        density = GridDensity.from_csv(out / "density.csv")
        u = density.values.ravel()
        x = density.grid.cell_centers()[u > 0, 0]
        nu = np.array([0.5, 0.5])
        weights = solve_weights(
            AtomicMeasure([[0.35], [0.65]], nu), quadratic(), 2.0, density.grid
        )
        cost = (x[:, None] - np.array([0.35, 0.65])) ** 2
        rows = np.loadtxt(out / "plan.csv", delimiter=",", skiprows=1, ndmin=2)
        i, j, mass = rows[:, 0].astype(int), rows[:, 1].astype(int), rows[:, 2]
        score = weights.c - cost
        assert (score[i, j] >= score[i].max(axis=1) - 1e-12).all()
        assert np.array_equal(np.bincount(i, weights=mass), u[u > 0] * density.cell_volume)
        assert np.abs(np.bincount(j, weights=mass) - nu).max() <= 1e-12
        objective = json.loads((out / "report.json").read_text())["result"]["objective"]
        assert objective["transport"] == pytest.approx(float(mass @ cost[i, j]), rel=1e-12)
        n = len(x)
        highs = optimize.linprog(
            cost.ravel(),
            A_eq=np.vstack([np.kron(np.eye(n), np.ones(2)), np.kron(np.ones(n), np.eye(2))]),
            b_eq=np.concatenate([u[u > 0] * density.cell_volume, nu]),
            bounds=(0, None),
            method="highs",
        )
        assert highs.status == 0
        assert objective["transport"] == pytest.approx(highs.fun, rel=1e-9)

    def test_large_2d_run_dumps_its_exact_plan(self, tmp_path):
        # 2-D, 32², 3 atoms at the mass-balance floor u_max * h^n: hundreds
        # of support cells, whose plan is the split power cells
        import numpy as np

        from subcities import (
            GridDensity,
            normalize,
            quadratic,
            radius_of_mass,
            to_point_cloud,
        )

        p, cells = 1.5, 32
        points = np.array([[0.28, 0.5], [0.72, 0.5], [0.5, 0.8]])
        masses = np.array([0.4, 0.35, 0.25])
        radius = radius_of_mass(quadratic(), p, 2, 0.4)
        floor = float(quadratic().k(np.array([radius**p]))[0]) / cells**2
        atoms = [{"point": list(pt), "mass": m} for pt, m in zip(points.tolist(), masses)]
        cfg = write_config(
            tmp_path,
            {
                **BASE,
                "n": 2,
                "p": p,
                "domain": [[0.0, 1.0], [0.0, 1.0]],
                "grid": cells,
                "atoms": atoms,
                "tolerances": {"mass_balance": floor},
            },
        )
        out = tmp_path / "run"
        assert main(["mu-subproblem", "--config", str(cfg), "--out", str(out), "--dump-plans"]) == 0
        objective = json.loads((out / "report.json").read_text())["result"]["objective"]
        assert objective["transport_route"] == "lp"
        cloud = to_point_cloud(normalize(GridDensity.from_csv(out / "density.csv")))
        assert len(cloud) * len(cloud) * len(masses) > 400_000
        rows = np.loadtxt(out / "plan.csv", delimiter=",", skiprows=1, ndmin=2)
        i, j, mass = rows[:, 0].astype(int), rows[:, 1].astype(int), rows[:, 2]
        assert np.abs(np.bincount(j, weights=mass, minlength=3) - masses).max() <= 1e-9
        cost = np.linalg.norm(cloud.points[i] - points[j], axis=1) ** p
        assert objective["transport"] == pytest.approx(float(mass @ cost), rel=1e-12)

    def test_nonconvergent_exit_code(self, tmp_path, monkeypatch):
        # asymmetric atoms on a coarse grid: winner-takes-all cells cannot
        # reach the default mass-balance tolerance, the split tied cell can
        def run(name, p, atoms):
            cfg = write_config(tmp_path, {**BASE, "p": p, "domain": [[0.0, 1.0]], "grid": 48,
                                          "atoms": atoms}, name=f"{name}.json")
            status = main(["mu-subproblem", "--config", str(cfg), "--out", str(tmp_path / name)])
            return status, json.loads((tmp_path / name / "report.json").read_text())

        status, report = run("split", 2.0, [
            {"point": [0.3], "mass": 0.35},
            {"point": [0.62], "mass": 0.65},
        ])
        assert status == 0 and report["result"]["objective"]["mass_residual"] <= 1e-12
        # p = 1: the optimum ties all three atoms on the run left of them,
        # which the crossover shares among the three
        three_way = [
            {"point": [0.2], "mass": 0.045},
            {"point": [0.235], "mass": 0.075},
            {"point": [0.47], "mass": 0.88},
        ]
        status, report = run("three-way", 1.0, three_way)
        assert status == 0 and report["result"]["objective"]["mass_residual"] <= 1e-12
        # a weight solve that stops above tol exits 2 with an error report
        from subcities import semidiscrete

        solve = semidiscrete._solve_weights_best
        monkeypatch.setattr(semidiscrete, "_solve_weights_best",
                            lambda *args, **kwargs: (solve(*args, **kwargs)[0], 1e-3, None))
        status, report = run("stopped", 1.0, three_way)
        assert status == 2
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

    def test_grid_cell_guard_scalar_and_per_axis(self):
        side = math.isqrt(_GRID_CELL_GUARD) + 1  # side**2 cells exceed the guard
        for grid in (side, [side, side]):
            with pytest.raises(ConfigError, match=f"grid of {side**2} cells exceeds the guard"):
                RunConfig({**BASE, "mode": "plan-rn", "n": 2, "grid": grid})
        RunConfig({**BASE, "mode": "plan-rn", "n": 2, "grid": [side - 1, side - 1]})

    @pytest.mark.parametrize(
        "override",
        [
            {"n": 2, "grid": [32], "domain": [[0.0, 1.0], [0.0, 1.0]]},
            {"grid": 0},
            {"domain": [[1.0, 0.0]]},
            {"atoms": [{"point": [0.4], "mass": 0.5}, {"point": [0.4], "mass": 0.5}]},
            {"tolerances": {"mass_balance": "x"}},
            {"f": ["quadratic"]},
        ],
        ids=["grid-axes", "grid-zero", "empty-interval", "repeated-atom", "tolerance-type", "f-not-object"],
    )
    def test_malformed_config_is_a_config_error(self, tmp_path, capsys, override):
        atoms = [{"point": [0.3], "mass": 0.5}, {"point": [0.7], "mass": 0.5}]
        cfg = write_config(
            tmp_path, {**BASE, "domain": [[0.0, 1.0]], "grid": 32, "atoms": atoms, **override}
        )
        out = tmp_path / "run"
        assert main(["mu-subproblem", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, missing",
        [
            ("mu-subproblem", "atoms"),
            ("mu-subproblem", "domain"),
            ("plan-bounded", "atoms"),
            ("plan-bounded", "domain"),
            ("validate", "domain"),
            ("validate", "validate.sites"),
            ("validate", "validate object"),
        ],
    )
    def test_missing_key_is_a_config_error(self, tmp_path, capsys, mode, missing):
        raw = {
            **BASE,
            "domain": [[0.0, 1.0]],
            "grid": 16,
            "rounds": 1,
            "atoms": [{"point": [0.3], "mass": 0.5}, {"point": [0.7], "mass": 0.5}],
            "validate": {"grid": 8, "sites": [[0.3], [0.7]], "mass_units": 4},
        }
        if missing == "validate.sites":
            del raw["validate"]["sites"]
        elif missing == "validate object":  # a list where the object with 'sites' belongs
            raw["validate"] = [[0.3], [0.7]]
        else:
            del raw[missing]
        out = tmp_path / "run"
        assert main([mode, "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, override",
        [
            ("plan-rn", {"k_max": 0}),
            ("plan-bounded", {"rounds": -1}),
            ("energy-curve", {"curve_samples": 0}),
            ("energy-curve", {"curve_m_min": 0.0}),
            ("energy-curve", {"curve_m_min": 1.5}),
            ("plan-rn", {"layout": "circle"}),
            ("energy-curve", {"p": math.nan}),
            ("energy-curve", {"p": math.inf}),
            ("mu-subproblem", {"tolerances": {"mass_balence": 1e-9}}),
            ("mu-subproblem", {"tolerances": {"newton_max_iter": 500}}),
            ("validate", {"validate": {**VALIDATE, "grid": 0}}),
            ("validate", {"validate": {**VALIDATE, "mass_units": 0}}),
            ("validate", {"validate": {**VALIDATE, "mass_units": -2}}),
            ("validate", {"validate": {**VALIDATE, "sites": [[0.3], [0.3]]}}),
            ("validate", {"validate": {**VALIDATE, "sites": [[0.3], [1.5]]}}),
            ("validate", {"validate": {**VALIDATE, "sites": [[0.3, 0.5], [0.7, 0.5]]}}),
            ("validate", {"validate": {**VALIDATE, "objective_tol": "0.05"}}),
        ],
        ids=["k-max-zero", "rounds-negative", "curve-samples-zero", "curve-m-min-zero",
             "curve-m-min-above-one", "layout-unknown", "p-nan", "p-inf", "tolerances-unknown-key",
             "tolerances-newton-max-iter",
             "validate-grid-zero", "mass-units-zero", "mass-units-negative", "sites-repeated",
             "sites-outside-domain", "sites-wrong-dimension", "objective-tol-type"],
    )
    def test_out_of_range_value_is_a_config_error(self, tmp_path, capsys, mode, override):
        atoms = [{"point": [0.3], "mass": 0.5}, {"point": [0.7], "mass": 0.5}]
        raw = {**BASE, "domain": [[0.0, 1.0]], "grid": 16, "atoms": atoms, "validate": VALIDATE, **override}
        out = tmp_path / "run"
        assert main([mode, "--config", str(write_config(tmp_path, raw)), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_bad_mode_rejected(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        with pytest.raises(SystemExit):
            main(["frobnicate", "--config", str(cfg)])


class TestValidateMode:
    def test_bounded_runs_use_the_configured_tolerances(self, tmp_path, monkeypatch):
        from subcities import cli

        seen, solve_bounded = [], cli.solve_bounded

        def recording(*args, **kwargs):
            seen.append(kwargs)
            return solve_bounded(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_bounded", recording)
        cfg = write_config(
            tmp_path,
            {
                **BASE,
                "domain": [[0.0, 1.0]],
                "rounds": 1,
                "tolerances": {"mass_balance": 3e-6},
                "validate": {"grid": 16, "sites": [[0.3], [0.7]], "mass_units": 6},
            },
        )
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert len(seen) == 3  # one per nonempty site subset
        for kwargs in seen:
            assert kwargs["tol"] == 3e-6
            assert kwargs["resolution"] == (16,)

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

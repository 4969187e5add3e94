"""Batch entry point: config-driven runs with reproducible reports.

Every run writes a canonical JSON report embedding the effective config,
its hash, the package version, and all tolerances, so identical config and
seed reproduce byte-identical output. Density grids are exported as CSV
(shared header format) and PGM for quick visualization.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, NoConvergence, SubcitiesError
from .functionals import ConcentrationFamily, FunctionFamily, eval_G
from .measures import AtomicMeasure, Domain, Grid, per_axis
from .oracle import BruteForceInstance, brute_force_full, compare_solutions
from .planner import (
    PlanSolution,
    assemble_rn_solution,
    solve_atomic_problem,
    solve_bounded,
)
from .semidiscrete import _min_Fp_nu, radius_of_mass
from .subcity import EnergyCurve, check_atomization_condition, subadditivity_threshold

MODES = ("plan-rn", "plan-bounded", "mu-subproblem", "energy-curve", "validate")

DEFAULT_TOLERANCES = {
    "mass_balance": 1e-7,
    "newton_max_iter": 500,
}

_GRID_CELL_GUARD = 2_000_000


class RunConfig:
    """Validated run configuration; flag overrides win over the file."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        self.raw = raw
        self.mode = raw.get("mode")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        try:
            self.p = float(raw.get("p", 2.0))
            if not 1 <= self.p < math.inf:
                raise ConfigError(f"p must be a finite number >= 1, got {self.p!r}")
            self.n = int(raw.get("n", 2))
            if self.n not in (1, 2):
                raise ConfigError("n must be 1 or 2")
            self.seed = int(raw.get("seed", 0))
            self.k_max = int(raw.get("k_max", 6))
            self.tolerances = {**DEFAULT_TOLERANCES, **raw.get("tolerances", {})}
            if len(self.tolerances) > len(DEFAULT_TOLERANCES):
                raise ConfigError(f"tolerances keys must be among {sorted(DEFAULT_TOLERANCES)}")
            self.f = _parse_f(raw.get("f", {"kind": "quadratic"}))
            self.g = _parse_g(raw.get("g", {"kind": "power", "b": 1.0, "r": 0.5}))
            self.resolution = raw.get("grid", 64)
            axes = per_axis(self.resolution, self.n)
            bounds = raw.get("domain")
            if bounds is not None and len(bounds) != self.n:
                raise ConfigError(f"domain must give {self.n} intervals")
            self.domain = Domain.box(bounds) if bounds is not None else None
            atoms = raw.get("atoms")
            self.atoms = _parse_atoms(atoms, self.n) if atoms else None
            if self.mode in ("plan-bounded", "mu-subproblem", "validate") and self.domain is None:
                raise ConfigError(f"{self.mode} needs a 'domain' bounds list in the config")
            if self.mode in ("plan-bounded", "mu-subproblem") and self.atoms is None:
                raise ConfigError(f"{self.mode} needs an 'atoms' list in the config")
            if self.mode == "validate":
                spec = raw.get("validate", {})
                if not spec.get("sites"):
                    raise ConfigError("validate needs a 'validate.sites' list in the config")
                # the instance checks the sites' shape and distinctness and the search size
                self.oracle = BruteForceInstance(
                    grid=Grid(self.domain, spec.get("grid", 32)),
                    candidate_sites=np.array(spec["sites"], dtype=float),
                    f=self.f,
                    g=self.g,
                    p=self.p,
                    mass_units=int(spec.get("mass_units", 20)),
                )
                if not self.domain.contains(self.oracle.candidate_sites).all():
                    raise ConfigError("validate.sites must lie in the domain")
                self.objective_tol = tol = spec.get("objective_tol", 0.05)
                if type(tol) not in (int, float) or not tol >= 0:
                    raise ConfigError(f"validate.objective_tol must be a number >= 0, got {tol!r}")
            self.rounds = int(raw.get("rounds", 12))
            self.curve_samples = int(raw.get("curve_samples", 64))
            self.curve_m_min = float(raw.get("curve_m_min", 1e-3))
        except (TypeError, ValueError, LookupError, AttributeError, SubcitiesError) as exc:
            raise ConfigError(str(exc)) from exc
        if len(axes) != self.n or min(axes) < 1:
            raise ConfigError(f"grid must give {self.n} positive cell counts, got {self.resolution!r}")
        if math.prod(axes) > _GRID_CELL_GUARD:
            raise ConfigError(f"grid of {math.prod(axes)} cells exceeds the guard limit")
        tol, max_iter = self.tolerances["mass_balance"], self.tolerances["newton_max_iter"]
        if type(tol) not in (int, float) or not tol > 0 or type(max_iter) is not int or max_iter < 1:
            raise ConfigError(f"tolerances: mass_balance {tol!r} or newton_max_iter {max_iter!r} invalid")
        self.out = raw.get("out", "out")
        self.dump_plans = bool(raw.get("dump_plans", False))
        self.layout = raw.get("layout", "line")
        for key, ok, rule in (
            ("k_max", self.k_max >= 1, ">= 1"),
            ("rounds", self.rounds >= 0, ">= 0"),
            ("curve_samples", self.curve_samples >= 1, ">= 1"),
            ("curve_m_min", 0.0 < self.curve_m_min <= 1.0, "in (0, 1]"),
            ("layout", self.layout in ("line", "grid"), "'line' or 'grid'"),
        ):
            if not ok:
                raise ConfigError(f"{key} must be {rule}, got {getattr(self, key)!r}")

    def effective(self) -> dict:
        """The config as actually used, for hashing and the report."""
        eff = dict(self.raw)
        eff.update(
            {
                "mode": self.mode,
                "p": self.p,
                "n": self.n,
                "seed": self.seed,
                "k_max": self.k_max,
                "grid": self.resolution,
                "tolerances": self.tolerances,
            }
        )
        eff.pop("out", None)
        return eff


def _parse_f(spec: dict) -> FunctionFamily:
    kind = spec.get("kind", "quadratic")
    if kind == "quadratic":
        return FunctionFamily(kind="quadratic")
    if kind == "power":
        return FunctionFamily(kind="power", a=float(spec.get("a", 1.0)), q=float(spec.get("q", 2.0)))
    raise ValueError(f"unsupported f kind {kind!r} in config")


def _parse_g(spec: dict) -> ConcentrationFamily:
    kind = spec.get("kind", "power")
    if kind == "power":
        return ConcentrationFamily(kind="power", b=float(spec.get("b", 1.0)), r=float(spec.get("r", 0.5)))
    raise ValueError(f"unsupported g kind {kind!r} in config")


def _canonical_json(obj) -> str:
    def _coerce(o):
        if isinstance(o, np.generic):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True, default=_coerce) + "\n"


def _config_hash(effective: dict) -> str:
    return hashlib.sha256(_canonical_json(effective).encode()).hexdigest()


def _parse_atoms(spec, n: int) -> AtomicMeasure:
    pts = np.array([entry["point"] for entry in spec], dtype=float)
    masses = np.array([entry["mass"] for entry in spec], dtype=float)
    if pts.shape[1] != n:
        raise ConfigError(f"atom points must have dimension n={n}")
    return AtomicMeasure(pts, masses)


def _profiles_payload(solution: PlanSolution) -> list[dict]:
    return [
        {
            "center": list(pr.center),
            "mass": pr.mass,
            "radius": pr.radius,
            "weight": pr.weight,
        }
        for pr in solution.profiles
    ]


def _run_energy_curve(cfg: RunConfig, outdir: Path) -> dict:
    curve = EnergyCurve.build(
        cfg.f, cfg.g, cfg.p, cfg.n, n_samples=cfg.curve_samples, m_min=cfg.curve_m_min
    )
    rows = list(zip(curve.masses, curve.energies, curve.denergies, curve.d2energies))
    lines = ["m,E,E',E''"] + [",".join(repr(float(v)) for v in row) for row in rows]
    (outdir / "energy_curve.csv").write_text("\n".join(lines) + "\n")
    report = check_atomization_condition(cfg.f, cfg.g, cfg.p, cfg.n)
    return {
        "samples": len(rows),
        "m_min": cfg.curve_m_min,
        "atomization": _atomization_payload(report),
        "artifacts": ["energy_curve.csv"],
    }


def _atomization_payload(report) -> dict:
    return {
        "radii": list(report.radii),
        "products": list(report.products),
        "limsup_estimate": report.limsup_estimate,
        "satisfied": report.satisfied,
    }


def _write_density(solution_mu, outdir: Path, artifacts: list):
    solution_mu.to_csv(outdir / "density.csv")
    artifacts.append("density.csv")
    if solution_mu.domain.dim <= 2:
        solution_mu.to_pgm(outdir / "density.pgm")
        artifacts.append("density.pgm")


def _run_plan_rn(cfg: RunConfig, outdir: Path) -> dict:
    curve = EnergyCurve.build(cfg.f, cfg.g, cfg.p, cfg.n)
    condition = check_atomization_condition(cfg.f, cfg.g, cfg.p, cfg.n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        k_star, masses, value = solve_atomic_problem(
            cfg.f, cfg.g, cfg.p, cfg.n, cfg.k_max, curve=curve
        )
    solution = assemble_rn_solution(
        masses, cfg.f, cfg.g, cfg.p, cfg.n, layout=cfg.layout
    )
    artifacts: list = []
    _write_density(solution.mu, outdir, artifacts)
    return {
        "k_star": k_star,
        "masses": list(masses),
        "value": value,
        "m0": subadditivity_threshold(curve),
        "radius_bound": radius_of_mass(cfg.f, cfg.p, cfg.n, 1.0),
        "profiles": _profiles_payload(solution),
        "objective": solution.objective,
        "atomization": _atomization_payload(condition),
        "heuristic_flags": solution.metadata,
        "artifacts": artifacts,
    }


def _run_plan_bounded(cfg: RunConfig, outdir: Path) -> dict:
    solution = solve_bounded(
        cfg.domain,
        cfg.f,
        cfg.g,
        cfg.p,
        cfg.atoms,
        rounds=cfg.rounds,
        resolution=cfg.resolution,
        tol=cfg.tolerances["mass_balance"],
        max_iter=cfg.tolerances["newton_max_iter"],
    )
    artifacts: list = []
    _write_density(solution.mu, outdir, artifacts)
    return {
        "atoms": [
            {"point": list(pt), "mass": float(m)}
            for pt, m in zip(solution.nu.points, solution.nu.masses)
        ],
        "profiles": _profiles_payload(solution),
        "objective": solution.objective,
        "heuristic_flags": solution.metadata,
        "artifacts": artifacts,
    }


def _run_mu_subproblem(cfg: RunConfig, outdir: Path) -> dict:
    grid = Grid(cfg.domain, cfg.resolution)
    density, breakdown, plan = _min_Fp_nu(
        cfg.atoms,
        cfg.f,
        cfg.p,
        grid,
        cfg.tolerances["mass_balance"],
        cfg.tolerances["newton_max_iter"],
    )
    artifacts: list = []
    _write_density(density, outdir, artifacts)
    if cfg.dump_plans:
        plan.dump_csv(outdir / "plan.csv")
        artifacts.append("plan.csv")
    breakdown["G"] = eval_G(cfg.g, cfg.atoms)
    return {"objective": breakdown, "artifacts": artifacts}


def _run_validate(cfg: RunConfig, outdir: Path) -> dict:
    instance = cfg.oracle
    grid, sites = instance.grid, instance.candidate_sites
    mu, nu, value = brute_force_full(instance)
    oracle_solution = PlanSolution(
        mu=mu,
        nu=nu,
        profiles=[],
        objective={"total": value, "transport": None, "F": None, "G": None},
        metadata={"mode": "brute-force"},
    )
    best = None
    from itertools import combinations

    for k in range(1, len(sites) + 1):
        for subset in combinations(range(len(sites)), k):
            init = AtomicMeasure(sites[list(subset)], np.full(k, 1.0 / k))
            cand = solve_bounded(
                cfg.domain, cfg.f, cfg.g, cfg.p, init,
                rounds=cfg.rounds, resolution=grid.resolution,
                tol=cfg.tolerances["mass_balance"], max_iter=cfg.tolerances["newton_max_iter"],
            )
            if best is None or cand.objective["total"] < best.objective["total"]:
                best = cand
    report = compare_solutions(
        best, oracle_solution, objective_tol=cfg.objective_tol
    )
    return {
        "oracle_value": value,
        "structured_value": best.objective["total"],
        "objective_gap": report.objective_gap,
        "mass_units": instance.mass_units,
        "quantization_note": "oracle masses quantized to 1/"
        + str(instance.mass_units),
        "passed": report.passed,
        "oracle_atoms": [
            {"point": list(pt), "mass": float(m)}
            for pt, m in zip(nu.points, nu.masses)
        ],
        "structured_atoms": [
            {"point": list(pt), "mass": float(m)}
            for pt, m in zip(best.nu.points, best.nu.masses)
        ],
    }


_RUNNERS = {
    "energy-curve": _run_energy_curve,
    "plan-rn": _run_plan_rn,
    "plan-bounded": _run_plan_bounded,
    "mu-subproblem": _run_mu_subproblem,
    "validate": _run_validate,
}


def run(config: RunConfig) -> int:
    """Execute one mode; returns the process exit status."""
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    effective = config.effective()
    report = {
        "mode": config.mode,
        "version": __version__,
        "config": effective,
        "config_hash": _config_hash(effective),
        "tolerances": config.tolerances,
        "seed": config.seed,
    }
    try:
        report["result"] = _RUNNERS[config.mode](config, outdir)
        status = 0
    except NoConvergence as exc:
        report["error"] = {"type": "NoConvergence", "message": str(exc)}
        status = 2
    (outdir / "report.json").write_text(_canonical_json(report))
    return status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planner",
        description="Joint resident/service distribution solver",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--p", type=float, default=None, help="override cost exponent")
    parser.add_argument("--grid", type=int, default=None, help="override grid resolution per axis")
    parser.add_argument("--k-max", type=int, default=None, help="override the atom count cap")
    parser.add_argument("--seed", type=int, default=None, help="override the seed recorded in the report")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--dump-plans", action="store_true", help="dump transport plans as CSV triples")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    raw["mode"] = args.mode
    for key, val in (
        ("p", args.p),
        ("grid", args.grid),
        ("k_max", args.k_max),
        ("seed", args.seed),
        ("out", args.out),
    ):
        if val is not None:
            raw[key] = val
    if args.dump_plans:
        raw["dump_plans"] = True
    try:
        config = RunConfig(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(config)
    except SubcitiesError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Seeded workloads of the subcities benchmark.

Each workload turns a seed into a fixed list of instances, solves one
instance through the package's public API or ``subcities.cli.run``, and
checks the output; README.md says why each workload exists. The instance
*shapes* (sizes, atom counts, modes) are a fixed stratified design, so every
seed exercises the same mix; the seed draws the point positions, masses and
penalty coefficients.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import subcities
from subcities import cli

GAP_TOL = 1e-8  # acceptance criterion 1: duality gap
MARGINAL_TOL = 1e-9  # acceptance criterion 1: marginal residuals
FEASIBILITY_TOL = 1e-9
SUM_TOL = 1e-12  # relative tolerance of total = sum of its terms


@dataclass
class Instance:
    name: str
    props: dict  # census properties known before solving
    payload: dict  # transport: arrays and p; CLI modes: the raw config


@dataclass
class Outcome:
    ok: bool
    wrong: bool = False  # a completed output failed its check
    reason: str = ""
    objective: float | None = None
    residual_ratio: float | None = None
    props: dict = field(default_factory=dict)  # census properties seen in the output


def _floor(f, p: float, n: int, m_max: float, cell_volume: float) -> float:
    """Documented mass-balance floor u_max * h^n, u_max = k(R(m_max)^p)."""
    radius = subcities.radius_of_mass(f, p, n, m_max)
    return float(f.k(np.array([radius**p]))[0]) * cell_volume


def _unit_box(n: int) -> list:
    return [[0.0, 1.0]] * n


def _atoms(points, masses) -> list:
    return [
        {"point": [float(x) for x in pt], "mass": float(m)} for pt, m in zip(points, masses)
    ]


# -- transport ---------------------------------------------------------------

# (n sources, m targets, exponent): 256 and 512 rows against 2-5 targets
# and two square n = m instances; the same shapes for every seed. A
# 1024-row solve takes 3.6-5.9 s at the seed commit, more than a pass.
_TRANSPORT_SHAPES = (
    [(256, m, p) for m in (2, 3, 5) for p in (1.0, 2.0)]
    + [(512, 2, 1.0), (512, 3, 1.5)]
    + [(64, 64, 1.5), (100, 100, 2.0)]
)


def _cloud(rng, n: int):
    """n points in the unit square, one in each of n random cells of a grid.

    Stratified rather than independent points: the exact solver's work
    depends on how the points cluster, and independent draws make it vary
    from seed to seed more than the code does.
    """
    side = math.ceil(math.sqrt(n))
    cells = rng.choice(side * side, n, replace=False)
    points = (np.column_stack([cells % side, cells // side]) + rng.random((n, 2))) / side
    w = rng.uniform(0.5, 1.5, n)
    return subcities.WeightedPointCloud(points, w / w.sum())


def _targets(rng, m: int):
    """Few targets on a circle around the centre, randomly rotated and jittered."""
    angles = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(m) / m
    radii = 0.25 + rng.uniform(-0.05, 0.05, m)
    points = 0.5 + radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    w = rng.uniform(0.5, 1.5, m)
    return subcities.WeightedPointCloud(points, w / w.sum())


def make_transport(seed: int):
    rng = np.random.default_rng(seed)
    instances = []
    for n, m, p in _TRANSPORT_SHAPES:
        shape = "tall" if m < n else "square"
        target = _targets(rng, m) if shape == "tall" else _cloud(rng, m)
        instances.append(
            Instance(
                f"{shape}-{n}x{m}-p{p}",
                {"shape": shape, "p": p},
                {"source": _cloud(rng, n), "target": target, "p": p},
            )
        )
    return instances


def warmup_transport() -> Instance:
    rng = np.random.default_rng(0)
    return Instance("warmup", {}, {"source": _cloud(rng, 128), "target": _targets(rng, 3), "p": 2.0})


def solve_transport(inst: Instance, outdir: Path):
    pl = inst.payload
    return subcities.solve_discrete_transport(pl["source"], pl["target"], pl["p"])


def check_transport(inst: Instance, plan, outdir: Path) -> Outcome:
    src, tgt, p = inst.payload["source"], inst.payload["target"], inst.payload["p"]
    dual = float(src.weights @ plan.dual_psi + tgt.weights @ plan.dual_psi_c)
    gap = abs(plan.total_cost - dual)
    marginal = max(plan.marginal_residuals())
    cost = np.linalg.norm(src.points[:, None, :] - tgt.points[None, :, :], axis=2) ** p
    violation = float((plan.dual_psi[:, None] + plan.dual_psi_c[None, :] - cost).max())
    if gap > GAP_TOL:
        return Outcome(False, True, f"duality gap {gap:.3e}")
    if marginal > MARGINAL_TOL:
        return Outcome(False, True, f"marginal residual {marginal:.3e}")
    if violation > FEASIBILITY_TOL:
        return Outcome(False, True, f"dual infeasible by {violation:.3e}")
    return Outcome(True, objective=plan.total_cost)


# -- CLI modes ---------------------------------------------------------------


def _report(inst: Instance, outdir: Path) -> dict:
    return json.loads((outdir / inst.name / "report.json").read_text())


def _sum_ok(objective: dict, keys) -> bool:
    total = objective["total"]
    return abs(total - sum(objective[k] for k in keys)) <= SUM_TOL * (1.0 + abs(total))


_RESIDUAL_RE = re.compile(r"mass balance reached ([0-9.eE+-]+)")


# mu-subproblem: a stratified design over dimension, grid, atom count and p.
# Atoms sit on a fixed layout (evenly spaced in 1-D, on a circle in 2-D)
# inside [0.15, 0.85]^n; the seed jitters them by up to 2% of their spacing
# and draws Dirichlet masses (concentration 400-800, a few % apart) around
# an uneven split. Larger perturbations change which instances run the
# bisection fallback, and how large the LP supports are, from seed to seed,
# and with it the run's total: jitter 5% and concentration 40-80 spread the
# CPU time of a pass with a coefficient of variation of 0.16 over six seeds,
# these settings 0.04, with 4-8 of the 40 calls missing the floor either way.
_MU_GRIDS = {1: (64, 128, 256, 512), 2: (16, 24, 32, 48, 64)}
_MU_COUNT = 40


def _mu_layout(i: int, n: int, k: int) -> np.ndarray:
    if n == 1:
        return (0.15 + 0.7 * (np.arange(k) + 0.5) / k)[:, None]
    angles = 0.7 * i + 2.0 * np.pi * np.arange(k) / k
    return 0.5 + 0.22 * np.column_stack([np.cos(angles), np.sin(angles)])


def _mu_instance(rng, i: int, name: str) -> Instance:
    n = 2 if i % 2 == 0 else 1
    grids = _MU_GRIDS[n]
    grid = grids[(i // 2) % len(grids)]
    k = 1 + (i // 3) % 4
    p = (2.0, 1.0, 1.5)[(i // 5) % 3]
    dump = i % 4 == 0
    spacing = 0.7 / k if n == 1 else 0.3
    points = np.clip(
        _mu_layout(i, n, k) + rng.uniform(-0.02, 0.02, (k, n)) * spacing, 0.15, 0.85
    )
    masses = rng.dirichlet(400.0 * np.linspace(1.0, 2.0, k)) if k > 1 else np.ones(1)
    f = subcities.quadratic()
    floor = _floor(f, p, n, float(masses.max()), grid ** (-n))
    raw = {
        "mode": "mu-subproblem",
        "f": {"kind": "quadratic"},
        "g": {"kind": "power", "b": 1.0, "r": 0.5},
        "p": p,
        "n": n,
        "grid": grid,
        "domain": _unit_box(n),
        "atoms": _atoms(points, masses),
        "dump_plans": dump,
        "tolerances": {"mass_balance": floor},
    }
    props = {"dim": f"{n}-D", "atoms": k, "dump_plans": dump, "p": p}
    return Instance(name, props, {**raw, "_floor": floor})


def make_mu(seed: int):
    rng = np.random.default_rng(seed)
    return [_mu_instance(rng, i, f"mu-{i:03d}") for i in range(_MU_COUNT)]


def warmup_mu() -> Instance:
    """1-D, 64 cells, two atoms, LP route with the plan dumped; converges
    without the fallback."""
    inst = _mu_instance(np.random.default_rng(0), 17, "mu-warmup")
    inst.payload["dump_plans"] = True
    return inst


def solve_cli(inst: Instance, outdir: Path) -> int:
    """One ``cli.run`` call; keys starting with "_" are the benchmark's own."""
    raw = {k: v for k, v in inst.payload.items() if not k.startswith("_")}
    return cli.run(cli.RunConfig(dict(raw, out=str(outdir / inst.name))))


def check_mu(inst: Instance, status, outdir: Path) -> Outcome:
    report = _report(inst, outdir)
    floor = inst.payload["_floor"]
    if status != 0:
        match = _RESIDUAL_RE.search(report.get("error", {}).get("message", ""))
        ratio = float(match.group(1)) / floor if match else None
        return Outcome(False, reason=f"exit {status}: residual over floor", residual_ratio=ratio)
    obj = report["result"]["objective"]
    ratio = obj["mass_residual"] / floor
    props = {"route": obj["transport_route"]}
    if obj["mass_residual"] > floor:
        return Outcome(False, True, "exit 0 with residual over floor", residual_ratio=ratio, props=props)
    if not _sum_ok(obj, ("transport", "F")):
        return Outcome(False, True, "total != transport + F", residual_ratio=ratio, props=props)
    if inst.payload["dump_plans"] and obj["transport_route"] == "lp":
        if "plan.csv" not in report["result"]["artifacts"]:
            return Outcome(False, True, "dump_plans wrote no plan", residual_ratio=ratio, props=props)
    return Outcome(True, objective=obj["total"], residual_ratio=ratio, props=props)


# plan-bounded: two bounded-heuristic runs plus one validate run.
# (layout slot, n, grid, atoms, rounds). Three-atom solves are
# fallback-heavy: each candidate weight solve misses the default 1e-7 mass
# tolerance. One round of moves keeps a pass near 8 s; a second round of the
# 2-D instance costs 4-18 s at the seed commit depending on the
# perturbation. The layout slots are those whose cost varies least with the
# seed's perturbation (coefficient of variation 0.01-0.06 over six seeds,
# against up to 0.34 for other slots and grids). Two-atom instances are left
# out because their cost flips between 0.3 and 6 s with it.
_BOUNDED = ((0, 1, 32, 3, 1), (0, 2, 16, 3, 1))


def _bounded_instance(rng, i: int, n: int, grid: int, k: int, rounds: int, name: str) -> Instance:
    """Slot i fixes a layout and a mass split; the seed perturbs both slightly.

    The heuristic's work (candidates, fallback sweeps) is chaotic in its
    input, so a large perturbation would make a run's total depend on the
    seed more than on the code; the diversity comes from the slots.
    """
    if n == 1:
        base = (0.2 + 0.6 * (np.arange(k) + 0.5) / k + 0.02 * i)[:, None]
    else:
        angles = 0.9 * i + 2.0 * np.pi * np.arange(k) / k
        base = 0.5 + 0.22 * np.column_stack([np.cos(angles), np.sin(angles)])
    points = np.clip(base + rng.uniform(-0.005, 0.005, base.shape), 0.05, 0.95)
    masses = np.roll(np.linspace(1.0, 1.6, k), i) * np.exp(rng.uniform(-0.02, 0.02, k))
    masses /= masses.sum()
    raw = {
        "mode": "plan-bounded",
        "f": {"kind": "quadratic"},
        "g": {"kind": "power", "b": 0.4, "r": 0.5},
        "p": 2.0,
        "n": n,
        "grid": grid,
        "domain": _unit_box(n),
        "atoms": _atoms(points, masses),
        "rounds": rounds,
    }
    return Instance(name, {"mode": "plan-bounded", "dim": f"{n}-D", "atoms": k}, raw)


def _validate_instance(rng, name: str) -> Instance:
    sites = np.array([0.3, 0.7]) + rng.uniform(-0.005, 0.005, 2)
    raw = {
        "mode": "validate",
        "f": {"kind": "quadratic"},
        "g": {"kind": "power", "b": 0.25, "r": 0.5},
        "p": 2.0,
        "n": 1,
        "domain": _unit_box(1),
        "rounds": 2,
        "validate": {
            "grid": 24,
            "sites": [[float(s)] for s in sites],
            "mass_units": 20,
            "objective_tol": 0.05,
        },
    }
    return Instance(name, {"mode": "validate", "dim": "1-D", "atoms": 2}, raw)


def make_bounded(seed: int):
    rng = np.random.default_rng(seed)
    instances = [
        _bounded_instance(rng, i, n, grid, k, rounds, f"bounded-{i}-{n}d-{grid}-k{k}")
        for i, n, grid, k, rounds in _BOUNDED
    ]
    instances.append(_validate_instance(rng, "validate-1d-24"))
    return instances


def warmup_bounded() -> Instance:
    """One centred atom on 16 cells: one round, no fallback."""
    raw = {
        "mode": "plan-bounded",
        "f": {"kind": "quadratic"},
        "g": {"kind": "power", "b": 0.4, "r": 0.5},
        "p": 2.0,
        "n": 1,
        "grid": 16,
        "domain": _unit_box(1),
        "atoms": [{"point": [0.5], "mass": 1.0}],
        "rounds": 1,
    }
    return Instance("bounded-warmup", {}, raw)


def check_bounded(inst: Instance, status, outdir: Path) -> Outcome:
    if status != 0:
        return Outcome(False, reason=f"exit {status}")
    result = _report(inst, outdir)["result"]
    if inst.payload["mode"] == "validate":
        gap = abs(result["structured_value"] - result["oracle_value"])
        if abs(gap - result["objective_gap"]) > SUM_TOL * (1.0 + gap):
            return Outcome(False, True, "objective_gap != |structured - oracle|")
        if not result["passed"]:
            return Outcome(False, reason=f"oracle gap {gap:.3e} over objective_tol")
        return Outcome(True, objective=result["structured_value"])
    obj, flags = result["objective"], result["heuristic_flags"]
    history = flags["objective_history"]
    if any(b > a + SUM_TOL * (1.0 + abs(a)) for a, b in zip(history, history[1:])):
        return Outcome(False, True, "objective history not monotone")
    if not _sum_ok(obj, ("transport", "F", "G")):
        return Outcome(False, True, "total != T + F + G")
    n, grid = inst.payload["n"], inst.payload["grid"]
    m_max = max(atom["mass"] for atom in result["atoms"])
    floor = _floor(subcities.quadratic(), inst.payload["p"], n, m_max, grid ** (-n))
    return Outcome(True, objective=obj["total"], residual_ratio=flags["mass_residual"] / floor)


# plan-rn: a sweep of penalty shapes, exponents and dimensions

_Q = (1.5, 2.0, 3.0)
_R = (0.3, 0.5, 0.7)


def _rn_instance(rng, q, r, p, n, mode, name) -> Instance:
    raw = {
        "mode": mode,
        "f": {"kind": "power", "a": 1.0, "q": q},
        "g": {"kind": "power", "b": float(rng.uniform(0.99, 1.01)), "r": r},
        "p": p,
        "n": n,
        "k_max": 6,
        "seed": int(rng.integers(0, 2**31)),
    }
    return Instance(name, {"mode": mode, "n": n, "p": p}, raw)


def make_rn(seed: int):
    """A fractional factorial: every (q, r) pair and every (p, n) pair appears."""
    rng = np.random.default_rng(seed)
    pairs = [(q, r) for q in _Q for r in _R]
    instances = []
    for i in range(12):
        q, r = pairs[i % len(pairs)]
        p, n = ((1.0, 1), (2.0, 2), (1.0, 2), (2.0, 1))[i % 4]
        instances.append(_rn_instance(rng, q, r, p, n, "plan-rn", f"rn-q{q}-r{r}-p{p}-n{n}"))
    for q, r in zip(_Q, _R):
        instances.append(_rn_instance(rng, q, r, 2.0, 2, "energy-curve", f"curve-q{q}-r{r}"))
    return instances


def warmup_rn() -> Instance:
    return _rn_instance(np.random.default_rng(0), 2.0, 0.5, 2.0, 1, "plan-rn", "rn-warmup")


def check_rn(inst: Instance, status, outdir: Path) -> Outcome:
    if status != 0:
        return Outcome(False, reason=f"exit {status}")
    result = _report(inst, outdir)["result"]
    if inst.payload["mode"] == "energy-curve":
        rows = (outdir / inst.name / "energy_curve.csv").read_text().strip().splitlines()[1:]
        values = [float(v) for row in rows for v in row.split(",")]
        if len(rows) != result["samples"] or not all(math.isfinite(v) for v in values):
            return Outcome(False, True, "energy curve rows missing or not finite")
        return Outcome(True)
    masses, k_star, m0 = result["masses"], result["k_star"], result["m0"]
    cap = min(inst.payload["k_max"], 1 + math.floor(2.0 / m0)) if m0 > 0 else inst.payload["k_max"]
    if abs(sum(masses) - 1.0) > 1e-9:
        return Outcome(False, True, f"masses sum to {sum(masses)!r}")
    if not 1 <= k_star <= cap or k_star != len(masses):
        return Outcome(False, True, f"k_star {k_star} with {len(masses)} masses, cap {cap}")
    return Outcome(True, objective=result["objective"]["total"], props={"k_star": k_star})


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable  # seed -> instances
    warmups: Callable  # () -> the fixed warm-up instances, the same for every seed
    solve: Callable  # (instance, outdir) -> raw output
    check: Callable  # (instance, raw output, outdir) -> Outcome


def _combine(name: str, parts) -> Workload:
    """A workload that runs the instances of several, each through its own
    solve and check; each instance's part is a census property."""
    by_part = {part.name: part for part in parts}

    def tag(part, instances):
        return [Instance(inst.name, {"part": part.name, **inst.props}, inst.payload) for inst in instances]

    return Workload(
        name,
        lambda seed: [inst for part in parts for inst in tag(part, part.make(seed))],
        lambda: [inst for part in parts for inst in tag(part, part.warmups())],
        lambda inst, outdir: by_part[inst.props["part"]].solve(inst, outdir),
        lambda inst, raw, outdir: by_part[inst.props["part"]].check(inst, raw, outdir),
    )


_PARTS = {
    w.name: w
    for w in (
        Workload("transport", make_transport, lambda: [warmup_transport()], solve_transport, check_transport),
        Workload("mu-subproblem", make_mu, lambda: [warmup_mu()], solve_cli, check_mu),
        Workload("plan-bounded", make_bounded, lambda: [warmup_bounded()], solve_cli, check_bounded),
        Workload("plan-rn", make_rn, lambda: [warmup_rn()], solve_cli, check_rn),
    )
}

# The benchmark's workloads (BENCHMARK.json) join two parts each, so that
# one run measures long enough to average over the host's speed drift; each
# part can also be run on its own.
WORKLOADS = {
    **_PARTS,
    "solvers": _combine("solvers", [_PARTS["transport"], _PARTS["mu-subproblem"]]),
    "planners": _combine("planners", [_PARTS["plan-bounded"], _PARTS["plan-rn"]]),
}

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import json
import time
from itertools import combinations

import numpy as np

import subcities as sc
from subcities.cli import main as cli_main
from subcities.oracle import best_density_for
from subcities.semidiscrete import _min_Fp_nu, _solve_weights_best, unit_ball_volume


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def random_cloud(rng, n_pts, dim, scale=1.0):
    pts = rng.random((n_pts, dim)) * scale
    w = rng.random(n_pts) + 0.05
    return sc.WeightedPointCloud(pts, w / w.sum())


def test_criterion_1_transport_exactness():
    """50 random instances (<= 50x50, p in {1,1.5,2}): gap <= 1e-8,
    marginal residuals <= 1e-9, total runtime <= 10 s."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_gap = worst_res = 0.0
    for trial in range(50):
        n_src = int(rng.integers(5, 51))
        n_tgt = int(rng.integers(5, 51))
        p = (1.0, 1.5, 2.0)[trial % 3]
        src = random_cloud(rng, n_src, 2)
        tgt = random_cloud(rng, n_tgt, 2)
        plan = sc.solve_discrete_transport(src, tgt, p)
        dual = float(src.weights @ plan.dual_psi + tgt.weights @ plan.dual_psi_c)
        worst_gap = max(worst_gap, abs(plan.total_cost - dual))
        worst_res = max(worst_res, *plan.marginal_residuals())
    elapsed = time.perf_counter() - t0
    assert worst_gap <= 1e-8
    assert worst_res <= 1e-9
    assert elapsed <= 10.0
    _report(1, f"gap<={worst_gap:.2e}, residual<={worst_res:.2e}, {elapsed:.1f}s")


def test_criterion_2_metric_inequality():
    """W1 <= Wp <= D^(1-1/p) W1^(1/p) with slack >= -1e-9, 100 instances."""
    rng = np.random.default_rng(202)
    worst_lo = worst_hi = np.inf
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        src = random_cloud(rng, int(rng.integers(2, 21)), dim)
        tgt = random_cloud(rng, int(rng.integers(2, 21)), dim)
        p = float(rng.uniform(1.05, 3.0))
        diameter = float(np.sqrt(dim))
        w1 = sc.wasserstein(src, tgt, 1.0)
        wp = sc.wasserstein(src, tgt, p)
        worst_lo = min(worst_lo, wp - w1)
        worst_hi = min(worst_hi, diameter ** (1 - 1 / p) * w1 ** (1 / p) - wp)
    assert worst_lo >= -1e-9
    assert worst_hi >= -1e-9
    _report(2, f"min slacks {worst_lo:.2e} / {worst_hi:.2e}")


def test_criterion_3_mass_radius_round_trip():
    """Round trip <= 1e-9 for all family/dimension combinations; quadratic
    closed form matched to 1e-8 relative."""
    worst_rt = 0.0
    for f in (sc.quadratic(), sc.power_f(1.3, 3.0)):
        for n in (1, 2):
            for m in (1e-3, 1e-2, 1e-1, 0.5, 1.0):
                R = sc.radius_of_mass(f, 2.0, n, m)
                worst_rt = max(worst_rt, abs(sc.mass_of_radius(f, 2.0, n, R) - m))
    assert worst_rt <= 1e-9
    worst_cf = 0.0
    for n in (1, 2):
        for p in (1.5, 2.0):
            for m in (1e-3, 0.1, 0.7, 1.0):
                expected = (m * (n + p) / (unit_ball_volume(n) * p)) ** (1.0 / (n + p))
                got = sc.radius_of_mass(sc.quadratic(), p, n, m)
                worst_cf = max(worst_cf, abs(got - expected) / expected)
    assert worst_cf <= 1e-8
    _report(3, f"round trip<={worst_rt:.2e}, closed form rel<={worst_cf:.2e}")


def test_criterion_4_optimality_relation():
    """Support-max of |f'(u) + psi - l| is <= 1e-12 under 100 -> 200 -> 400
    refinement (1D, 2 atoms), psi the Kantorovich potential of the
    evaluation's plan, which its duality gap certifies to 1e-12."""
    f, p = sc.quadratic(), 2.0
    nu = sc.AtomicMeasure([[0.25], [0.6]], [0.4, 0.6])
    errors = []
    for cells in (100, 200, 400):
        grid = sc.Grid(sc.Domain.box([(0.0, 1.0)]), (cells,))
        density, _, plan = _min_Fp_nu(nu, f, p, grid, 0.5 / cells)
        u_support = density.values.ravel()[density.values.ravel() > 0]
        vals = u_support + plan.dual_psi  # f'(u) = u for the quadratic family
        level = np.median(vals)
        errors.append(float(np.abs(vals - level).max()))
        cost = np.abs(plan.source.points - plan.target.points.T) ** p
        assert (plan.dual_psi[:, None] + plan.dual_psi_c[None, :] - cost).max() <= 1e-12
        dual = plan.source.weights @ plan.dual_psi + plan.target.weights @ plan.dual_psi_c
        assert abs(plan.total_cost - dual) <= 1e-12
    assert max(errors) <= 1e-12
    _report(4, "errors " + ", ".join(f"{e:.2e}" for e in errors))


def test_criterion_5_ball_support_structure():
    """Every positive-density cell lies within c_i^(1/p) + h of an atom,
    across the solved test matrix; zero violations."""
    f = sc.quadratic()
    matrix = [
        (sc.AtomicMeasure([[0.35], [0.65]], [0.5, 0.5]), 2.0, (0.0, 1.0), 300),
        (sc.AtomicMeasure([[0.9], [1.1]], [0.5, 0.5]), 1.0, (0.0, 2.0), 400),
        (sc.AtomicMeasure([[0.25], [0.6]], [0.4, 0.6]), 2.0, (0.0, 1.0), 256),
        (sc.AtomicMeasure([[0.3, 0.3], [0.7, 0.6]], [0.55, 0.45]), 2.0, (0.0, 1.0), 48),
    ]
    violations = 0
    checked = 0
    for atoms, p, bounds, cells in matrix:
        dim = atoms.dim
        grid = sc.Grid(sc.Domain.box([bounds] * dim), (cells,) * dim)
        c, _, _ = _solve_weights_best(atoms, f, p, grid, tol=1e-8)
        density = sc.density_from_weights(atoms, c, f, p, grid)
        centers = grid.cell_centers()
        h = grid.cell_diameter
        support = density.values.ravel() > 0
        dist = np.linalg.norm(centers[:, None] - atoms.points[None, :], axis=2)
        radius = np.maximum(c, 0.0) ** (1.0 / p)
        inside = (dist[support] <= radius[None, :] + h).any(axis=1)
        violations += int((~inside).sum())
        checked += int(support.sum())
    assert violations == 0
    _report(5, f"{checked} support cells, 0 violations")


def test_criterion_6_energy_identity():
    """Single-atom assembled solution matches E(1) within 1% on a 200^2
    grid in <= 30 s."""
    t0 = time.perf_counter()
    f, g = sc.quadratic(), sc.power_g(1.0, 0.5)
    solution = sc.assemble_rn_solution(np.array([1.0]), f, g, 2.0, 2, resolution=(200, 200))
    e1 = sc.subcity_energy(f, g, 2.0, 2, 1.0)
    elapsed = time.perf_counter() - t0
    rel = abs(solution.objective["total"] - e1) / e1
    assert rel <= 0.01
    assert elapsed <= 30.0
    _report(6, f"relative gap {rel:.2e}, {elapsed:.1f}s")


def test_criterion_7_atomization_condition():
    """10 random power-family parameter sets: condition satisfied with
    strictly decreasing products below -1."""
    rng = np.random.default_rng(2024)
    for _ in range(10):
        f = sc.power_f(float(rng.uniform(0.5, 2.0)), float(rng.uniform(1.3, 3.5)))
        g = sc.power_g(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.2, 0.8)))
        p = float(rng.choice([1.0, 1.5, 2.0]))
        n = int(rng.choice([1, 2]))
        report = sc.check_atomization_condition(f, g, p, n)
        assert report.satisfied
        assert all(a > b for a, b in zip(report.products, report.products[1:]))
        assert (report.products < -1.0).all()
    _report(7, "10/10 satisfied, strictly decreasing, below -1")


def test_criterion_8_subadditivity_and_merge():
    """E(s+t) <= E(s) + E(t) + 1e-10 below the concavity threshold, and
    merging sub-threshold atom pairs never increases the planner objective."""
    f, g, p, n = sc.quadratic(), sc.power_g(1.0, 0.5), 2.0, 1
    curve = sc.EnergyCurve.build(f, g, p, n)
    m0 = sc.subadditivity_threshold(curve)
    assert m0 > 0
    samples = np.linspace(m0 / 12, m0, 10)
    for s in samples:
        for t in samples:
            if s + t <= m0:
                assert sc.subcity_energy(f, g, p, n, s + t) <= (
                    sc.subcity_energy(f, g, p, n, s)
                    + sc.subcity_energy(f, g, p, n, t)
                    + 1e-10
                )
    rng = np.random.default_rng(88)
    for _ in range(12):
        small = rng.uniform(1e-3, m0 / 2, size=2)
        rest = 1.0 - small.sum()
        masses = np.array([small[0], small[1], rest])
        merged = np.array([small.sum(), rest])
        before = float(np.sum(curve.energy(masses)))
        after = float(np.sum(curve.energy(merged)))
        assert after <= before + 1e-10
    _report(8, f"m0={m0:.3f}; merge property held on 12 random splits")


def _quantize_simplex(masses, units):
    arr = np.floor(np.asarray(masses) * units).astype(int)
    short = units - int(arr.sum())
    frac = np.asarray(masses) * units - arr
    order = np.argsort(-frac)
    arr[order[:short]] += 1
    return arr


def test_criterion_9_planner_vs_brute_force():
    """Structured planner within the oracle's reported quantization
    tolerance of the brute-force optimum on 5 tiny 1D instances; <= 2 min."""
    t0 = time.perf_counter()
    cases = [
        (sc.quadratic(), sc.power_g(0.3, 0.5), [[0.5]]),
        (sc.quadratic(), sc.power_g(0.08, 0.5), [[0.25], [0.75]]),
        (sc.quadratic(), sc.power_g(0.3, 0.5), [[0.25], [0.5], [0.75]]),
        (sc.power_f(0.6, 2.0), sc.power_g(0.25, 0.5), [[0.3], [0.7]]),
        (sc.quadratic(), sc.power_g(0.12, 0.6), [[0.2], [0.5], [0.8]]),
    ]
    gaps = []
    for f, g, sites in cases:
        domain = sc.Domain.box([(0.0, 1.0)])
        grid = sc.Grid(domain, (32,))
        site_arr = np.array(sites)
        instance = sc.BruteForceInstance(
            grid=grid, candidate_sites=site_arr, f=f, g=g, p=2.0, mass_units=20
        )
        _, _, oracle_value = sc.brute_force_full(instance)
        best = None
        for k in range(1, len(sites) + 1):
            for subset in combinations(range(len(sites)), k):
                init = sc.AtomicMeasure(site_arr[list(subset)], np.full(k, 1.0 / k))
                cand = sc.solve_bounded(domain, f, g, 2.0, init, rounds=6, resolution=32)
                if best is None or cand.objective["total"] < best.objective["total"]:
                    best = cand
        structured = best.objective["total"]
        # snap the structured atoms onto the oracle's lattice (nearest site,
        # 1/20 masses); its oracle value bounds the gap from above
        units = _quantize_simplex(best.nu.masses, 20)
        merged = {}
        for pt, u in zip(best.nu.points, units):
            if u == 0:
                continue
            j = int(np.linalg.norm(site_arr - pt, axis=1).argmin())
            merged[j] = merged.get(j, 0) + int(u)
        nu_snap = sc.AtomicMeasure(
            site_arr[sorted(merged)],
            np.array([merged[j] for j in sorted(merged)], dtype=float) / 20.0,
        )
        inner, _ = best_density_for(nu_snap, grid, f, 2.0)
        snap_value = inner + float(g.g(nu_snap.masses).sum())
        quant_tol = max(snap_value - structured, 0.0) + 1e-9
        gap = abs(structured - oracle_value)
        assert structured <= oracle_value + 1e-6 * (1.0 + abs(oracle_value))
        assert oracle_value <= structured + quant_tol
        gaps.append((gap, quant_tol))
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    detail = ", ".join(f"gap={g:.1e}<=tol={t:.1e}" for g, t in gaps)
    _report(9, f"{detail}; {elapsed:.0f}s")


def test_criterion_10_cli_determinism(tmp_path):
    """Fixed config + seed reproduce byte-identical reports."""
    config = {
        "f": {"kind": "quadratic"},
        "g": {"kind": "power", "b": 0.6, "r": 0.5},
        "p": 2.0,
        "n": 1,
        "k_max": 4,
        "seed": 5,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    for mode, extra in (("plan-rn", {}), ("energy-curve", {"curve_samples": 16})):
        cfg.write_text(json.dumps({**config, **extra}))
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{mode}-{tag}"
            assert cli_main([mode, "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        a = (outs[0] / "report.json").read_bytes()
        b = (outs[1] / "report.json").read_bytes()
        assert a == b
    _report(10, "plan-rn and energy-curve reports byte-identical")

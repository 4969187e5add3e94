import json
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from subcities import (
    AtomicMeasure,
    BruteForceInstance,
    ConcentrationFamily,
    DimensionMismatch,
    Domain,
    FunctionFamily,
    Grid,
    IncompatibleGrids,
    SearchSpaceTooLarge,
    brute_force_full,
    compare_solutions,
    min_Fp_nu,
    power_f,
    power_g,
    quadratic,
    subcity_energy,
)
from subcities import oracle
from subcities.cli import main
from subcities.oracle import _compositions, _simplex_projection, best_density_for
from subcities.planner import PlanSolution


def grid32():
    return Grid(Domain.box([(0.0, 1.0)]), (32,))


def zero_g():
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return ConcentrationFamily(kind="custom", g_impl=zero, g_prime_impl=zero, g_second_impl=zero)


class TestInnerSolve:
    def test_single_site_matches_semidiscrete(self):
        nu = AtomicMeasure([[0.5]], [1.0])
        grid = grid32()
        value, u = best_density_for(nu, grid, quadratic(), 2.0)
        density, breakdown = min_Fp_nu(nu, quadratic(), 2.0, grid)
        assert value == pytest.approx(breakdown["total"], rel=1e-6)
        l1 = float(np.abs(u - density.values.ravel()).sum() * grid.cell_volume)
        assert l1 <= 0.02

    def test_value_decreases_with_cheaper_spread(self):
        nu = AtomicMeasure([[0.5]], [1.0])
        vals = [
            best_density_for(nu, grid32(), power_f(a, 2.0), 2.0)[0]
            for a in (2.0, 0.5, 0.1)
        ]
        assert vals[0] > vals[1] > vals[2]


class TestBruteForce:
    def test_two_symmetric_sites_vs_energy_sign(self):
        # the winner (split vs merged) must match the sign of 2E(1/2)-E(1)
        # computed on a domain large enough to hold the balls
        f, p = quadratic(), 2.0
        grid = Grid(Domain.box([(-1.5, 1.5)]), (48,))
        sites = np.array([[-0.75], [0.75]])
        for b in (0.05, 3.0):
            g = power_g(b, 0.5)
            inst = BruteForceInstance(grid=grid, candidate_sites=sites, f=f, g=g, p=p, mass_units=20)
            _, nu, _ = brute_force_full(inst)
            e1 = subcity_energy(f, g, p, 1, 1.0)
            e_half = 2 * subcity_energy(f, g, p, 1, 0.5)
            if e_half < e1:
                assert len(nu) == 2 and np.allclose(nu.masses, 0.5)
            else:
                assert len(nu) == 1

    def test_zero_g_concentrates_near_site(self):
        inst = BruteForceInstance(
            grid=grid32(), candidate_sites=np.array([[0.5]]), f=quadratic(), g=zero_g(), p=2.0
        )
        mu, nu, value = brute_force_full(inst)
        assert len(nu) == 1
        # cheaper spread cost concentrates the density and lowers the value
        lighter = BruteForceInstance(
            grid=grid32(), candidate_sites=np.array([[0.5]]), f=power_f(0.2, 2.0), g=zero_g(), p=2.0
        )
        _, _, lighter_value = brute_force_full(lighter)
        assert lighter_value < value

    def test_guards(self):
        with pytest.raises(SearchSpaceTooLarge):
            BruteForceInstance(
                grid=Grid(Domain.box([(0, 1)]), (128,)),
                candidate_sites=np.array([[0.5]]),
                f=quadratic(),
                g=power_g(1.0, 0.5),
                p=2.0,
            )
        with pytest.raises(SearchSpaceTooLarge):
            BruteForceInstance(
                grid=grid32(),
                candidate_sites=np.linspace(0, 1, 9)[:, None],
                f=quadratic(),
                g=power_g(1.0, 0.5),
                p=2.0,
            )

    def test_grid_refinement_tightens_lower_bound(self):
        # collapsing cell mass to midpoints is a Jensen lower bound on both
        # the transport and spread terms, so each oracle value bounds the
        # continuum from below and refinement tightens it monotonically
        f, g = quadratic(), power_g(0.3, 0.5)
        values = []
        for cells in (16, 32, 64):
            inst = BruteForceInstance(
                grid=Grid(Domain.box([(0.0, 1.0)]), (cells,)),
                candidate_sites=np.array([[0.5]]),
                f=f,
                g=g,
                p=2.0,
                mass_units=1,
            )
            values.append(brute_force_full(inst)[2])
        assert values[0] <= values[1] + 1e-9
        assert values[1] <= values[2] + 1e-9


def _one_at_a_time(nu, grid, f, p, max_iter=1500):
    """The inner solve for one measure, as a scalar loop: the batch's reference."""
    centers = grid.cell_centers()
    vol = grid.cell_volume
    cost = np.linalg.norm(centers[:, None, :] - nu.points[None, :, :], axis=2) ** p
    a = nu.masses
    n = len(centers)
    pi = np.outer(np.full(n, 1.0 / n), a)

    def value(pi):
        rho = pi.sum(axis=1)
        return float((pi * cost).sum() + f.f(rho / vol).sum() * vol)

    def grad(pi):
        rho = pi.sum(axis=1)
        return cost + f.f_prime(rho / vol)[:, None]

    step = vol * max(float(f.k_prime(np.array([1.0]))[0]), 1e-3)
    y = pi.copy()
    t_acc = 1.0
    val = value(pi)
    best_val, best_pi = val, pi.copy()
    for _ in range(max_iter):
        gr = grad(y)
        v_y = value(y)
        step *= 1.3
        while True:
            cand = np.ascontiguousarray(_simplex_projection((y - step * gr).T, a).T)
            diff = cand - y
            quad = v_y + float((gr * diff).sum()) + float((diff * diff).sum()) / (2 * step)
            v_cand = value(cand)
            if v_cand <= quad + 1e-14 * (1.0 + abs(v_cand)) or step < 1e-14:
                break
            step *= 0.5
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        y = cand + ((t_acc - 1.0) / t_next) * (cand - pi)
        if v_cand > val:
            y = cand.copy()
            t_next = 1.0
        pi, t_acc = cand, t_next
        if v_cand < best_val:
            best_val, best_pi = v_cand, pi.copy()
        if abs(val - v_cand) <= 1e-14 * (1.0 + abs(v_cand)):
            break
        val = v_cand
    return best_val, best_pi.sum(axis=1) / vol


def _cubic_f():
    # f(s) = s^2/2 + s^3/10; its evaluators insist on the 1-D arrays the
    # batch promises to pass
    def one_d(fn):
        def wrapped(s):
            if np.ndim(s) != 1:
                raise AssertionError(f"evaluator got shape {np.shape(s)}")
            return fn(s)

        return wrapped

    return FunctionFamily(
        kind="custom",
        f_impl=one_d(lambda s: s * s / 2 + s**3 / 10),
        f_prime_impl=one_d(lambda s: s + 0.3 * s * s),
        k_impl=lambda t: (np.sqrt(1.0 + 1.2 * t) - 1.0) / 0.6,
    )


def _unit_grid(cells):
    return Grid(Domain.box([(0.0, 1.0)]), (cells,))


# (f, g, sites, cells, mass units): the validate benchmark instance,
# acceptance criterion 9's five cases and a custom spread family
ORACLE_CASES = {
    "validate-1d-24": (quadratic, (0.25, 0.5), [[0.3], [0.7]], 24, 20),
    "c9-one-site": (quadratic, (0.3, 0.5), [[0.5]], 32, 20),
    "c9-two-sites": (quadratic, (0.08, 0.5), [[0.25], [0.75]], 32, 20),
    "c9-three-sites": (quadratic, (0.3, 0.5), [[0.25], [0.5], [0.75]], 32, 20),
    "c9-power-f": (lambda: power_f(0.6, 2.0), (0.25, 0.5), [[0.3], [0.7]], 32, 20),
    "c9-three-sites-r06": (quadratic, (0.12, 0.6), [[0.2], [0.5], [0.8]], 32, 20),
    "custom-f": (_cubic_f, (0.2, 0.5), [[0.3], [0.7]], 16, 10),
}


def _instance(name):
    make_f, (b, r), sites, cells, units = ORACLE_CASES[name]
    return BruteForceInstance(
        grid=_unit_grid(cells), candidate_sites=np.array(sites), f=make_f(),
        g=power_g(b, r), p=2.0, mass_units=units,
    )


@lru_cache(maxsize=None)
def _replayed(name):
    """Every (subset, comp) inner solve one at a time, and the loop's winner."""
    inst = _instance(name)
    sites, units = inst.candidate_sites, inst.mass_units
    rows, best = {}, None
    for k in range(1, len(sites) + 1):
        for subset in combinations(range(len(sites)), k):
            for comp in _compositions(units, k):
                nu = AtomicMeasure(sites[list(subset)], np.array(comp, dtype=float) / units)
                rows[subset, comp] = inner_val, u = _one_at_a_time(nu, inst.grid, inst.f, inst.p)
                key = (inner_val + float(inst.g.g(nu.masses).sum()), k, subset, comp)
                if best is None or key < best[0]:
                    best = (key, nu, u)
    return rows, best


def _assert_batches_match_replay(name):
    inst = _instance(name)
    rows, _ = _replayed(name)
    for subset in {s for s, _ in rows}:
        comps = [c for s, c in rows if s == subset]
        measures = [
            AtomicMeasure(inst.candidate_sites[list(subset)], np.array(c, dtype=float) / inst.mass_units)
            for c in comps
        ]
        values, densities = best_density_for(measures, inst.grid, inst.f, inst.p)
        assert values.shape == (len(comps),)
        assert densities.shape == (len(comps), inst.grid.n_cells)
        for comp, value, u in zip(comps, values, densities):
            ref_value, ref_u = rows[subset, comp]
            assert value == ref_value
            assert u.tobytes() == ref_u.tobytes()


class TestBatchedInnerSolve:
    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_rows_bit_identical_to_one_at_a_time(self, name):
        _assert_batches_match_replay(name)

    @pytest.mark.parametrize("name", ["validate-1d-24", "c9-three-sites", "custom-f"])
    def test_rows_bit_identical_when_split(self, name, monkeypatch):
        # a budget of a few rows per pass splits every subset with more
        # than three compositions into several lock-step passes
        cells, k = ORACLE_CASES[name][3], len(ORACLE_CASES[name][2])
        monkeypatch.setattr(oracle, "_ROW_BUDGET", 3 * cells * k)
        _assert_batches_match_replay(name)

    def test_shared_points_match_the_measures(self):
        inst = _instance("c9-three-sites")
        pts = inst.candidate_sites[[0, 2]]
        masses = np.array(list(_compositions(inst.mass_units, 2)), dtype=float) / inst.mass_units
        want = best_density_for([AtomicMeasure(pts, row) for row in masses], inst.grid, inst.f, inst.p)
        got = best_density_for(pts, inst.grid, inst.f, inst.p, masses)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_sites_must_be_distinct(self):
        with pytest.raises(ValueError):
            BruteForceInstance(
                grid=_unit_grid(8), candidate_sites=np.array([[0.3], [0.3]]), f=quadratic(),
                g=power_g(0.3, 0.5), p=2.0, mass_units=4,
            )

    def test_single_measure_is_a_batch_of_one(self):
        inst = _instance("custom-f")
        nu = AtomicMeasure([[0.3], [0.7]], [0.3, 0.7])
        value, u = best_density_for(nu, inst.grid, inst.f, inst.p)
        ref_value, ref_u = _one_at_a_time(nu, inst.grid, inst.f, inst.p)
        assert isinstance(value, float) and value == ref_value
        assert u.tobytes() == ref_u.tobytes()

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_brute_force_winner_matches_replay(self, name):
        inst = _instance(name)
        (total, k, subset, comp), ref_nu, ref_u = _replayed(name)[1]
        mu, nu, value = brute_force_full(inst)
        assert value == total
        assert len(nu) == k
        assert nu.points.tobytes() == inst.candidate_sites[list(subset)].tobytes()
        assert nu.masses.tobytes() == (np.array(comp, dtype=float) / inst.mass_units).tobytes()
        assert nu.masses.tobytes() == ref_nu.masses.tobytes()
        assert mu.values.tobytes() == ref_u.tobytes()


class TestSiteDimension:
    @pytest.mark.parametrize(
        "sites", [[[0.3, 0.9], [0.7, 0.1]], [0.3, 0.7]], ids=["2-D sites", "flat list"]
    )
    def test_sites_must_match_grid_dimension(self, sites):
        with pytest.raises(DimensionMismatch):
            BruteForceInstance(
                grid=_unit_grid(8), candidate_sites=np.array(sites), f=quadratic(),
                g=power_g(0.3, 0.5), p=2.0, mass_units=4,
            )

    @pytest.mark.parametrize(
        "sites", [[[0.3, 0.9], [0.7, 0.1]], [0.3, 0.7]], ids=["2-D sites", "flat list"]
    )
    def test_cli_reports_config_error(self, tmp_path, capsys, sites):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "f": {"kind": "quadratic"},
            "g": {"kind": "power", "b": 0.3, "r": 0.5},
            "p": 2.0,
            "n": 1,
            "domain": [[0.0, 1.0]],
            "rounds": 1,
            "validate": {"grid": 8, "sites": sites, "mass_units": 4},
        }))
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith("config error: ")


def _plan(mu, nu):
    return PlanSolution(
        mu=mu, nu=nu, profiles=[],
        objective={"total": 1.0, "transport": 0.5, "F": 0.3, "G": 0.2},
        metadata={},
    )


class TestCompare:
    def test_identical_inputs(self):
        from subcities import make_grid_density

        mu = make_grid_density(Domain.box([(0, 1)]), 8, np.ones(8))
        nu = AtomicMeasure([[0.2], [0.8]], [0.5, 0.5])
        report = compare_solutions(_plan(mu, nu), _plan(mu, nu))
        assert report.objective_gap == 0.0
        assert report.density_l1_gap == 0.0
        assert report.max_atom_distance == 0.0
        assert report.passed

    def test_atom_permutation_invariant(self):
        from subcities import make_grid_density

        mu = make_grid_density(Domain.box([(0, 1)]), 8, np.ones(8))
        a = AtomicMeasure([[0.2], [0.8]], [0.4, 0.6])
        b = AtomicMeasure([[0.8], [0.2]], [0.6, 0.4])
        report = compare_solutions(_plan(mu, a), _plan(mu, b))
        assert report.max_atom_distance == 0.0
        assert report.max_mass_difference == 0.0

    def test_incompatible_grids(self):
        from subcities import make_grid_density

        mu_a = make_grid_density(Domain.box([(0, 1)]), 8, np.ones(8))
        mu_b = make_grid_density(Domain.box([(0, 1)]), 16, np.ones(16))
        nu = AtomicMeasure([[0.5]], [1.0])
        with pytest.raises(IncompatibleGrids):
            compare_solutions(_plan(mu_a, nu), _plan(mu_b, nu))

import itertools
import math

import numpy as np
import pytest

from subcities import (
    AtomicMeasure,
    AtomOutsideDomain,
    Domain,
    Grid,
    GridTooCoarse,
    MassOutOfRange,
    NonpositiveMass,
    WeightedPointCloud,
    cell_masses,
    density_from_weights,
    eval_F,
    mass_of_radius,
    min_Fp_nu,
    power_f,
    quadratic,
    radius_of_mass,
    solve_discrete_transport,
    solve_weights,
)
from subcities.semidiscrete import (
    _PIVOTS,
    _ball_transport_cost,
    _profile_cost,
    kprime_radial_integral,
    unit_ball_volume,
)

R1_1D = (3.0 / 4.0) ** (1.0 / 3.0)  # quadratic f, p=2, n=1, unit mass


def grid1d(lo, hi, cells):
    return Grid(Domain.box([(lo, hi)]), (cells,))


class TestMassRadius:
    def test_mass_at_zero_radius(self):
        assert mass_of_radius(quadratic(), 2.0, 1, 0.0) == 0.0

    def test_quadratic_1d_unit_radius(self):
        # int_{-1}^{1} (1 - r^2) dr = 4/3
        assert mass_of_radius(quadratic(), 2.0, 1, 1.0) == pytest.approx(4.0 / 3.0)

    def test_strictly_increasing(self):
        f = power_f(1.2, 2.5)
        radii = np.linspace(0.05, 2.0, 15)
        masses = [mass_of_radius(f, 1.5, 2, R) for R in radii]
        assert all(a < b for a, b in zip(masses, masses[1:]))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_quadratic_closed_form(self, n, p):
        for m in (1e-3, 0.1, 0.7, 1.0):
            expected = (m * (n + p) / (unit_ball_volume(n) * p)) ** (1.0 / (n + p))
            assert radius_of_mass(quadratic(), p, n, m) == pytest.approx(expected, rel=1e-8)

    def test_2d_unit_mass_value(self):
        assert radius_of_mass(quadratic(), 2.0, 2, 1.0) == pytest.approx(
            (2.0 / np.pi) ** 0.25, rel=1e-10
        )

    @pytest.mark.parametrize("f", [quadratic(), power_f(1.3, 3.0), power_f(0.7, 1.6)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_round_trip(self, f, n):
        for m in (1e-3, 1e-2, 0.1, 0.5, 1.0):
            R = radius_of_mass(f, 2.0, n, m)
            assert abs(mass_of_radius(f, 2.0, n, R) - m) <= 1e-9

    def test_radius_monotone_to_zero(self):
        f = quadratic()
        rs = [radius_of_mass(f, 2.0, 1, m) for m in (1e-1, 1e-3, 1e-6, 1e-9)]
        assert all(a > b > 0 for a, b in zip(rs, rs[1:]))

    def test_nonpositive_mass(self):
        with pytest.raises(NonpositiveMass):
            radius_of_mass(quadratic(), 2.0, 1, 0.0)
        with pytest.raises(MassOutOfRange):
            radius_of_mass(quadratic(), 2.0, 1, 1.5)


class TestBallIntegralsExact:
    """The power catalogue's ball integrals against scipy's Beta function.

    With t = R^p - r^p and J(beta, s) = int_0^R t^beta r^(s-1) dr
    = R^(s + p beta) B(s/p, beta + 1) / p, the mass is kappa J(alpha, n),
    the k' integral kappa alpha J(alpha - 1, n), the transport cost
    kappa J(alpha, n + p) and the spread a kappa^q J(alpha + 1, n), each
    times n w_n.
    """

    @staticmethod
    def _expected(f, p, n, R):
        beta = pytest.importorskip("scipy.special").beta
        J = lambda b, s: R ** (s + p * b) * beta(s / p, b + 1.0) / p
        nwn, k = n * unit_ball_volume(n), f.kappa
        transport = nwn * k * J(f.alpha, n + p)
        return {
            mass_of_radius: nwn * k * J(f.alpha, n),
            kprime_radial_integral: nwn * k * f.alpha * J(f.alpha - 1.0, n),
            _ball_transport_cost: transport,
            _profile_cost: nwn * f.a * k**f.q * J(f.alpha + 1.0, n) + transport,
        }

    @pytest.mark.parametrize("q", [1.01, 1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_the_beta_function(self, q, p, n):
        f = power_f(1.3, q)
        for R in (0.3, 1.0, 1.7):
            for fn, want in self._expected(f, p, n, R).items():
                assert fn(f, p, n, R) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_quadratic_mass_at_p_one_and_a_half(self):
        # m(R) = 2 int_0^R (R^1.5 - r^1.5) dr = 1.2 R^2.5
        for R in (0.1, 0.5, 1.0, 2.0):
            got = mass_of_radius(quadratic(), 1.5, 1, R)
            assert got == pytest.approx(1.2 * R**2.5, rel=1e-12, abs=0.0)

    def test_finite_near_q_one(self):
        # alpha = 1000: Gamma(a + b) alone would overflow
        f = power_f(1.0, 1.001)
        for fn, want in self._expected(f, 1.5, 2, 1.0).items():
            got = fn(f, 1.5, 2, 1.0)
            assert np.isfinite(got) and got > 0.0
            assert got == pytest.approx(want, rel=1e-10)


def _invert_by_mass_of_radius(f, p, n, m):
    """R(m) by bisection on ``mass_of_radius`` itself, called at every step."""
    hi = (m * (n + p) / (unit_ball_volume(n) * p)) ** (1.0 / (n + p))
    while mass_of_radius(f, p, n, hi) < m:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = mass_of_radius(f, p, n, mid)
        if abs(val - m) <= 1e-13:
            return mid
        if val < m:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def _custom_quadratic():
    """The quadratic f given as a custom family, with its k'."""
    from subcities import FunctionFamily

    return FunctionFamily(
        kind="custom",
        f_impl=lambda s: 0.5 * s * s,
        f_prime_impl=lambda s: s,
        k_impl=lambda t: t,
        k_prime_impl=lambda t: np.ones_like(t),
    )


class TestInvertMass:
    """R(m) inverts m(R): closed form for the power catalogue, Newton on the
    quadrature mass for a custom family."""

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_power_catalogue(self, q, p, n):
        # R = (m / m(1))^(1/e) carries the rounding of 1/e times |ln m| <= 21
        # and m(R) = m(1) R^e; 11 ulps is the largest round-trip error seen
        f = power_f(0.8, q)
        masses = np.geomspace(1e-9, 1.0, 60)
        radii = radius_of_mass(f, p, n, masses).tolist()
        back = np.array([mass_of_radius(f, p, n, R) for R in radii])
        assert np.all(np.abs(back - masses) <= 16 * np.spacing(masses))

    def test_custom_family(self):
        from subcities import FunctionFamily
        from subcities.semidiscrete import _invert_mass

        f = FunctionFamily(
            kind="custom",
            f_impl=lambda s: 0.5 * s * s,
            f_prime_impl=lambda s: s,
            k_impl=lambda t: t,
            k_prime_impl=lambda t: np.ones_like(t),
        )
        for m in (1e-3, 0.4):
            assert _invert_mass(f, 2.0, 2, m) == pytest.approx(
                _invert_by_mass_of_radius(f, 2.0, 2, m), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_custom_round_trip(self, monkeypatch, p, n):
        # the quadratic given as a custom family (the closed-form start is
        # its root) and a cubic f, k = sqrt, whose k' is a finite difference
        from subcities import FunctionFamily, semidiscrete

        cubic = FunctionFamily(
            kind="custom", f_impl=lambda s: s**3 / 3.0, f_prime_impl=lambda s: s * s, k_impl=np.sqrt
        )
        calls = []
        monkeypatch.setattr(
            semidiscrete, "mass_of_radius", lambda *a: calls.append(a) or mass_of_radius(*a))
        for f in (_custom_quadratic(), cubic):
            for m in np.geomspace(1e-9, 1.0, 25).tolist():
                calls.clear()
                R = radius_of_mass(f, p, n, m)
                assert len(calls) <= 16
                assert abs(mass_of_radius(f, p, n, R) - m) <= 1e-14 * m

    def test_start_at_the_root(self, monkeypatch):
        # a start that is the root to rounding ends the search at once: the
        # custom quadratic's closed-form start, and a cubic's root and its
        # float neighbours
        from subcities import semidiscrete
        from subcities.semidiscrete import _monotone_root

        calls = []
        monkeypatch.setattr(
            semidiscrete, "mass_of_radius", lambda *a: calls.append(a) or mass_of_radius(*a))
        radius_of_mass(_custom_quadratic(), 2.0, 2, 10**-2.5)
        assert len(calls) <= 2

        def gap(x):
            calls.append(x)
            return x**3 - 2.0, 3.0 * x * x

        root = 2.0 ** (1.0 / 3.0)
        for start in (root, np.nextafter(root, 0.0), np.nextafter(root, 2.0)):
            calls.clear()
            assert abs(_monotone_root(gap, start, 0.0, 0.0, 0.0) - root) <= 2 * np.spacing(root)
            assert len(calls) <= 2


class TestDensityFromWeights:
    def test_nonpositive_weights_zero_density(self):
        atoms = AtomicMeasure([[0.5]], [1.0])
        dens = density_from_weights(atoms, [-0.2], quadratic(), 2.0, grid1d(0, 1, 64))
        assert dens.total_mass == 0.0

    def test_single_atom_parabola(self):
        atoms = AtomicMeasure([[0.5]], [1.0])
        grid = grid1d(0, 1, 200)
        dens = density_from_weights(atoms, [0.04], quadratic(), 2.0, grid)
        x = grid.cell_centers().ravel()
        assert np.allclose(dens.values, np.maximum(0.04 - (x - 0.5) ** 2, 0.0))

    def test_two_far_atoms_sum_of_bumps(self):
        f = quadratic()
        grid = grid1d(0, 4, 400)
        both = density_from_weights(
            AtomicMeasure([[1.0], [3.0]], [0.5, 0.5]), [0.3, 0.4], f, 2.0, grid
        )
        left = density_from_weights(AtomicMeasure([[1.0]], [1.0]), [0.3], f, 2.0, grid)
        right = density_from_weights(AtomicMeasure([[3.0]], [1.0]), [0.4], f, 2.0, grid)
        assert np.allclose(both.values, left.values + right.values)

    def test_atom_outside_domain(self):
        with pytest.raises(AtomOutsideDomain):
            density_from_weights(
                AtomicMeasure([[1.5]], [1.0]), [0.1], quadratic(), 2.0, grid1d(0, 1, 16)
            )


class TestCellMasses:
    def test_single_atom_gets_all(self):
        atoms = AtomicMeasure([[0.5]], [1.0])
        grid = grid1d(0, 1, 128)
        dens = density_from_weights(atoms, [0.04], quadratic(), 2.0, grid)
        masses = cell_masses(atoms, [0.04], quadratic(), 2.0, grid)
        assert masses[0] == pytest.approx(dens.total_mass, abs=1e-15)

    def test_symmetric_equal(self):
        atoms = AtomicMeasure([[0.35], [0.65]], [0.5, 0.5])
        masses = cell_masses(atoms, [0.2, 0.2], quadratic(), 2.0, grid1d(0, 1, 200))
        assert masses[0] == pytest.approx(masses[1], abs=1e-10)

    def test_sums_to_grid_total(self):
        rng = np.random.default_rng(2)
        atoms = AtomicMeasure([[0.2], [0.5], [0.8]], [0.3, 0.3, 0.4])
        c = rng.random(3) * 0.3
        grid = grid1d(0, 1, 157)
        dens = density_from_weights(atoms, c, quadratic(), 2.0, grid)
        masses = cell_masses(atoms, c, quadratic(), 2.0, grid)
        assert masses.sum() == pytest.approx(dens.total_mass, abs=1e-12)


def _naive_stats(ws, c, k_of_positive):
    """Cell winner, score, density and cell masses, written out plainly."""
    scores = c[None, :] - ws.dist_p.T
    winner = scores.argmax(axis=1)
    s = scores[np.arange(len(scores)), winner]
    active = s > 0
    u = np.where(active, k_of_positive(np.where(active, s, 0.0)), 0.0)
    cell_mass = np.bincount(winner, weights=u * ws.vol * active, minlength=ws.m)
    return s, winner, u, cell_mass


def _conjugate_dual(ws, c, s):
    """The dual value c . masses - vol * sum f*(max(s, 0)) through f.conjugate."""
    return float(c @ ws.atoms.masses) - float(ws.f.conjugate(np.maximum(s, 0.0)).sum() * ws.vol)


def _custom_family(k_impl=np.log1p):
    from subcities import FunctionFamily

    return FunctionFamily(
        kind="custom", f_impl=lambda s: np.expm1(s) - s, f_prime_impl=np.expm1, k_impl=k_impl
    )


class TestWorkspaceStats:
    def _check(self, atoms, f, grid, c, k_of_positive, p=2.0):
        from subcities.semidiscrete import _Workspace

        ws = _Workspace(atoms, f, p, grid)
        c = np.asarray(c, dtype=float)
        for got, want in zip(ws.stats(c), _naive_stats(ws, c, k_of_positive)):
            assert np.array_equal(got, want)

    @staticmethod
    def _power():
        f = power_f(1.2, 2.5)
        kappa = (f.a * f.q) ** (-1.0 / (f.q - 1.0))
        return f, lambda t: kappa * t ** (1.0 / (f.q - 1.0))

    def test_symmetric_ties_go_to_the_lowest_index(self):
        # odd resolutions put cell centres on the bisectors of the atom pairs
        f, k_pos = self._power()
        grid = Grid(Domain.box([(0, 1), (0, 1)]), (17, 17))
        atoms = AtomicMeasure([[0.25, 0.5], [0.75, 0.5], [0.5, 0.25]], [0.3, 0.3, 0.4])
        pair = AtomicMeasure([[0.25], [0.75]], [0.5, 0.5])
        for p in (1.0, 1.5, 2.0):
            self._check(atoms, f, grid, [0.05, 0.05, 0.05], k_pos, p)
            self._check(pair, f, grid1d(0, 1, 33), [0.1, 0.1], k_pos, p)

    def test_custom_family(self):
        seen = []
        f = _custom_family(lambda t: seen.append(np.shape(t)) or np.log1p(t))
        atoms = AtomicMeasure([[0.2], [0.5], [0.8]], [0.3, 0.3, 0.4])
        for p in (1.0, 1.5, 2.0):
            self._check(atoms, f, grid1d(0, 1, 64), [0.01, 0.03, -0.01], np.log1p, p)
        assert seen and all(len(shape) == 1 for shape in seen)  # evaluators see 1-D arrays

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_perturbed_ties(self, p):
        # a common shift keeps the ties; per-atom noise breaks them
        f, k_pos = self._power()
        rng = np.random.default_rng(3)
        cases = [
            (AtomicMeasure([[0.25, 0.5], [0.75, 0.5], [0.5, 0.25]], [0.3, 0.3, 0.4]),
             f, k_pos, Grid(Domain.box([(0, 1), (0, 1)]), (17, 17)), [0.05, 0.05, 0.05]),
            (AtomicMeasure([[0.25], [0.75]], [0.5, 0.5]), f, k_pos, grid1d(0, 1, 33), [0.1, 0.1]),
            (AtomicMeasure([[0.2], [0.5], [0.8]], [0.3, 0.3, 0.4]),
             _custom_family(), np.log1p, grid1d(0, 1, 64), [0.01, 0.03, -0.01]),
            (AtomicMeasure([[0.31, 0.62], [0.7, 0.4]], [0.45, 0.55]),
             f, k_pos, Grid(Domain.box([(0, 1), (0, 1)]), (12, 9)), [0.3, 0.2]),
        ]
        for atoms, fam, k_of_positive, grid, c0 in cases:
            for t in range(7):
                c = np.asarray(c0) + (rng.uniform(-0.02, 0.02) if t else 0.0)
                if t % 2:
                    c = c + rng.uniform(-0.01, 0.01, len(c))
                self._check(atoms, fam, grid, c, k_of_positive, p)

    @pytest.mark.parametrize(
        "f", [quadratic(), power_f(1.2, 2.5), _custom_family()], ids=["quadratic", "power", "custom"]
    )
    def test_dual_value_is_the_conjugate_form(self, f):
        # f* read off the density, s u - f(u) on the support, is the
        # conjugate of max(s, 0) bit for bit; the weights leave cells of
        # every grid off the support
        from subcities.semidiscrete import _Workspace

        rng = np.random.default_rng(5)
        cases = [
            (AtomicMeasure([[0.2], [0.5], [0.8]], [0.3, 0.3, 0.4]), grid1d(0, 1, 64)),
            (AtomicMeasure([[0.3, 0.5], [0.7, 0.5], [0.5, 0.2]], [0.4, 0.35, 0.25]),
             Grid(Domain.box([(0, 1), (0, 1)]), (24, 24))),
        ]
        for atoms, grid in cases:
            for p in (1.0, 1.5, 2.0):
                ws = _Workspace(atoms, f, p, grid)
                for _ in range(4):
                    c = rng.uniform(-0.02, 0.08, ws.m)
                    s, _, u, _ = ws.stats(c)
                    assert (s <= 0).any() and (s > 0).any()
                    assert ws.dual_value(c, s, u) == _conjugate_dual(ws, c, s)


class TestFirstMax:
    def test_matches_argmax_on_the_transpose(self):
        # the reduction along contiguous (atoms, cells) rows against argmax
        # on the (cells, atoms) transpose: the best value, its first index,
        # and the runner-up once the winner is masked, with exact ties
        # between random atom pairs (some at the column's best) and -inf
        # entries, whole columns of them too
        from subcities.semidiscrete import _first_max, _rank

        rng = np.random.default_rng(21)
        tied = 0
        for m in [*range(1, 61), 255, 256, 300]:
            for _ in range(3):
                cells = int(rng.integers(1, 300))
                cols = np.arange(cells)
                scores = rng.normal(size=(m, cells))
                for _ in range(int(rng.integers(0, 2 * m)) if m > 1 else 0):
                    a, b = rng.choice(m, 2, replace=False)
                    x = rng.random(cells) < 0.3
                    scores[b, x] = scores[a, x]
                    top = rng.random(cells) < 0.2
                    scores[a, top] = scores[b, top] = scores[:, top].max(axis=0) + rng.random()
                scores[rng.random((m, cells)) < 0.05] = -np.inf
                scores[:, rng.random(cells) < 0.05] = -np.inf
                rank = _rank(m)
                best, first = _first_max(scores, rank)
                want = scores.T.argmax(axis=1)
                assert first.dtype == np.intp
                assert np.array_equal(first, want)
                assert np.array_equal(best, scores.T[cols, want])
                tied += int(((scores == best) & np.isfinite(best)).sum(axis=0).max() > 1)
                masked, ref = scores.copy(), scores.T.copy()
                masked[first, cols] = -np.inf
                ref[cols, want] = -np.inf
                second, runner = _first_max(masked, rank)
                assert np.array_equal(runner, ref.argmax(axis=1))
                assert np.array_equal(second, ref[cols, runner])
        assert tied > 150


class TestSolveWeights:
    def test_single_atom_closed_form(self):
        atoms = AtomicMeasure([[1.0]], [1.0])
        w = solve_weights(atoms, quadratic(), 2.0, grid1d(0, 2, 1000), tol=1e-9)
        assert w.c[0] == pytest.approx(R1_1D**2, abs=2e-6)
        assert w.residual <= 1e-9

    def test_symmetric_pair_equal_weights(self):
        atoms = AtomicMeasure([[0.35], [0.65]], [0.5, 0.5])
        w = solve_weights(atoms, quadratic(), 2.0, grid1d(0, 1, 400), tol=1e-9)
        assert abs(w.c[0] - w.c[1]) <= 1e-9

    def test_mass_perturbation_monotone(self):
        f = quadratic()
        grid = grid1d(0, 1, 256)
        base = solve_weights(
            AtomicMeasure([[0.35], [0.65]], [0.5, 0.5]), f, 2.0, grid, tol=1e-8
        )
        bumped, _, _ = _best_effort(
            AtomicMeasure([[0.35], [0.65]], [0.56, 0.44]), f, 2.0, grid
        )
        assert bumped[0] > base.c[0]
        assert bumped[1] < base.c[1]

    def test_positive_weights_for_positive_masses(self):
        atoms = AtomicMeasure([[0.3], [0.7]], [0.5, 0.5])
        w = solve_weights(atoms, quadratic(), 2.0, grid1d(0, 1, 300), tol=1e-8)
        assert (w.c > 0).all()

    def test_grid_too_coarse(self):
        atoms = AtomicMeasure([[0.25], [0.75]], [0.5, 0.5])
        with pytest.raises(GridTooCoarse):
            solve_weights(atoms, quadratic(), 2.0, grid1d(0, 1, 1), tol=1e-8)

    def test_no_convergence_reports_floor(self):
        # generic asymmetric instance: hard cell assignment floors the
        # residual near (boundary density) * (cell volume); the crossover
        # splits the tied cell and balances both atoms
        atoms = AtomicMeasure([[0.3], [0.62]], [0.35, 0.65])
        w = solve_weights(atoms, quadratic(), 2.0, grid1d(0, 1, 64), tol=1e-10)
        assert w.residual <= 1e-12 and w.split is not None
        # p = 1: left of every atom each pair's scores differ by a constant,
        # and the optimum ties all three atoms on one run of cells, which
        # the crossover's flow shares among the three
        atoms = AtomicMeasure([[0.2], [0.235], [0.47]], [0.045, 0.075, 0.88])
        w = solve_weights(atoms, quadratic(), 1.0, grid1d(0, 1, 32), tol=1e-9)
        assert w.residual <= 1e-12

    def test_p1_and_power_f(self):
        atoms = AtomicMeasure([[0.4], [0.6]], [0.5, 0.5])
        for f, p in ((quadratic(), 1.0), (power_f(1.0, 2.0), 2.0)):
            w = solve_weights(atoms, f, p, grid1d(0, 1, 400), tol=1e-8)
            masses = cell_masses(atoms, w, f, p, grid1d(0, 1, 400))
            assert np.abs(masses - 0.5).max() <= 1e-8

    @staticmethod
    def _floor_solve(atoms, p, grid):
        # the documented floor u_max * h^n, u_max = k(R(m_max)^p)
        f = quadratic()
        r = radius_of_mass(f, p, grid.domain.dim, float(atoms.masses.max()))
        tol = float(f.k(np.array([r**p]))[0]) * grid.cell_volume
        w = solve_weights(atoms, f, p, grid, tol=tol)
        assert w.residual <= tol

    def test_newton_may_empty_a_cell_on_the_way(self):
        # a line search that rejects steps leaving an atom without a cell
        # stalls here at 3x the floor; the Armijo test alone reaches 0.95x
        atoms = AtomicMeasure(
            [[0.236118], [0.409815], [0.588668], [0.764406]],
            [0.186266, 0.227732, 0.273247, 0.312755],
        )
        self._floor_solve(atoms, 1.0, grid1d(0, 1, 256))

    def test_stalled_newton_ends_with_sweep_and_polish(self):
        # Newton alone, the sweep alone and the polish alone all stop near
        # 1.02x the floor; one sweep plus polish reaches 0.853x
        atoms = AtomicMeasure(
            [[0.378, 0.6887], [0.401, 0.3089], [0.7229, 0.5182]],
            [0.2448, 0.3273, 0.4279],
        )
        grid = Grid(Domain.box([(0, 1), (0, 1)]), (16, 16))
        self._floor_solve(atoms, 2.0, grid)


def _reference_jacobian(ws, c):
    """full_jacobian accumulated term by term with np.add.at: each active
    cell within tau of its runner-up couples the two atoms by k(s) vol / 2 tau,
    the band of a boundary counted once from each side."""
    scores = c[None, :] - ws.dist_p.T
    idx = np.arange(len(scores))
    winner = scores.argmax(axis=1)
    s = scores[idx, winner]
    active = s > 0
    J = np.zeros((ws.m, ws.m))
    np.add.at(J, (winner, winner), ws.f.k_prime(s) * ws.vol * active)
    if ws.m == 1:
        return J
    scores[idx, winner] = -np.inf
    runner = scores.argmax(axis=1)
    gap = s - scores[idx, runner]
    p = ws.p
    ii = np.nonzero(active)[0]
    a, b = winner[ii], runner[ii]

    def grad(rows, cols):
        d = ws.dist.T[rows, cols][:, None]
        vec = ws.centers[rows] - ws.atoms.points[cols]
        return p * np.where(d > 0, d, 1.0) ** (p - 2.0) * vec

    grad_gap = np.linalg.norm(grad(ii, b) - grad(ii, a), axis=1)
    tau = np.maximum(grad_gap * ws.grid.cell_diameter, 1e-14)
    on = gap[ii] <= tau
    coupling = ws.f.k(s[ii][on]) * ws.vol / (2.0 * tau[on])
    aa, bb = a[on], b[on]
    np.add.at(J, (aa, bb), -coupling)
    np.add.at(J, (bb, aa), -coupling)
    np.add.at(J, (aa, aa), coupling)
    np.add.at(J, (bb, bb), coupling)
    return J


def _reference_polish(ws, c, total):
    """_level_polish by bisection: 100 steps, each mass read from a full stats call."""

    def mass_at(delta):
        return float(ws.stats(c + delta)[3].sum())

    lo, hi = -1.0, 1.0
    for _ in range(80):
        if mass_at(lo) <= total:
            break
        lo *= 2.0
    for _ in range(80):
        if mass_at(hi) >= total:
            break
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mass_at(mid) < total:
            lo = mid
        else:
            hi = mid
    return c + 0.5 * (lo + hi)


def _reference_sweep(ws, c, targets):
    """_coordinate_sweep with every trial's mass read from a full stats call."""
    c = c.copy()
    for i in range(ws.m):
        lo, hi = 0.0, max(c[i], 1e-6)
        for _ in range(80):
            trial = c.copy()
            trial[i] = hi
            if ws.stats(trial)[3][i] >= targets[i]:
                break
            hi *= 2.0
        else:
            raise GridTooCoarse(f"atom {i} cannot reach its target mass on this grid")
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            trial = c.copy()
            trial[i] = mid
            if ws.stats(trial)[3][i] < targets[i]:
                lo = mid
            else:
                hi = mid
        c[i] = hi
    return c


def _reference_solve(ws, tol, max_iter=500):
    """The weight solve with a one-trial-at-a-time halving line search
    (factors 2^0 ... 2^-4) and no crossover; also returns the iterates it would hand to the crossover:
    the best one at the first accepted iterate whose active set repeats one
    from before the previous iterate or whose best residual is within the
    crossover's reach (the mass of _PIVOTS of the start's largest cells),
    and the best one at the end, wherever Newton stopped, unless it was the
    one already handed over."""
    from subcities.semidiscrete import _level_polish

    targets = ws.atoms.masses
    # equal weights balanced to the total: the shift from zero weights
    c = _level_polish(ws, np.zeros(ws.m), float(targets.sum()))
    s, winner, u, cm = ws.stats(c)
    if (cm <= 0).any():
        raise GridTooCoarse("no supporting cell")
    reach = _PIVOTS * ws.vol * float(u.max())
    best_c, best_res = c.copy(), float(np.abs(cm - targets).max())
    phi = _conjugate_dual(ws, c, s)
    seen = {np.where(s > 0, winner, -1).tobytes(): 0}
    handed = []
    it = 0
    while it < max_iter and best_res > tol:
        it += 1
        r = cm - targets
        J = _reference_jacobian(ws, c)
        scale = max(float(np.trace(J)) / ws.m, 1e-12)
        try:
            step = np.linalg.solve(J + 1e-10 * scale * np.eye(ws.m), -r)
        except np.linalg.LinAlgError:
            step = -r / np.maximum(np.diag(J), 1e-12)
        slope = float(-r @ step)
        if slope <= 0:
            step, slope = -r, float(r @ r)
        lam, accepted, phi_prev = 1.0, False, phi
        while lam >= 1.0 / 16.0:
            c_try = c + lam * step
            s2, w2, _, cm2 = ws.stats(c_try)
            phi2 = _conjugate_dual(ws, c_try, s2)
            if phi2 >= phi + 1e-4 * lam * slope - 1e-13 * (1.0 + abs(phi)):
                c, cm, phi, accepted = c_try, cm2, phi2, True
                key = np.where(s2 > 0, w2, -1).tobytes()
                break
            lam *= 0.5
        res = float(np.abs(cm - targets).max())
        if res < best_res:
            best_res, best_c = res, c.copy()
        if not accepted or (
            it > 10 and res > tol and phi <= phi_prev + 1e-15 * (1.0 + abs(phi_prev))
        ):
            break
        if best_res > tol and not handed and (seen.get(key, it - 1) < it - 1 or best_res <= reach):
            handed.append(best_c)
        seen[key] = it
    if not (handed and handed[0] is best_c):
        handed.append(best_c)
    if best_res > tol:
        c = _level_polish(ws, _reference_sweep(ws, best_c, targets), float(targets.sum()))
        res = float(np.abs(ws.stats(c)[3] - targets).max())
        if res < best_res:
            best_res, best_c = res, c
    return best_c, best_res, handed


def _random_workspace(rng):
    """A small random weight-solve instance: 1-D or 2-D, p in {1, 1.5, 2},
    1-4 atoms (sometimes on cell centres), quadratic or power f."""
    from subcities.semidiscrete import _Workspace

    dim = int(rng.integers(1, 3))
    k = int(rng.integers(1, 5))
    p = float(rng.choice([1.0, 1.5, 2.0]))
    f = quadratic() if rng.random() < 0.5 else power_f(1.3, 2.5)
    cells = int(rng.integers(12, 48)) if dim == 1 else int(rng.integers(5, 10))
    grid = Grid(Domain.box([(0, 1)] * dim), (cells,) * dim)
    if rng.random() < 0.3:
        centers = grid.cell_centers()
        points = centers[rng.choice(len(centers), k, replace=False)]
    else:
        points = rng.uniform(0.1, 0.9, (k, dim))
    masses = rng.dirichlet(np.full(k, 5.0))
    return _Workspace(AtomicMeasure(points, masses / masses.sum()), f, p, grid)


class TestBitIdentity:
    """The weight solve, its line search, sweep and polish reproduce the
    plain reference loops here bit for bit, and the Jacobian's layer widths,
    computed per active cell from its two best atoms' distances, reproduce
    the term-by-term Jacobian."""

    def test_solve_matches_sequential_line_search(self, monkeypatch):
        # with a crossover that never finds a split, the solve is the plain
        # Newton loop plus the sweep-and-polish pass, and it hands over the
        # iterates that loop reaches at its first active-set revisit or
        # within the crossover's reach, whichever comes first, and at its end
        from subcities import semidiscrete
        from subcities.semidiscrete import _solve_weights_best, _Workspace

        handed = []
        monkeypatch.setattr(semidiscrete, "_crossover", lambda ws, c0, start: handed.append(c0.copy()))
        rng = np.random.default_rng(11)
        workspaces = [_random_workspace(rng) for _ in range(210)]
        # the two instances pinned in TestSolveWeights
        workspaces += [
            _Workspace(AtomicMeasure(
                [[0.236118], [0.409815], [0.588668], [0.764406]],
                [0.186266, 0.227732, 0.273247, 0.312755],
            ), quadratic(), 1.0, grid1d(0, 1, 256)),
            _Workspace(AtomicMeasure(
                [[0.378, 0.6887], [0.401, 0.3089], [0.7229, 0.5182]],
                [0.2448, 0.3273, 0.4279],
            ), quadratic(), 2.0, Grid(Domain.box([(0, 1), (0, 1)]), (16, 16))),
        ]
        solved = above_floor = early = 0
        for ws in workspaces:
            # the documented floor u_max * h^n, as the benchmark sets it
            r = radius_of_mass(ws.f, ws.p, ws.grid.domain.dim, float(ws.atoms.masses.max()))
            tol = float(ws.f.k(np.array([r**ws.p]))[0]) * ws.vol
            handed.clear()
            try:
                want = _reference_solve(ws, tol, max_iter=40)
            except GridTooCoarse:
                with pytest.raises(GridTooCoarse):
                    _solve_weights_best(ws.atoms, ws.f, ws.p, ws.grid, tol, 40, ws=ws)
                continue
            got = _solve_weights_best(ws.atoms, ws.f, ws.p, ws.grid, tol, 40, ws=ws)
            c, res, split = got
            assert np.array_equal(c, want[0]) and res == want[1] and split is None
            assert len(handed) == len(want[2]) >= 1  # every solve ends at the crossover
            assert all(np.array_equal(g, w) for g, w in zip(handed, want[2]))
            solved += 1
            above_floor += res > tol  # these ran the sweep-and-polish pass
            early += len(handed) == 2  # early, then again at the end
        assert solved >= 200 and above_floor > 10 and early > 10

    def test_line_search_matches_halving_loop(self):
        # grids past numpy's 128-element pairwise-sum blocks and small
        # grids; the dual value through f.conjugate
        from subcities.semidiscrete import _line_search, _Workspace

        def halving(ws, c, step, phi, slope):
            lam = 1.0
            while lam >= 1.0 / 16.0:
                c_try = c + lam * step
                s2, _, _, cm2 = ws.stats(c_try)
                phi2 = _conjugate_dual(ws, c_try, s2)
                if phi2 >= phi + 1e-4 * lam * slope - 1e-13 * (1.0 + abs(phi)):
                    return (c_try, cm2, phi2), lam
                lam *= 0.5
            return None, None

        rng = np.random.default_rng(14)
        square = Grid(Domain.box([(0, 1), (0, 1)]), (64, 64))
        cases = [
            (AtomicMeasure(rng.uniform(0.2, 0.8, (4, 2)), [0.2, 0.3, 0.1, 0.4]), 2.0, square),
            (AtomicMeasure([[0.3], [0.55], [0.8]], [0.3, 0.3, 0.4]), 1.5, grid1d(0, 1, 512)),
            (AtomicMeasure([[0.2], [0.45], [0.8]], [0.3, 0.3, 0.4]), 2.0, grid1d(0, 1, 32)),
            (AtomicMeasure([[0.3, 0.3], [0.7, 0.35], [0.5, 0.75]], [0.25, 0.35, 0.4]), 1.0,
             Grid(Domain.box([(0, 1), (0, 1)]), (16, 16))),
        ]
        for atoms, p, grid in cases:
            ws = _Workspace(atoms, quadratic(), p, grid)
            taken, failed = set(), 0
            for t in range(25):
                c = rng.uniform(0.02, 0.2, ws.m)
                s, _, _, cm = ws.stats(c)
                phi = _conjugate_dual(ws, c, s)
                if t < 24:
                    step = (atoms.masses - cm) * 10.0 ** rng.uniform(-1.0, 2.5)
                    slope = float((atoms.masses - cm) @ step)
                else:  # a descent direction claimed steep: no factor passes
                    step, slope = cm - atoms.masses, 1e6
                want, lam = halving(ws, c, step, phi, slope)
                got = _line_search(ws, c, step, phi, slope)
                assert (got is None) == (want is None)
                if want is None:
                    failed += 1
                else:
                    taken.add(lam)
                    for g, w in zip(got, want):
                        assert np.array_equal(g, w)
            # the full step, every backtrack down to 1/16, and steps too
            # long for all of them
            assert taken == {1.0, 0.5, 0.25, 0.125, 0.0625} and failed > 1

    def test_line_search_evaluates_only_the_factors_it_tries(self):
        # one weight vector per stats call: the full step alone when it
        # passes, the accepted factor 2^-k and every larger one otherwise
        from subcities.semidiscrete import _line_search, _Workspace

        atoms = AtomicMeasure([[0.2], [0.45], [0.8]], [0.3, 0.3, 0.4])
        ws = _Workspace(atoms, quadratic(), 2.0, grid1d(0, 1, 32))
        stats, vectors = ws.stats, []
        ws.stats = lambda w: vectors.append(len(np.atleast_2d(w))) or stats(w)
        rng = np.random.default_rng(15)
        tried, failed = set(), 0
        for scale in (1e-2, 1e-1, 1.0, 10.0, 25.0, 60.0, 1e2, 1e4, None):
            c = rng.uniform(0.02, 0.2, ws.m)
            s, _, u, cm = stats(c)
            if scale is None:  # a descent direction claimed steep: no factor passes
                step, slope = cm - atoms.masses, 1e6
            else:
                step = (atoms.masses - cm) * scale
                slope = float((atoms.masses - cm) @ step)
            vectors.clear()
            found = _line_search(ws, c, step, ws.dual_value(c, s, u), slope)
            assert set(vectors) == {1}
            if found is None:
                assert len(vectors) == 5  # 2^0 ... 2^-4
                failed += 1
                continue
            k = len(vectors) - 1  # the accepted factor is the last one tried
            assert np.array_equal(found[0], c + 0.5**k * step)
            tried.add(k)
        assert 0 in tried and max(tried) == 4 and failed >= 2

    def test_full_jacobian_matches_add_at(self):
        from subcities.semidiscrete import _Workspace

        rng = np.random.default_rng(12)
        coupled = 0
        for _ in range(150):
            ws = _random_workspace(rng)
            for _ in range(3):
                c = rng.uniform(0.0, 0.3, ws.m)
                if ws.m > 1 and rng.random() < 0.3:
                    c[1] = c[0]
                want = _reference_jacobian(ws, c)
                assert np.array_equal(ws.full_jacobian(c), want)
                coupled += bool((want - np.diag(np.diag(want))).any())
        assert coupled > 100
        # many atoms, each ball reaching past its neighbours' bisectors:
        # equal weights (the Newton start, ties on the Voronoi bisectors),
        # then random weights with a quarter of them equal
        for (n, cells, k), p in itertools.product([(2, 24, 20), (2, 24, 40), (1, 256, 25)], [1.0, 1.5, 2.0]):
            grid = Grid(Domain.box([(0.0, 1.0)] * n), (cells,) * n)
            ws = _Workspace(_lattice_atoms(0, n, k), quadratic(), p, grid)
            spacing = 1.0 / math.ceil(k ** (1.0 / n))
            for c in [np.full(k, spacing**p)] + [rng.uniform(1.0, 1.5, k) * spacing**p for _ in range(3)]:
                c[rng.choice(k, k // 4, replace=False)] = c[0]
                want = _reference_jacobian(ws, c)
                assert np.array_equal(ws.full_jacobian(c), want)
                assert np.count_nonzero(want - np.diag(np.diag(want))) > k

    def test_full_jacobian_memory_is_linear_in_cells_times_atoms(self):
        # the widths are computed per active cell: no array with a column
        # per atom pair is formed (that alone is 58 MB here)
        import tracemalloc

        from subcities.semidiscrete import _Workspace

        k, grid = 60, Grid(Domain.box([(0.0, 1.0)] * 2), (64, 64))
        ws = _Workspace(_lattice_atoms(0, 2, k), quadratic(), 2.0, grid)
        c = np.full(k, 0.02)
        tracemalloc.start()
        try:
            ws.full_jacobian(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * grid.n_cells * k * 8, peak / 2**20

    def test_coordinate_sweep_matches_full_stats_bisection(self):
        from subcities.semidiscrete import _coordinate_sweep, _Workspace

        rng = np.random.default_rng(16)
        workspaces = [_random_workspace(rng) for _ in range(80)]
        # atoms mirrored about the middle cell's centre, and atoms on cell
        # centres: tied weights tie exactly on the bisector cells
        centres = Grid(Domain.box([(0, 1), (0, 1)]), (9, 9))
        workspaces += [
            _Workspace(AtomicMeasure([[0.25], [0.75]], [0.4, 0.6]), quadratic(), 2.0, grid1d(0, 1, 33)),
            _Workspace(AtomicMeasure(centres.cell_centers()[[10, 40, 70]], [0.3, 0.3, 0.4]),
                       power_f(1.3, 2.5), 1.0, centres),
        ]
        ties = 0
        for ws in workspaces:
            for tied in (False, True):
                c = rng.uniform(0.0, 0.3, ws.m)
                if tied:
                    c[:] = c[0]
                    ties += ws.m > 1
                # the atom masses, and the cell masses at c itself, where
                # the first trial's comparison is decided by the tied cells
                for targets in (ws.atoms.masses, ws.stats(c)[3]):
                    want = _reference_sweep(ws, c, targets)
                    assert np.array_equal(_coordinate_sweep(ws, c, targets), want)
        assert ties > 50
        # no weight gives atom 1 this mass: 80 doublings, then GridTooCoarse
        ws = _Workspace(AtomicMeasure([[0.25], [0.75]], [0.5, 0.5]), quadratic(), 2.0, grid1d(0, 1, 2))
        targets = np.array([0.5, 1e300])
        with pytest.raises(GridTooCoarse):
            _reference_sweep(ws, np.zeros(2), targets)
        with pytest.raises(GridTooCoarse):
            _coordinate_sweep(ws, np.zeros(2), targets)

    def test_level_polish_matches_full_bisection(self):
        # one stats call, then Newton on the shift: it balances the total
        # to rounding and lands where bisection on full stats calls does
        from subcities.semidiscrete import _level_polish

        rng = np.random.default_rng(13)
        worst_balance = worst_gap = 0.0
        for _ in range(60):
            ws = _random_workspace(rng)
            c = rng.uniform(0.0, 0.3, ws.m)
            total = float(rng.uniform(0.5, 1.0))
            want = _reference_polish(ws, c, total)
            stats, calls = ws.stats, []
            ws.stats = lambda w: calls.append(w) or stats(w)
            got = _level_polish(ws, c, total)
            ws.stats = stats
            assert len(calls) == 1
            worst_balance = max(worst_balance, abs(float(stats(got)[3].sum()) - total) / total)
            worst_gap = max(worst_gap, float(np.abs(got - want).max()))
        assert worst_balance <= 1e-15 and worst_gap <= 1e-14


# seed 1's mu-034 of the benchmark, as the CI's runtime step runs it: 2-D, 32^2 cells
MU034 = (
    [[0.5549192496266545, 0.28425859236970097], [0.7093818041630803, 0.550519631487177],
     [0.4461914741042479, 0.7182889524809598], [0.2852293781441183, 0.44310567546307367]],
    [0.16516217604615485, 0.24704189623962028, 0.26323827593969384, 0.3245576517745309],
    2.0, 32,
)


class TestCrossover:
    """Tied cells split so that every atom gets its mass: the exact optimum
    of the discrete problem that ``oracle.best_density_for`` solves."""

    @pytest.mark.parametrize(
        "points, masses, p, cells",
        [
            ([[0.25], [0.6]], [0.4, 0.6], 2.0, (32,)),
            ([[0.25], [0.6]], [0.4, 0.6], 2.0, (64,)),
            ([[0.3, 0.5], [0.7, 0.5], [0.5, 0.2]], [0.4, 0.35, 0.25], 2.0, (16, 16)),
            ([[0.3, 0.5], [0.7, 0.5], [0.5, 0.2]], [0.4, 0.35, 0.25], 2.0, (24, 24)),
            # p = 1 in 1-D: whole runs of cells tie beyond an atom
            ([[0.236118], [0.409815], [0.588668], [0.764406]],
             [0.186266, 0.227732, 0.273247, 0.312755], 1.0, (64,)),
            # p = 1: the run left of the atoms ties all three
            ([[0.2], [0.235], [0.47]], [0.045, 0.075, 0.88], 1.0, (32,)),
        ],
    )
    def test_exact_discrete_optimum(self, points, masses, p, cells):
        from subcities.oracle import best_density_for

        nu = AtomicMeasure(points, masses)
        grid = Grid(Domain.box([(0, 1)] * nu.dim), cells)
        weights = solve_weights(nu, quadratic(), p, grid, tol=1e-12)
        _, breakdown = min_Fp_nu(nu, quadratic(), p, grid, tol=1e-12)
        value, _ = best_density_for(nu, grid, quadratic(), p)
        assert weights.split is not None
        assert breakdown["mass_residual"] == weights.residual <= 1e-12
        assert abs(breakdown["total"] - value) <= 1e-9
        assert breakdown["total"] - breakdown["dual_objective"] <= 1e-9
        if len(nu) == 3 and p == 1.0:
            # a cell shared among three atoms, certified to rounding
            total = breakdown["total"]
            assert (np.count_nonzero(weights.split[1], axis=1) == 3).any()
            assert total - breakdown["dual_objective"] <= 1e-12 * (1.0 + abs(total))

    def test_random_instances_reach_the_tolerance(self):
        # every split row shares its cell among the atoms tied there
        from subcities.semidiscrete import _solve_weights_best

        rng = np.random.default_rng(0)
        solved = shared = 0
        for _ in range(300):
            ws = _random_workspace(rng)
            try:
                c, res, split = _solve_weights_best(ws.atoms, ws.f, ws.p, ws.grid, 1e-12, ws=ws)
            except GridTooCoarse:
                continue
            solved += 1
            assert res <= 1e-12
            if split is None:
                continue
            cells, rows = split
            s = ws.stats(c)[0][cells]
            tied = c[:, None] - ws.dist_p[:, cells] >= s - 1e-9
            assert (rows >= 0).all() and np.allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert not (rows.T > 0)[~tied].any()
            shared += 1
        assert solved >= 290 and shared > 50

    def test_plan_matches_the_dense_share_matrix(self):
        # one flow per support cell and atom it sends mass to, in the
        # row-major order of the (cells, atoms) share matrix's nonzeros
        from subcities.semidiscrete import _evaluate, _solve_weights_best

        rng = np.random.default_rng(0)
        shared = 0
        for _ in range(120):
            ws = _random_workspace(rng)
            try:
                c, _, split = _solve_weights_best(ws.atoms, ws.f, ws.p, ws.grid, 1e-12, ws=ws)
            except GridTooCoarse:
                continue
            _, breakdown, plan = _evaluate(ws, c, split)
            s, winner, u, _ = ws.stats(c)
            shares = np.eye(ws.m)[winner]
            if split is not None:
                shares[split[0]] = split[1]
                shared += 1
            cells = np.flatnonzero(np.where(s > 0, u, 0.0) > 0)
            fi, fj = np.nonzero(shares[cells])
            flow = u[cells[fi]] * ws.vol * shares[cells[fi], fj]
            assert np.array_equal(plan.flow_i, fi) and np.array_equal(plan.flow_j, fj)
            assert np.array_equal(plan.flow_mass, flow)
            assert breakdown["transport"] == float(ws.dist_p[fj, cells[fi]] @ flow)
        assert shared > 20

    @pytest.mark.parametrize(
        "points, masses, p, cells",
        [
            # 1-D, p = 1: Newton alone takes 100 steps to 1e-7 and 106 to 1e-12
            ([[0.25], [0.57], [0.74]], [0.37, 0.37, 0.26], 1.0, 32),
            MU034,
        ],
        ids=["1d-32-p1", "mu034"],
    )
    def test_cost_does_not_depend_on_tol(self, monkeypatch, points, masses, p, cells):
        # Newton hands over once the crossover can reach the optimum, and
        # the split it returns meets any tolerance
        from subcities import semidiscrete

        calls = []
        line_search, jacobian = semidiscrete._line_search, semidiscrete._Workspace.full_jacobian

        def counted_line_search(*args):
            calls.append("line search")
            return line_search(*args)

        def counted_jacobian(*args):
            calls.append("jacobian")
            return jacobian(*args)

        monkeypatch.setattr(semidiscrete, "_line_search", counted_line_search)
        monkeypatch.setattr(semidiscrete._Workspace, "full_jacobian", counted_jacobian)
        nu = AtomicMeasure(points, masses)
        grid = Grid(Domain.box([(0.0, 1.0)] * nu.dim), cells)
        counts = []
        for tol in (1e-7, 1e-12):
            calls.clear()
            weights = solve_weights(nu, quadratic(), p, grid, tol=tol)
            assert weights.residual <= 1e-14
            counts.append((calls.count("line search"), calls.count("jacobian")))
        assert counts[0] == counts[1]

    def test_failed_early_hand_over(self, monkeypatch):
        # a crossover that finds no split within reach leaves Newton to go
        # on as before; here it stalls at 5e-8, and the final hand-over
        # still ends the solve at the tolerance
        from subcities import semidiscrete

        crossover, handed = semidiscrete._crossover, []

        def first_fails(ws, c0, start):
            handed.append(float(np.abs(ws.stats(c0)[3] - ws.atoms.masses).max()))
            return None if len(handed) == 1 else crossover(ws, c0, start)

        monkeypatch.setattr(semidiscrete, "_crossover", first_fails)
        nu = AtomicMeasure([[0.25], [0.57], [0.74]], [0.37, 0.37, 0.26])
        weights = solve_weights(nu, quadratic(), 1.0, grid1d(0, 1, 32), tol=1e-12)
        assert len(handed) == 2 and handed[0] > handed[1] > 1e-12
        assert weights.residual <= 1e-12

    def test_hands_over_at_the_first_revisit(self, monkeypatch):
        # Newton alone ends this instance in the sweep-and-polish pass; the
        # solve now stops at its first hand-over (within the crossover's
        # reach after 2 Newton steps, before the active-set revisit at 6)
        # and the crossover ends it
        from subcities import semidiscrete
        from subcities.semidiscrete import _solve_weights_best, _Workspace

        atoms = AtomicMeasure([[0.378, 0.6887], [0.401, 0.3089], [0.7229, 0.5182]],
                              [0.2448, 0.3273, 0.4279])
        grid = Grid(Domain.box([(0, 1), (0, 1)]), (16, 16))
        r = radius_of_mass(quadratic(), 2.0, 2, float(atoms.masses.max()))
        tol = float(r**2) * grid.cell_volume
        ws = _Workspace(atoms, quadratic(), 2.0, grid)
        assert _reference_solve(ws, tol)[2]  # Newton stops above tol, then the fallback
        calls = {"sweep": 0, "jacobian": 0}
        sweep, jacobian, crossover = (
            semidiscrete._coordinate_sweep, ws.full_jacobian, semidiscrete._crossover)

        def counted_sweep(*args):
            calls["sweep"] += 1
            return sweep(*args)

        def counted_jacobian(c):
            calls["jacobian"] += 1
            return jacobian(c)

        ws.full_jacobian = counted_jacobian
        # the Newton iterations before the first hand-over, the crossover stubbed out
        handed = []
        monkeypatch.setattr(semidiscrete, "_crossover", lambda w, c0, start: handed.append(calls["jacobian"]))
        _solve_weights_best(atoms, quadratic(), 2.0, grid, tol, ws=ws)
        monkeypatch.setattr(semidiscrete, "_crossover", crossover)
        monkeypatch.setattr(semidiscrete, "_coordinate_sweep", counted_sweep)
        calls["jacobian"] = 0
        got = _solve_weights_best(atoms, quadratic(), 2.0, grid, tol, ws=ws)
        assert len(handed) == 2 and handed[0] < handed[1]  # early, then the end
        assert calls == {"sweep": 0, "jacobian": handed[0]}
        assert got[1] <= 1e-12 and got[2] is not None


class TestShareAndShift:
    """The crossover's two steps: the max-flow of the atoms' masses into
    their cells, with the violated set its cut names, and the set's exact
    line search."""

    def test_max_flow_and_its_cut(self):
        # against the min cut over every set of atoms: the targets of the
        # atoms outside it plus the room of every group tied to it
        from subcities.semidiscrete import _share

        rng = np.random.default_rng(5)
        violated = 0
        for _ in range(400):
            m = int(rng.integers(1, 6))
            sets = rng.random((int(rng.integers(0, 6)), m)) < 0.6
            sets = sets[sets.sum(axis=1) > 1]  # each pool ties two or more atoms
            groups = [[i] for i in range(m)] + [np.flatnonzero(row).tolist() for row in sets]
            targets = rng.dirichlet(np.ones(m))
            room = rng.uniform(0.0, 2.0 / len(groups), len(groups)) * (rng.random(len(groups)) > 0.2)
            flow, violation, atoms = _share(targets, sets, room)
            sent, into = np.zeros(m), np.zeros(len(groups))
            for g, taken in enumerate(flow):
                assert set(taken) <= set(groups[g]) and min(taken.values()) >= 0.0
                into[g] = sum(taken.values())
                for i, x in taken.items():
                    sent[i] += x
            assert (sent <= targets + 1e-15).all() and (into <= room + 1e-15).all()
            cut = min(
                float(targets[[i for i in range(m) if i not in side]].sum())
                + float(room[[g for g, a in enumerate(groups) if set(a) & set(side)]].sum())
                for r in range(m + 1) for side in itertools.combinations(range(m), r)
            )
            assert abs(sent.sum() - cut) <= 1e-12
            if violation > 1e-12:
                violated += 1
                side = set(atoms)
                lack = targets[atoms].sum() - room[[g for g, a in enumerate(groups) if set(a) & side]].sum()
                excess = room[[g for g, a in enumerate(groups) if set(a) <= side]].sum() - targets[atoms].sum()
                assert max(lack, excess) == pytest.approx(violation, abs=1e-12)
        assert violated > 100

    def test_shift_balances_the_set_or_ties_a_cell(self):
        # just below the shift the set holds less than its target, just
        # above it more
        from subcities.semidiscrete import _shift

        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(300):
            ws = _random_workspace(rng)
            moving = rng.random(ws.m) < 0.5
            if not moving.any():
                continue
            c = rng.uniform(0.2, 1.0, ws.m) * float(ws.dist_p.max())
            s, winner, _, _ = ws.stats(c)
            target = float(ws.atoms.masses[moving].sum())
            t = _shift(ws, c, s, winner, moving, target)
            step = 1e-9 * (1.0 + abs(t))
            below, above = (float(ws.stats(c + moving * x)[3][moving].sum()) for x in (t - step, t + step))
            assert below <= target <= above
            checked += 1
        assert checked > 200


def _lattice_atoms(seed, n, k):
    """k atoms on a lattice of the unit box (k points in 1-D; ceil(sqrt k)
    columns in 2-D, filled row by row), each jittered by up to 0.2 spacing
    per axis, with Dirichlet(50) masses."""
    rng = np.random.default_rng(seed)
    if n == 1:
        points, spacing = (np.arange(k)[:, None] + 0.5) / k, np.array([1.0 / k])
    else:
        cols = math.ceil(math.sqrt(k))
        rows = math.ceil(k / cols)
        x, y = np.meshgrid(np.arange(cols), np.arange(rows))
        points = (np.column_stack([x.ravel(), y.ravel()])[:k] + 0.5) / [cols, rows]
        spacing = np.array([1.0 / cols, 1.0 / rows])
    points = points + rng.uniform(-0.2, 0.2, (k, n)) * spacing
    masses = rng.dirichlet(np.full(k, 50.0))
    return AtomicMeasure(points, masses / masses.sum())


class TestManyAtoms:
    """Weight solves with 10-60 atoms: every atom starts with its Voronoi
    cells, and the crossover's rounds grow with the atom count, so each
    solve reaches the exact discrete optimum."""

    @pytest.mark.parametrize(
        "n, cells, p, counts, seeds",
        [
            (2, 64, 2.0, (10, 20, 30), (0, 1, 2)),
            (1, 512, 1.0, (10, 15, 20, 25), (0, 1, 2)),
            (1, 512, 2.0, (10, 15, 20, 25), (0, 1, 2)),
            (2, 64, 2.0, (60,), (5,)),
        ],
        ids=["2d-64-p2", "1d-512-p1", "1d-512-p2", "2d-64-p2-k60"],
    )
    def test_reaches_the_discrete_optimum(self, n, cells, p, counts, seeds):
        from subcities.semidiscrete import _solve_weights_best

        grid = Grid(Domain.box([(0.0, 1.0)] * n), (cells,) * n)
        for k in counts:
            for seed in seeds:
                atoms = _lattice_atoms(seed, n, k)
                _, res, split = _solve_weights_best(atoms, quadratic(), p, grid, 1e-12)
                assert res <= 1e-12 and split is not None, (k, seed, res)


class TestJacobianIsTheMassDerivative:
    """Newton's Jacobian is the derivative of the cell masses: each boundary's
    band of cells within tau of their runner-up is counted once from each
    side. Counting it from both sides doubled every coupling (J/FD off the
    diagonal near 2, and ||J - FD|| / ||FD|| 0.66-1.07 on these instances)."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_matches_central_differences(self, p):
        from subcities.semidiscrete import _level, _Workspace

        checked = 0
        for n, cells, k in [(2, 64, 10), (2, 64, 20), (2, 64, 30), (1, 512, 10), (1, 512, 25)]:
            grid = Grid(Domain.box([(0.0, 1.0)] * n), (cells,) * n)
            spacing = 1.0 / (k if n == 1 else math.ceil(math.sqrt(k)))
            # two cells' score width midway between neighbouring atoms
            delta = 2.0 * 2.0 * p * (spacing / 2.0) ** (p - 1.0) * grid.cell_diameter
            for seed in (0, 1):
                ws = _Workspace(_lattice_atoms(seed, n, k), quadratic(), p, grid)
                # the Newton start: equal weights, each atom on its Voronoi cells
                c = np.full(k, _level(ws.f, ws.vol, -ws.dist_p.min(axis=0), 1.0))
                fd = np.empty((k, k))
                for j in range(k):
                    e = np.zeros(k)
                    e[j] = delta
                    fd[:, j] = (ws.stats(c + e)[3] - ws.stats(c - e)[3]) / (2.0 * delta)
                J = ws.full_jacobian(c)
                assert np.linalg.norm(J - fd) <= 0.2 * np.linalg.norm(fd), (n, cells, k, seed)
                checked += 1
        assert checked == 10


class TestExactAtTheFloor:
    """At the benchmark's floor tolerance u_max * h^n every solve still ends
    at its split optimum, so the value is certified to rounding. Newton
    alone stopped at the floor, with residuals up to 9.9e-3 and duality gaps
    up to 2.2e-4 (1 + |total|) on the benchmark's seeds 1-5, when it started
    from the per-atom weights R(m_i)^p."""

    @pytest.mark.parametrize(
        "points, masses, p, cells",
        [
            MU034,
            # seed 1's mu-023: 1-D, 512 cells, 4 atoms, p = 1
            ([[0.24099318117626756], [0.4108350275733299], [0.589943311653015], [0.7632397820405898]],
             [0.16256099226504633, 0.2106267140467498, 0.2768924480854562, 0.3499198456027476],
             1.0, 512),
            # seed 1's mu-017: Newton stops at residual 8.9e-3, below the floor 1.0e-2
            ([[0.32389289952464445], [0.6773097794490673]], [0.3102090474158288, 0.6897909525841712],
             2.0, 64),
            # seed 1's mu-000: one atom
            ([[0.7201418594964031, 0.5054055643559112]], [1.0], 2.0, 16),
        ],
        ids=["mu034", "1d-512-p1", "1d-64-two-atoms", "one-atom"],
    )
    def test_certified_to_rounding(self, points, masses, p, cells):
        f = quadratic()
        nu = AtomicMeasure(points, masses)
        grid = Grid(Domain.box([(0.0, 1.0)] * nu.dim), cells)
        r = radius_of_mass(f, p, nu.dim, max(masses))
        floor = float(f.k(np.array([r**p]))[0]) * grid.cell_volume
        _, breakdown = min_Fp_nu(nu, f, p, grid, tol=floor)
        total = breakdown["total"]
        assert breakdown["mass_residual"] <= 1e-12
        assert abs(total - breakdown["dual_objective"]) <= 1e-12 * (1.0 + abs(total))


class TestStructureInvariants:
    def test_support_inside_balls_and_radius_bound(self):
        # balls fit inside the domain here, so the uniform radius bound
        # applies; clipped balls can legitimately exceed it
        f = quadratic()
        cases = [
            (AtomicMeasure([[0.9], [1.1]], [0.5, 0.5]), 2.0, grid1d(0, 2, 400), 1e-9),
            (AtomicMeasure([[0.9], [1.1]], [0.5, 0.5]), 1.0, grid1d(0, 2, 400), 1e-8),
        ]
        for atoms, p, grid, tol in cases:
            w = solve_weights(atoms, f, p, grid, tol=tol)
            dens = density_from_weights(atoms, w, f, p, grid)
            centers = grid.cell_centers()
            h = grid.cell_diameter
            dist = np.linalg.norm(centers[:, None] - atoms.points[None, :], axis=2)
            support = dens.values.ravel() > 0
            radius = np.maximum(w.c, 0.0) ** (1.0 / p)
            assert (dist[support] <= radius[None, :] + h).any(axis=1).all()
            r_bar = radius_of_mass(f, p, grid.domain.dim, 1.0)
            assert (radius <= r_bar + h).all()

    def test_positive_inside_balls(self):
        f = quadratic()
        grid = grid1d(0, 1, 300)
        atoms = AtomicMeasure([[0.35], [0.65]], [0.5, 0.5])
        w = solve_weights(atoms, f, 2.0, grid, tol=1e-9)
        dens = density_from_weights(atoms, w, f, 2.0, grid)
        centers = grid.cell_centers()
        h = grid.cell_diameter
        dist = np.linalg.norm(centers[:, None] - atoms.points[None, :], axis=2)
        radius = w.c ** (1.0 / 2.0)
        strictly_inside = (dist <= radius[None, :] - h).any(axis=1)
        assert (dens.values.ravel()[strictly_inside] > 0).all()

    def test_newton_system_is_positive_definite(self):
        # J is a nonnegative diagonal plus one graph-Laplacian term per
        # boundary pair (symmetric up to the order its terms are summed in),
        # so the weight solve's shifted system factors and its Newton step
        # ascends the dual, at tied weights too
        rng = np.random.default_rng(17)
        coupled = 0
        for _ in range(150):
            ws = _random_workspace(rng)
            for tied in (False, True):
                c = rng.uniform(0.0, 0.3, ws.m)
                if tied:
                    c[:] = c[0]
                J = ws.full_jacobian(c)
                assert np.abs(J - J.T).max() <= 1e-15 * np.abs(J).max()
                scale = max(float(np.trace(J)) / ws.m, 1e-12)
                shifted = J + 1e-10 * scale * np.eye(ws.m)
                np.linalg.cholesky(shifted)
                r = ws.stats(c)[3] - ws.atoms.masses
                assert float(-r @ np.linalg.solve(shifted, -r)) > 0.0
                coupled += bool((J - np.diag(np.diag(J))).any())
        assert coupled > 100


def _best_effort(atoms, f, p, grid):
    from subcities.semidiscrete import _solve_weights_best

    return _solve_weights_best(atoms, f, p, grid, tol=1e-9)


class TestMinFpNu:
    def test_single_atom_matches_energy(self):
        from subcities import power_g, subcity_energy

        atoms = AtomicMeasure([[1.0]], [1.0])
        density, breakdown = min_Fp_nu(atoms, quadratic(), 2.0, grid1d(0, 2, 800))
        g = power_g(1.0, 0.5)
        expected = subcity_energy(quadratic(), g, 2.0, 1, 1.0) - float(g.g(1.0))
        assert breakdown["total"] == pytest.approx(expected, rel=1e-4)
        assert breakdown["total"] == pytest.approx(breakdown["dual_objective"], rel=1e-4)

    def test_reflection_symmetry(self):
        f = quadratic()
        left = min_Fp_nu(
            AtomicMeasure([[0.35], [0.65]], [0.5, 0.5]), f, 2.0, grid1d(0, 1, 200)
        )[1]["total"]
        right = min_Fp_nu(
            AtomicMeasure([[0.65], [0.35]], [0.5, 0.5]), f, 2.0, grid1d(0, 1, 200)
        )[1]["total"]
        assert left == pytest.approx(right, abs=1e-9)

    def test_beats_uniform_density(self):
        f = quadratic()
        grid = grid1d(0, 1, 200)
        nu = AtomicMeasure([[0.35], [0.65]], [0.5, 0.5])
        density, breakdown = min_Fp_nu(nu, f, 2.0, grid)
        uniform = density.with_values(np.ones(grid.resolution))
        cloud = WeightedPointCloud(grid.cell_centers(), np.full(grid.n_cells, 1.0 / grid.n_cells))
        nu_cloud = WeightedPointCloud(nu.points, nu.masses)
        uniform_value = (
            solve_discrete_transport(cloud, nu_cloud, 2.0).total_cost
            + eval_F(f, uniform)
        )
        assert breakdown["total"] <= uniform_value + 1e-9

import numpy as np
import pytest

from subcities import (
    AtomicMeasure,
    ConcentrationFamily,
    Domain,
    EnergyCurve,
    FunctionFamily,
    Grid,
    MassOutOfRange,
    NonpositiveMass,
    check_atomization_condition,
    density_from_weights,
    eval_F,
    power_f,
    power_g,
    quadratic,
    radius_of_mass,
    subadditivity_threshold,
    subcity_energy,
    subcity_energy_d2m,
    subcity_energy_dm,
)
from subcities.semidiscrete import unit_ball_volume

SQRT_G = power_g(1.0, 0.5)

# closed-form oracle, quadratic f, p=2, n=1: the profile cost is
# int_{-R}^{R} [ (R^2-r^2)^2/2 + (R^2-r^2) r^2 ] dr = (4/5) R^5
E1_1D_QUAD_SQRTG = 1.0 + 0.8 * (3.0 / 4.0) ** (5.0 / 3.0)


def linear_g():
    """g(t) = t: outside the catalogue, used as a non-atomizing witness."""
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    ident = lambda t: np.asarray(t, dtype=float)
    return ConcentrationFamily(kind="custom", g_impl=ident, g_prime_impl=one, g_second_impl=zero)


class TestEnergy:
    def test_zero_mass(self):
        assert subcity_energy(quadratic(), SQRT_G, 2.0, 1, 0.0) == 0.0

    def test_continuous_at_zero(self):
        assert subcity_energy(quadratic(), SQRT_G, 2.0, 2, 1e-6) <= 2e-3

    def test_1d_closed_form(self):
        val = subcity_energy(quadratic(), SQRT_G, 2.0, 1, 1.0)
        assert val == pytest.approx(E1_1D_QUAD_SQRTG, rel=1e-12)

    def test_against_independent_quadrature(self):
        scipy_quad = pytest.importorskip("scipy.integrate").quad
        f, p, n, m = power_f(1.4, 2.6), 1.5, 2, 0.62
        R = radius_of_mass(f, p, n, m)
        k = lambda t: f.k(np.asarray(t))
        integrand = lambda r: (
            float(f.f(k(R**p - r**p))) + float(k(R**p - r**p)) * r**p
        ) * n * unit_ball_volume(n) * r ** (n - 1)
        expected, _ = scipy_quad(integrand, 0.0, R, limit=200)
        got = subcity_energy(f, SQRT_G, p, n, m) - float(SQRT_G.g(m))
        assert got == pytest.approx(expected, rel=1e-8)

    def test_mass_out_of_range(self):
        with pytest.raises(MassOutOfRange):
            subcity_energy(quadratic(), SQRT_G, 2.0, 1, 1.2)
        with pytest.raises(MassOutOfRange):
            subcity_energy_dm(quadratic(), SQRT_G, 2.0, 1, 0.0)

    @pytest.mark.parametrize("m", [0.25, 0.5, 1.0])
    def test_matches_grid_subproblem(self, m):
        # the ball profile of mass m on a large grid reproduces E(m) - g(m)
        f, p = quadratic(), 2.0
        R = radius_of_mass(f, p, 1, m)
        atoms = AtomicMeasure([[0.0]], [m])
        grid = Grid(Domain.box([(-1.2, 1.2)]), (1200,))
        c = np.array([R**p])
        density = density_from_weights(atoms, c, f, p, grid)
        # with one atom every cell goes to it
        dist_p = np.linalg.norm(grid.cell_centers() - atoms.points[0], axis=1) ** p
        transport = float((density.values.ravel() * grid.cell_volume * dist_p).sum())
        total = transport + eval_F(f, density)
        expected = subcity_energy(f, SQRT_G, p, 1, m) - float(SQRT_G.g(m))
        assert total == pytest.approx(expected, rel=1e-2)


class TestDerivatives:
    def test_first_derivative_closed_form_2d(self):
        # quadratic f, p=2, n=2: R(m)^2 = sqrt(2m/pi)
        for m in (0.2, 0.5, 0.9):
            got = subcity_energy_dm(quadratic(), SQRT_G, 2.0, 2, m)
            expected = float(SQRT_G.g_prime(m)) + np.sqrt(2.0 * m / np.pi)
            assert got == pytest.approx(expected, rel=1e-9)

    def test_first_derivative_finite_difference(self):
        f, g = quadratic(), SQRT_G
        m, dm = 0.5, 1e-4
        fd = (
            subcity_energy(f, g, 2.0, 1, m + dm) - subcity_energy(f, g, 2.0, 1, m - dm)
        ) / (2 * dm)
        assert abs(subcity_energy_dm(f, g, 2.0, 1, m) - fd) <= 1e-5

    def test_derivative_diverges_at_zero(self):
        vals = [subcity_energy_dm(quadratic(), SQRT_G, 2.0, 1, m) for m in (1e-2, 1e-4, 1e-6)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[-1] > 1e2

    def test_second_derivative_quadratic_closed_form(self):
        # k' = 1 on the positive part, so the curvature denominator is w_n R^n
        for n, m in ((1, 0.5), (2, 0.3)):
            R = radius_of_mass(quadratic(), 2.0, n, m)
            expected = float(SQRT_G.g_second(m)) + 1.0 / (unit_ball_volume(n) * R**n)
            got = subcity_energy_d2m(quadratic(), SQRT_G, 2.0, n, m)
            assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "f,g,p,n",
        [
            (quadratic(), SQRT_G, 2.0, 1),
            (power_f(1.0, 1.7), power_g(0.8, 0.4), 2.0, 2),
            (power_f(1.3, 3.0), power_g(1.1, 0.6), 1.5, 1),
        ],
    )
    def test_second_derivative_finite_difference(self, f, g, p, n):
        m, dm = 0.3, 1e-4
        fd = (
            subcity_energy(f, g, p, n, m + dm)
            - 2 * subcity_energy(f, g, p, n, m)
            + subcity_energy(f, g, p, n, m - dm)
        ) / dm**2
        got = subcity_energy_d2m(f, g, p, n, m)
        assert got == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_negative_below_threshold_power_families(self):
        f, g = power_f(1.0, 2.0), power_g(1.0, 0.5)
        curve = EnergyCurve.build(f, g, 2.0, 2)
        m0 = subadditivity_threshold(curve)
        assert m0 > 0
        for m in np.linspace(1e-3, m0, 12):
            assert subcity_energy_d2m(f, g, 2.0, 2, float(m)) < 0


class TestEnergyCurveBuild:
    @pytest.mark.parametrize(
        "f,g,p,n",
        [
            (quadratic(), SQRT_G, 2.0, 2),
            (power_f(1.3, 3.0), power_g(1.1, 0.6), 1.5, 1),
        ],
    )
    def test_samples_equal_per_mass_evaluations(self, f, g, p, n):
        curve = EnergyCurve.build(f, g, p, n, n_samples=24, m_min=1e-4)
        for i, m in enumerate(curve.masses):
            m = float(m)
            assert curve.energies[i] == subcity_energy(f, g, p, n, m)
            assert curve.denergies[i] == subcity_energy_dm(f, g, p, n, m)
            assert curve.d2energies[i] == subcity_energy_d2m(f, g, p, n, m)

    @pytest.mark.parametrize(
        "f,g,p,n",
        [(quadratic(), SQRT_G, 2.0, 2), (power_f(1.3, 3.0), power_g(1.1, 0.6), 1.5, 1)],
    )
    def test_curve_delegates_off_the_sample_grid(self, f, g, p, n):
        curve = EnergyCurve.build(f, g, p, n, n_samples=8)
        masses = np.linspace(0.0, 1.0, 41)
        assert np.array_equal(curve.energy(masses), subcity_energy(f, g, p, n, masses))
        assert np.array_equal(curve.denergy(masses[1:]), subcity_energy_dm(f, g, p, n, masses[1:]))
        for m in masses[1:].tolist():
            assert curve.energy(m) == subcity_energy(f, g, p, n, m)
            assert curve.denergy(m) == subcity_energy_dm(f, g, p, n, m)

    def test_custom_family_radius_follows_its_evaluators(self):
        # a custom k may be unhashable or change between calls: never cached
        class ScaledK:
            __hash__ = None

            def __init__(self):
                self.c = 1.0

            def __call__(self, t):
                return self.c * np.asarray(t, dtype=float)

        k = ScaledK()
        f = FunctionFamily(
            kind="custom", f_impl=lambda s: s * s / (2 * k.c), f_prime_impl=lambda s: s / k.c, k_impl=k
        )
        for c in (1.0, 4.0):
            k.c = c
            # p = 2, n = 1: m = c * (4/3) R^3
            assert radius_of_mass(f, 2.0, 1, 0.5) == pytest.approx((0.375 / c) ** (1 / 3), rel=1e-9)


class TestAtomizationCondition:
    def test_power_families_satisfied(self):
        report = check_atomization_condition(quadratic(), SQRT_G, 2.0, 2)
        assert report.satisfied
        assert all(a > b for a, b in zip(report.products, report.products[1:]))
        assert report.limsup_estimate < -1

    def test_linear_g_not_satisfied(self):
        report = check_atomization_condition(quadratic(), linear_g(), 2.0, 2)
        assert not report.satisfied
        assert np.allclose(report.products, 0.0)

    def test_custom_sweep(self):
        sweep = [0.05, 0.01, 0.002]
        report = check_atomization_condition(quadratic(), SQRT_G, 2.0, 1, R_sweep=sweep)
        assert len(report.products) == 3
        assert report.satisfied


class TestSubadditivity:
    def test_threshold_positive_for_power(self):
        curve = EnergyCurve.build(quadratic(), SQRT_G, 2.0, 2)
        assert subadditivity_threshold(curve) > 0

    def test_threshold_zero_for_linear_g(self):
        curve = EnergyCurve.build(quadratic(), linear_g(), 2.0, 1, n_samples=16)
        assert subadditivity_threshold(curve) == 0.0

    def test_pairwise_scan(self):
        f, g, p, n = quadratic(), SQRT_G, 2.0, 2
        curve = EnergyCurve.build(f, g, p, n)
        m0 = subadditivity_threshold(curve)
        samples = np.linspace(m0 / 10, m0, 8)
        for s in samples:
            for t in samples:
                if s + t <= m0:
                    assert subcity_energy(f, g, p, n, s + t) <= (
                        subcity_energy(f, g, p, n, s)
                        + subcity_energy(f, g, p, n, t)
                        + 1e-10
                    )

    def test_concavity_witness(self):
        f, g, p, n = quadratic(), SQRT_G, 2.0, 2
        curve = EnergyCurve.build(f, g, p, n)
        m0 = subadditivity_threshold(curve)
        rng = np.random.default_rng(0)
        for _ in range(15):
            a, b = rng.uniform(1e-3, m0, size=2)
            lam = rng.uniform(0.0, 1.0)
            mid = subcity_energy(f, g, p, n, lam * a + (1 - lam) * b)
            chord = lam * subcity_energy(f, g, p, n, a) + (1 - lam) * subcity_energy(
                f, g, p, n, b
            )
            assert mid >= chord - 1e-10

    def test_concave_convex_shape(self):
        # curvature changes sign at most once along the sample grid
        curve = EnergyCurve.build(quadratic(), SQRT_G, 2.0, 2)
        signs = np.sign(curve.d2energies)
        changes = int((np.diff(signs) != 0).sum())
        assert changes <= 1


def _custom_quadratic():
    """The quadratic f as a custom family: R(m) by bisection, profiles by quadrature."""
    return FunctionFamily(
        kind="custom",
        f_impl=lambda s: 0.5 * s * s,
        f_prime_impl=lambda s: s,
        k_impl=lambda t: t,
        k_prime_impl=lambda t: np.ones_like(t),
    )


def _radius(f, g, p, n, m):
    return radius_of_mass(f, p, n, m)


class TestOneMassRadiusLaw:
    @pytest.mark.parametrize("p", [1.5, 2.0])
    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_form_matches_the_quadrature_route(self, p, n):
        # both routes share g, so the profile parts are compared: R, E - g,
        # E' - g' = R^p and E'' - g'' (E'' itself crosses 0 near m = 0.4).
        # The closed form is exact to rounding (Beta functions), and so is
        # the quadrature route's mass, whose Newton inversion stops at a
        # step of a few ulps of R: the routes agree to rounding.
        g, custom = power_g(0.7, 0.4), _custom_quadratic()
        parts = [
            _radius,
            lambda f, g, p, n, m: subcity_energy(f, g, p, n, m) - float(g.g(m)),
            lambda f, g, p, n, m: subcity_energy_dm(f, g, p, n, m) - float(g.g_prime(m)),
            lambda f, g, p, n, m: subcity_energy_d2m(f, g, p, n, m) - float(g.g_second(m)),
        ]
        for m in (1e-3, 0.05, 0.4, 1.0):
            for part in parts:
                want = part(quadratic(), g, p, n, m)
                assert part(custom, g, p, n, m) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize(
        "f,g,p,n",
        [
            (quadratic(), SQRT_G, 2.0, 2),
            (power_f(1.3, 3.0), power_g(1.1, 0.6), 1.5, 1),
            (power_f(0.8, 1.5), power_g(0.3, 0.7), 1.0, 3),
        ],
    )
    def test_scalar_calls_equal_array_entries(self, f, g, p, n):
        masses = np.geomspace(1e-6, 1.0, 97)
        for fn in (_radius, subcity_energy, subcity_energy_dm, subcity_energy_d2m):
            batch = fn(f, g, p, n, masses)
            assert np.array_equal(fn(f, g, p, n, masses.reshape(-1, 1))[:, 0], batch)
            for m, want in zip(masses.tolist(), batch.tolist()):
                got = fn(f, g, p, n, m)
                assert type(got) is float and got == want


class TestMassRange:
    """Every entry is checked: E on [0, 1], E', E'' and R on (0, 1], NaN nowhere."""

    @pytest.mark.parametrize("bad", [-0.1, np.nan, 1.5, np.inf])
    def test_energy_and_derivatives_reject(self, bad):
        curve = EnergyCurve.build(quadratic(), SQRT_G, 2.0, 1, n_samples=8)
        for m in (bad, np.array([0.5, bad]), np.array([[bad], [0.2]])):
            with pytest.raises(MassOutOfRange):
                curve.energy(m)
            with pytest.raises(MassOutOfRange):
                curve.denergy(m)
            with pytest.raises(MassOutOfRange):
                subcity_energy_d2m(quadratic(), SQRT_G, 2.0, 1, m)

    def test_zero_mass_has_energy_but_no_slope(self):
        curve = EnergyCurve.build(quadratic(), SQRT_G, 2.0, 1, n_samples=8)
        assert curve.energy(0.0) == 0.0
        assert curve.energy(np.array([0.0, 0.5]))[0] == 0.0
        for m in (0.0, np.array([0.5, 0.0])):
            with pytest.raises(MassOutOfRange):
                curve.denergy(m)
            with pytest.raises(MassOutOfRange):
                subcity_energy_d2m(quadratic(), SQRT_G, 2.0, 1, m)

    @pytest.mark.parametrize("f", [quadratic(), _custom_quadratic()])
    def test_radius_rejects(self, f):
        for m in (0.0, -0.1, np.array([0.5, 0.0])):
            with pytest.raises(NonpositiveMass):
                radius_of_mass(f, 2.0, 1, m)
        for m in (np.nan, 1.5, np.inf, np.array([0.5, np.nan])):
            with pytest.raises(MassOutOfRange):
                radius_of_mass(f, 2.0, 1, m)

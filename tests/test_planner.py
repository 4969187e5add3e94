import warnings

import numpy as np
import pytest

from subcities import (
    AtomicMeasure,
    ConditionNotSatisfied,
    Domain,
    EnergyCurve,
    Grid,
    InvalidK,
    NoConvergence,
    assemble_rn_solution,
    density_from_weights,
    eval_F,
    min_Fp_nu,
    optimize_masses,
    power_f,
    power_g,
    quadratic,
    radius_of_mass,
    solve_atomic_problem,
    solve_bounded,
    solve_weights,
    subadditivity_threshold,
    subcity_energy,
)
from subcities.oracle import _simplex_projection
from subcities.semidiscrete import _min_Fp_nu

F = quadratic()
G_WEAK = power_g(0.2, 0.5)
G_STRONG = power_g(3.0, 0.3)


@pytest.fixture(scope="module")
def curve_weak():
    return EnergyCurve.build(F, G_WEAK, 2.0, 1)


def _within_tie(value, best):
    """The search's tie rule: value is no more than 1e-12 (1 + |best|) above best."""
    return value <= best + 1e-12 * (1.0 + abs(best))


class TestOptimizeMasses:
    def test_k1_trivial(self, curve_weak):
        masses, value = optimize_masses(curve_weak, 1)
        assert np.allclose(masses, [1.0])
        assert value == pytest.approx(curve_weak.energy(1.0))

    def test_invalid_k(self, curve_weak):
        with pytest.raises(InvalidK):
            optimize_masses(curve_weak, 0)

    def test_equal_split_stationary(self, curve_weak):
        # equal coordinates have equal marginal energies, so the projected
        # gradient at the equal split vanishes
        grad = np.array([curve_weak.denergy(1.0 / 3.0)] * 3)
        assert np.allclose(grad - grad.mean(), 0.0)

    def test_k2_matches_lattice_oracle(self, curve_weak):
        masses, value = optimize_masses(curve_weak, 2)
        table = [
            curve_weak.energy(i / 200.0) if i else 0.0 for i in range(201)
        ]
        oracle = min(table[i] + table[200 - i] for i in range(101))
        assert value <= min(curve_weak.energy(1.0), 2 * curve_weak.energy(0.5)) + 1e-12
        assert value == pytest.approx(oracle, abs=1e-6)

    def test_masses_descending_and_on_simplex(self, curve_weak):
        masses, _ = optimize_masses(curve_weak, 3)
        assert (np.diff(masses) <= 1e-12).all()
        assert masses.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_one_atom_beats_a_local_minimum(self, k):
        # a projected descent from the equal split and random starts stops
        # at [0.5, 0.5, 0, ...] (2.1198) here, above the single atom (1.7862)
        curve = EnergyCurve.build(power_f(1.0, 2.0), power_g(1.0, 0.3), 2.0, 1)
        masses, value = optimize_masses(curve, k)
        assert np.array_equal(masses, np.eye(k)[0])
        assert value == curve.energy(np.ones(1))[0]
        assert value < 2 * curve.energy(0.5)

    def test_ties_go_to_fewer_atoms(self):
        # with E(m) = m every split costs 1 up to rounding: six equal atoms
        # sum to 1 - 2.2e-16, within the tie rule of the single atom
        class Linear:
            def energy(self, m):
                return np.asarray(m, dtype=float).copy()

            def denergy(self, m):
                return np.ones_like(np.asarray(m, dtype=float))

        masses, value = optimize_masses(Linear(), 10)
        assert np.array_equal(masses, np.eye(10)[0])
        assert value == 1.0


def _project_1d(x, total=1.0):
    """Projection of one vector onto {y >= 0, sum y = total}, written out independently."""
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - total
    rho = np.nonzero(u - css / (np.arange(len(x)) + 1) > 0)[0][-1]
    return np.maximum(x - css[rho] / (rho + 1.0), 0.0)


def _energy_1d(curve, x):
    pos = x[x > 0]
    return float(np.sum(curve.energy(pos))) if len(pos) else 0.0


def _descent_one_start(curve, x0, iters=200):
    """Projected descent of a single start, one trial at a time."""
    x = _project_1d(np.asarray(x0, dtype=float))
    val = _energy_1d(curve, x)
    step = 0.1
    for _ in range(iters):
        grad = np.asarray(curve.denergy(np.maximum(x, 1e-9)), dtype=float)
        t = step
        for _ in range(30):
            x_try = _project_1d(x - t * grad)
            v_try = _energy_1d(curve, x_try)
            if v_try < val - 1e-15:
                x, val = x_try, v_try
                step = min(t * 2.0, 1.0)
                break
            t *= 0.5
        else:
            break
    return x


def _descent_heuristic(curve, k, seed, n_starts):
    """The random-start heuristic optimize_masses once was, one start at a time.

    The equal split, projected descent from it and from n_starts Dirichlet
    draws, and for k <= 3 the exhaustive 1/200 lattice; the best value wins.
    """
    rng = np.random.default_rng(seed)
    starts = [np.full(k, 1.0 / k)] + [rng.dirichlet(np.ones(k)) for _ in range(n_starts)]
    candidates = [np.full(k, 1.0 / k)] + [_descent_one_start(curve, x0) for x0 in starts]
    if k <= 3:
        candidates.append(_grid_search_loop(curve, k)[0])
    best_val, best = np.inf, None
    for cand in candidates:
        v = _energy_1d(curve, cand)
        if v < best_val - 1e-15 or best is None:
            best_val, best = v, cand
    return np.sort(best)[::-1], best_val


def _custom_quadratic_curve():
    """A curve through the quadrature route: quadratic f given as a custom family."""
    from subcities import FunctionFamily

    f = FunctionFamily(
        kind="custom",
        f_impl=lambda s: 0.5 * s * s,
        f_prime_impl=lambda s: s,
        k_impl=lambda t: t,
        k_prime_impl=lambda t: np.ones_like(t),
    )
    curve = EnergyCurve.build(f, G_WEAK, 2.0, 1, n_samples=16)
    assert not curve.f.is_power_shaped
    return curve


class TestLockStepDescent:
    """The search is never worse than the lock-step descent it replaced.

    The descent is replayed one start at a time (``_descent_heuristic``);
    the simplex projection it used lives on in the oracle.
    """

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 9])
    @pytest.mark.parametrize("n_starts", [0, 20])
    @pytest.mark.parametrize(
        "shape", [(1.5, 0.3, 1.0, 2), (2.0, 0.5, 2.0, 1), (3.0, 0.7, 2.0, 2)]
    )
    def test_optimize_masses_power_law(self, k, n_starts, shape):
        q, r, p, n = shape
        curve = EnergyCurve.build(power_f(1.0, q), power_g(0.3, r), p, n)
        assert curve.f.is_power_shaped
        masses, value = optimize_masses(curve, k)
        _, ref_value = _descent_heuristic(curve, k, 11 * k + n_starts, n_starts)
        assert _within_tie(value, ref_value)
        assert value == _energy_1d(curve, masses)

    @pytest.mark.parametrize("k, n_starts", [(2, 0), (4, 1)])
    def test_optimize_masses_custom_family(self, k, n_starts):
        curve = _CountingCurve(_custom_quadratic_curve())
        masses, value = optimize_masses(curve, k)
        _, ref_value = _descent_heuristic(curve, k, 3, n_starts)
        assert _within_tie(value, ref_value)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_row_energies_match_sum_over_positives(self):
        # the value is the energy summed over the positive masses, sorted
        # descending, for counts on both sides of numpy's 8-term pairwise block
        curve = EnergyCurve.build(F, power_g(0.1, 0.4), 2.0, 2)
        for k in range(1, 13):
            masses, value = optimize_masses(curve, k)
            assert (np.diff(masses) <= 0).all() and masses[-1] >= 0
            assert value == np.sum(curve.energy(masses[masses > 0]))

    def test_projection_rows_match_single_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            k = int(rng.integers(1, 12))
            x = rng.normal(size=(int(rng.integers(1, 6)), k)) * rng.choice([1e-3, 1.0, 1e2])
            x[rng.random(x.shape) < 0.3] = 0.0
            got = _simplex_projection(x)
            assert got.shape == x.shape
            for row, want in zip(got, x):
                assert np.array_equal(row, _project_1d(want))
            assert np.array_equal(_simplex_projection(x[:1])[0], _project_1d(x[0]))

    def test_projection_per_row_totals(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 7))
        totals = rng.uniform(0.1, 3.0, 5)
        got = _simplex_projection(x, totals)
        assert (got >= 0).all()
        assert got.sum(axis=1) == pytest.approx(totals, rel=1e-12)
        for row, want, total in zip(got, x, totals):
            assert np.array_equal(row, _project_1d(want, total))


class _CountingCurve:
    """A curve that counts the entries handed to it and remembers their values.

    Every entry is evaluated alone through the wrapped curve, so an array
    gets exactly the values the wrapped curve's per-mass route gives it.
    """

    def __init__(self, curve):
        self.curve, self.entries, self.memo = curve, 0, {}

    def _each(self, fn, m):
        marr = np.asarray(m, dtype=float)
        self.entries += marr.size
        out = []
        for v in marr.ravel().tolist():
            if (fn, v) not in self.memo:
                self.memo[fn, v] = getattr(self.curve, fn)(v)
            out.append(self.memo[fn, v])
        return np.array(out, dtype=float).reshape(marr.shape)

    def energy(self, m):
        return self._each("energy", m)

    def denergy(self, m):
        return self._each("denergy", m)


class _ConcaveConvexCurve:
    """E(m) = m - m^2/2 + m^9/3: concave below (1/24)^(1/7), convex above.

    Its best split is one atom of ~0.17 beside one of ~0.83, so the search
    must refine its scan rather than settle on an equal split.
    """

    def energy(self, m):
        m = np.asarray(m, dtype=float)
        return np.where(m > 0, m - m**2 / 2 + m**9 / 3, 0.0)

    def denergy(self, m):
        m = np.asarray(m, dtype=float)
        return 1.0 - m + 3.0 * m**8


def _lattice_min(curve, k, res=200):
    """min of sum E(i_c / res) over i_1 + ... + i_k = res, i_c >= 0: a min-plus DP."""
    table = np.asarray(curve.energy(np.arange(res + 1) / res), dtype=float)
    table[0] = 0.0
    best = table.copy()
    for _ in range(k - 1):
        best = np.array([np.min(table[: u + 1] + best[u::-1]) for u in range(res + 1)])
    return float(best[res])


def _assert_first_order(curve, masses):
    """Every positive mass but at most one shares E' to 1e-8 relative."""
    slopes = np.asarray(curve.denergy(masses[masses > 0]), dtype=float)
    shared = np.isclose(slopes, slopes[0], rtol=1e-8, atol=0.0)
    assert shared.sum() >= len(slopes) - 1


# the plan-rn fractional factorial: every (q, r) pair and every (p, n) pair appears
_RN_SHAPES = [
    (
        *[(q, r) for q in (1.5, 2.0, 3.0) for r in (0.3, 0.5, 0.7)][i % 9],
        *((1.0, 1), (2.0, 2), (1.0, 2), (2.0, 1))[i % 4],
    )
    for i in range(12)
]


class TestCountsInOneBatch:
    """One optimize_masses call searches every count up to its cap."""

    @pytest.mark.parametrize("q, r, p, n", _RN_SHAPES)
    def test_rn_factorial_shapes(self, q, r, p, n):
        for b in (1.003, 0.05):  # the benchmark's g, and one with more atoms
            f, g = power_f(1.0, q), power_g(b, r)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditionNotSatisfied)
                k, masses, value = solve_atomic_problem(f, g, p, n, 6)
            curve = EnergyCurve.build(f, g, p, n)
            per_count = [optimize_masses(curve, c) for c in range(1, 7)]
            values = [v for _, v in per_count]
            assert all(b <= a for a, b in zip(values, values[1:]))
            for c, (got, v) in enumerate(per_count, 1):
                assert _within_tie(v, _lattice_min(curve, c))
                _assert_first_order(curve, got)
            m0 = subadditivity_threshold(curve)
            k_hi = min(6, 1 + int(np.floor(2.0 / m0))) if m0 > 0 else 6
            want, want_value = per_count[k_hi - 1]
            assert (k, value) == (int(np.sum(want > 0)), want_value)
            assert np.array_equal(masses, want[want > 0])
            # an exact equal split wins here, as on every benchmark instance
            assert np.array_equal(masses, np.full(k, 1.0 / k))

    def test_seventeen_counts(self):
        # k_hi = 17: one search over every count up to it
        curve = EnergyCurve.build(F, G_WEAK, 2.0, 1)
        want, want_value = optimize_masses(curve, 17)
        k, masses, value = solve_atomic_problem(F, G_WEAK, 2.0, 1, 40)
        assert (k, value) == (int(np.sum(want > 0)), want_value)
        assert np.array_equal(masses, want[want > 0])
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        values = [optimize_masses(curve, c)[1] for c in range(1, 18)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] == want_value

    def test_custom_family(self):
        # the quadrature route bisects R(m) for every entry: the search may
        # hand the curve no more entries than the descent's one-start search
        # for 4 atoms did (434, counted with this wrapper)
        curve = _CountingCurve(_custom_quadratic_curve())
        masses, value = optimize_masses(curve, 4)
        assert curve.entries <= 434
        assert _within_tie(value, 0.5948552859323172)  # that search's value
        _assert_first_order(curve, masses)

    def test_padding_never_reaches_the_curve(self):
        # absent atoms are zeros of the returned vector, never curve entries:
        # the quadrature route's E'(0) raises
        curve = _CountingCurve(EnergyCurve.build(F, G_WEAK, 2.0, 1))
        for k in (4, 5, 9, 12):
            optimize_masses(curve, k)
        assert all(0.0 < v <= 1.0 for _, v in curve.memo)

    @pytest.mark.parametrize(
        "curve",
        [
            EnergyCurve.build(F, G_WEAK, 2.0, 1),
            EnergyCurve.build(F, G_STRONG, 2.0, 1),
            _ConcaveConvexCurve(),
        ],
        ids=["weak", "strong", "concave-convex"],
    )
    def test_at_most_the_lattice_minimum(self, curve):
        values = []
        for k in range(1, 7):
            masses, value = optimize_masses(curve, k)
            assert _within_tie(value, _lattice_min(curve, k))
            _assert_first_order(curve, masses)
            values.append(value)
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_unequal_split_shares_its_slope(self):
        curve = _CountingCurve(_ConcaveConvexCurve())
        masses, value = optimize_masses(curve, 2)
        # a and 1 - a at 32 scan points and at the bracket's two ends, at most
        # ten false-position steps (it takes nine), the candidates' 5 masses
        assert curve.entries <= 2 * 32 + 2 * 2 + 2 * 10 + 5
        assert masses[0] > 0.8 and 0.1 < masses[1] < 0.2
        slopes = curve.denergy(masses)
        assert slopes[1] == pytest.approx(slopes[0], rel=1e-8)
        assert value < min(curve.energy(1.0), 2 * curve.energy(0.5))


def _grid_search_loop(curve, k, res=200):
    """The lattice search written as loops, the first minimum kept."""
    table = np.asarray(curve.energy(np.arange(res + 1) / res), dtype=float)
    table[0] = 0.0
    best_val, best = np.inf, None
    if k == 1:
        return np.array([1.0]), float(table[res])
    if k == 2:
        for i in range(res // 2, res + 1):
            v = table[i] + table[res - i]
            if v < best_val:
                best_val, best = v, (i, res - i)
    else:
        for i in range(res + 1):
            for j in range(i, (res - i) // 2 + 1):
                l = res - i - j
                if l < j:
                    continue
                v = table[i] + table[j] + table[l]
                if v < best_val:
                    best_val, best = v, (i, j, l)
    masses = np.array(sorted(best, reverse=True), dtype=float) / res
    return masses, float(best_val)


class _StepCurve:
    """E rounded to a coarse step, so that many lattice splits tie."""

    def energy(self, m):
        return np.floor(np.sqrt(np.asarray(m, dtype=float)) * 4.0) / 4.0


class TestGridSearch:
    """The lattice DP the search is checked against agrees with the plain loops."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("res", [200, 7, 10, 33])
    def test_matches_loop(self, k, res):
        for curve in (
            EnergyCurve.build(F, G_WEAK, 2.0, 1),
            EnergyCurve.build(F, G_STRONG, 2.0, 2),
            EnergyCurve.build(power_f(1.0, 3.0), power_g(0.3, 0.7), 1.0, 2),
            _StepCurve(),
        ):
            _, ref_value = _grid_search_loop(curve, k, res)
            assert _lattice_min(curve, k, res) == pytest.approx(ref_value, rel=1e-14)
            if not isinstance(curve, _StepCurve):
                assert _within_tie(optimize_masses(curve, k)[1], ref_value)


class TestSolveAtomicProblem:
    def test_concentration_dominant_single_pole(self):
        k, masses, _ = solve_atomic_problem(F, G_STRONG, 2.0, 1, 6)
        assert k == 1
        assert np.allclose(masses, [1.0])

    def test_spread_dominant_multiple_poles(self):
        k, masses, value = solve_atomic_problem(F, G_WEAK, 2.0, 1, 6)
        assert k > 1
        assert masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_argmin_against_neighbors(self, curve_weak):
        k, _, value = solve_atomic_problem(F, G_WEAK, 2.0, 1, 6)
        for other in (k - 1, k + 1):
            if other >= 1:
                _, v_other = optimize_masses(curve_weak, other)
                assert value <= v_other + 1e-9

    def test_atom_count_bound(self):
        curve = EnergyCurve.build(F, G_WEAK, 2.0, 1)
        m0 = subadditivity_threshold(curve)
        assert m0 > 0
        k, _, _ = solve_atomic_problem(F, G_WEAK, 2.0, 1, 40)
        assert k <= 1 + int(np.floor(2.0 / m0))

    def test_unsatisfied_condition_warns(self):
        # q<=... power families always satisfy the condition, so force a
        # failure through a custom linear concentration cost
        from subcities import ConcentrationFamily

        ident = lambda t: np.asarray(t, dtype=float)
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        one = lambda t: np.ones_like(np.asarray(t, dtype=float))
        linear = ConcentrationFamily(
            kind="custom", g_impl=ident, g_prime_impl=one, g_second_impl=zero
        )
        with pytest.warns(ConditionNotSatisfied):
            solve_atomic_problem(F, linear, 2.0, 1, 2)


class TestAssemble:
    def test_single_mass_energy_identity(self):
        sol = assemble_rn_solution(np.array([1.0]), F, power_g(1.0, 0.5), 2.0, 1)
        e1 = subcity_energy(F, power_g(1.0, 0.5), 2.0, 1, 1.0)
        assert sol.objective["total"] == pytest.approx(e1, rel=1e-4)
        assert len(sol.profiles) == 1
        assert sol.profiles[0].radius == pytest.approx(
            radius_of_mass(F, 2.0, 1, 1.0), rel=1e-10
        )

    def test_translation_invariance(self):
        masses = np.array([0.6, 0.4])
        base = assemble_rn_solution(masses, F, G_WEAK, 2.0, 1)
        moved = assemble_rn_solution(masses, F, G_WEAK, 2.0, 1, origin=[17.25])
        for key in ("transport", "F", "G", "total"):
            assert moved.objective[key] == pytest.approx(
                base.objective[key], rel=1e-12, abs=1e-12
            )

    @pytest.mark.parametrize("layout", ["line", "grid"])
    def test_disjoint_spacing(self, layout):
        sol = assemble_rn_solution(
            np.array([0.4, 0.3, 0.2, 0.1]), F, G_WEAK, 2.0, 2, layout=layout
        )
        r_bar = radius_of_mass(F, 2.0, 2, 1.0)
        pts = sol.nu.points
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 2.0 * r_bar

    def test_sum_energy_identity(self):
        g = power_g(1.0, 0.5)
        masses = np.array([0.5, 0.3, 0.2])
        sol = assemble_rn_solution(masses, F, g, 2.0, 1)
        expected = sum(subcity_energy(F, g, 2.0, 1, float(m)) for m in masses)
        tol = max(1e-6, 0.01 * abs(expected))
        assert abs(sol.objective["total"] - expected) <= tol

    def test_oracle_transport_agrees_with_closed_form(self):
        sol = assemble_rn_solution(np.array([0.7, 0.3]), F, G_WEAK, 2.0, 1)
        assert sol.objective["transport_oracle"] == pytest.approx(
            sol.objective["transport"], rel=5e-3
        )

    def test_objective_sum_exact(self):
        sol = assemble_rn_solution(np.array([0.5, 0.5]), F, G_WEAK, 2.0, 1)
        o = sol.objective
        assert o["total"] == pytest.approx(o["transport"] + o["F"] + o["G"], abs=1e-12)

    def test_profile_mass_radius_consistency(self):
        sol = assemble_rn_solution(np.array([0.55, 0.45]), F, G_WEAK, 2.0, 2)
        from subcities import mass_of_radius

        for pr in sol.profiles:
            assert mass_of_radius(F, 2.0, 2, pr.radius) == pytest.approx(pr.mass, abs=1e-8)
            assert pr.weight == pytest.approx(pr.radius**2)


class TestSolveBounded:
    def test_monotone_objective(self):
        omega = Domain.box([(0.0, 1.0)])
        init = AtomicMeasure([[0.3], [0.7]], [0.5, 0.5])
        sol = solve_bounded(omega, F, power_g(0.3, 0.5), 2.0, init, rounds=5, resolution=64)
        hist = sol.metadata["objective_history"]
        assert all(a >= b - 1e-12 for a, b in zip(hist, hist[1:]))
        assert sol.metadata["heuristic"] is True

    def test_large_domain_reproduces_unconstrained_solution(self):
        k, masses, _ = solve_atomic_problem(F, G_WEAK, 2.0, 1, 6)
        rn = assemble_rn_solution(masses, F, G_WEAK, 2.0, 1)
        sol = solve_bounded(
            rn.mu.domain, F, G_WEAK, 2.0, rn.nu,
            rounds=2, resolution=rn.mu.resolution,
        )
        assert abs(sol.objective["total"] - rn.objective["total"]) <= 1e-6
        drift = np.abs(
            np.sort(sol.nu.points.ravel()) - np.sort(rn.nu.points.ravel())
        ).max()
        assert drift <= 1e-3

    def test_tiny_domain_clipped_smoke(self):
        omega = Domain.box([(0.0, 0.5)])
        init = AtomicMeasure([[0.2], [0.35]], [0.5, 0.5])
        sol = solve_bounded(omega, F, power_g(0.5, 0.5), 2.0, init, rounds=3, resolution=48)
        assert sol.mu.total_mass == pytest.approx(1.0, abs=1e-2)
        assert sol.objective["total"] > 0
        assert sol.metadata["clipped"]

    def test_tiny_domain_merges_atom_without_cells(self):
        # the smoke instance's second atom loses its cells; the scan must
        # merge it rather than shrink it by transfers forever
        omega = Domain.box([(0.0, 0.5)])
        init = AtomicMeasure([[0.2], [0.35]], [0.5, 0.5])
        sol = solve_bounded(omega, F, power_g(0.5, 0.5), 2.0, init, rounds=3, resolution=48)
        assert all(pr.mass > 0 for pr in sol.profiles)
        assert sol.objective["G"] == pytest.approx(0.5, abs=1e-12)
        history = sol.metadata["objective_history"]
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_merge_when_concentration_dominates(self):
        omega = Domain.box([(0.0, 3.0)])
        init = AtomicMeasure([[1.0], [2.0]], [0.5, 0.5])
        sol = solve_bounded(omega, F, power_g(1.0, 0.5), 2.0, init, rounds=8, resolution=96)
        assert len(sol.nu) == 1
        e1 = subcity_energy(F, power_g(1.0, 0.5), 2.0, 1, 1.0)
        assert sol.objective["total"] == pytest.approx(e1, rel=1e-3)


class TestOneEvaluation:
    """min_Fp_nu, solve_bounded and assemble_rn_solution value atoms alike."""

    @pytest.mark.parametrize(
        "bounds, points, resolution",
        [
            ([(0.0, 1.0)], [[0.3], [0.5], [0.7]], 32),
            ([(0.0, 1.0)] * 2, [[0.3, 0.5], [0.7, 0.5], [0.5, 0.2]], 16),
        ],
    )
    def test_bounded_transport_is_the_exact_lp_to_the_atoms(self, bounds, points, resolution):
        # weight solves whose winner-takes-all cells miss tol by far, where
        # the cost to those cell masses is 2.9 % (1-D) and 0.3 % (2-D) off
        # the cost to the atoms; the split tied cells balance the atoms, and
        # their plan's potentials certify it optimal
        init = AtomicMeasure(points, [0.4, 0.35, 0.25])
        omega = Domain.box(bounds)
        sol = solve_bounded(omega, F, power_g(0.4, 0.5), 2.0, init, rounds=0, resolution=resolution)
        assert sol.metadata["mass_residual"] <= 1e-12
        _, breakdown, plan = _min_Fp_nu(init, F, 2.0, Grid(omega, resolution), 1e-7)
        assert sol.objective["transport"] == breakdown["transport"] == plan.total_cost
        total = breakdown["total"]
        assert abs(total - breakdown["dual_objective"]) <= 1e-12 * (1.0 + abs(total))
        cost = np.linalg.norm(plan.source.points[:, None] - plan.target.points[None], axis=2) ** 2
        assert (plan.dual_psi[:, None] + plan.dual_psi_c[None, :] - cost).max() <= 1e-12
        dual = plan.source.weights @ plan.dual_psi + plan.target.weights @ plan.dual_psi_c
        assert abs(plan.total_cost - dual) <= 1e-12
        assert max(plan.marginal_residuals()) <= 1e-12

    def test_bounded_and_min_Fp_nu_agree_bit_for_bit(self):
        omega = Domain.box([(0.0, 1.0)])
        grid = Grid(omega, (64,))
        nu = AtomicMeasure([[0.3], [0.7]], [0.5, 0.5])
        weights = solve_weights(nu, F, 2.0, grid)
        _, breakdown = min_Fp_nu(nu, F, 2.0, grid)
        sol = solve_bounded(omega, F, G_WEAK, 2.0, nu, rounds=0, resolution=64)
        assert weights.residual <= 1e-7
        assert breakdown["mass_residual"] == weights.residual
        assert sol.metadata["mass_residual"] == weights.residual
        assert sol.objective["transport"] == breakdown["transport"]
        assert sol.objective["F"] == breakdown["F"]

    def test_assembly_oracle_and_F_unchanged(self):
        masses = np.array([0.7, 0.3])
        sol = assemble_rn_solution(masses, F, G_WEAK, 2.0, 1)
        # reference: the density, its F and the midpoint cost of its balls,
        # each cell's mass sent to its power cell's atom under R^p
        weights = radius_of_mass(F, 2.0, 1, masses) ** 2.0
        grid = Grid(sol.mu.domain, sol.mu.resolution)
        density = density_from_weights(sol.nu, weights, F, 2.0, grid)
        cost = np.abs(grid.cell_centers() - sol.nu.points.T) ** 2.0
        owner = (weights - cost).argmax(axis=1)
        midpoint = density.values.ravel() * grid.cell_volume @ cost[np.arange(len(cost)), owner]
        assert sol.objective["F"] == eval_F(F, density)
        assert sol.objective["transport_oracle"] == pytest.approx(midpoint, rel=1e-12)
        assert sol.objective["F"] == pytest.approx(0.22661233697521882, rel=1e-12)
        assert sol.objective["transport_oracle"] == pytest.approx(0.11330660473258333, rel=1e-12)


class TestBoundedRefusal:
    """A candidate whose weight solve ends above ``tol`` is refused, and the
    initial atoms' solve ending there is an error: its cell plan would cost
    the transport to the cell masses instead of to the atoms."""

    @staticmethod
    def _report_above_tol(monkeypatch, when):
        from subcities import semidiscrete

        solve, seen = semidiscrete._solve_weights_best, []

        def above_tol(atoms, *args, **kwargs):
            solved = solve(atoms, *args, **kwargs)
            if not when(atoms):
                return solved
            seen.append(len(atoms))
            return solved[0], 1.0, solved[2]

        monkeypatch.setattr(semidiscrete, "_solve_weights_best", above_tol)
        return seen

    def test_candidate_above_tol_is_refused(self, monkeypatch):
        # the instance of test_merge_when_concentration_dominates, which
        # merges to one atom unless one-atom candidates are refused
        seen = self._report_above_tol(monkeypatch, lambda atoms: len(atoms) == 1)
        omega = Domain.box([(0.0, 3.0)])
        init = AtomicMeasure([[1.0], [2.0]], [0.5, 0.5])
        sol = solve_bounded(omega, F, power_g(1.0, 0.5), 2.0, init, rounds=8, resolution=96)
        assert seen and len(sol.nu) == 2

    def test_initial_atoms_above_tol_raise(self, monkeypatch):
        self._report_above_tol(monkeypatch, lambda atoms: True)
        init = AtomicMeasure([[1.0], [2.0]], [0.5, 0.5])
        with pytest.raises(NoConvergence):
            solve_bounded(Domain.box([(0.0, 3.0)]), F, G_WEAK, 2.0, init, rounds=1, resolution=96)


class TestMergeProperty:
    def test_merging_small_atoms_never_worse(self):
        g = power_g(1.0, 0.5)
        curve = EnergyCurve.build(F, g, 2.0, 1)
        m0 = subadditivity_threshold(curve)
        rng = np.random.default_rng(4)
        for _ in range(10):
            s, t = rng.uniform(1e-3, m0 / 2, size=2)
            merged = subcity_energy(F, g, 2.0, 1, s + t)
            split = subcity_energy(F, g, 2.0, 1, s) + subcity_energy(F, g, 2.0, 1, t)
            assert merged <= split + 1e-10


def _candidates_with_repeats(atoms):
    """The exchange scan written out plainly, repeats and all."""
    from subcities.planner import _transfer

    d = np.linalg.norm(atoms.points[:, None] - atoms.points[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    out = []
    for i in range(len(atoms)):
        j = int(d[i].argmin())
        small, big = (i, j) if atoms.masses[i] <= atoms.masses[j] else (j, i)
        out.append(_transfer(atoms, small, big, None))
        for frac in (0.25, 0.0625):
            delta = frac * min(atoms.masses[i], atoms.masses[j])
            out += [_transfer(atoms, i, j, delta), _transfer(atoms, j, i, delta)]
    return [cand for cand in out if cand is not None]


def _key(atoms):
    return atoms.points.tobytes(), atoms.masses.tobytes()


class TestExchangeCandidates:
    def test_first_occurrences_in_scan_order(self):
        from subcities.planner import _exchange_candidates

        rng = np.random.default_rng(5)
        repeats = 0
        for _ in range(40):
            k, dim = int(rng.integers(2, 6)), int(rng.integers(1, 3))
            masses = rng.dirichlet(np.ones(k))
            if rng.random() < 0.3:
                masses = np.full(k, 1.0 / k)
            atoms = AtomicMeasure(rng.uniform(0, 1, (k, dim)), masses)
            got = [_key(cand) for cand in _exchange_candidates(atoms)]
            want = list(dict.fromkeys(_key(cand) for cand in _candidates_with_repeats(atoms)))
            assert got == want
            repeats += len(_candidates_with_repeats(atoms)) - len(want)
        assert repeats > 0

    def test_equal_mass_pair_yields_both_merges(self):
        from subcities.planner import _exchange_candidates

        atoms = AtomicMeasure([[0.3], [0.7]], [0.5, 0.5])
        merges = [cand for cand in _exchange_candidates(atoms) if len(cand) == 1]
        assert sorted(float(cand.points[0, 0]) for cand in merges) == [0.3, 0.7]
        assert all(cand.masses[0] == 1.0 for cand in merges)

import warnings

import numpy as np
import pytest

from subcities import (
    AtomicMeasure,
    ConditionNotSatisfied,
    Domain,
    EnergyCurve,
    InvalidK,
    assemble_rn_solution,
    optimize_masses,
    power_f,
    power_g,
    quadratic,
    radius_of_mass,
    solve_atomic_problem,
    solve_bounded,
    subadditivity_threshold,
    subcity_energy,
)
from subcities.planner import _optimize_counts, _projected_descent

F = quadratic()
G_WEAK = power_g(0.2, 0.5)
G_STRONG = power_g(3.0, 0.3)


@pytest.fixture(scope="module")
def curve_weak():
    return EnergyCurve.build(F, G_WEAK, 2.0, 1)


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
        masses, value = optimize_masses(curve_weak, 2, seed=0)
        table = [
            curve_weak.energy(i / 200.0) if i else 0.0 for i in range(201)
        ]
        oracle = min(table[i] + table[200 - i] for i in range(101))
        assert value <= min(curve_weak.energy(1.0), 2 * curve_weak.energy(0.5)) + 1e-12
        assert value == pytest.approx(oracle, abs=1e-6)

    def test_masses_descending_and_on_simplex(self, curve_weak):
        masses, _ = optimize_masses(curve_weak, 3, seed=1)
        assert (np.diff(masses) <= 1e-12).all()
        assert masses.sum() == pytest.approx(1.0, abs=1e-9)


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


def _optimize_one_start_at_a_time(curve, k, seed, n_starts):
    from subcities.planner import _grid_search, _lattice_energies

    rng = np.random.default_rng(seed)
    starts = [np.full(k, 1.0 / k)] + [rng.dirichlet(np.ones(k)) for _ in range(n_starts)]
    candidates = [np.full(k, 1.0 / k)] + [_descent_one_start(curve, x0) for x0 in starts]
    if k <= 3:
        candidates.append(_grid_search(_lattice_energies(curve), k)[0])
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
    assert curve.power_law is None
    return curve


class TestLockStepDescent:
    """The batched descent reproduces the one-start-at-a-time loop bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 9])
    @pytest.mark.parametrize("n_starts", [0, 20])
    @pytest.mark.parametrize(
        "shape", [(1.5, 0.3, 1.0, 2), (2.0, 0.5, 2.0, 1), (3.0, 0.7, 2.0, 2)]
    )
    def test_optimize_masses_power_law(self, k, n_starts, shape):
        q, r, p, n = shape
        curve = EnergyCurve.build(power_f(1.0, q), power_g(0.3, r), p, n)
        assert curve.power_law is not None
        masses, value = optimize_masses(curve, k, seed=11 * k + n_starts, n_starts=n_starts)
        ref_masses, ref_value = _optimize_one_start_at_a_time(
            curve, k, 11 * k + n_starts, n_starts
        )
        assert np.array_equal(masses, ref_masses)
        assert value == ref_value

    @pytest.mark.parametrize("k, n_starts", [(2, 0), (4, 1)])
    def test_optimize_masses_custom_family(self, k, n_starts):
        curve = _custom_quadratic_curve()
        masses, value = optimize_masses(curve, k, seed=3, n_starts=n_starts)
        ref_masses, ref_value = _optimize_one_start_at_a_time(curve, k, 3, n_starts)
        assert np.array_equal(masses, ref_masses)
        assert value == ref_value

    @pytest.mark.parametrize("k", [3, 9])
    def test_every_start_endpoint(self, k):
        from subcities.planner import _projected_descent

        curve = EnergyCurve.build(F, power_g(0.1, 0.4), 2.0, 2)
        starts = np.random.default_rng(k).dirichlet(np.ones(k), size=12)
        starts[0] = np.eye(k)[0]  # a vertex: zeros from the first step on
        ends = _projected_descent(curve, starts)
        for x0, end in zip(starts, ends):
            assert np.array_equal(end, _descent_one_start(curve, x0))

    def test_row_energies_match_sum_over_positives(self):
        from subcities.planner import _row_energies

        curve = EnergyCurve.build(F, power_g(0.1, 0.4), 2.0, 2)
        rng = np.random.default_rng(2)
        for k in range(1, 13):
            x = rng.dirichlet(np.ones(k), size=40)
            x[rng.random(x.shape) < 0.3] = 0.0
            x[:, 0] += 1e-3  # no empty row
            want = [_energy_1d(curve, row) for row in x]
            assert _row_energies(curve, x).tolist() == want

    def test_projection_rows_match_single_vectors(self):
        from subcities.planner import _simplex_projection

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
        from subcities.planner import _simplex_projection

        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 7))
        totals = rng.uniform(0.1, 3.0, 5)
        got = _simplex_projection(x, totals)
        assert (got >= 0).all()
        assert got.sum(axis=1) == pytest.approx(totals, rel=1e-12)
        for row, want, total in zip(got, x, totals):
            assert np.array_equal(row, _project_1d(want, total))


def _optimize_each_count(curve, ks, seed, n_starts=20):
    """The per-count reference: one ``optimize_masses`` call for each count."""
    return [optimize_masses(curve, k, seed=seed, n_starts=n_starts) for k in ks]


def _solve_count_by_count(f, g, p, n, k_max, seed):
    """``solve_atomic_problem`` as a loop over counts, plus every count's result."""
    curve = EnergyCurve.build(f, g, p, n)
    m0 = subadditivity_threshold(curve)
    k_hi = min(k_max, 1 + int(np.floor(2.0 / m0))) if m0 > 0 else k_max
    per_count = _optimize_each_count(curve, range(1, k_hi + 1), seed)
    best = None
    for k, (masses, value) in enumerate(per_count, 1):
        if best is None or value < best[2] - 1e-12 * (1.0 + abs(best[2])):
            best = (k, masses, value)
    masses = best[1][best[1] > 1e-12]
    return (len(masses), masses, best[2]), per_count, curve


def _assert_same_results(got, want):
    assert len(got) == len(want)
    for (masses, value), (ref_masses, ref_value) in zip(got, want):
        assert np.array_equal(masses, ref_masses)
        assert value == ref_value


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


# the plan-rn fractional factorial: every (q, r) pair and every (p, n) pair appears
_RN_SHAPES = [
    (
        *[(q, r) for q in (1.5, 2.0, 3.0) for r in (0.3, 0.5, 0.7)][i % 9],
        *((1.0, 1), (2.0, 2), (1.0, 2), (2.0, 1))[i % 4],
    )
    for i in range(12)
]


class TestCountsInOneBatch:
    """All counts in one padded descent give each count's own result, bit for bit."""

    @pytest.mark.parametrize("q, r, p, n", _RN_SHAPES)
    def test_rn_factorial_shapes(self, q, r, p, n):
        f, g = power_f(1.0, q), power_g(1.003, r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditionNotSatisfied)
            want, per_count, curve = _solve_count_by_count(f, g, p, n, 6, seed=7)
            k, masses, value = solve_atomic_problem(f, g, p, n, 6, seed=7)
        assert (k, value) == (want[0], want[2])
        assert np.array_equal(masses, want[1])
        _assert_same_results(_optimize_counts(curve, range(1, len(per_count) + 1), 7), per_count)

    def test_seventeen_counts(self):
        # k_hi = 17: rows of 8-17 entries with zeros take the grouped pairwise sums
        want, per_count, curve = _solve_count_by_count(F, G_WEAK, 2.0, 1, 40, seed=0)
        assert len(per_count) == 17
        assert any(np.sum(masses == 0) for masses, _ in per_count[8:])
        k, masses, value = solve_atomic_problem(F, G_WEAK, 2.0, 1, 40, seed=0)
        assert (k, value) == (want[0], want[2])
        assert np.array_equal(masses, want[1])
        _assert_same_results(_optimize_counts(curve, range(1, 18), 0), per_count)

    def test_custom_family(self):
        # the quadrature route; one start (the equal split) per count keeps it affordable
        curve = _CountingCurve(_custom_quadratic_curve())
        got = _optimize_counts(curve, range(1, 5), seed=3, n_starts=0)
        _assert_same_results(got, _optimize_each_count(curve, range(1, 5), 3, n_starts=0))

    def test_padding_never_reaches_the_curve(self):
        curve = _CountingCurve(EnergyCurve.build(F, G_WEAK, 2.0, 1))
        ks = (4, 5, 9, 12)  # no lattice search, so both sides ask for the same entries
        got = _optimize_counts(curve, ks, seed=5, n_starts=3)
        batched, curve.entries = curve.entries, 0
        want = _optimize_each_count(curve, ks, 5, n_starts=3)
        assert batched == curve.entries
        _assert_same_results(got, want)

    def test_batches_split_under_the_entry_budget(self, monkeypatch):
        import subcities.planner as planner

        curve = EnergyCurve.build(F, G_WEAK, 2.0, 1)
        want = _optimize_counts(curve, range(1, 10), seed=2, n_starts=4)
        widths = []
        descend = planner._projected_descent
        monkeypatch.setattr(planner, "_BATCH_ENTRIES", 180)  # 5 rows per count
        monkeypatch.setattr(
            planner,
            "_projected_descent",
            lambda c, x0, width: widths.append(list(width)) or descend(c, x0, width=width),
        )
        _assert_same_results(_optimize_counts(curve, range(1, 10), seed=2, n_starts=4), want)
        assert [sorted(set(w)) for w in widths] == [[1, 2, 3, 4, 5, 6], [7, 8, 9]]

    def test_padded_descent_matches_single_starts(self):
        curve = EnergyCurve.build(F, power_g(0.1, 0.4), 2.0, 2)
        rng = np.random.default_rng(8)
        width = np.array([1, 2, 5, 8, 11, 3, 9, 11])
        x0 = np.full((len(width), 11), 0.3)  # padding values are ignored
        for row, w in zip(x0, width):
            row[:w] = rng.dirichlet(np.ones(w))
        x0[2, :5] = np.eye(5)[1]  # a vertex
        ends = _projected_descent(curve, x0, width=width)
        for x, end, w in zip(x0, ends, width):
            assert np.array_equal(end[:w], _descent_one_start(curve, x[:w]))
            assert not end[w:].any()

    def test_row_energies_by_width(self):
        from subcities.planner import _row_energies

        curve = EnergyCurve.build(F, power_g(0.1, 0.4), 2.0, 2)
        rng = np.random.default_rng(3)
        for k in (1, 3, 7, 8, 9, 12, 20):
            width = rng.integers(1, k + 1, size=60)
            x = rng.dirichlet(np.ones(k), size=60)
            x[rng.random(x.shape) < 0.3] = 0.0  # leading zeros and empty rows too
            want = [_energy_1d(curve, row[:w]) for row, w in zip(x, width)]
            x[np.arange(k) >= width[:, None]] = 0.7  # padding values are ignored
            assert _row_energies(curve, x, np.arange(k) < width[:, None]).tolist() == want


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
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("res", [200, 7, 10, 33])
    def test_matches_loop(self, k, res):
        from subcities.planner import _grid_search, _lattice_energies

        for curve in (
            EnergyCurve.build(F, G_WEAK, 2.0, 1),
            EnergyCurve.build(F, G_STRONG, 2.0, 2),
            EnergyCurve.build(power_f(1.0, 3.0), power_g(0.3, 0.7), 1.0, 2),
            _StepCurve(),
        ):
            masses, value = _grid_search(_lattice_energies(curve, res), k)
            ref_masses, ref_value = _grid_search_loop(curve, k, res)
            assert np.array_equal(masses, ref_masses)
            assert value == ref_value


class TestSolveAtomicProblem:
    def test_concentration_dominant_single_pole(self):
        k, masses, _ = solve_atomic_problem(F, G_STRONG, 2.0, 1, 6, seed=0)
        assert k == 1
        assert np.allclose(masses, [1.0])

    def test_spread_dominant_multiple_poles(self):
        k, masses, value = solve_atomic_problem(F, G_WEAK, 2.0, 1, 6, seed=0)
        assert k > 1
        assert masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_argmin_against_neighbors(self, curve_weak):
        k, _, value = solve_atomic_problem(F, G_WEAK, 2.0, 1, 6, seed=0)
        for other in (k - 1, k + 1):
            if other >= 1:
                _, v_other = optimize_masses(curve_weak, other, seed=0)
                assert value <= v_other + 1e-9

    def test_atom_count_bound(self):
        curve = EnergyCurve.build(F, G_WEAK, 2.0, 1)
        m0 = subadditivity_threshold(curve)
        assert m0 > 0
        k, _, _ = solve_atomic_problem(F, G_WEAK, 2.0, 1, 40, seed=0)
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
            solve_atomic_problem(F, linear, 2.0, 1, 2, seed=0)


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
        k, masses, _ = solve_atomic_problem(F, G_WEAK, 2.0, 1, 6, seed=0)
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

import logging
import re

import numpy as np
import pytest

from subcities import (
    EmptyCloud,
    UnbalancedMasses,
    WeightedPointCloud,
    c_transform,
    solve_discrete_transport,
    wasserstein,
)
from subcities.discrete_transport import DEFAULT_DENOMINATOR, quantize_to_units


def random_instance(rng, n_src, n_tgt, dim=2, scale=1.0):
    xs = rng.random((n_src, dim)) * scale
    ys = rng.random((n_tgt, dim)) * scale
    ws = rng.random(n_src) + 0.05
    wt = rng.random(n_tgt) + 0.05
    return (
        WeightedPointCloud(xs, ws / ws.sum()),
        WeightedPointCloud(ys, wt / wt.sum()),
    )


class TestSolve:
    def test_identity_zero_cost(self):
        rng = np.random.default_rng(0)
        src, _ = random_instance(rng, 6, 6)
        plan = solve_discrete_transport(src, src, 2.0)
        assert plan.total_cost == pytest.approx(0.0, abs=1e-15)
        assert all(i == j for i, j, _ in plan.flows)

    def test_single_points(self):
        a = WeightedPointCloud([[0.0, 0.0]], [1.0])
        b = WeightedPointCloud([[3.0, 4.0]], [1.0])
        plan = solve_discrete_transport(a, b, 2.0)
        assert plan.total_cost == pytest.approx(25.0)

    def test_two_to_one_1d(self):
        src = WeightedPointCloud([[0.0], [1.0]], [0.5, 0.5])
        tgt = WeightedPointCloud([[0.5]], [1.0])
        plan = solve_discrete_transport(src, tgt, 1.0)
        assert plan.total_cost == pytest.approx(0.5)

    def test_marginals_and_gap_random(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            src, tgt = random_instance(rng, int(rng.integers(3, 20)), int(rng.integers(3, 20)))
            p = float(rng.choice([1.0, 1.5, 2.0]))
            plan = solve_discrete_transport(src, tgt, p)
            res_s, res_t = plan.marginal_residuals()
            assert res_s <= 1e-9 and res_t <= 1e-9
            dual = plan.source.weights @ plan.dual_psi + plan.target.weights @ plan.dual_psi_c
            assert abs(plan.total_cost - dual) <= 1e-8

    def test_matches_brute_force_tiny(self):
        # enumerate all extreme plans of a 2x2 instance via the single free flow
        src = WeightedPointCloud([[0.0], [1.0]], [0.3, 0.7])
        tgt = WeightedPointCloud([[0.25], [0.9]], [0.6, 0.4])
        cost = np.abs(src.points - tgt.points.T) ** 1.5
        best = np.inf
        for x in np.linspace(0.0, 0.3, 3001):  # flow (0,0); the rest is pinned
            flows = np.array([[x, 0.3 - x], [0.6 - x, 0.1 + x]])
            if (flows >= -1e-12).all():
                best = min(best, float((flows * cost).sum()))
        plan = solve_discrete_transport(src, tgt, 1.5)
        assert plan.total_cost == pytest.approx(best, abs=1e-7)

    def test_quantization_residual_reported(self):
        rng = np.random.default_rng(1)
        src, tgt = random_instance(rng, 7, 5)
        plan = solve_discrete_transport(src, tgt, 2.0)
        assert 0.0 <= plan.quantization_residual < 1e-9
        forced = solve_discrete_transport(src, WeightedPointCloud([[0.5, 0.5]], [1.0]), 2.0)
        assert forced.quantization_residual == 0.0

    def test_errors(self):
        src = WeightedPointCloud([[0.0]], [1.0])
        with pytest.raises(ValueError):
            solve_discrete_transport(src, src, 0.5)
        lop = WeightedPointCloud([[0.0]], [1.0 + 7e-9])
        sided = WeightedPointCloud([[1.0]], [1.0 - 7e-9])
        with pytest.raises(UnbalancedMasses):
            solve_discrete_transport(lop, sided, 1.0)


def assert_certified(plan):
    """Duality gap, marginals and dual feasibility of an exact plan."""
    src, tgt = plan.source, plan.target
    dist = np.linalg.norm(src.points[:, None] - tgt.points[None, :], axis=2)
    cost = dist**plan.cost_exponent
    dual = src.weights @ plan.dual_psi + tgt.weights @ plan.dual_psi_c
    assert abs(plan.total_cost - dual) <= 1e-8
    assert max(plan.marginal_residuals()) <= 1e-9
    assert (plan.dual_psi[:, None] + plan.dual_psi_c[None, :] - cost).max() <= 1e-9


class TestDegenerateStarts:
    """Instances whose nearest-target start is lopsided or tied."""

    def test_every_source_nearest_to_one_target(self):
        rng = np.random.default_rng(12)
        src = WeightedPointCloud(rng.random((30, 2)) * 0.1, np.full(30, 1 / 30))
        tgt = WeightedPointCloud([[0.05, 0.05], [0.9, 0.2], [0.3, 0.95]], [0.1, 0.5, 0.4])
        dist = np.linalg.norm(src.points[:, None] - tgt.points[None, :], axis=2)
        assert (dist.argmin(axis=1) == 0).all()
        plan = solve_discrete_transport(src, tgt, 2.0)
        assert_certified(plan)

    def test_sources_equidistant_from_two_targets(self):
        # every source is on the symmetry axis of the two targets
        rng = np.random.default_rng(13)
        axis = np.column_stack([np.full(12, 0.5), rng.random(12)])
        src = WeightedPointCloud(axis, np.full(12, 1 / 12))
        tgt = WeightedPointCloud([[0.2, 0.5], [0.8, 0.5]], [0.3, 0.7])
        for p in (1.0, 2.0):
            plan = solve_discrete_transport(src, tgt, p)
            assert_certified(plan)
            assert plan.dual_psi_c[0] == pytest.approx(plan.dual_psi_c[1], abs=1e-12)

    def test_weight_quantized_to_zero_units(self):
        w = np.array([1e-12, 0.4, 0.6 - 1e-12])
        assert quantize_to_units(w, DEFAULT_DENOMINATOR)[0] == 0
        src = WeightedPointCloud([[0.0], [0.5], [1.0]], w)
        tgt = WeightedPointCloud([[0.1], [0.9]], [0.5, 0.5])
        for a, b in ((src, tgt), (tgt, src)):
            plan = solve_discrete_transport(a, b, 1.5)
            assert_certified(plan)

    def test_wide_instance(self):
        rng = np.random.default_rng(14)
        for n, m in ((2, 9), (3, 40), (5, 6)):
            src, tgt = random_instance(rng, n, m)
            plan = solve_discrete_transport(src, tgt, 2.0)
            assert_certified(plan)
            flipped = solve_discrete_transport(tgt, src, 2.0)
            assert flipped.total_cost == pytest.approx(plan.total_cost, abs=1e-12)


def criterion_1_instance(trial):
    """Instance ``trial`` of acceptance criterion 1's draw (``default_rng(101)``)."""
    rng = np.random.default_rng(101)
    for _ in range(trial + 1):
        sizes = int(rng.integers(5, 51)), int(rng.integers(5, 51))
        clouds = []
        for size in sizes:
            points = rng.random((size, 2))
            w = rng.random(size) + 0.05
            clouds.append(WeightedPointCloud(points, w / w.sum()))
    return clouds[0], clouds[1], (1.0, 1.5, 2.0)[trial % 3]


class TestSearchTree:
    """One shortest-path tree serves every short target it reaches."""

    def test_path_through_one_source_twice(self):
        # a tree path here runs 35 -> 23 -> 25 through source 41 both times;
        # flow[41, 23] does not change, so it must not bound the augmentation,
        # else every search moves the same few units until the guard trips
        src, tgt, p = criterion_1_instance(29)
        assert (len(src), len(tgt), p) == (49, 38, 2.0)
        assert_certified(solve_discrete_transport(src, tgt, p))

    def test_searches_and_augmentations_logged(self, caplog):
        rng = np.random.default_rng(16)
        src, tgt = random_instance(rng, 40, 40)
        with caplog.at_level(logging.DEBUG, logger="subcities"):
            solve_discrete_transport(src, tgt, 2.0)
            solve_discrete_transport(src, WeightedPointCloud([[0.5, 0.5]], [1.0]), 2.0)
        [message] = [r.getMessage() for r in caplog.records if "searches" in r.getMessage()]
        searches, augmentations = map(int, re.search(r"(\d+) searches, (\d+) augm", message).groups())
        assert message.startswith("transport 40x40:")
        assert 1 <= searches < augmentations  # some search served several short targets


class TestQuantization:
    def test_units_sum_to_denominator(self):
        for w in ([0.5 + 2e-9, 0.5 + 2e-9], [0.5 - 4e-9, 0.5 - 4e-9], [1e-12, 1.0 - 1e-12 + 9e-9]):
            units = quantize_to_units(np.array(w), DEFAULT_DENOMINATOR)
            assert units.sum() == DEFAULT_DENOMINATOR
            assert (units >= 0).all()
            assert np.abs(units / DEFAULT_DENOMINATOR - w).max() <= 1e-8

    def test_weights_off_unit_sum_solve(self):
        # weight sums of 1 +- 4e-9 are valid clouds; an overshoot left more
        # supply units than demand units and no augmenting path for the rest
        rng = np.random.default_rng(15)
        for _ in range(40):
            n, m = int(rng.integers(2, 60)), int(rng.integers(2, 5))
            ws = rng.random(n) + 0.05
            wt = rng.random(m) + 0.05
            scale = 1 + rng.choice([-4e-9, 4e-9])
            src = WeightedPointCloud(rng.random((n, 2)), ws / ws.sum() * scale)
            tgt = WeightedPointCloud(rng.random((m, 2)), wt / wt.sum())
            plan = solve_discrete_transport(src, tgt, 2.0)
            for cloud in (src, tgt):
                units = quantize_to_units(cloud.weights, DEFAULT_DENOMINATOR)
                assert units.sum() == DEFAULT_DENOMINATOR
            assert abs(plan.flow_mass.sum() - 1.0) <= 1e-12
            assert max(plan.marginal_residuals()) <= 1e-8


class TestWasserstein:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(3)
        src, _ = random_instance(rng, 5, 5)
        assert wasserstein(src, src, 1.5) == pytest.approx(0.0, abs=1e-12)

    def test_diracs_independent_of_p(self):
        a = WeightedPointCloud([[0.1, 0.1]], [1.0])
        b = WeightedPointCloud([[0.7, 0.9]], [1.0])
        d = np.hypot(0.6, 0.8)
        for p in (1.0, 1.5, 2.0, 3.0):
            assert wasserstein(a, b, p) == pytest.approx(d)

    def test_metric_inequality_sample(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            dim = int(rng.integers(1, 3))
            src, tgt = random_instance(rng, int(rng.integers(2, 12)), int(rng.integers(2, 12)), dim)
            p = float(rng.uniform(1.05, 3.0))
            diameter = np.sqrt(dim)
            w1 = wasserstein(src, tgt, 1.0)
            wp = wasserstein(src, tgt, p)
            assert w1 <= wp + 1e-9
            assert wp <= diameter ** (1 - 1 / p) * w1 ** (1 / p) + 1e-9

    def test_p_to_one_value_convergence(self):
        # diameter <= 1 makes |T_p - T_1| monotone in the sweep
        rng = np.random.default_rng(11)
        for _ in range(3):
            src, tgt = random_instance(rng, 10, 8, dim=1, scale=0.95)
            t1 = solve_discrete_transport(src, tgt, 1.0).total_cost
            gaps = [
                abs(solve_discrete_transport(src, tgt, p).total_cost - t1)
                for p in (2.0, 1.5, 1.1, 1.01)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] <= 0.05 * max(gaps[0], 1e-12) + 1e-9


class TestCTransform:
    def test_zero_values_self_cloud(self):
        pts = np.array([[0.0], [0.4], [1.0]])
        out = c_transform(pts, np.zeros(3), pts, 2.0)
        assert np.allclose(out, 0.0)

    def test_single_source_point(self):
        out = c_transform([[0.2]], [0.7], [[0.9]], 2.0)
        assert out[0] == pytest.approx(0.7**2 - 0.7)

    def test_double_transform_bounds(self):
        rng = np.random.default_rng(5)
        xs = rng.random((8, 2))
        ys = rng.random((6, 2))
        chi = rng.normal(size=8)
        chic = c_transform(xs, chi, ys, 2.0)
        chicc = c_transform(ys, chic, xs, 2.0)
        assert (chicc >= chi - 1e-12).all()
        chiccc = c_transform(xs, chicc, ys, 2.0)
        assert np.allclose(chiccc, chic, atol=1e-12)

    def test_order_reversing_and_lipschitz(self):
        rng = np.random.default_rng(6)
        xs = rng.random((10, 1))
        ys = rng.random((7, 1))
        chi = rng.normal(size=10)
        xi = chi + rng.random(10)  # xi >= chi pointwise
        chic = c_transform(xs, chi, ys, 1.5)
        xic = c_transform(xs, xi, ys, 1.5)
        assert (xic <= chic + 1e-12).all()
        assert np.abs(chic - xic).max() <= np.abs(chi - xi).max() + 1e-12

    def test_empty_raises(self):
        with pytest.raises(EmptyCloud):
            c_transform(np.empty((0, 1)), np.empty(0), [[0.5]], 2.0)


class TestPotentials:
    def test_identity_plan_zero(self):
        pts = np.array([[0.1], [0.5], [0.9]])
        cloud = WeightedPointCloud(pts, [0.2, 0.3, 0.5])
        plan = solve_discrete_transport(cloud, cloud, 2.0)
        assert np.allclose(plan.dual_psi, 0.0, atol=1e-12)
        assert np.allclose(plan.dual_psi_c, 0.0, atol=1e-12)

    def test_two_point_duality_value(self):
        src = WeightedPointCloud([[0.0], [1.0]], [0.5, 0.5])
        tgt = WeightedPointCloud([[0.5]], [1.0])
        plan = solve_discrete_transport(src, tgt, 1.0)
        dual = src.weights @ plan.dual_psi + tgt.weights @ plan.dual_psi_c
        assert dual == pytest.approx(0.5, abs=1e-12)

    def test_random_instances_certified(self):
        rng = np.random.default_rng(9)
        for _ in range(6):
            src, tgt = random_instance(rng, 10, 10)
            p = float(rng.choice([1.0, 2.0]))
            plan = solve_discrete_transport(src, tgt, p)
            psi, psi_c = plan.dual_psi, plan.dual_psi_c
            cost = np.linalg.norm(
                src.points[:, None] - tgt.points[None, :], axis=2
            ) ** p
            # feasibility everywhere, tightness on the support
            assert (psi[:, None] + psi_c[None, :] - cost).max() <= 1e-9
            for i, j, _ in plan.flows:
                assert psi[i] + psi_c[j] == pytest.approx(cost[i, j], abs=1e-8)
            dual = src.weights @ psi + tgt.weights @ psi_c
            assert abs(dual - plan.total_cost) <= 1e-8


def test_plan_csv_dump(tmp_path):
    src = WeightedPointCloud([[0.0], [1.0]], [0.5, 0.5])
    tgt = WeightedPointCloud([[0.5]], [1.0])
    plan = solve_discrete_transport(src, tgt, 1.0)
    path = tmp_path / "plan.csv"
    plan.dump_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,mass"
    assert len(lines) == 3


def test_flows_and_csv_match_per_element_formatting(tmp_path):
    # each flow is (int, int, float) and each CSV line repr's the float,
    # exactly as formatting the numpy elements one by one does
    rng = np.random.default_rng(3)
    src, tgt = random_instance(rng, 60, 4)
    plan = solve_discrete_transport(src, tgt, 2.0)
    expected = [
        (int(i), int(j), float(m))
        for i, j, m in zip(plan.flow_i, plan.flow_j, plan.flow_mass)
    ]
    assert plan.flows == expected
    assert all(type(v) is t for row in plan.flows for v, t in zip(row, (int, int, float)))
    path = tmp_path / "plan.csv"
    plan.dump_csv(path)
    lines = ["i,j,mass"] + [f"{i},{j},{m!r}" for i, j, m in expected]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

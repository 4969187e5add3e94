"""Cross-check of the exact transport solver against scipy's HiGHS LP.

Every weight is a multiple of 1/1000, so the solver's integer mass units
represent both marginals exactly and both solvers solve the same LP. Shapes
cover tall n x k clouds (the production shape), their transposes, square
instances, and degenerate ties, each at p in {1, 1.5, 2}; the tall
instances are also solved from target prices. Random points
make the tall, wide and square instances tie-free, so their optimal plan is
unique and the whole flow matrix is compared, not only the optimal value.
"""

import numpy as np
import pytest

from subcities import WeightedPointCloud, solve_discrete_transport

optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")

EXPONENTS = (1.0, 1.5, 2.0)
GAP_TOL = 1e-8  # acceptance criterion 1
MARGINAL_TOL = 1e-9
FEASIBILITY_TOL = 1e-9


def lattice_weights(rng, n):
    """n positive weights on the 1/1000 lattice summing to 1."""
    counts = 1 + rng.multinomial(1000 - n, rng.dirichlet(np.ones(n)))
    return counts / 1000.0


def cloud(rng, points):
    points = np.asarray(points, dtype=float)
    return WeightedPointCloud(points, lattice_weights(rng, len(points)))


def cost_matrix(src, tgt, p):
    return np.linalg.norm(src.points[:, None, :] - tgt.points[None, :, :], axis=2) ** p


def highs_solve(src, tgt, cost):
    n, m = cost.shape
    rows = sparse.kron(sparse.identity(n), np.ones((1, m)))
    cols = sparse.kron(np.ones((1, n)), sparse.identity(m))
    res = optimize.linprog(
        cost.ravel(),
        A_eq=sparse.vstack([rows, cols]).tocsr(),
        b_eq=np.concatenate([src.weights, tgt.weights]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun, res.x.reshape(n, m)


def assert_matches_highs(src, tgt, p, unique=False, prices=None):
    """Same optimal value as HiGHS; with ``unique`` (a tie-free instance,
    whose optimal plan is unique) also the same plan. ``prices`` warm-start
    the solve."""
    plan = solve_discrete_transport(src, tgt, p, prices)
    cost = cost_matrix(src, tgt, p)
    fun, x = highs_solve(src, tgt, cost)
    assert abs(plan.total_cost - fun) <= 1e-9 * (1.0 + abs(fun))
    if unique:
        flow = np.zeros(cost.shape)
        flow[plan.flow_i, plan.flow_j] = plan.flow_mass
        assert np.abs(flow - x).max() <= 1e-9
    dual = src.weights @ plan.dual_psi + tgt.weights @ plan.dual_psi_c
    assert abs(plan.total_cost - dual) <= GAP_TOL
    assert max(plan.marginal_residuals()) <= MARGINAL_TOL
    assert (plan.dual_psi[:, None] + plan.dual_psi_c[None, :] - cost).max() <= FEASIBILITY_TOL


def tall_case(k, seed):
    rng = np.random.default_rng(seed)
    return cloud(rng, rng.random((48, 2))), cloud(rng, rng.random((k, 2)))


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_tall(k, p):
    src, tgt = tall_case(k, seed=100 + k)
    assert_matches_highs(src, tgt, p, unique=True)


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_tall_warm_started(k, p):
    """Any target prices give the optimal plan: random ones, the cold
    solve's own dual prices (power cells that hold the target weights) and
    those prices perturbed, as a weight solve's residual leaves them."""
    src, tgt = tall_case(k, seed=100 + k)
    rng = np.random.default_rng(500 + k)
    scale = cost_matrix(src, tgt, p).max()
    cold = solve_discrete_transport(src, tgt, p)
    for prices in (
        rng.uniform(-scale, scale, k),
        cold.dual_psi_c,
        cold.dual_psi_c + rng.normal(scale=1e-3 * scale, size=k),
    ):
        assert_matches_highs(src, tgt, p, unique=True, prices=prices)
    # no prices is the zero-price start, bit for bit
    zero = solve_discrete_transport(src, tgt, p, np.zeros(k))
    for name in ("flow_i", "flow_j", "flow_mass", "dual_psi", "dual_psi_c"):
        assert np.array_equal(getattr(cold, name), getattr(zero, name))
    assert cold.total_cost == zero.total_cost


def test_wide_ignores_prices():
    src, tgt = tall_case(3, seed=203)
    cold = solve_discrete_transport(tgt, src, 2.0)
    warm = solve_discrete_transport(tgt, src, 2.0, np.random.default_rng(0).random(len(src)))
    for name in ("flow_i", "flow_j", "flow_mass", "dual_psi", "dual_psi_c"):
        assert np.array_equal(getattr(cold, name), getattr(warm, name))


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_wide(k, p):
    src, tgt = tall_case(k, seed=200 + k)
    assert_matches_highs(tgt, src, p, unique=True)


@pytest.mark.parametrize("p", EXPONENTS)
def test_square(p):
    rng = np.random.default_rng(300)
    assert_matches_highs(
        cloud(rng, rng.random((24, 2))), cloud(rng, rng.random((24, 2))), p, unique=True
    )


def duplicate_sources(rng):
    """Each source point appears three times; targets are distinct."""
    pts = np.repeat(rng.random((10, 2)), 3, axis=0)
    return cloud(rng, pts), cloud(rng, rng.random((4, 2)))


def equidistant_targets(rng):
    """Sources on the symmetry axis of mirrored target pairs."""
    src = np.column_stack([np.full(20, 0.5), rng.random(20)])
    ys = rng.random(3)
    tgt = np.concatenate(
        [np.column_stack([np.full(3, 0.2), ys]), np.column_stack([np.full(3, 0.8), ys])]
    )
    return cloud(rng, src), cloud(rng, tgt)


def collinear_lattice(rng):
    """1-D integer points: many equal costs, and many optimal plans at p = 1."""
    return cloud(rng, rng.integers(0, 6, (30, 1))), cloud(rng, rng.integers(0, 6, (30, 1)))


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("make", [duplicate_sources, equidistant_targets, collinear_lattice])
def test_degenerate_ties(make, p):
    src, tgt = make(np.random.default_rng(400))
    assert_matches_highs(src, tgt, p)
    assert_matches_highs(tgt, src, p)

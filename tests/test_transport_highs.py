"""Cross-check of the exact transport solver against scipy's HiGHS LP.

Every weight is a multiple of 1/1000 (1/10^6 for a weight solve's cells), so
the solver's integer mass units represent both marginals exactly and both
solvers solve the same LP. Shapes cover tall n x k clouds (the production
shape, up to 900 x 3 from the balanced cold start), their transposes, square
instances (up to 61 x 60, where one search tree serves several short
targets), and degenerate ties, each at p in {1, 1.5, 2}, and a weight
solve's tied run. Random points
make the tall, wide and square instances tie-free, so their optimal plan is
unique and the whole flow matrix is compared, not only the optimal value.
"""

import logging
import re

import numpy as np
import pytest

from subcities import (
    AtomicMeasure,
    Domain,
    Grid,
    WeightedPointCloud,
    density_from_weights,
    normalize,
    quadratic,
    solve_discrete_transport,
    solve_weights,
    to_point_cloud,
)
from subcities.discrete_transport import quantize_to_units

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


def assert_matches_highs(src, tgt, p, unique=False):
    """Same optimal value as HiGHS; with ``unique`` (a tie-free instance,
    whose optimal plan is unique) also the same plan."""
    plan = solve_discrete_transport(src, tgt, p)
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


def search_counts(caplog):
    """(searches, augmentations) of the one exact solve logged."""
    [message] = [r.getMessage() for r in caplog.records if "searches" in r.getMessage()]
    return tuple(map(int, re.search(r"(\d+) searches, (\d+) augm", message).groups()))


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
def test_wide(k, p):
    src, tgt = tall_case(k, seed=200 + k)
    assert_matches_highs(tgt, src, p, unique=True)


@pytest.mark.parametrize("p", EXPONENTS)
def test_square(p):
    rng = np.random.default_rng(300)
    assert_matches_highs(
        cloud(rng, rng.random((24, 2))), cloud(rng, rng.random((24, 2))), p, unique=True
    )


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("n, m", [(60, 60), (61, 60), (60, 61)])
def test_square_search_serves_several_targets(n, m, p, caplog):
    rng = np.random.default_rng(310 + n + 2 * m)
    src, tgt = cloud(rng, rng.random((n, 2))), cloud(rng, rng.random((m, 2)))
    with caplog.at_level(logging.DEBUG, logger="subcities"):
        assert_matches_highs(src, tgt, p, unique=True)
    searches, augmentations = search_counts(caplog)
    assert searches < augmentations


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("n, m", [(900, 3), (600, 5)])
def test_tall_cold_start_is_balanced(n, m, p, caplog):
    """A cold tall solve first prices every target near its demand, so a
    few searches finish it. From the nearest targets it made one search per
    source that had to move: 74-649 on 20 random instances of each shape and
    exponent, against at most 4 (900 x 3) and 13 (600 x 5) from the
    balanced start."""
    rng = np.random.default_rng(700 + n + m)
    src, tgt = cloud(rng, rng.random((n, 2))), cloud(rng, rng.random((m, 2)))
    with caplog.at_level(logging.DEBUG, logger="subcities"):
        assert_matches_highs(src, tgt, p, unique=True)
    searches, _ = search_counts(caplog)
    assert searches <= 3 * m


def on_lattice(weights, units=10**6):
    return quantize_to_units(weights, units) / units


def test_tied_run_moved_in_one_search(caplog):
    """The LP from a p = 1 weight solve's density in 1-D, cold: 512 cells
    and the four collinear atoms of benchmark seed 1's mu-023. Left of the
    first atom every pair of atoms' costs differs by a constant, so a run
    of cells ties between two atoms, and the optimum splits it. Each cell
    of the run moved leaves the run's exchange value as it was, so a search
    keeps augmenting along the same path: 7 searches make 25 augmentations,
    where augmenting once per short target and search takes 13 searches."""
    f = quadratic()
    atoms = AtomicMeasure(
        [[0.24099318117626756], [0.4108350275733299], [0.589943311653015], [0.7632397820405898]],
        [0.16256099226504633, 0.2106267140467498, 0.2768924480854562, 0.3499198456027476],
    )
    grid = Grid(Domain.box([(0.0, 1.0)]), 512)
    weights = solve_weights(atoms, f, 1.0, grid, tol=1.2e-3)
    assert len(weights.split[0]) > 100  # the weight solve shares the tied run
    cells = to_point_cloud(normalize(density_from_weights(atoms, weights, f, 1.0, grid)))
    src = WeightedPointCloud(cells.points, on_lattice(cells.weights))
    tgt = WeightedPointCloud(atoms.points, on_lattice(atoms.masses))
    with caplog.at_level(logging.DEBUG, logger="subcities"):
        assert_matches_highs(src, tgt, 1.0)
    searches, augmentations = search_counts(caplog)
    assert len(src) == 512
    assert searches <= 8 and augmentations >= 3 * searches


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


def collinear_lattice(rng, size=30):
    """1-D integer points: many equal costs, and many optimal plans at p = 1."""
    return cloud(rng, rng.integers(0, 6, (size, 1))), cloud(rng, rng.integers(0, 6, (size, 1)))


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("make", [duplicate_sources, equidistant_targets, collinear_lattice])
def test_degenerate_ties(make, p):
    src, tgt = make(np.random.default_rng(400))
    assert_matches_highs(src, tgt, p)
    assert_matches_highs(tgt, src, p)


@pytest.mark.parametrize("p", EXPONENTS)
def test_degenerate_ties_square_60(p):
    src, tgt = collinear_lattice(np.random.default_rng(401), 60)
    assert_matches_highs(src, tgt, p)
    assert_matches_highs(tgt, src, p)

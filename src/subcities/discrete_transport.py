"""Exact discrete transport: optimal couplings, costs, and dual potentials.

The solver is a successive-shortest-paths min-cost flow on the bipartite
transportation graph. Masses are rescaled to integer units (fixed
denominator 1e9) so flows are exact integers and marginals are met exactly in
quantized units; the quantization residual is reported on the plan. Node
potentials maintained by the algorithm provide an optimality certificate:
they are dual-feasible everywhere and complementary-slack on the support.

The flow starts from the cheapest assignment under optional target prices:
every source sends its whole supply to the target minimizing cost minus
price (its nearest target at zero prices), which is optimal for the
potentials it comes with. Successive shortest paths then move only the
excess, from the targets that received too much to those that received too
little, so a tall instance takes a few dozen augmentations instead of about
one per source, and a handful when the prices are the dual weights of a
weight solve. Each shortest-path search labels only the k nodes of the
smaller side (a wide instance is solved transposed). A path alternates
sides, so a label moves from one of those nodes to another back along one
of its flow edges and forward on a second edge of the same opposite-side
node; those exchange costs are taken over all opposite-side nodes at once
with numpy, for every node on the current smallest label together. This
suits the production shape: n grid cells against k atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCloud, NoConvergence, SubcitiesError, UnbalancedMasses
from .measures import WeightedPointCloud

DEFAULT_DENOMINATOR = 10**9
_COST_MATRIX_GUARD = 10**8  # no full pairwise matrix above 1e4 x 1e4 points


def _pairwise_cost(xs: np.ndarray, ys: np.ndarray, p: float) -> np.ndarray:
    if xs.shape[0] * ys.shape[0] > _COST_MATRIX_GUARD:
        raise SubcitiesError("instance exceeds the pairwise cost matrix guard")
    d = np.linalg.norm(xs[:, None, :] - ys[None, :, :], axis=2)
    return d**p


def quantize_to_units(weights: np.ndarray, denominator: int) -> np.ndarray:
    """Largest-remainder rounding to integer units summing to ``denominator``.

    Weights need only sum to 1 within the input tolerance: a shortfall adds
    units in order of the largest remainders, an overshoot takes them back
    in order of the smallest, a point at a time and never below zero.
    """
    w = np.asarray(weights, dtype=float)
    units = np.floor(w * denominator).astype(np.int64)
    short = int(denominator - units.sum())
    if short != 0:
        frac = w * denominator - units
        order = np.lexsort((np.arange(len(w)), -frac))
        while short > 0:
            give = order[:short]
            units[give] += 1
            short -= len(give)
        smallest = order[::-1]
        while short < 0:
            take = smallest[units[smallest] > 0][:-short]
            units[take] -= 1
            short += len(take)
    return units


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """An optimal coupling between two weighted point clouds."""

    source: WeightedPointCloud
    target: WeightedPointCloud
    flow_i: np.ndarray
    flow_j: np.ndarray
    flow_mass: np.ndarray
    cost_exponent: float
    total_cost: float
    quantization_residual: float
    dual_psi: np.ndarray
    dual_psi_c: np.ndarray

    @property
    def flows(self) -> list[tuple[int, int, float]]:
        return list(zip(self.flow_i.tolist(), self.flow_j.tolist(), self.flow_mass.tolist()))

    def marginal_residuals(self) -> tuple[float, float]:
        rows = np.zeros(len(self.source))
        cols = np.zeros(len(self.target))
        np.add.at(rows, self.flow_i, self.flow_mass)
        np.add.at(cols, self.flow_j, self.flow_mass)
        return (
            float(np.abs(rows - self.source.weights).max()),
            float(np.abs(cols - self.target.weights).max()),
        )

    def dump_csv(self, path) -> None:
        lines = ["i,j,mass"]
        lines += [f"{i},{j},{m!r}" for i, j, m in self.flows]
        from pathlib import Path

        Path(path).write_text("\n".join(lines) + "\n")


def _ssp(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray, prices=None):
    """Successive shortest paths from the cheapest assignment under ``prices``.

    Returns a dense integer flow matrix plus potentials (psi, psi_c)
    satisfying psi_i + psi_c_j <= c_ij with equality on every flow-carrying
    pair. Target j starts at potential phi_t_j = prices_j (0 without
    prices), and every source first sends its whole supply to the first
    ``argmin`` of its row of reduced = c - prices, with phi_s_i = -min_j
    reduced_ij. Every reduced cost c_ij + phi_s_i - phi_t_j is then
    nonnegative, and zero on every flow edge, whatever the prices, so they
    only decide where the search starts: with zero prices each source goes
    to its nearest target, with the dual weights of a converged weight solve
    to its power-cell winner, which leaves only the mass residual to move.
    Each round moves excess from the targets that received more than their
    demand to one that received less, along a shortest path of exchanges
    between targets (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 9).
    Shortest paths are labelled on the smaller side only; a wide instance is
    solved transposed from zero prices and its potentials swapped back.
    """
    n, m = cost.shape
    if n < m:
        flow, psi_c, psi = _ssp(cost.T, demand, supply)
        return flow.T, psi, psi_c
    phi_t = np.zeros(m) if prices is None else np.array(prices, dtype=float)
    reduced = cost - phi_t
    nearest = reduced.argmin(axis=1)
    phi_s = -reduced[np.arange(n), nearest]
    flow = np.zeros((n, m), dtype=np.int64, order="F")  # columns are scanned
    flow[np.arange(n), nearest] = supply
    excess = flow.sum(axis=0) - demand
    cols = np.arange(m)
    rounds = 0
    while (excess > 0).any():
        rounds += 1
        if rounds > 50 * (n + m) + 1000:
            raise NoConvergence("augmentation guard tripped in transport solve")
        # Dijkstra over the targets from every target with excess, at
        # distance 0: a label reaches target j' from a settled target j back
        # along one of j's flow edges (i, j) and forward on (i, j'). ``key``
        # holds tentative labels of unsettled targets, ``dist`` the settled
        # ones; sources get their labels on the way. All targets on the
        # smallest label are settled together (zero-cost exchanges make many
        # of them share label 0), and the search stops at a level holding a
        # target short of its demand.
        key = np.where(excess > 0, 0.0, np.inf)
        pred_src = np.full(m, -1, dtype=np.int64)
        pred_tgt = np.full(m, -1, dtype=np.int64)
        dist = np.full(m, np.inf)
        unsettled = np.ones(m, dtype=bool)
        dist_s = np.full(n, np.inf)
        while True:
            d = key.min()
            if d == np.inf:
                raise NoConvergence("no augmenting path found in transport solve")
            level = np.flatnonzero(key == d)
            dist[level] = d
            key[level] = np.inf
            unsettled[level] = False
            short = level[excess[level] < 0]
            if len(short):
                break
            rows, at = np.nonzero(flow[:, level])
            if len(rows) == 0:
                continue
            via_tgt = level[at]
            via = d + np.maximum(phi_t[via_tgt] - phi_s[rows] - cost[rows, via_tgt], 0.0)
            np.minimum.at(dist_s, rows, via)
            cand = via[:, None] + np.maximum(
                cost[rows] + (phi_s[rows, None] - phi_t), 0.0
            )
            best = cand.argmin(axis=0)
            nd = cand[best, cols]
            better = (nd < key) & unsettled
            key[better] = nd[better]
            pred_src[better] = rows[best[better]]
            pred_tgt[better] = via_tgt[best[better]]
        # potential update keeps reduced costs nonnegative; unsettled nodes
        # sit at d or beyond
        if d > 0.0:
            phi_s += np.minimum(dist_s, d)
            phi_t += np.minimum(dist, d)
        # trace the path back to a target with excess, find the bottleneck,
        # apply
        t_star = j = int(short[0])
        path = []
        while pred_tgt[j] >= 0:
            path.append((int(pred_src[j]), j, int(pred_tgt[j])))
            j = int(pred_tgt[j])
        delta = min(int(excess[j]), int(-excess[t_star]))
        for i, _, jb in path:
            delta = min(delta, int(flow[i, jb]))
        for i, jf, jb in path:
            flow[i, jf] += delta
            flow[i, jb] -= delta
        excess[j] -= delta
        excess[t_star] += delta
    return flow, -phi_s, phi_t


def solve_discrete_transport(
    source: WeightedPointCloud,
    target: WeightedPointCloud,
    p: float,
    prices=None,
) -> TransportPlan:
    """Exactly optimal coupling for the finite transportation linear program.

    The returned ``total_cost`` equals W_p^p of the two clouds. Degenerate
    shapes (a single source or a single target) have a forced plan and are
    resolved directly without quantization. ``prices``, one per target,
    start the solve from the cheapest assignment under c - prices (see
    ``_ssp``); any prices give an optimal plan, and good ones (the dual
    weights of a weight solve) leave less to move. A wide instance (fewer
    sources than targets) is solved transposed and ignores them.
    """
    if len(source) == 0 or len(target) == 0:
        raise EmptyCloud("transport needs nonempty point clouds")
    if p < 1:
        raise ValueError("cost exponent p must be >= 1")
    if abs(source.weights.sum() - target.weights.sum()) > 1e-8:
        raise UnbalancedMasses("source and target masses differ")

    n, m = len(source), len(target)
    cost = _pairwise_cost(source.points, target.points, p)

    if m == 1 or n == 1:
        if m == 1:
            fi = np.arange(n)
            fj = np.zeros(n, dtype=np.int64)
            fmass = source.weights.copy()
            psi_c = np.array([float(cost[:, 0].min())])
            psi = cost[:, 0] - psi_c[0]
        else:
            fi = np.zeros(m, dtype=np.int64)
            fj = np.arange(m)
            fmass = target.weights.copy()
            psi = np.zeros(1)
            psi_c = cost[0, :].copy()
        total = float(cost[fi, fj] @ fmass)
        return TransportPlan(
            source, target, fi, fj, fmass, p, total, 0.0, psi, psi_c
        )

    supply = quantize_to_units(source.weights, DEFAULT_DENOMINATOR)
    demand = quantize_to_units(target.weights, DEFAULT_DENOMINATOR)
    q_res = max(
        float(np.abs(supply / DEFAULT_DENOMINATOR - source.weights).max()),
        float(np.abs(demand / DEFAULT_DENOMINATOR - target.weights).max()),
    )
    flow, psi, psi_c = _ssp(cost, supply, demand, prices)
    fi, fj = np.nonzero(flow)
    fmass = flow[fi, fj] / DEFAULT_DENOMINATOR
    total = float(cost[fi, fj] @ fmass)
    return TransportPlan(source, target, fi, fj, fmass, p, total, q_res, psi, psi_c)


def c_transform(points: np.ndarray, values: np.ndarray, opposite_points: np.ndarray, p: float) -> np.ndarray:
    """chi^c(y) = min over x of |x - y|^p - chi(x), exactly on the point set."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    opposite_points = np.atleast_2d(np.asarray(opposite_points, dtype=float))
    values = np.asarray(values, dtype=float)
    if len(points) == 0 or len(opposite_points) == 0:
        raise EmptyCloud("c-transform needs nonempty point sets")
    cost = _pairwise_cost(opposite_points, points, p)
    return (cost - values[None, :]).min(axis=1)


def wasserstein(source: WeightedPointCloud, target: WeightedPointCloud, p: float) -> float:
    """W_p distance: the p-th root of the optimal transport cost."""
    plan = solve_discrete_transport(source, target, p)
    return plan.total_cost ** (1.0 / p)

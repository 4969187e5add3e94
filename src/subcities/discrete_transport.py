"""Exact discrete transport: optimal couplings, costs, and dual potentials.

The solver is a primal-dual successive-shortest-paths min-cost flow on the
bipartite transportation graph. Masses are rescaled to integer units (fixed
denominator 1e9) so flows are exact integers and marginals are met exactly in
quantized units; the quantization residual is reported on the plan. The
returned potentials certify optimality: they are dual-feasible everywhere and
complementary-slack on the support.

The flow starts from the cheapest assignment under target prices (every
source on the target minimizing cost minus price), which in the production
shape, n points against k << n targets, a few coordinate sweeps first set
near each target's demand. It then moves only the excess, from the targets
that received too much to those short. Searches run over the k nodes of the
smaller side (a wide instance is solved transposed) through a k x k matrix
of the cheapest exchange between two of them via one node of the other
side; each search tree augments every short node it reaches while its path
stays tight.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyCloud, NoConvergence, SubcitiesError, UnbalancedMasses
from .measures import WeightedPointCloud

_log = logging.getLogger("subcities")

DEFAULT_DENOMINATOR = 10**9
_COST_MATRIX_GUARD = 10**8  # no full pairwise matrix above 1e4 x 1e4 points
_TALL = 16  # sources per target from which balancing (n m^2 work a sweep) pays
_BALANCE_SWEEPS = 3


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
        Path(path).write_text("\n".join(lines) + "\n")


def _exchange_row(cost: np.ndarray, flow: np.ndarray, j: int):
    """For every target j', min over the sources i on target j of
    c(i, j') - c(i, j), and the first source attaining it (-1 if j has none)."""
    rows = np.flatnonzero(flow[:, j])
    if len(rows) == 0:
        return np.inf, -1
    gain = cost[rows] - cost[rows, j][:, None]
    best = gain.argmin(axis=0)
    return gain[best, np.arange(cost.shape[1])], rows[best]


def _balance(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Target prices from Gauss-Seidel sweeps (Kitagawa, Merigot & Thibert
    2019; Bertsekas & Castanon 1989): source i leaves its cheapest other
    target for j once phi_j passes c_ij - min over k != j of (c_ik - phi_k),
    so phi_j goes between the two sorted thresholds where the cumulative
    supply crosses demand_j. Sweeps stop once every load is within one
    source's supply of its demand, or undo the first sweep that does not
    lower the total excess (a tied run of sources shares one threshold)."""
    best = np.inf
    for sweep in range(_BALANCE_SWEEPS + 1):
        reduced = cost - phi
        off = np.abs(np.bincount(reduced.argmin(axis=1), weights=supply, minlength=len(phi)) - demand)
        if off.sum() >= best:
            return kept
        best, kept = off.sum(), phi.copy()
        if off.max() <= supply.max() or sweep == _BALANCE_SWEEPS:
            return kept
        for j in range(len(phi)):
            reduced[:, j] = np.inf
            tau = cost[:, j] - reduced.min(axis=1)
            order = np.argsort(tau, kind="stable")
            r = np.clip(np.searchsorted(np.cumsum(supply[order]), demand[j], side="right"), 1, len(supply) - 1)
            phi[j] = 0.5 * (tau[order[r - 1]] + tau[order[r]])
            reduced[:, j] = cost[:, j] - phi[j]


def _ssp(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray):
    """Primal-dual successive shortest paths from the cheapest assignment.

    Returns a dense integer flow matrix and potentials (psi, psi_c) with
    psi_i + psi_c_j <= c_ij, equal on every flow-carrying pair. The target
    potentials phi start at 0, balanced (``_balance``) given ``_TALL``
    sources per target, and every source sends its whole supply to the
    first ``argmin`` of its row of c - phi; any phi keeps the solve exact. Every flow edge stays tight, so moving a
    unit from target j to j' through a source on j has reduced cost
    B[j, j'] + phi_j - phi_j' >= 0, where B[j, j'] = min over the sources i
    on j of c(i, j') - c(i, j) depends on the support only. Each search runs
    Bellman-Ford from every target with excess over these m x m costs,
    relaxing only the rows whose label improved, to a full shortest-path
    tree, adds its labels to phi, and augments along the tree path of every
    short target, nearest first (Ahuja, Magnanti & Orlin, *Network Flows*,
    1993, sections 9.7-9.8), again while each exchange on the path keeps its
    value at the search, so a tied run of sources moves in one search. A
    path can pass through one source twice, so the bottleneck is over net
    changes. psi is the c-transform of phi. A wide instance is solved
    transposed.
    """
    n, m = cost.shape
    if n < m:
        flow, psi_c, psi = _ssp(cost.T, demand, supply)
        return flow.T, psi, psi_c
    phi = np.zeros(m)
    if n >= _TALL * m:
        phi = _balance(cost, supply, demand, phi)
    nearest = (cost - phi).argmin(axis=1)
    flow = np.zeros((n, m), dtype=np.int64, order="F")  # columns are scanned
    flow[np.arange(n), nearest] = supply
    excess = flow.sum(axis=0) - demand
    exchange = np.empty((m, m))
    via = np.empty((m, m), dtype=np.int64)  # the source each exchange runs through
    for j in range(m):
        exchange[j], via[j] = _exchange_row(cost, flow, j)
    cols = np.arange(m)
    searches = augmentations = 0
    while (excess > 0).any():
        searches += 1
        if searches > 50 * (n + m) + 1000:
            raise NoConvergence("augmentation guard tripped in transport solve")
        # every target is reached: a target with excess holds a source, and
        # a source can exchange toward every target
        reduced = np.maximum(exchange + (phi[:, None] - phi), 0.0)
        dist = np.where(excess > 0, 0.0, np.inf)
        pred = np.full(m, -1)
        improved = np.flatnonzero(excess > 0)
        while len(improved):
            cand = dist[improved, None] + reduced[improved]
            best = cand.argmin(axis=0)
            nd = cand[best, cols]
            better = nd < dist
            dist[better] = nd[better]
            pred[better] = improved[best[better]]
            improved = np.flatnonzero(better)
        phi += dist
        tight = exchange[pred, cols]  # each tree edge's exchange cost
        short = np.flatnonzero(excess < 0)
        for t in short[np.argsort(dist[short], kind="stable")]:
            while excess[t] < 0:
                path, j = [], t
                while pred[j] >= 0 and exchange[pred[j], j] == tight[j]:
                    path.append((via[pred[j], j], j, pred[j]))
                    j = pred[j]
                if pred[j] >= 0 or excess[j] <= 0:
                    break
                net = {}
                for i, jf, jb in path:
                    net[i, jf] = net.get((i, jf), 0) + 1
                    net[i, jb] = net.get((i, jb), 0) - 1
                drops = [int(flow[c]) for c, step in net.items() if step < 0]
                delta = min([int(excess[j]), int(-excess[t])] + drops)
                for (i, jj), step in net.items():
                    flow[i, jj] += step * delta
                    if flow[i, jj] == 0:
                        exchange[jj], via[jj] = _exchange_row(cost, flow, jj)
                    elif step > 0:
                        gain = cost[i] - cost[i, jj]
                        lower = gain < exchange[jj]
                        exchange[jj, lower] = gain[lower]
                        via[jj, lower] = i
                excess[j] -= delta
                excess[t] += delta
                augmentations += 1
    _log.debug("transport %dx%d: %d searches, %d augmentations", n, m, searches, augmentations)
    return flow, (cost - phi).min(axis=1), phi


def solve_discrete_transport(
    source: WeightedPointCloud,
    target: WeightedPointCloud,
    p: float,
) -> TransportPlan:
    """Exactly optimal coupling for the finite transportation linear program.

    The returned ``total_cost`` equals W_p^p of the two clouds. Degenerate
    shapes (a single source or a single target) have a forced plan and are
    resolved directly without quantization. The solve starts from the
    cheapest assignment under target prices that a tall instance first
    balances against the target weights (see ``_ssp``); a wide instance
    (fewer sources than targets) is solved transposed.
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
    flow, psi, psi_c = _ssp(cost, supply, demand)
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

"""Brute-force ground truth on desk-size instances.

Candidate atomic measures are enumerated over site subsets and a quantized
mass simplex; for each candidate, the best density is found as a smooth
convex program over the transport-plan polytope (the spread penalty is a
separable convex function of the plan's row sums). This module is a test
fixture: every limit is guarded, nothing here is meant to scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import IncompatibleGrids, SearchSpaceTooLarge
from .functionals import ConcentrationFamily, FunctionFamily
from .measures import AtomicMeasure, Grid, GridDensity
from .planner import PlanSolution

_MAX_CELLS = 64
_MAX_SITES = 8
_MAX_CONFIGURATIONS = 10**7


def _compositions(total: int, parts: int):
    """Positive integer compositions of ``total`` into ``parts`` parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _n_compositions(total: int, parts: int) -> int:
    from math import comb

    return comb(total - 1, parts - 1)


@dataclass(frozen=True, eq=False)
class BruteForceInstance:
    """A guarded tiny instance of the full two-measure problem."""

    grid: Grid
    candidate_sites: np.ndarray
    f: FunctionFamily
    g: ConcentrationFamily
    p: float
    mass_units: int = 20

    def __post_init__(self):
        sites = np.atleast_2d(np.asarray(self.candidate_sites, dtype=float))
        object.__setattr__(self, "candidate_sites", sites)
        if self.grid.n_cells > _MAX_CELLS:
            raise SearchSpaceTooLarge(f"grid has {self.grid.n_cells} cells > {_MAX_CELLS}")
        if len(sites) > _MAX_SITES:
            raise SearchSpaceTooLarge(f"{len(sites)} candidate sites > {_MAX_SITES}")
        if self.configurations > _MAX_CONFIGURATIONS:
            raise SearchSpaceTooLarge(f"{self.configurations} configurations")

    @property
    def configurations(self) -> int:
        from math import comb

        total = 0
        for k in range(1, len(self.candidate_sites) + 1):
            total += comb(len(self.candidate_sites), k) * _n_compositions(self.mass_units, k)
        return total


def _simplex_projection(x: np.ndarray, total=1.0) -> np.ndarray:
    """Euclidean projection of each row of x onto the simplex {y >= 0, sum y = total}.

    x is a (rows, k) array; ``total`` may be a scalar or one value per row.
    Every row gets exactly the arithmetic of projecting it alone.
    """
    u = np.sort(x, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - np.reshape(total, (-1, 1))
    above = u - css / (np.arange(x.shape[1]) + 1) > 0
    rho = x.shape[1] - 1 - np.argmax(above[:, ::-1], axis=1)  # last index above
    theta = css[np.arange(len(x)), rho] / (rho + 1.0)
    return np.maximum(x - theta[:, None], 0.0)


def _project_columns(pi: np.ndarray, col_sums: np.ndarray) -> np.ndarray:
    """Project each column onto its scaled simplex {x >= 0, sum x = a_j}."""
    return np.ascontiguousarray(_simplex_projection(pi.T, col_sums).T)


def best_density_for(
    nu: AtomicMeasure, grid: Grid, f: FunctionFamily, p: float, max_iter: int = 1500
):
    """Inner problem: minimize transport-plus-spread cost over the plan polytope.

    Accelerated projected gradient with backtracking on the plan variables;
    the column sums are pinned to the atom masses, the row sums define the
    free density. Returns (value, cell values).
    """
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
            cand = _project_columns(y - step * gr, a)
            diff = cand - y
            quad = v_y + float((gr * diff).sum()) + float((diff * diff).sum()) / (2 * step)
            v_cand = value(cand)
            if v_cand <= quad + 1e-14 * (1.0 + abs(v_cand)) or step < 1e-14:
                break
            step *= 0.5
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        y = cand + ((t_acc - 1.0) / t_next) * (cand - pi)
        if v_cand > val:  # restart acceleration on non-monotone step
            y = cand.copy()
            t_next = 1.0
        pi, t_acc = cand, t_next
        new_val = v_cand
        if new_val < best_val:
            best_val, best_pi = new_val, pi.copy()
        if abs(val - new_val) <= 1e-14 * (1.0 + abs(new_val)):
            break
        val = new_val
    rho = best_pi.sum(axis=1)
    return best_val, rho / vol


def brute_force_full(instance: BruteForceInstance):
    """Global discrete minimum over candidate atoms and quantized masses.

    Ties between candidate configurations break lexicographically on
    (atom count, site index tuple, mass composition). Returns the best
    density, the best atomic measure, and the optimal value.
    """
    sites = instance.candidate_sites
    units = instance.mass_units
    best = None
    for k in range(1, len(sites) + 1):
        for subset in combinations(range(len(sites)), k):
            pts = sites[list(subset)]
            for comp in _compositions(units, k):
                masses = np.array(comp, dtype=float) / units
                nu = AtomicMeasure(pts, masses)
                inner_val, u = best_density_for(nu, instance.grid, instance.f, instance.p)
                total = inner_val + float(instance.g.g(masses).sum())
                key = (total, k, subset, comp)
                if best is None or key < best[0]:
                    best = (key, nu, u)
    (total, _, _, _), nu, u = best
    mu = GridDensity(instance.grid, np.asarray(u).reshape(instance.grid.resolution))
    return mu, nu, float(total)


@dataclass(frozen=True, eq=False)
class CompareReport:
    """Outcome of comparing two plan solutions on a shared grid."""

    objective_gap: float
    density_l1_gap: float
    atom_pairs: list[tuple[int, int]]
    max_atom_distance: float
    max_mass_difference: float
    unmatched_atoms: int
    passed: bool
    tolerances: dict


def compare_solutions(
    a: PlanSolution,
    b: PlanSolution,
    objective_tol: float = 1e-6,
    density_tol: float = np.inf,
    atom_distance_tol: float = np.inf,
    mass_tol: float = np.inf,
) -> CompareReport:
    """Gap report between two solutions; atoms paired greedily by distance."""
    ga, gb = a.mu.grid, b.mu.grid
    if ga.resolution != gb.resolution or ga.domain.bounds != gb.domain.bounds:
        raise IncompatibleGrids("solutions live on different grids")
    objective_gap = abs(a.objective["total"] - b.objective["total"])
    density_gap = float(np.abs(a.mu.values - b.mu.values).sum() * ga.cell_volume)
    pa, pb = a.nu.points, b.nu.points
    ma, mb = a.nu.masses, b.nu.masses
    dist = np.linalg.norm(pa[:, None] - pb[None, :], axis=2)
    free_a = set(range(len(pa)))
    free_b = set(range(len(pb)))
    pairs = []
    max_d = 0.0
    max_dm = 0.0
    while free_a and free_b:
        i, j = min(((i, j) for i in free_a for j in free_b), key=lambda t: dist[t])
        pairs.append((i, j))
        max_d = max(max_d, float(dist[i, j]))
        max_dm = max(max_dm, float(abs(ma[i] - mb[j])))
        free_a.remove(i)
        free_b.remove(j)
    unmatched = len(free_a) + len(free_b)
    tol = {
        "objective": objective_tol,
        "density_l1": density_tol,
        "atom_distance": atom_distance_tol,
        "mass": mass_tol,
    }
    passed = (
        objective_gap <= objective_tol
        and density_gap <= density_tol
        and max_d <= atom_distance_tol
        and max_dm <= mass_tol
        and unmatched == 0
    )
    return CompareReport(
        objective_gap=objective_gap,
        density_l1_gap=density_gap,
        atom_pairs=pairs,
        max_atom_distance=max_d,
        max_mass_difference=max_dm,
        unmatched_atoms=unmatched,
        passed=passed,
        tolerances=tol,
    )

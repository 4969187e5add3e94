"""Brute-force ground truth on desk-size instances.

Candidate atomic measures are enumerated over site subsets and a quantized
mass simplex; for each candidate, the best density is found as a smooth
convex program over the transport-plan polytope (the spread penalty is a
separable convex function of the plan's row sums), and the programs of all
mass compositions of one site subset are solved together in one batch. This
module is a test fixture: every limit is guarded, nothing here is meant to scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import DimensionMismatch, IncompatibleGrids, SearchSpaceTooLarge
from .functionals import ConcentrationFamily, FunctionFamily
from .measures import AtomicMeasure, Grid, GridDensity
from .planner import PlanSolution

_MAX_CELLS = 64
_MAX_SITES = 8
_MAX_CONFIGURATIONS = 10**7
# rows x cells x atoms per lock-step pass of the inner solve: a temporary stays
# near 256 KiB however many mass compositions a site subset has
_ROW_BUDGET = 2**15
_MAX_ITER = 1500  # FISTA iterations per inner solve


def _compositions(total: int, parts: int):
    """Positive integer compositions of ``total`` into ``parts`` parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


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
        if sites.ndim != 2 or sites.shape[1] != self.grid.domain.dim:
            raise DimensionMismatch(f"sites of shape {sites.shape} on a {self.grid.domain.dim}-D grid")
        if len(np.unique(sites, axis=0)) != len(sites):
            raise ValueError("candidate sites must be pairwise distinct")
        if self.mass_units < 1:
            raise ValueError(f"mass_units must be >= 1, got {self.mass_units}")
        if self.grid.n_cells > _MAX_CELLS:
            raise SearchSpaceTooLarge(f"grid has {self.grid.n_cells} cells > {_MAX_CELLS}")
        if len(sites) > _MAX_SITES:
            raise SearchSpaceTooLarge(f"{len(sites)} candidate sites > {_MAX_SITES}")
        if self.configurations > _MAX_CONFIGURATIONS:
            raise SearchSpaceTooLarge(f"{self.configurations} configurations")

    @property
    def configurations(self) -> int:
        total = 0
        for k in range(1, len(self.candidate_sites) + 1):
            total += comb(len(self.candidate_sites), k) * comb(self.mass_units - 1, k - 1)
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
    """Project column j of plan b, pi (B, cells, atoms), onto {x >= 0, sum x = a_bj}."""
    rows, n, k = pi.shape
    cols = _simplex_projection(pi.transpose(0, 2, 1).reshape(-1, n), col_sums.ravel())
    return np.ascontiguousarray(cols.reshape(rows, k, n).transpose(0, 2, 1))


def best_density_for(nu, grid: Grid, f: FunctionFamily, p: float, masses=None):
    """Inner problem: minimize transport-plus-spread cost over the plan polytope.

    Accelerated projected gradient (FISTA with backtracking and restart,
    Beck & Teboulle 2009) on the plan variables; the column sums are pinned
    to the atom masses, the row sums define the free density. ``nu`` is one
    ``AtomicMeasure``, giving (value, cell values), or a sequence of measures
    with one atom count, giving an array of values and one row of cell values
    per measure. With ``masses``, a (measures, atoms) array, ``nu`` is the
    (atoms, dim) array of points they share, and each row is solved as the
    measure of those points and that row's masses. The measures are solved
    in lock-step passes of at most ``_ROW_BUDGET`` rows x cells x atoms.
    Each row keeps its own step, momentum, restart, best iterate and stop
    test and leaves its pass when that test fires; its sums run over its
    own contiguous block and ``f`` sees raveled 1-D densities, so every row
    is bit for bit what it gives alone.
    """
    if masses is not None:
        points = np.broadcast_to(np.asarray(nu, dtype=float), (len(masses),) + np.shape(nu))
        masses = np.asarray(masses, dtype=float)
    else:
        measures = [nu] if isinstance(nu, AtomicMeasure) else list(nu)
        points = np.stack([m.points for m in measures])
        masses = np.stack([m.masses for m in measures])
    centers = grid.cell_centers()
    per_pass = max(1, _ROW_BUDGET // (len(centers) * masses.shape[1]))
    passes = []
    for start in range(0, len(masses), per_pass):
        part = points[start : start + per_pass]
        cost = np.linalg.norm(centers[None, :, None, :] - part[:, None, :, :], axis=3) ** p
        passes.append(_lock_step_fista(cost, masses[start : start + per_pass], grid.cell_volume, f))
    values, densities = (np.concatenate(out) for out in zip(*passes))
    if isinstance(nu, AtomicMeasure):
        return float(values[0]), densities[0]
    return values, densities


def _lock_step_fista(cost, a, vol, f):
    """Values and densities of ``best_density_for`` for (B, cells, atoms) costs."""
    rows, n, _ = cost.shape

    def value(pi, cost):
        rho = pi.sum(axis=2) / vol
        return (pi * cost).sum(axis=(1, 2)) + f.f(rho.ravel()).reshape(rho.shape).sum(axis=1) * vol

    def trial(idx):
        """Project a step from y for rows ``idx``; True where its Armijo test fails."""
        y_t, gr_t, step_t = y[idx], gr[idx], step[idx]
        c = _project_columns(y_t - step_t[:, None, None] * gr_t, a[idx])
        diff = c - y_t
        quad = v_y[idx] + (gr_t * diff).sum(axis=(1, 2)) + (diff * diff).sum(axis=(1, 2)) / (2 * step_t)
        cand[idx], v_cand[idx] = c, value(c, cost[idx])
        return ~((v_cand[idx] <= quad + 1e-14 * (1.0 + np.abs(v_cand[idx]))) | (step_t < 1e-14))

    pi = np.full(n, 1.0 / n)[None, :, None] * a[:, None, :]
    step = np.full(rows, vol * max(float(f.k_prime(np.array([1.0]))[0]), 1e-3))
    y, t_acc = pi.copy(), np.ones(rows)
    val = value(pi, cost)
    best_val, best_pi = val.copy(), pi.copy()
    live = np.arange(rows)  # input row of each row still iterating
    out_val, out_u = np.empty(rows), np.empty((rows, n))
    for _ in range(_MAX_ITER):
        rho = y.sum(axis=2) / vol
        gr = cost + f.f_prime(rho.ravel()).reshape(rho.shape)[:, :, None]
        v_y = value(y, cost)
        step *= 1.3
        cand, v_cand = np.empty_like(y), np.empty(len(y))
        todo = np.flatnonzero(trial(slice(None)))
        while todo.size:
            step[todo] *= 0.5
            todo = todo[trial(todo)]
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        y = cand + ((t_acc - 1.0) / t_next)[:, None, None] * (cand - pi)
        restart = v_cand > val  # restart acceleration on non-monotone step
        y[restart], t_next[restart] = cand[restart], 1.0
        pi, t_acc = cand, t_next
        better = v_cand < best_val
        best_val[better], best_pi[better] = v_cand[better], pi[better]
        done = np.abs(val - v_cand) <= 1e-14 * (1.0 + np.abs(v_cand))
        val = v_cand
        if done.any():
            out_val[live[done]], out_u[live[done]] = best_val[done], best_pi[done].sum(axis=2) / vol
            live, pi, y, cost, a, step, t_acc, val, best_val, best_pi = (
                x[~done] for x in (live, pi, y, cost, a, step, t_acc, val, best_val, best_pi)
            )
            if not live.size:
                break
    out_val[live], out_u[live] = best_val, best_pi.sum(axis=2) / vol
    return out_val, out_u


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
            comps = list(_compositions(units, k))
            masses = np.array(comps, dtype=float) / units
            values, densities = best_density_for(pts, instance.grid, instance.f, instance.p, masses)
            for comp, row, inner_val, u in zip(comps, masses, values, densities):
                total = float(inner_val) + float(instance.g.g(row).sum())
                key = (total, k, subset, comp)
                if best is None or key < best[0]:
                    best = (key, pts, row, u)
    (total, _, _, _), pts, row, u = best
    mu = GridDensity(instance.grid, np.asarray(u).reshape(instance.grid.resolution))
    return mu, AtomicMeasure(pts, row), float(total)


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


def compare_solutions(
    a: PlanSolution,
    b: PlanSolution,
    objective_tol: float = 1e-6,
) -> CompareReport:
    """Gap report between two solutions; atoms paired greedily by distance.

    It passes when the objective gap is within ``objective_tol`` and every
    atom is paired.
    """
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
    passed = objective_gap <= objective_tol and unmatched == 0
    return CompareReport(
        objective_gap=objective_gap,
        density_l1_gap=density_gap,
        atom_pairs=pairs,
        max_atom_distance=max_d,
        max_mass_difference=max_dm,
        unmatched_atoms=unmatched,
        passed=passed,
    )

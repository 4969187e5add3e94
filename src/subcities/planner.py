"""Global planning: how many service poles, their masses, and their layout.

On all of R^n the problem collapses to choosing atom masses minimizing the
summed per-atom energy; atoms are then placed as disjoint balls. On a
bounded domain no closed structure is available, so an alternating
heuristic is provided: exact density re-solves against barycenter/median
position moves and local mass exchanges, accepting only improvements.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditionNotSatisfied, InvalidK, NotProbability, SubcitiesError
from .functionals import ConcentrationFamily, FunctionFamily, eval_F, eval_G
from .measures import AtomicMeasure, Domain, Grid, GridDensity
from .semidiscrete import (
    SubcityProfile,
    _density,
    _generic_radial,
    _induced_cost,
    _solve_weights_best,
    _transport_term,
    _Workspace,
    density_from_weights,
    induced_transport_cost,
    radial_power_integral,
    radius_of_mass,
    unit_ball_volume,
)
from .subcity import EnergyCurve, check_atomization_condition, subadditivity_threshold

_DISJOINT_GAP = 1.0 + 1e-6  # atom spacing in units of 2 * max radius
_DOMAIN_MARGIN = 0.35  # domain padding beyond the outer balls, in units of max radius


@dataclass(frozen=True, eq=False)
class PlanSolution:
    """A full (density, atoms) pair with its objective accounting."""

    mu: GridDensity
    nu: AtomicMeasure
    profiles: list[SubcityProfile]
    objective: dict
    metadata: dict = field(default_factory=dict)


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


def _on_entries(fn, x: np.ndarray, real: np.ndarray) -> np.ndarray:
    """fn of the entries of x flagged in ``real``, 0 elsewhere.

    Padding never reaches fn: on the quadrature route every entry costs a
    bisection of R(m).
    """
    out = np.zeros_like(x)
    out[real] = fn(x[real])
    return out


def _row_energies(curve: EnergyCurve, x: np.ndarray, real=None) -> np.ndarray:
    """The summed energy of the positive entries of every row of x.

    Each row's value is bit for bit ``np.sum(curve.energy(row[row > 0]))``
    (0 for a row with no positive entry). With ``real``, a row is only its
    flagged entries; the rest is padding and never reaches the curve.
    """
    k = x.shape[1]
    e = curve.energy(x) if real is None else _on_entries(curve.energy, x, real)
    if k < 8:
        # fewer than 8 terms are summed left to right, so zeros add nothing
        return e.sum(axis=1)
    # pairwise summation regroups once zeros sit between the positives, so
    # each row's positives move to the front, in order, and rows are summed
    # among those with as many positives
    pos = x > 0 if real is None else (x > 0) & real
    e = np.take_along_axis(e, np.argsort(~pos, axis=1, kind="stable"), axis=1)
    count = pos.sum(axis=1)
    sums = e[:, :7].sum(axis=1)
    for c in np.unique(count[count >= 8]):
        rows = np.nonzero(count == c)[0]
        sums[rows] = e[rows, :c].sum(axis=1)
    return sums


_PAD = -1e200  # a padded entry before projection: sorts last and projects to 0


def _projected_descent(
    curve: EnergyCurve, x0: np.ndarray, iters: int = 200, width=None
) -> np.ndarray:
    """Projected gradient descent with backtracking from every row of x0 (starts, K).

    Each start runs its own iterations (at most ``iters``) and line searches
    (at most 30 halvings of its step), exactly as it would alone; the starts
    advance in lock-step, one trial per live start per batched step, so the
    number of steps is the longest start's trial count. With ``width``, row
    i's start is its first width[i] entries: its padding enters each
    projection as a large negative value, so it leaves the row's threshold
    alone and ends at 0, and the curve never sees it.
    """
    n_rows, k = x0.shape
    width = np.full(n_rows, k) if width is None else np.asarray(width)
    real = np.arange(k) < width[:, None]
    x = _simplex_projection(np.where(real, x0, _PAD))
    val = _row_energies(curve, x, real)
    step = np.full(n_rows, 0.1)
    t = np.empty(n_rows)
    grad = np.empty_like(x)
    failed = np.zeros(n_rows, dtype=int)  # rejected trials in the current search
    its = np.zeros(n_rows, dtype=int)
    fresh = np.ones(n_rows, dtype=bool)  # starts a new iteration at this step
    live = np.arange(n_rows)
    while True:
        new = live[fresh[live]]
        if len(new):
            live = live[~fresh[live] | (its[live] < iters)]
            new = new[its[new] < iters]
            grad[new] = _on_entries(curve.denergy, np.maximum(x[new], 1e-9), real[new])
            t[new] = step[new]
            failed[new] = 0
            its[new] += 1
            fresh[new] = False
        if not len(live):
            return x
        x_try = _simplex_projection(
            np.where(real[live], x[live] - t[live, None] * grad[live], _PAD)
        )
        v_try = _row_energies(curve, x_try, real[live])
        ok = v_try < val[live] - 1e-15
        acc, rej = live[ok], live[~ok]
        x[acc], val[acc] = x_try[ok], v_try[ok]
        step[acc] = np.minimum(t[acc] * 2.0, 1.0)
        fresh[acc] = True
        t[rej] *= 0.5
        failed[rej] += 1
        live = live[ok | (failed[live] < 30)]


def _lattice_energies(curve: EnergyCurve, res: int = 200) -> np.ndarray:
    """E at the masses 0, 1/res, ..., 1 (E(0) = 0)."""
    table = np.asarray(curve.energy(np.arange(res + 1) / res), dtype=float)
    table[0] = 0.0
    return table


def _grid_search(table: np.ndarray, k: int):
    """Exhaustive search (k <= 3) on the mass lattice of ``_lattice_energies``.

    Scans the sorted splits i >= res - i (k = 2) or i <= j <= res - i - j
    (k = 3) in lexicographic order and keeps the first minimum.
    """
    res = len(table) - 1
    if k == 1:
        return np.array([1.0]), float(table[res])
    if k == 2:
        i = np.arange(res // 2, res + 1)
        parts = (i, res - i)
        v = table[i] + table[res - i]
    else:
        lat = np.arange(res + 1)
        i, j = np.nonzero((lat >= lat[:, None]) & (2 * lat <= res - lat[:, None]))
        parts = (i, j, res - i - j)
        v = table[i] + table[j] + table[res - i - j]
    best = int(np.argmin(v))
    masses = np.array(sorted((int(a[best]) for a in parts), reverse=True), dtype=float) / res
    return masses, float(v[best])


_BATCH_ENTRIES = 2**20  # rows x columns of one padded descent batch


def _descend_counts(curve: EnergyCurve, ks: list, seed: int, per: int) -> list:
    """The descended starts of every count in ks, from one padded batch."""
    starts = np.zeros((per * len(ks), max(ks)))
    for b, k in enumerate(ks):
        rng = np.random.default_rng(seed)
        block = starts[b * per : (b + 1) * per, :k]
        block[0] = 1.0 / k
        for s in range(1, per):
            block[s] = rng.dirichlet(np.ones(k))
    ends = _projected_descent(curve, starts, width=np.repeat(ks, per))
    return [ends[b * per : (b + 1) * per, :k] for b, k in enumerate(ks)]


def _optimize_counts(curve: EnergyCurve, ks, seed: int = 0, n_starts: int = 20):
    """``optimize_masses`` for every count in ks, descended in one batch.

    Count k's 1 + n_starts starts (the equal split, then Dirichlet draws
    from its own ``default_rng(seed)``) fill the first k columns of their
    rows; the batch is as wide as the largest count, and every row descends
    at its own width, so each count's result is the one it gets alone. Runs
    of consecutive counts are split into several batches only where one
    would exceed ``_BATCH_ENTRIES`` entries.
    """
    ks = list(ks)
    for k in ks:
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise InvalidK(f"k must be a positive integer, got {k!r}")
    per = 1 + n_starts
    ends, lo = [], 0
    while lo < len(ks):
        hi = lo + 1
        while hi < len(ks) and per * (hi + 1 - lo) * max(ks[lo : hi + 1]) <= _BATCH_ENTRIES:
            hi += 1
        ends += _descend_counts(curve, ks[lo:hi], seed, per)
        lo = hi
    table = _lattice_energies(curve) if min(ks) <= 3 else None
    results = []
    for k, descended in zip(ks, ends):
        # the equal split, the descended starts, then the lattice pick
        rows = [np.full((1, k), 1.0 / k), descended]
        if k <= 3:
            rows.append(_grid_search(table, k)[0][None, :])
        candidates = np.vstack(rows)
        values = _row_energies(curve, candidates, candidates > 0)
        best = 0
        for c in range(1, len(values)):
            if values[c] < values[best] - 1e-15:
                best = c
        results.append((np.sort(candidates[best])[::-1], float(values[best])))
    return results


def optimize_masses(curve: EnergyCurve, k: int, seed: int = 0, n_starts: int = 20):
    """Best mass split found for exactly k atoms (zeros allowed on the simplex).

    Combines the equal split, projected-gradient descent from the equal split
    and from seeded random starts, and (for k <= 3) an exhaustive 1/200
    lattice search. Returns (masses sorted descending, summed energy).
    """
    return _optimize_counts(curve, (k,), seed, n_starts)[0]


def solve_atomic_problem(
    f: FunctionFamily,
    g: ConcentrationFamily,
    p: float,
    n: int,
    k_max: int,
    seed: int = 0,
    curve: EnergyCurve | None = None,
):
    """Enumerate atom counts and mass splits minimizing the summed energy.

    The enumeration is capped by 1 + floor(2/m0) when the concavity
    threshold m0 is positive (merging sub-m0/2 atoms never helps); if the
    atomization condition fails, a warning is issued and k_max is used as
    the cap. Every count's mass split comes from one batched descent
    (``_optimize_counts``). Ties between counts go to the smaller k.
    """
    if k_max < 1:
        raise InvalidK("k_max must be >= 1")
    if curve is None:
        curve = EnergyCurve.build(f, g, p, n)
    report = check_atomization_condition(f, g, p, n)
    m0 = subadditivity_threshold(curve)
    if not report.satisfied:
        warnings.warn(
            "atomization condition not satisfied; capping the atom count "
            f"at k_max={k_max}",
            ConditionNotSatisfied,
        )
    k_hi = min(k_max, 1 + int(np.floor(2.0 / m0))) if m0 > 0 else k_max
    best = None
    for k, (masses, value) in enumerate(_optimize_counts(curve, range(1, k_hi + 1), seed), 1):
        if best is None or value < best[2] - 1e-12 * (1.0 + abs(best[2])):
            best = (k, masses, value)
    k_star, masses, value = best
    masses = masses[masses > 1e-12]
    return len(masses), masses, float(value)


def _ball_transport_cost(f: FunctionFamily, p: float, n: int, R: float) -> float:
    """Closed-form transport term of one ball: int k(R^p - r^p) r^p n w_n r^(n-1) dr."""
    if R <= 0:
        return 0.0
    nwn = n * unit_ball_volume(n)
    if f.is_power_shaped:
        return nwn * f.kappa * radial_power_integral(f.alpha, n + p, p, R)
    return nwn * _generic_radial(lambda r: f.k(R**p - r**p) * r**p, n, R)


def _layout_points(k: int, n: int, spacing: float, layout: str, origin) -> np.ndarray:
    pts = np.zeros((k, n))
    if layout == "grid" and n >= 2:
        side = int(np.ceil(np.sqrt(k)))
        for i in range(k):
            pts[i, 0] = (i % side) * spacing
            pts[i, 1] = (i // side) * spacing
    else:
        pts[:, 0] = np.arange(k) * spacing
    if origin is not None:
        pts += np.asarray(origin, dtype=float)
    return pts


def assemble_rn_solution(
    masses,
    f: FunctionFamily,
    g: ConcentrationFamily,
    p: float,
    n: int,
    layout: str = "line",
    resolution=None,
    origin=None,
) -> PlanSolution:
    """Materialize the unconstrained solution as disjoint balls.

    Atoms are spaced so every pairwise gap exceeds twice the uniform radius
    bound, which makes the per-ball profile construction exact. The
    transport term is reported both in closed form and through the discrete
    oracle (exact LP when affordable, certified induced plan otherwise).
    """
    masses = np.asarray(masses, dtype=float)
    if np.any(masses <= 0):
        raise NotProbability("assemble_rn_solution needs strictly positive masses")
    if abs(masses.sum() - 1.0) > 1e-8:
        raise NotProbability("masses must sum to 1")
    k = len(masses)
    radii = np.array([radius_of_mass(f, p, n, m) for m in masses])
    r_bar = radius_of_mass(f, p, n, 1.0)
    spacing = 2.0 * r_bar * _DISJOINT_GAP
    pts = _layout_points(k, n, spacing, layout, origin)
    pad = r_bar * (1.0 + _DOMAIN_MARGIN)
    lo = pts.min(axis=0) - pad
    hi = pts.max(axis=0) + pad
    domain = Domain.box(list(zip(lo, hi)))
    if resolution is None:
        per_rbar = 48 if n == 1 else 16
        resolution = tuple(
            max(8, int(np.ceil((hi[a] - lo[a]) / r_bar * per_rbar))) for a in range(n)
        )
    elif np.isscalar(resolution):
        resolution = (int(resolution),) * n
    grid = Grid(domain, tuple(resolution))
    atoms = AtomicMeasure(pts, masses)
    weights = radii**p
    density = density_from_weights(atoms, weights, f, p, grid)
    transport_closed = float(sum(_ball_transport_cost(f, p, n, R) for R in radii))
    f_term = eval_F(f, density)
    g_term = eval_G(g, atoms)
    oracle_cost, oracle_route, _ = _transport_term(
        atoms, density, p, lambda: induced_transport_cost(atoms, weights, f, p, grid)
    )
    objective = {
        "transport": transport_closed,
        "F": f_term,
        "G": g_term,
        "total": transport_closed + f_term + g_term,
        "transport_oracle": oracle_cost,
        "oracle_route": oracle_route,
    }
    profiles = [
        SubcityProfile(center=tuple(pt), mass=float(m), radius=float(R), weight=float(R**p))
        for pt, m, R in zip(pts, masses, radii)
    ]
    metadata = {"mode": "rn-assembly", "layout": layout, "heuristic": False}
    return PlanSolution(mu=density, nu=atoms, profiles=profiles, objective=objective, metadata=metadata)


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values)
    cum = np.cumsum(weights[order])
    cut = 0.5 * cum[-1]
    return float(values[order][np.searchsorted(cum, cut)])


def _position_candidates(ws, weights_c, p: float) -> np.ndarray:
    """Barycenter (p=2, default) or per-coordinate median (p=1) of each cell."""
    s, winner, u, cm = ws.stats(weights_c)
    active = s > 0
    pts = ws.atoms.points.copy()
    for i in range(ws.m):
        mask = active & (winner == i)
        if not mask.any() or cm[i] <= 0:
            continue
        w = u[mask] * ws.vol
        cells = ws.centers[mask]
        if p == 1.0:
            pts[i] = [_weighted_median(cells[:, a], w) for a in range(cells.shape[1])]
        else:
            pts[i] = (cells * w[:, None]).sum(axis=0) / w.sum()
    return pts


def solve_bounded(
    omega: Domain,
    f: FunctionFamily,
    g: ConcentrationFamily,
    p: float,
    init: AtomicMeasure,
    rounds: int = 12,
    resolution=64,
    tol: float | None = None,
    max_iter: int = 500,
) -> PlanSolution:
    """Alternating heuristic for a bounded domain.

    Each accepted step re-solves the density exactly for the current atoms
    and is kept only if the full objective decreases, so the objective
    sequence is monotone nonincreasing. Position moves use the transport
    barycenter of each atom's cell (median per coordinate when p = 1);
    masses are re-balanced by local exchanges between nearest atoms. The
    paper-free parts are labeled heuristic in the metadata.
    """
    if not init.is_probability():
        raise NotProbability("initial atoms must form a probability")
    if np.isscalar(resolution):
        resolution = (int(resolution),) * omega.dim
    grid = Grid(omega, tuple(resolution))
    base_tol = tol if tol is not None else 1e-7

    def evaluate(atoms: AtomicMeasure):
        ws = _Workspace(atoms, f, p, grid)
        c, residual = _solve_weights_best(atoms, f, p, grid, base_tol, max_iter, ws=ws)
        t_term = _induced_cost(ws, c)
        density = _density(ws, c)
        f_term = eval_F(f, density)
        g_term = eval_G(g, atoms)
        return {
            "atoms": atoms,
            "ws": ws,
            "c": c,
            "residual": residual,
            "density": density,
            "transport": t_term,
            "F": f_term,
            "G": g_term,
            "total": t_term + f_term + g_term,
        }

    def try_evaluate(atoms: AtomicMeasure):
        try:
            return evaluate(atoms)
        except SubcitiesError:
            return None

    state = evaluate(init)
    history = [state["total"]]
    for _ in range(rounds):
        improved = False
        # position moves: full barycenter/median step, then a halved step
        target_pts = _position_candidates(state["ws"], state["c"], p)
        for blend in (1.0, 0.5):
            cand_pts = (1.0 - blend) * state["atoms"].points + blend * target_pts
            try:
                cand = AtomicMeasure(cand_pts, state["atoms"].masses)
            except ValueError:
                continue
            trial = try_evaluate(cand)
            if trial is not None and trial["total"] < state["total"] - 1e-12:
                state = trial
                improved = True
                break
        # mass exchanges, rescanning after every accepted move
        for _ in range(24):
            for cand in _exchange_candidates(state["atoms"]):
                trial = try_evaluate(cand)
                if trial is not None and trial["total"] < state["total"] - 1e-12:
                    state = trial
                    improved = True
                    break
            else:
                break
        history.append(state["total"])
        if not improved:
            break
        if abs(history[-2] - history[-1]) <= 1e-8 * (1.0 + abs(history[-1])):
            break

    r_bar = radius_of_mass(f, p, omega.dim, 1.0)
    s, winner, u, cm = state["ws"].stats(state["c"])
    profiles = [
        SubcityProfile(
            center=tuple(pt),
            mass=float(cm[i]),
            radius=float(max(state["c"][i], 0.0) ** (1.0 / p)),
            weight=float(state["c"][i]),
        )
        for i, pt in enumerate(state["atoms"].points)
    ]
    objective = {
        "transport": state["transport"],
        "F": state["F"],
        "G": state["G"],
        "total": state["total"],
    }
    metadata = {
        "mode": "bounded-alternation",
        "heuristic": True,
        "rounds_used": len(history) - 1,
        "objective_history": history,
        "mass_residual": state["residual"],
        "radius_bound": r_bar,
        "clipped": bool(
            np.any(
                [
                    pr.radius > r_bar * (1 + 1e-9)
                    or np.any(np.asarray(pr.center) - pr.radius < omega.lower)
                    or np.any(np.asarray(pr.center) + pr.radius > omega.lower + omega.widths)
                    for pr in profiles
                ]
            )
        ),
    }
    return PlanSolution(
        mu=state["density"],
        nu=state["atoms"],
        profiles=profiles,
        objective=objective,
        metadata=metadata,
    )


def _exchange_candidates(atoms: AtomicMeasure):
    """Mass transfers and the merge between each atom and its nearest one.

    Each distinct candidate is yielded once per scan: a mutual nearest pair
    would otherwise yield its transfers (and, unless the masses are equal,
    its merge) from both sides.
    """
    if len(atoms) < 2:
        return
    d = np.linalg.norm(atoms.points[:, None] - atoms.points[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    seen = set()
    for i in range(len(atoms)):
        j = int(d[i].argmin())
        moves = []
        for frac in (0.25, 0.0625):
            delta = frac * min(atoms.masses[i], atoms.masses[j])
            moves += [(i, j, delta), (j, i, delta)]
        small, big = (i, j) if atoms.masses[i] <= atoms.masses[j] else (j, i)
        moves.append((small, big, None))
        for src, dst, delta in moves:
            cand = _transfer(atoms, src, dst, delta)
            if cand is None:
                continue
            key = (cand.points.tobytes(), cand.masses.tobytes())
            if key not in seen:
                seen.add(key)
                yield cand


def _transfer(atoms: AtomicMeasure, src: int, dst: int, delta: float | None):
    """Move delta mass (None: all of it) from atom src to atom dst."""
    masses = atoms.masses.copy()
    if delta is None or delta >= masses[src] - 1e-15:
        keep = np.ones(len(masses), dtype=bool)
        keep[src] = False
        masses[dst] += masses[src]
        if keep.sum() == 0:
            return None
        try:
            return AtomicMeasure(atoms.points[keep], masses[keep])
        except ValueError:
            return None
    if delta <= 0:
        return None
    masses[src] -= delta
    masses[dst] += delta
    try:
        return AtomicMeasure(atoms.points, masses)
    except ValueError:
        return None

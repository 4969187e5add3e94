"""Global planning: how many service poles, their masses, and their layout.

On all of R^n the problem collapses to choosing atom masses minimizing the
summed per-atom energy; its first-order conditions leave one free mass per
atom count, searched without random starts, and atoms are then placed as
disjoint balls. On a
bounded domain no closed structure is available, so an alternating
heuristic is provided: exact density re-solves against barycenter/median
position moves and local mass exchanges, accepting only improvements.
Both value fixed atoms as ``min_Fp_nu`` does (``semidiscrete._evaluate``),
the transport term read off the power cells.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditionNotSatisfied, InvalidK, NotProbability, SubcitiesError
from .functionals import ConcentrationFamily, FunctionFamily, eval_G
from .measures import AtomicMeasure, Domain, Grid, GridDensity
from .semidiscrete import (
    SubcityProfile,
    _ball_transport_cost,
    _evaluate,
    _solve_weights,
    _Workspace,
    radius_of_mass,
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


_SCAN = 32  # points of each atom count's split scan on (0, 1/j]


def _split_slope(curve: EnergyCurve, a: np.ndarray, j: np.ndarray) -> np.ndarray:
    """phi_j'(a) = E'(a) - E'((1 - a)/(j - 1)), from one ``denergy`` call."""
    d = curve.denergy(np.stack([a, (1.0 - a) / (j - 1)]))
    return d[0] - d[1]


def _refine_splits(curve: EnergyCurve, lo, hi, j, a: np.ndarray) -> np.ndarray:
    """a, each entry whose [lo, hi] brackets a rise of phi_j' through 0 moved to that root.

    Illinois false position: every step keeps the sign change, and an end
    that stays put twice running has its slope halved, so both ends close
    in superlinearly. A row stops once its bracket is narrower than 1e-14
    of its upper end or its slope is exactly 0.
    """
    d = _split_slope(curve, np.stack([lo, hi]), j)
    live = np.nonzero((d[0] < 0) & (d[1] > 0))[0]
    lo, hi, dlo, dhi, j = lo[live], hi[live], d[0, live], d[1, live], j[live]
    last = np.zeros(len(live))  # -1: the previous step moved lo, +1: hi
    while len(live):
        t = hi - dhi * (hi - lo) / (dhi - dlo)
        t = np.where((lo < t) & (t < hi), t, 0.5 * (lo + hi))
        dt = _split_slope(curve, t, j)
        a[live] = t
        below = dt < 0
        moved = np.where(below, -1.0, 1.0)
        stale = moved == last
        dlo = np.where(below, dt, np.where(stale, 0.5 * dlo, dlo))
        dhi = np.where(below, np.where(stale, 0.5 * dhi, dhi), dt)
        lo, hi, last = np.where(below, t, lo), np.where(below, hi, t), moved
        run = (dt != 0) & (hi - lo > 1e-14 * hi)
        live, lo, hi, dlo, dhi, j, last = (v[run] for v in (live, lo, hi, dlo, dhi, j, last))
    return a


def optimize_masses(curve: EnergyCurve, k: int):
    """Best split of the unit mass into at most k atoms (zeros allowed on the simplex).

    A minimiser of sum E(m_i) has some j <= k positive atoms sharing one
    marginal energy E', and at most one of them sits where E'' < 0. So when
    E is concave on (0, m0) and convex beyond, it is one atom of mass
    a <= 1/j plus j - 1 atoms of mass (1 - a)/(j - 1); the power catalogue
    is always of that shape. For every j <= k at once, phi_j(a) = E(a) +
    (j - 1) E((1 - a)/(j - 1)) is scanned on ``_SCAN`` points of (0, 1/j]
    in one ``energy`` call, and the best bracket is refined to the root of
    phi_j' (``_refine_splits``). The candidates are, for j = 1, ..., k, the
    equal split and then the refined split; each is valued as the sum of
    ``curve.energy`` over its masses sorted descending, and the first within
    1e-12 (1 + |v|) of the best value v wins, so an exact equal split beats
    a refinement that lands within rounding of it. For any other E this is
    the best split with at most two distinct masses that the scan resolves.
    Returns (k masses sorted descending, zeros last; their summed energy).
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidK(f"k must be a positive integer, got {k!r}")
    candidates = [np.ones(1)]
    if k > 1:
        j = np.arange(2, k + 1)
        a = np.arange(1, _SCAN + 1) / _SCAN / j[:, None]  # its last column is 1/j
        e = curve.energy(np.stack([a, (1.0 - a) / (j[:, None] - 1)]))
        best = np.argmin(e[0] + (j[:, None] - 1) * e[1], axis=1)
        split = a[np.arange(k - 1), best]
        # the last scan point is the equal split, a candidate of its own
        inner = np.nonzero(best < _SCAN - 1)[0]
        lo = a[inner, np.maximum(best[inner] - 1, 0)]
        hi = a[inner, best[inner] + 1]
        split[inner] = _refine_splits(curve, lo, hi, j[inner], split[inner])
        for jj, aa in zip(j, split):
            rest = np.full(jj - 1, (1.0 - aa) / (jj - 1))
            candidates += [np.full(jj, 1.0 / jj), np.sort(np.append(rest, aa))[::-1]]
    values = np.array([np.sum(curve.energy(m)) for m in candidates])
    pick = int(np.argmax(values <= values.min() + 1e-12 * (1.0 + abs(values.min()))))
    masses = np.zeros(k)
    masses[: len(candidates[pick])] = candidates[pick]
    return masses, float(values[pick])


def solve_atomic_problem(
    f: FunctionFamily,
    g: ConcentrationFamily,
    p: float,
    n: int,
    k_max: int,
    curve: EnergyCurve | None = None,
):
    """The atom count and mass split minimizing the summed energy.

    The count is capped by 1 + floor(2/m0) when the concavity threshold m0
    is positive (merging sub-m0/2 atoms never helps); if the atomization
    condition fails, a warning is issued and k_max is used as the cap. One
    ``optimize_masses`` call over that cap gives the split, and k* is its
    number of positive masses: its tie rule already prefers fewer atoms.
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
    masses, value = optimize_masses(curve, k_hi)
    masses = masses[masses > 0]
    return len(masses), masses, value


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
    transport term is reported both in closed form and on the grid as
    ``transport_oracle``: the midpoint cost of the balls, each cell's mass
    sent to its power cell's atom under the weights R_i^p.
    """
    masses = np.asarray(masses, dtype=float)
    if np.any(masses <= 0):
        raise NotProbability("assemble_rn_solution needs strictly positive masses")
    if abs(masses.sum() - 1.0) > 1e-8:
        raise NotProbability("masses must sum to 1")
    k = len(masses)
    radii = radius_of_mass(f, p, n, masses)
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
    grid = Grid(domain, resolution)
    atoms = AtomicMeasure(pts, masses)
    density, terms, _ = _evaluate(_Workspace(atoms, f, p, grid), radii**p)
    transport_closed = float(sum(_ball_transport_cost(f, p, n, R) for R in radii))
    g_term = eval_G(g, atoms)
    objective = {
        "transport": transport_closed,
        "F": terms["F"],
        "G": g_term,
        "total": transport_closed + terms["F"] + g_term,
        "transport_oracle": terms["transport"],
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
    """Barycenter (p=2, default) or per-coordinate median (p=1) of each cell;
    the cells are read off ``ws.last`` when the evaluation left them there."""
    s, winner, u, cm = ws.stats_at(weights_c)
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
    tol: float = 1e-7,
) -> PlanSolution:
    """Alternating heuristic for a bounded domain.

    Each accepted step re-solves the density exactly for the current atoms
    and is kept only if the full objective decreases, so the objective
    sequence is monotone nonincreasing. Position moves use the transport
    barycenter of each atom's cell (median per coordinate when p = 1);
    masses are re-balanced by local exchanges between nearest atoms, a
    pair's merge tried before its transfers. Candidates are valued as
    ``min_Fp_nu`` values them, plus G; one whose weight solve ends above
    the mass tolerance ``tol`` is refused, and NoConvergence raised if the
    initial atoms' solve does. The paper-free parts are labeled heuristic
    in the metadata.
    """
    if not init.is_probability():
        raise NotProbability("initial atoms must form a probability")
    grid = Grid(omega, resolution)

    def evaluate(atoms: AtomicMeasure):
        weights, ws = _solve_weights(atoms, f, p, grid, tol)
        density, terms, plan = _evaluate(ws, weights.c, weights.split)
        terms["G"] = eval_G(g, atoms)
        terms["total"] += terms["G"]
        return {
            "atoms": atoms,
            "ws": ws,
            "weights": weights,
            "plan": plan,
            "density": density,
            "terms": terms,
            "total": terms["total"],
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
        target_pts = _position_candidates(state["ws"], state["weights"].c, p)
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
    c, plan = state["weights"].c, state["plan"]
    cm = np.bincount(plan.flow_j, weights=plan.flow_mass, minlength=len(c))  # what each atom receives
    profiles = [
        SubcityProfile(
            center=tuple(pt),
            mass=float(cm[i]),
            radius=float(max(c[i], 0.0) ** (1.0 / p)),
            weight=float(c[i]),
        )
        for i, pt in enumerate(state["atoms"].points)
    ]
    objective = {key: state["terms"][key] for key in ("transport", "F", "G", "total")}
    metadata = {
        "mode": "bounded-alternation",
        "heuristic": True,
        "rounds_used": len(history) - 1,
        "objective_history": history,
        "mass_residual": state["terms"]["mass_residual"],
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
    """The merge and the mass transfers between each atom and its nearest one.

    Each pair yields its merge first: first-improvement acceptance would
    otherwise take a transfer out of an atom that owns no cell, shrinking it
    by 1/4 per move without ever removing it. Each distinct candidate is
    yielded once per scan: a mutual nearest pair would otherwise yield its
    transfers (and, unless the masses are equal, its merge) from both sides.
    """
    if len(atoms) < 2:
        return
    d = np.linalg.norm(atoms.points[:, None] - atoms.points[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    seen = set()
    for i in range(len(atoms)):
        j = int(d[i].argmin())
        small, big = (i, j) if atoms.masses[i] <= atoms.masses[j] else (j, i)
        moves = [(small, big, None)]
        for frac in (0.25, 0.0625):
            delta = frac * min(atoms.masses[i], atoms.masses[j])
            moves += [(i, j, delta), (j, i, delta)]
        for src, dst, delta in moves:
            cand = _transfer(atoms, src, dst, delta)
            key = (cand.points.tobytes(), cand.masses.tobytes())
            if key not in seen:
                seen.add(key)
                yield cand


def _transfer(atoms: AtomicMeasure, src: int, dst: int, delta: float | None):
    """Move delta mass (None: all of it) from atom src to atom dst.

    The result is always a valid measure: a merge keeps the other atoms, of
    which ``_exchange_candidates`` leaves at least one, and its transfers
    move at most a quarter of the smaller mass, so every mass stays positive.
    """
    masses = atoms.masses.copy()
    if delta is None or delta >= masses[src] - 1e-15:
        keep = np.ones(len(masses), dtype=bool)
        keep[src] = False
        masses[dst] += masses[src]
        return AtomicMeasure(atoms.points[keep], masses[keep])
    masses[src] -= delta
    masses[dst] += delta
    return AtomicMeasure(atoms.points, masses)

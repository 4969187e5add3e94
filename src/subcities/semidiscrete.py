"""Resident-density subproblem for a fixed atomic service measure.

Given atoms with masses, the optimal density is a truncated radial profile
around each atom pinned by one weight per atom: u(x) = k(max_i(c_i - |x-x_i|^p) v 0).
Weights are solved so each atom's cell carries exactly its mass, by damped
Newton on the concave dual with a boundary-coupled Jacobian. The Armijo line
search evaluates its step factors in batches, one workspace ``stats`` call
per batch (a wide first batch on small grids), and accepts the first passing
factor in order; the Jacobian's boundary-layer widths are tabulated once per
workspace. If Newton stops above the tolerance, one monotone pass (a
per-coordinate bisection sweep whose trials read only the moving weight's
score column, then a uniform shift balancing the total mass) starts from its
best iterate and is kept only if it lowers the residual.

Hard cell assignment on a grid makes the per-atom mass map piecewise smooth
with jumps of order (boundary density) * (cell volume), so that is the
attainable mass-balance floor on generic asymmetric instances; symmetric
and single-atom instances solve to machine precision.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import discrete_transport
from .errors import (
    AtomOutsideDomain,
    GridTooCoarse,
    MassOutOfRange,
    NoConvergence,
    NonpositiveMass,
    NotProbability,
)
from .functionals import FunctionFamily, eval_F
from .measures import (
    INTERNAL_PROB_TOL,
    AtomicMeasure,
    Grid,
    GridDensity,
    WeightedPointCloud,
    normalize,
    to_point_cloud,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)

_log = logging.getLogger("subcities")


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _gl(a: float, b: float, fn) -> float:
    x = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
    return 0.5 * (b - a) * float(np.dot(_GL_WEIGHTS, fn(x)))


@lru_cache(maxsize=4096)
def _scaled_power_integral(beta: float, s: float, p: float) -> float:
    """J = int_0^1 (1 - z^p)^beta z^(s-1) dz by Gauss-Legendre.

    For non-integer beta the integrand has an algebraic endpoint singularity
    at z=1; substituting 1-z = w^m with integer m >= 4/(1+beta) makes the
    transformed integrand smooth enough for the 64-point rule.
    """
    if abs(beta - round(beta)) < 1e-12 and round(beta) >= 0:
        return _gl(0.0, 1.0, lambda z: (1.0 - z**p) ** beta * z ** (s - 1.0))
    m = max(1, math.ceil(4.0 / (1.0 + beta)))

    def fn(w):
        t = w**m
        z = 1.0 - t
        one_minus_zp = -np.expm1(p * np.log1p(-t))
        good = one_minus_zp > 0.0
        safe = np.where(good, one_minus_zp, 1.0)
        return np.where(good, safe**beta * z ** (s - 1.0), 0.0) * m * w ** (m - 1.0)

    return _gl(0.0, 1.0, fn)


def radial_power_integral(beta: float, s: float, p: float, R: float) -> float:
    """int_0^R (R^p - r^p)^beta r^(s-1) dr."""
    if R <= 0.0:
        return 0.0
    return R ** (s + p * beta) * _scaled_power_integral(float(beta), float(s), float(p))


def _generic_radial(fn, s: float, R: float) -> float:
    """Panel Gauss-Legendre of fn(R^p - r^p)-style integrands times r^(s-1).

    ``fn`` receives r directly. Panels shrink geometrically toward r = R
    where catalogue-free integrands may lose smoothness.
    """
    if R <= 0.0:
        return 0.0
    cuts = [0.0, 0.5 * R]
    frac = 0.5
    for _ in range(10):
        frac *= 0.5
        cuts.append((1.0 - frac) * R)
    cuts.append(R)
    return sum(
        _gl(a, b, lambda r: fn(r) * r ** (s - 1.0))
        for a, b in zip(cuts[:-1], cuts[1:])
    )


def mass_of_radius(f: FunctionFamily, p: float, n: int, R: float) -> float:
    """Mass of one ball-supported profile: int_0^R k(R^p - r^p) n w_n r^(n-1) dr."""
    if R <= 0.0:
        return 0.0
    nwn = n * unit_ball_volume(n)
    if f.is_power_shaped:
        return f.kappa * nwn * radial_power_integral(f.alpha, n, p, R)
    return nwn * _generic_radial(lambda r: f.k(R**p - r**p), n, R)


def kprime_radial_integral(f: FunctionFamily, p: float, n: int, R: float) -> float:
    """int_0^R k'(R^p - r^p) n w_n r^(n-1) dr (denominator of the energy curvature)."""
    if R <= 0.0:
        return 0.0
    nwn = n * unit_ball_volume(n)
    if f.is_power_shaped:
        return f.kappa * f.alpha * nwn * radial_power_integral(f.alpha - 1.0, n, p, R)
    return nwn * _generic_radial(lambda r: f.k_prime(R**p - r**p), n, R)


def radius_of_mass(f: FunctionFamily, p: float, n: int, m: float) -> float:
    """Invert the mass-radius relation by bisection on the monotone integral.

    Results are memoised per (f, p, n, m) for the power catalogue; a custom
    family's evaluators may be unhashable or stateful, so it is never cached.
    """
    if m <= 0.0:
        raise NonpositiveMass("radius_of_mass needs m > 0")
    if m > 1.0 + 1e-12:
        raise MassOutOfRange("radius_of_mass is restricted to masses <= 1")
    if f.is_power_shaped:
        return _radius_of_mass(f, float(p), int(n), float(m))
    return _invert_mass(f, p, n, m)


def _mass_evaluator(f: FunctionFamily, p: float, n: int):
    """R -> ``mass_of_radius(f, p, n, R)`` for R > 0, bit for bit.

    For the power catalogue the factors that do not depend on R are
    evaluated once, and the products keep mass_of_radius's order.
    """
    if not f.is_power_shaped:
        return lambda R: mass_of_radius(f, p, n, R)
    coef = f.kappa * (n * unit_ball_volume(n))
    e = n + p * f.alpha
    J = _scaled_power_integral(float(f.alpha), float(n), float(p))
    return lambda R: coef * (R**e * J)


def _invert_mass(f: FunctionFamily, p: float, n: int, m: float) -> float:
    mass = _mass_evaluator(f, p, n)
    # quadratic-f closed form seeds the bracket for every family
    hi = (m * (n + p) / (unit_ball_volume(n) * p)) ** (1.0 / (n + p))
    for _ in range(200):
        if mass(hi) >= m:
            break
        hi *= 2.0
    else:
        raise NoConvergence("mass-radius bracket expansion failed")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = mass(mid)
        if abs(val - m) <= 1e-13:
            return mid
        if val < m:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


_radius_of_mass = lru_cache(maxsize=4096)(_invert_mass)


@dataclass(frozen=True, eq=False)
class DualWeights:
    """Per-atom constants pinning the optimal density formula."""

    c: np.ndarray
    atoms: AtomicMeasure
    residual: float = float("nan")

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).copy()
        c.flags.writeable = False
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class SubcityProfile:
    """One atom with its ball-supported resident profile."""

    center: tuple[float, ...]
    mass: float
    radius: float
    weight: float  # R(mass)^p


class _Workspace:
    """Shared per-grid arrays for the weight solve and mass accounting."""

    def __init__(self, atoms: AtomicMeasure, f: FunctionFamily, p: float, grid: Grid):
        if atoms.dim != grid.domain.dim:
            raise ValueError("atom dimension does not match the grid")
        inside = grid.domain.contains(atoms.points)
        if not inside.all():
            raise AtomOutsideDomain(f"atoms outside domain: {np.nonzero(~inside)[0].tolist()}")
        self.f = f
        self.p = p
        self.grid = grid
        self.atoms = atoms
        self.centers = grid.cell_centers()
        self.vol = grid.cell_volume
        self.m = len(atoms)
        self.dist = np.linalg.norm(
            self.centers[:, None, :] - atoms.points[None, :, :], axis=2
        )
        self.dist_p = self.dist**p
        self._idx = np.arange(len(self.centers))
        self._flat = self._idx * self.m  # row starts in the raveled scores

    def stats(self, c: np.ndarray):
        """Winning score, winner, density and winner's cell mass per cell.

        ``c`` is one weight vector, shape (m,), or a batch of them, shape
        (T, m); a batch's outputs carry the batch axis first, and each of
        its rows is bit for bit what that row's weights give alone.
        """
        batch = c.ndim == 2
        scores = (c[:, None, :] if batch else c) - self.dist_p
        winner = scores.argmax(axis=-1)  # first max: lowest atom index wins ties
        if not batch:
            s = scores.ravel()[self._flat + winner]
            u = self.f.k(s)  # exactly 0 off the support (s <= 0)
            return s, winner, u, np.bincount(winner, weights=u * self.vol, minlength=self.m)
        # row t of the batch starts at t*n*m in the raveled scores and at
        # t*m in the raveled cell masses, which bincount sums in cell order
        rows = np.arange(len(c))[:, None]
        s = scores.ravel()[self._flat + self.dist_p.size * rows + winner]
        u = self.f.k(s.ravel()).reshape(s.shape)  # evaluators see 1-D arrays
        cell_mass = np.bincount(
            (winner + self.m * rows).ravel(), weights=(u * self.vol).ravel(), minlength=c.size
        )
        return s, winner, u, cell_mass.reshape(c.shape)

    def dual_value(self, c: np.ndarray, s: np.ndarray) -> float:
        return float(c @ self.atoms.masses) - float(
            self.f.conjugate(np.maximum(s, 0.0)).sum() * self.vol
        )

    @cached_property
    def _layer(self) -> tuple[np.ndarray, np.ndarray]:
        """Boundary-layer width of every cell and atom pair, as (pair, tau).

        ``pair[a, b]`` numbers the pair {a, b} and ``tau[x, pair[a, b]]`` is
        max(|grad_b - grad_a| * h, 1e-14), grad_i the gradient in x of
        |x - x_i|^p at cell centre x and h the cell diameter. Each pair's
        column is built from the two atoms' (n, dim) gradients; no
        (n, m, m, dim) array is formed.
        """
        n, m = self.dist.shape
        grads = []
        for i in range(m):
            d = self.dist[:, i, None]
            vec = self.centers - self.atoms.points[i]
            scale = np.where(d > 0, d, 1.0) ** (self.p - 2.0)  # vec is 0 where d is 0
            grads.append(self.p * scale * vec)
        pair = np.zeros((m, m), dtype=np.intp)
        tau = np.empty((n, m * (m - 1) // 2))
        for k, (a, b) in enumerate(itertools.combinations(range(m), 2)):
            grad_gap = np.linalg.norm(grads[b] - grads[a], axis=1)
            tau[:, k] = np.maximum(grad_gap * self.grid.cell_diameter, 1e-14)
            pair[a, b] = pair[b, a] = k
        return pair, tau

    def full_jacobian(self, c: np.ndarray) -> np.ndarray:
        """Mass sensitivity: diagonal response plus cell-boundary coupling."""
        m = self.m
        scores = c[None, :] - self.dist_p
        winner = scores.argmax(axis=1)
        s = scores[self._idx, winner]
        active = s > 0
        # raveled J entries and their terms; bincount sums each entry's terms
        # in list order: the diagonal response, then the (a, b), (b, a),
        # (a, a) and (b, b) boundary couplings
        keys = [winner * (m + 1)]
        terms = [self.f.k_prime(s) * self.vol * active]
        if m > 1:
            scores[self._idx, winner] = -np.inf
            runner = scores.argmax(axis=1)
            gap = s - scores[self._idx, runner]
            ii = np.nonzero(active)[0]
            a, b = winner[ii], runner[ii]
            pair, widths = self._layer
            tau = widths[ii, pair[a, b]]
            on = gap[ii] <= tau
            coupling = self.f.k(s[ii][on]) * self.vol / tau[on]
            aa, bb = a[on], b[on]
            keys += [aa * m + bb, bb * m + aa, aa * (m + 1), bb * (m + 1)]
            terms += [-coupling, -coupling, coupling, coupling]
        J = np.bincount(np.concatenate(keys), weights=np.concatenate(terms), minlength=m * m)
        return J.reshape(m, m)


def density_from_weights(
    atoms: AtomicMeasure, c, f: FunctionFamily, p: float, grid: Grid
) -> GridDensity:
    """Materialize u(x) = k(max_i(c_i - |x - x_i|^p) v 0) at the cell centers."""
    weights = c.c if isinstance(c, DualWeights) else np.asarray(c, dtype=float)
    return _density(_Workspace(atoms, f, p, grid), weights)


def _density(ws: _Workspace, weights: np.ndarray) -> GridDensity:
    s, _, u, _ = ws.stats(weights)
    values = np.where(s > 0, u, 0.0).reshape(ws.grid.resolution)
    return GridDensity(ws.grid, values)


def cell_masses(
    atoms: AtomicMeasure, c, f: FunctionFamily, p: float, grid: Grid
) -> np.ndarray:
    """Midpoint-rule mass of each atom's cell; ties go to the lowest index."""
    weights = c.c if isinstance(c, DualWeights) else np.asarray(c, dtype=float)
    ws = _Workspace(atoms, f, p, grid)
    return ws.stats(weights)[3]


def _coordinate_sweep(ws: _Workspace, c: np.ndarray, targets: np.ndarray):
    """Gauss-Seidel pass: bisect each weight to its own mass balance.

    While weight i moves the other weights stay fixed, so atom i's cells
    follow from its own score column: it must beat every lower-index atom
    strictly and at least tie every higher-index one (``stats``' first-max
    rule), against per-cell bests computed once per weight. Atom i's mass is
    then summed over its cells in cell order, as ``stats``' bincount sums
    it, so every trial's mass is ``ws.stats(trial)[3][i]`` bit for bit.
    """
    c = c.copy()
    for i in range(ws.m):
        scores = c - ws.dist_p
        # s > lower  <=>  s >= nextafter(lower, inf); no atom on a side
        # leaves -inf there, which every finite score meets
        lower = np.nextafter(scores[:, :i].max(axis=1), np.inf) if i else -np.inf
        upper = scores[:, i + 1 :].max(axis=1) if i + 1 < ws.m else -np.inf
        floor = np.maximum(lower, upper)
        column = ws.dist_p[:, i].copy()

        def mass(weight):
            s = weight - column
            s = s[s >= floor]
            return np.cumsum(ws.f.k(s) * ws.vol)[-1] if len(s) else 0.0

        lo, hi = 0.0, max(c[i], 1e-6)
        for _ in range(80):
            if mass(hi) >= targets[i]:
                break
            hi *= 2.0
        else:
            raise GridTooCoarse(
                f"atom {i} cannot reach its target mass on this grid"
            )
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            if mass(mid) < targets[i]:
                lo = mid
            else:
                hi = mid
        c[i] = hi
    return c


def _level_polish(ws: _Workspace, c: np.ndarray, total: float):
    """Uniform shift balancing total mass; smooth and always solvable."""
    def mass_at(delta):
        return float(ws.stats(c + delta)[3].sum())

    lo, hi = -1.0, 1.0
    for _ in range(80):
        if mass_at(lo) <= total:
            break
        lo *= 2.0
    for _ in range(80):
        if mass_at(hi) >= total:
            break
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # no float lies between lo and hi: whatever the mass at mid,
            # this and every later step leave 0.5 * (lo + hi) equal to mid
            break
        if mass_at(mid) < total:
            lo = mid
        else:
            hi = mid
    return c + 0.5 * (lo + hi)


def solve_weights(
    atoms: AtomicMeasure,
    f: FunctionFamily,
    p: float,
    grid: Grid,
    tol: float = 1e-7,
    max_iter: int = 500,
) -> DualWeights:
    """Solve the per-atom weights so cell masses match atom masses.

    Damped Newton ascends the concave dual (gradient: atom masses minus cell
    masses); the Jacobian couples neighboring cells through their shared
    boundary layer. If Newton ends above ``tol``, one pass of per-coordinate
    bisection plus a total-mass level polish runs from its best iterate.
    Raises NoConvergence with the best residual when the requested tolerance
    is out of reach for the grid.
    """
    return _solve_weights(atoms, f, p, grid, tol, max_iter)[0]


def _solve_weights(atoms, f, p, grid, tol, max_iter):
    """``solve_weights`` plus the workspace it solved on, for reuse."""
    if not atoms.is_probability():
        raise NotProbability("solve_weights needs a probability atomic measure")
    ws = _Workspace(atoms, f, p, grid)
    c, residual = _solve_weights_best(atoms, f, p, grid, tol, max_iter, ws=ws)
    if residual > tol:
        raise NoConvergence(
            f"mass balance reached {residual:.3e} > tol {tol:.3e}; "
            "refine the grid or relax the tolerance",
            residual=residual,
        )
    return DualWeights(c=c, atoms=atoms, residual=residual), ws


def _solve_weights_best(
    atoms: AtomicMeasure,
    f: FunctionFamily,
    p: float,
    grid: Grid,
    tol: float,
    max_iter: int = 500,
    ws: _Workspace | None = None,
):
    """Best-effort weight solve; returns (c, residual) without raising."""
    if ws is None:
        ws = _Workspace(atoms, f, p, grid)
    targets = atoms.masses
    radii = np.array([radius_of_mass(f, p, grid.domain.dim, m) for m in targets])
    c = radii**p
    s, winner, u, cm = ws.stats(c)
    # grant every starving atom its cheapest winnable cell; atoms may steal
    # from each other, so iterate and give up only if that cycles
    for _ in range(2 * ws.m + 2):
        lacking = [i for i in range(ws.m) if cm[i] <= 0]
        if not lacking:
            break
        for i in lacking:
            others = np.delete(np.arange(ws.m), i)
            if len(others):
                best_other = (c[None, others] - ws.dist_p[:, others]).max(axis=1)
            else:
                best_other = np.zeros(len(ws.dist_p))
            need = ws.dist_p[:, i] + np.maximum(best_other, 0.0)
            req = need.min()
            c[i] = req + 1e-9 * (1.0 + abs(req))
        s, winner, u, cm = ws.stats(c)
    else:
        raise GridTooCoarse(
            "grid cannot give every atom a supporting cell; refine the grid"
        )
    best_c = c.copy()
    best_res = float(np.abs(cm - targets).max())
    phi = ws.dual_value(c, s)
    it = 0
    while it < max_iter and best_res > tol:
        it += 1
        r = cm - targets
        J = ws.full_jacobian(c)
        scale = max(float(np.trace(J)) / ws.m, 1e-12)
        try:
            step = np.linalg.solve(J + 1e-10 * scale * np.eye(ws.m), -r)
        except np.linalg.LinAlgError:
            step = -r / np.maximum(np.diag(J), 1e-12)
        slope = float(-r @ step)
        if slope <= 0:
            # the dual is concave, so the Newton direction should ascend
            _log.warning("Newton step is not an ascent direction (slope %.3e)", slope)
            step = -r
            slope = float(r @ r)
        phi_prev = phi
        found = _line_search(ws, c, step, phi, slope)
        if found is not None:
            c, cm, phi = found
        res = float(np.abs(cm - targets).max())
        if res < best_res:
            best_res, best_c = res, c.copy()
        if found is None or (
            it > 10 and res > tol and phi <= phi_prev + 1e-15 * (1.0 + abs(phi_prev))
        ):
            break
    if best_res > tol:
        # one monotone pass: per-coordinate bisection, then a level re-balance
        c = _level_polish(ws, _coordinate_sweep(ws, best_c, targets), float(targets.sum()))
        res = float(np.abs(ws.stats(c)[3] - targets).max())
        if res < best_res:
            best_res, best_c = res, c
    return best_c, best_res


# Newton step factors 2^0 ... 2^-43, every power of two above 1e-13; the
# cells x atoms x trials cap on one batched line-search stats call, which
# bounds its (trials, cells, atoms) temporaries at 256 KiB; and the smaller
# budget that sizes the first batch, where a call on a small grid costs
# mostly its overhead
_STEP_FACTORS = 0.5 ** np.arange(44)
_TRIAL_BUDGET = 1 << 15
_FIRST_BATCH_BUDGET = 1 << 11


def _line_search(ws: _Workspace, c: np.ndarray, step: np.ndarray, phi: float, slope: float):
    """Armijo backtracking along ``step``: the first passing step factor.

    Factors are tried in order, as a one-at-a-time halving loop tries them,
    but in batches of one ``stats`` call each: a first batch of as many
    trials as fit the first-batch budget (a single trial on a large grid),
    then twice as many per call up to the trial budget.
    Returns (weights, cell masses, dual value) of the accepted trial, or
    None when no factor passes.
    """
    masses = ws.atoms.masses
    slack = 1e-13 * (1.0 + abs(phi))
    cap = max(1, _TRIAL_BUDGET // ws.dist_p.size)
    start, width = 0, max(1, _FIRST_BATCH_BUDGET // ws.dist_p.size)
    while start < len(_STEP_FACTORS):
        lams = _STEP_FACTORS[start : start + width]
        trials = c + lams[:, None] * step
        s, _, u, cm = ws.stats(trials)
        # f*(max(s, 0)) from the density: k(max(s, 0)) == k(s) == u
        fu = ws.f.f(u.ravel()).reshape(u.shape)
        conj = np.where(s > 0, s * u - fu, 0.0).sum(axis=1) * ws.vol
        for t, lam in enumerate(lams.tolist()):
            phi2 = float(trials[t] @ masses) - float(conj[t])
            if phi2 >= phi + 1e-4 * lam * slope - slack:
                return trials[t], cm[t], phi2
        start += width
        width = min(2 * width, cap)
    return None


def induced_transport_cost(
    atoms: AtomicMeasure, c, f: FunctionFamily, p: float, grid: Grid
) -> float:
    """Transport cost of the plan sending each supported cell to its own atom.

    At solved weights this plan is optimal for the discretized pair: the pair
    (-(max score v 0), c) is dual-feasible with equality on the support.
    """
    weights = c.c if isinstance(c, DualWeights) else np.asarray(c, dtype=float)
    return _induced_cost(_Workspace(atoms, f, p, grid), weights)


def _induced_cost(ws: _Workspace, weights: np.ndarray) -> float:
    s, winner, u, _ = ws.stats(weights)
    active = s > 0
    return float((u * ws.vol * ws.dist_p[ws._idx, winner])[active].sum())


def _transport_term(
    nu: AtomicMeasure, density: GridDensity, p: float, prices
) -> tuple[float, discrete_transport.TransportPlan]:
    """Exact transport cost from ``density`` to ``nu`` and the LP's plan.

    ``prices`` (one per atom, such as the dual weights of the weight solve)
    warm-start the LP: each cell starts on its power-cell winner, so the
    solve moves only what the weights leave unbalanced.
    """
    cloud = to_point_cloud(normalize(density), tol=INTERNAL_PROB_TOL)
    nu_cloud = WeightedPointCloud(nu.points, nu.masses / nu.total_mass)
    plan = discrete_transport.solve_discrete_transport(cloud, nu_cloud, p, prices)
    return plan.total_cost, plan


def min_Fp_nu(
    nu: AtomicMeasure,
    f: FunctionFamily,
    p: float,
    grid: Grid,
    tol: float = 1e-7,
    max_iter: int = 500,
):
    """Minimize transport-plus-spread cost over densities at fixed atoms.

    Returns the optimal density and a value breakdown. The transport term is
    the exact discrete cost from the density to ``nu``: the LP starts from
    the solved dual weights, so it moves only the mass residual.
    """
    return _min_Fp_nu(nu, f, p, grid, tol, max_iter)[:2]


def _min_Fp_nu(nu, f, p, grid, tol, max_iter):
    """``min_Fp_nu`` plus the transport plan it solved."""
    weights, ws = _solve_weights(nu, f, p, grid, tol, max_iter)
    density = _density(ws, weights.c)
    f_term = eval_F(f, density)
    transport, plan = _transport_term(nu, density, p, weights.c)
    s = (weights.c[None, :] - ws.dist_p).max(axis=1)
    dual = ws.dual_value(weights.c, s)
    breakdown = {
        "transport": transport,
        "F": f_term,
        "total": transport + f_term,
        "dual_objective": dual,
        "mass_residual": weights.residual,
        "transport_route": "lp",  # constant; perfbench/workloads.check_mu reads it
    }
    return density, breakdown, plan

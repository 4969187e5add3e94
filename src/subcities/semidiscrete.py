"""Resident-density subproblem for a fixed atomic service measure.

Given atoms with masses, the optimal density is a truncated radial profile
around each atom pinned by one weight per atom: u(x) = k(max_i(c_i - |x-x_i|^p) v 0).
Weights are solved so each atom's cell carries exactly its mass, by damped
Newton on the concave dual with a boundary-coupled Jacobian, from equal
weights balanced to the total mass: each atom starts with the cells nearest
it (its Voronoi cells). The Jacobian is the derivative of the cell masses:
a cell within one boundary-layer width tau of its runner-up couples its two
best atoms, tau computed from their distances to the cell, and since the
cells on both sides of a boundary count, each adds its mass over 2 tau. The
line search tries the step factors 1, 1/2, ..., 1/128, one workspace
``stats`` call per factor, and takes the first that passes the Armijo test
and leaves every atom a cell mass of at least half the least target or
start mass (the damping of Kitagawa, Merigot & Thibert); a step that fails
them all has met a kink of the dual, and Newton stops there.

The workspace stores every per-(atom, cell) array atom-major, (atoms, cells),
so each pass over the atoms runs along contiguous rows of cells: a cell's
best score is a maximum over axis 0, and its winner is the first row (the
lowest atom index) that reaches it, which is ``argmax``'s tie rule.

Hard cell assignment on a grid makes the per-atom mass map piecewise smooth
with jumps of order (boundary density) * (cell volume), and the dual's
maximiser sits on such a jump: there some cells tie between atoms and must
be split. A crossover (Megiddo 1991) shares the tied cells by one max-flow
from the atoms' masses into them, a cell among every atom tied on it; where
no flow meets every mass, the flow's min cut names a set of atoms whose
weights shift together, by an exact line search, until the set balances
or one more cell ties. The split it ends with is the exact discrete
optimum. There the power cells are an optimal transport plan to the atoms
(Kitagawa, Merigot & Thibert 2019), so the fixed-atom value reads its
transport term off them and solves no LP. Newton stops where its line
search fails or once its residual is within the crossover's reach (the
mass of ``_PIVOTS`` of the largest cells), and the crossover runs once
from its best iterate, below the tolerance or not; its split is the
optimum whatever the tolerance asks, so the solve's cost does not grow as
the tolerance tightens. The start refuses no problem: an atom whose
nearest cells carry no mass there (two atoms within about a cell of each
other) gets its mass from the cells the crossover splits. If the
crossover finds no split within ``_PIVOTS`` + 4 rounds per atom that
lowers the residual, and Newton stopped above the tolerance, one monotone
pass (a per-coordinate bisection sweep, then a uniform shift balancing the
total mass) starts from the best iterate and is kept only if it lowers the
residual. No measured solve has run that pass; it stays until the
benchmark's hook check stops naming it.

Every smooth one-dimensional solve is one bracketed Newton root-finder
(``_monotone_root``): the crossover's balancing shift of a set of atoms,
the pass's level shift, and a custom family's ball radius R(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete_transport import TransportPlan
from .errors import (
    AtomOutsideDomain,
    GridTooCoarse,
    MassOutOfRange,
    NoConvergence,
    NonpositiveMass,
    NotProbability,
)
from .functionals import FunctionFamily, eval_F
from .measures import AtomicMeasure, Grid, GridDensity, WeightedPointCloud

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _beta(a: float, b: float) -> float:
    """B(a, b); through lgamma once Gamma(a + b) would overflow (alpha >~ 170)."""
    if a + b < 170.0:
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _generic_radial(fn, s: float, R: float) -> float:
    """Panel Gauss-Legendre of fn(r) r^(s-1) on [0, R].

    Panels shrink geometrically toward r = R, where catalogue-free
    integrands may lose smoothness, and toward r = 0, where r^p has a kink
    for non-integer p.
    """
    halves = 0.5 ** np.arange(11, 0, -1)  # 2^-11 ... 2^-1
    cuts = [0.0, *(halves * R), *((1.0 - halves[::-1][1:]) * R), R]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        r = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(np.dot(_GL_WEIGHTS, fn(r) * r ** (s - 1.0)))
    return total


def _ball_integral(f: FunctionFamily, p: float, n: int, R: float, closed, integrand) -> float:
    """int_0^R h n w_n r^(n-1) dr over one ball profile of radius R, t = R^p - r^p.

    The power catalogue takes ``closed(J)``, the integral written in the
    exact moments J(beta, s) = int_0^R t^beta r^(s-1) dr
    = R^(s + p beta) B(s/p, beta + 1) / p; a custom family integrates
    h = ``integrand(t, r^p)`` by quadrature.
    """
    if R <= 0.0:
        return 0.0
    nwn = n * unit_ball_volume(n)
    if f.is_power_shaped:
        return nwn * closed(lambda beta, s: R ** (s + p * beta) * _beta(s / p, beta + 1.0) / p)
    return nwn * _generic_radial(lambda r: integrand(R**p - r**p, r**p), n, R)


# The ball integrals; for the power catalogue k(t) = kappa t^alpha.


def mass_of_radius(f: FunctionFamily, p: float, n: int, R: float) -> float:
    """Mass of one ball-supported profile: int_0^R k(R^p - r^p) n w_n r^(n-1) dr."""
    return _ball_integral(f, p, n, R, lambda J: f.kappa * J(f.alpha, n), lambda t, rp: f.k(t))


def kprime_radial_integral(f: FunctionFamily, p: float, n: int, R: float) -> float:
    """int_0^R k'(R^p - r^p) n w_n r^(n-1) dr (denominator of the energy curvature)."""
    return _ball_integral(
        f, p, n, R, lambda J: f.kappa * f.alpha * J(f.alpha - 1.0, n), lambda t, rp: f.k_prime(t)
    )


def _ball_transport_cost(f: FunctionFamily, p: float, n: int, R: float) -> float:
    """Transport cost of one ball profile: int_0^R k(R^p - r^p) r^p n w_n r^(n-1) dr."""
    closed = lambda J: f.kappa * J(f.alpha, n + p)
    return _ball_integral(f, p, n, R, closed, lambda t, rp: f.k(t) * rp)


def _profile_cost(f: FunctionFamily, p: float, n: int, R: float) -> float:
    """Spread plus transport cost of one ball profile of radius R.

    int_0^R [f(k(R^p - r^p)) + k(R^p - r^p) r^p] n w_n r^(n-1) dr. For the
    power catalogue the spread is p alpha / n times the transport cost
    (B(s, b + 1) / B(s + 1, b) = b / s and a kappa^(q-1) (alpha + 1) = alpha).
    """
    closed = lambda J: (1.0 + p * f.alpha / n) * f.kappa * J(f.alpha, n + p)
    return _ball_integral(f, p, n, R, closed, lambda t, rp: f.f(f.k(t)) + f.k(t) * rp)


def radius_of_mass(f: FunctionFamily, p: float, n: int, m):
    """R(m): radius of the ball profile of mass m, for one mass or an array.

    The power catalogue's profile mass is m(1) R^e with e = n + p alpha, so
    R = (m / m(1))^(1/e) in closed form, one numpy expression whether m is
    a scalar or an array. A custom family solves each entry's quadrature
    mass by Newton (``_invert_mass``). Every entry must lie in (0, 1].
    """
    marr = np.atleast_1d(np.asarray(m, dtype=float))
    if np.any(marr <= 0.0):
        raise NonpositiveMass("radius_of_mass needs m > 0")
    if not np.all(marr <= 1.0 + 1e-12):
        raise MassOutOfRange("radius_of_mass is restricted to finite masses <= 1")
    if f.is_power_shaped:
        R = (marr / mass_of_radius(f, p, n, 1.0)) ** (1.0 / (n + p * f.alpha))
    else:
        R = np.array([_invert_mass(f, p, n, v) for v in marr.ravel().tolist()])
    return float(R.flat[0]) if np.ndim(m) == 0 else R.reshape(marr.shape)


def _invert_mass(f: FunctionFamily, p: float, n: int, m: float) -> float:
    """R(m) by Newton on ``mass_of_radius``, from the quadratic closed form.

    dm/dR = p R^(p-1) ``kprime_radial_integral`` as k(0) = 0.
    """
    def gap(R):
        slope = p * R ** (p - 1.0) * kprime_radial_integral(f, p, n, R)
        return mass_of_radius(f, p, n, R) - m, slope

    start = (m * (n + p) / (unit_ball_volume(n) * p)) ** (1.0 / (n + p))
    return _monotone_root(gap, start, 0.0, 0.0, 0.0)


@dataclass(frozen=True, eq=False)
class DualWeights:
    """Per-atom constants pinning the optimal density formula.

    ``split`` is None when every cell goes wholly to its best atom, or
    (cells, shares): those cells' mass goes to the atoms in proportion to
    the rows of shares, (cells, atoms) with each row summing to 1, which is
    how the weight solve split its tied cells. ``residual`` is the largest
    per-atom mass error of that accounting.
    """

    c: np.ndarray
    atoms: AtomicMeasure
    residual: float = float("nan")
    split: tuple | None = None

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


def _first_max(scores: np.ndarray, rank: np.ndarray):
    """Each column's largest entry and the first row reaching it.

    ``scores`` is (rows, columns) and ``rank`` the integer column rows, ...,
    1 (``_rank``): this is ``scores.argmax(axis=0)`` and its values, ties to
    the lowest row, as reductions along contiguous rows.
    """
    best = scores.max(axis=0)
    return best, np.subtract(len(rank), ((scores == best) * rank).max(axis=0), dtype=np.intp)


def _rank(m: int) -> np.ndarray:
    """The column m, ..., 1 that ``_first_max`` ranks rows by."""
    return np.arange(m, 0, -1, dtype=np.min_scalar_type(m))[:, None]


class _Workspace:
    """Shared per-grid arrays for the weight solve and mass accounting.

    ``dist`` and ``dist_p`` are (atoms, cells): row i holds every cell's
    distance to atom i, and its p-th power. A cell's winner is its first
    best atom (the lowest index among ties), as ``_first_max`` takes it.
    ``last`` holds the weights of the latest ``stats`` call and its result,
    so a value read right after a solve reuses the solve's final scores.
    """

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
        # sqrt of the squared offsets summed axis by axis, as
        # np.linalg.norm sums them
        sq = np.zeros((self.m, len(self.centers)))
        for axis in range(atoms.dim):
            offset = self.centers[:, axis] - atoms.points[:, axis, None]
            sq += offset * offset
        self.dist = np.sqrt(sq)
        self.dist_p = self.dist**p
        self._idx = np.arange(len(self.centers))
        self._rank = _rank(self.m)
        self.last = (None, None)

    def stats(self, c: np.ndarray):
        """Winning score, winner, density and winner's cell mass per cell."""
        s, winner = _first_max(c[:, None] - self.dist_p, self._rank)
        u = self.f.k(s)  # exactly 0 off the support (s <= 0)
        out = s, winner, u, np.bincount(winner, weights=u * self.vol, minlength=self.m)
        self.last = (c.copy(), out)
        return out

    def stats_at(self, c: np.ndarray):
        """``stats(c)``, read off ``last`` when the latest call was at ``c``."""
        last_c, last = self.last
        return last if np.array_equal(last_c, c) else self.stats(c)

    def dual_value(self, c: np.ndarray, s: np.ndarray, u: np.ndarray) -> float:
        """c . masses - vol * sum f*(max(s, 0)), f* read off the density u = k(s)."""
        conj = np.where(s > 0, s * u - self.f.f(u), 0.0).sum() * self.vol
        return float(c @ self.atoms.masses) - float(conj)

    def full_jacobian(self, c: np.ndarray) -> np.ndarray:
        """Mass sensitivity: diagonal response plus cell-boundary coupling.

        Raising c_b by t moves the a-b boundary into a's cells by t / |grad_b
        - grad_a|. An active cell whose best-minus-runner-up gap is within
        tau = |grad_b - grad_a| h (h the cell diameter, tau >= 1e-14) lies
        in that boundary's band, 2 tau wide as the cells on both sides count,
        so it couples its winner and runner-up by k(s) vol / (2 tau).
        """
        m = self.m
        scores = c[:, None] - self.dist_p
        s, winner = _first_max(scores, self._rank)
        active = s > 0
        # raveled J entries and their terms; bincount sums each entry's terms
        # in list order: the diagonal response, then the (a, b), (b, a),
        # (a, a) and (b, b) boundary couplings
        keys = [winner * (m + 1)]
        terms = [self.f.k_prime(s) * self.vol * active]
        if m > 1:
            scores[winner, self._idx] = -np.inf
            second, runner = _first_max(scores, self._rank)
            gap = s - second
            ii = np.nonzero(active)[0]
            a, b = winner[ii], runner[ii]
            # boundary-layer width |grad_b - grad_a| * h, h the cell diameter
            tau = np.maximum(self._grad_gap(ii, a, b) * self.grid.cell_diameter, 1e-14)
            on = gap[ii] <= tau
            coupling = self.f.k(s[ii][on]) * self.vol / (2.0 * tau[on])
            aa, bb = a[on], b[on]
            keys += [aa * m + bb, bb * m + aa, aa * (m + 1), bb * (m + 1)]
            terms += [-coupling, -coupling, coupling, coupling]
        J = np.bincount(np.concatenate(keys), weights=np.concatenate(terms), minlength=m * m)
        return J.reshape(m, m)

    def _grad_gap(self, cells, a, b) -> np.ndarray:
        """|grad_b - grad_a| at ``cells``, grad_i = p d^(p-2) (x - x_i) the
        gradient in x of |x - x_i|^p (d = |x - x_i|, read as 1 where it is 0),
        its squares summed axis by axis as np.linalg.norm sums them."""
        p, points = self.p, self.atoms.points
        da, db = self.dist[a, cells], self.dist[b, cells]
        fa = p * np.where(da > 0, da, 1.0) ** (p - 2.0)
        fb = p * np.where(db > 0, db, 1.0) ** (p - 2.0)
        sq = np.zeros(len(cells))
        for axis in range(points.shape[1]):
            x = self.centers[cells, axis]
            diff = fb * (x - points[b, axis]) - fa * (x - points[a, axis])
            sq += diff * diff
        return np.sqrt(sq)


def density_from_weights(
    atoms: AtomicMeasure, c, f: FunctionFamily, p: float, grid: Grid
) -> GridDensity:
    """Materialize u(x) = k(max_i(c_i - |x - x_i|^p) v 0) at the cell centers."""
    weights = c.c if isinstance(c, DualWeights) else np.asarray(c, dtype=float)
    ws = _Workspace(atoms, f, p, grid)
    s, _, u, _ = ws.stats(weights)
    return _density(ws, s, u)


def _density(ws: _Workspace, s: np.ndarray, u: np.ndarray) -> GridDensity:
    """The density on ``ws``'s grid from one ``stats`` call's scores and values."""
    return GridDensity(ws.grid, np.where(s > 0, u, 0.0).reshape(ws.grid.resolution))


def cell_masses(
    atoms: AtomicMeasure, c, f: FunctionFamily, p: float, grid: Grid
) -> np.ndarray:
    """Midpoint-rule mass of each atom's cell; ties go to the lowest index,
    unless ``c`` is a ``DualWeights`` whose split shares them."""
    weights = c.c if isinstance(c, DualWeights) else np.asarray(c, dtype=float)
    ws = _Workspace(atoms, f, p, grid)
    _, winner, u, _ = ws.stats(weights)
    return _split_masses(ws, winner, u, c.split if isinstance(c, DualWeights) else None)


def _coordinate_sweep(ws: _Workspace, c: np.ndarray, targets: np.ndarray):
    """Gauss-Seidel pass: bisect each weight to its own mass balance, the
    others held fixed; each trial's mass is the mass ``stats`` gives atom i.

    With the others fixed, atom i wins a cell where its score beats the
    best other score there, or ties it ahead of that atom, so a trial
    reads one row of cells instead of all the atoms.
    """
    c = c.copy()
    for i in range(ws.m):
        others = c.copy()
        others[i] = -np.inf
        rival, first = _first_max(others[:, None] - ws.dist_p, ws._rank)
        ahead = first > i

        def mass(weight):
            s = weight - ws.dist_p[i]
            wins = (s > rival) | ((s == rival) & ahead)
            # summed in cell order, as stats' bincount sums atom i's cells
            return np.bincount(wins, weights=ws.f.k(s) * ws.vol, minlength=2)[1]

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
    """Uniform shift balancing total mass; it keeps every cell's winner."""
    return c + _level(ws.f, ws.vol, ws.stats(c)[0], total)


def solve_weights(
    atoms: AtomicMeasure,
    f: FunctionFamily,
    p: float,
    grid: Grid,
    tol: float = 1e-7,
) -> DualWeights:
    """Solve the per-atom weights so cell masses match atom masses.

    Damped Newton ascends the concave dual (gradient: atom masses minus cell
    masses) from equal weights balanced to the total mass; the Jacobian, the
    derivative of the cell masses, couples neighboring cells through the
    band of cells along their shared boundary, counted from both sides. Its
    line search tries the step factors 1, 1/2, ..., 1/128 and takes no step
    that leaves an atom less than half the least target or start mass; a
    step that fails them all ends Newton, and so does a residual within the
    crossover's reach. The crossover then runs once from Newton's best
    iterate: it shares the exactly tied cells, each among all the atoms tied
    on it, so that every atom gets its mass (``DualWeights.split``), the
    exact discrete optimum whatever ``tol`` asks, at a cost that does not
    grow as ``tol`` tightens. If it finds no split that lowers the residual
    and Newton stopped above ``tol``, one pass of per-coordinate bisection
    plus a uniform shift balancing the total mass (one Newton solve on the
    winners of one ``stats`` call) runs from Newton's best iterate; its
    bisection raises GridTooCoarse if a weight cannot reach its atom's
    mass. Raises NoConvergence with the best residual when the requested
    tolerance is out of reach. ``tol`` is the one setting: Newton's step
    count is capped internally, a bound no measured solve comes near.
    """
    return _solve_weights(atoms, f, p, grid, tol)[0]


def _solve_weights(atoms, f, p, grid, tol):
    """``solve_weights`` plus the workspace it solved on, for reuse."""
    if not atoms.is_probability():
        raise NotProbability("solve_weights needs a probability atomic measure")
    ws = _Workspace(atoms, f, p, grid)
    c, residual, split = _solve_weights_best(atoms, f, p, grid, tol, ws=ws)
    if residual > tol:
        raise NoConvergence(
            f"mass balance reached {residual:.3e} > tol {tol:.3e}; "
            "the crossover found no split of the tied cells that meets it",
            residual=residual,
        )
    return DualWeights(c=c, atoms=atoms, residual=residual, split=split), ws


def _solve_weights_best(
    atoms: AtomicMeasure,
    f: FunctionFamily,
    p: float,
    grid: Grid,
    tol: float,
    ws: _Workspace | None = None,
):
    """Best-effort weight solve; returns ``(c, residual, split)`` without raising.

    ``split`` is the tied-cell split as in ``DualWeights.split``, (cells,
    shares) with each row of shares one cell's fractions per atom, or None
    when every cell has one owner. Newton starts from the equal weights
    whose level balances the total mass (one ``_level`` solve on the
    nearest atoms' distances) and steps while its best residual is above
    ``tol``. It stops when its line search fails or once its best residual
    is within the crossover's reach, the mass of ``_PIVOTS`` of the start's
    largest cells. Then ``_crossover`` runs once, from the best iterate,
    and its split is kept if it lowers the residual. Otherwise a solve
    above ``tol`` ends in the sweep-and-polish pass.
    """
    if ws is None:
        ws = _Workspace(atoms, f, p, grid)
    targets = atoms.masses
    c = np.full(ws.m, _level(f, ws.vol, -ws.dist_p.min(axis=0), float(targets.sum())))
    s, winner, u, cm = ws.stats(c)
    # the best iterate, and its scores and winners for the crossover's start
    best_c, best_start = c.copy(), (s, winner)
    best_res = float(np.abs(cm - targets).max())
    phi = ws.dual_value(c, s, u)
    # a crossover round moves about one cell
    reach = _PIVOTS * ws.vol * float(u.max())
    # no accepted step leaves an atom less than half the least target or start mass
    floor = 0.5 * min(float(targets.min()), float(cm.min()))
    for _ in range(_NEWTON_STEPS):
        if best_res <= tol:
            break
        r = cm - targets
        J = ws.full_jacobian(c)
        scale = max(float(np.trace(J)) / ws.m, 1e-12)
        # J is a nonnegative diagonal plus one graph-Laplacian term per
        # boundary pair, so the shifted system is symmetric positive
        # definite and its step ascends
        step = np.linalg.solve(J + 1e-10 * scale * np.eye(ws.m), -r)
        found = _line_search(ws, c, step, phi, float(-r @ step), floor)
        if found is None:
            break
        c, cm, phi, s, winner = found
        res = float(np.abs(cm - targets).max())
        if res < best_res:
            best_res, best_c, best_start = res, c.copy(), (s, winner)
        if best_res <= reach:
            break
    out = _crossover(ws, best_c, best_start)
    if out is not None and out[1] < best_res:
        return out
    if best_res > tol:
        # one monotone pass: per-coordinate bisection, then a level re-balance
        c = _level_polish(ws, _coordinate_sweep(ws, best_c, targets), float(targets.sum()))
        res = float(np.abs(ws.stats(c)[3] - targets).max())
        if res < best_res:
            best_res, best_c = res, c
    return best_c, best_res, None


def _split_masses(ws: _Workspace, winner, u, split) -> np.ndarray:
    """Per-atom mass: winner-takes-all but for the split's cells, shared by their rows."""
    mass = u * ws.vol
    if split is None:
        return np.bincount(winner, weights=mass, minlength=ws.m)
    cells, shares = split
    rest = np.ones(len(mass), dtype=bool)
    rest[cells] = False
    return np.bincount(winner[rest], weights=mass[rest], minlength=ws.m) + mass[cells] @ shares


_PIVOTS = 8  # the hand-over reach in cells, and crossover rounds beyond 4 per atom
# Newton's step cap, a guard only: Armijo's slack can pass a step that does
# not raise the dual, so the loop needs a bound (measured solves take <= 9)
_NEWTON_STEPS = 500


def _crossover(ws: _Workspace, c0: np.ndarray, start):
    """The dual optimum near ``c0`` with its tied cells split, or None.

    ``start`` is (scores, winners) of ``ws.stats(c0)``. A round, one
    ``stats`` call, ties each support cell to the atoms within the tie
    tolerance of its best score and sends the atoms' masses into their
    cells by one max-flow (``_share``), the cells tied to the same atoms
    pooled. A flow that fills every mass and every cell is the split: a
    cell's row is its pool's flow over the pool's mass. Otherwise the set
    of atoms its min cut names shifts alone (``_shift``) until it balances
    or one more cell ties. Returns None after ``_PIVOTS`` + 4 m rounds.
    """
    m, vol, targets = ws.m, ws.vol, ws.atoms.masses
    eps = 1e-12 * (1.0 + float(ws.dist_p.max()) + float(np.abs(c0).max()))  # tie tolerance
    c, (s, winner) = c0, start
    u = ws.f.k(s)
    for _ in range(_PIVOTS + 4 * m):
        mass = u * vol
        tied = (c[:, None] - ws.dist_p >= s - eps) & (mass > 0)
        cells = np.flatnonzero(np.count_nonzero(tied, axis=0) > 1)
        pools = {}  # each tied cell's atom set -> its pool
        keys = [col.tobytes() for col in tied[:, cells].T]
        group = np.array([pools.setdefault(key, len(pools)) for key in keys], dtype=int)
        sets = np.frombuffer(b"".join(pools), dtype=bool).reshape(len(pools), m)
        owner = winner.copy()  # a cell held alone goes to its winner's own group
        owner[cells] = m + group
        room = np.bincount(owner, weights=mass, minlength=m + len(sets))
        flow, violation, atoms = _share(targets, sets, room)
        # below this, what the flow leaves unmet is rounding in the room sums
        if violation > 1e-14 * (1 + len(cells)):
            moving = np.bincount(atoms, minlength=m) > 0
            c = c + moving * _shift(ws, c, s, winner, moving, float(targets[moving].sum()))
            s, winner, u, _ = ws.stats(c)
            continue
        rows = np.array([[f.get(i, 0.0) for i in range(m)] for f in flow[m:]]).reshape(-1, m)
        unused = np.maximum(room[m:] - rows.sum(axis=1), 0.0)  # goes to the pool's first atom
        rows[np.arange(len(sets)), sets.argmax(axis=1)] += unused
        split = (cells, rows[group] / room[m:][group, None]) if len(cells) else None
        residual = float(np.abs(_split_masses(ws, winner, u, split) - targets).max())
        return c, residual, split
    return None


_FLOW_TINY = 1e-15  # a flow or a residual capacity below this is empty


def _share(targets: np.ndarray, sets: np.ndarray, room: np.ndarray):
    """Max-flow from the atoms' targets into their cells by shortest
    augmenting paths, and the most violated set of atoms its min cut names.

    Group i < m is atom i's own cells, filled first, and group m + g the
    cells pooled on the atoms that row g of ``sets`` marks; group g takes at
    most ``room[g]``. Returns (flow, violation, atoms): flow[g] maps each
    atom of group g to the mass it sends there, and ``atoms`` lack mass that
    no group tied to them has left, or hold room that no other atom can
    take, by ``violation`` in all.
    """
    m = len(targets)
    groups = [[i] for i in range(m)] + [np.flatnonzero(row).tolist() for row in sets]
    ties = [[i, *(m + np.flatnonzero(col)).tolist()] for i, col in enumerate(sets.T)]
    own = np.minimum(targets, room[:m])  # each atom fills its own cells first
    need, left = (targets - own).tolist(), np.concatenate([room[:m] - own, room[m:]]).tolist()
    flow = [{i: x} for i, x in enumerate(own.tolist())] + [dict.fromkeys(a, 0.0) for a in groups[m:]]

    def search(roots):
        # breadth first from ``roots``: atom -> any group tied to it -> an
        # atom that sends mass there, up to a group with room left
        came, reached = dict.fromkeys(roots), {}
        order = list(came)
        for i in order:
            for g in ties[i]:
                if g not in reached:
                    reached[g] = i
                    if left[g] > _FLOW_TINY:
                        return came, reached, g
                    for j, sent in flow[g].items():
                        if sent > _FLOW_TINY and j not in came:
                            came[j] = g
                            order.append(j)
        return came, reached, None

    while True:
        came, reached, end = search(i for i in range(m) if need[i] > _FLOW_TINY)
        if end is None:
            break
        path = [(end, reached[end])]  # (group, atom sending to it) back to the source
        while came[path[-1][1]] is not None:
            g = came[path[-1][1]]
            path.append((g, reached[g]))
        amount = min([left[end], need[path[-1][1]]] + [flow[came[i]][i] for _, i in path[:-1]])
        left[end] -= amount
        need[path[-1][1]] -= amount
        for g, i in path:
            flow[g][i] += amount
            if came[i] is not None:
                flow[came[i]][i] -= amount
    # the cut's sides, the atoms that lack mass and all they reach and those
    # that reach unused room, fall apart into sets joined by the groups they
    # reach; the set that lacks or holds the most mass moves
    spare, surplus = [g for g, rest in enumerate(left) if rest > _FLOW_TINY], set()
    for g in spare:
        for i in set(groups[g]) - surplus:
            surplus.add(i)
            spare += [h for h in ties[i] if flow[h][i] > _FLOW_TINY and h not in spare]
    worst, moving = 0.0, []
    for side, linked, lacking in ((set(came), reached, True), (surplus, spare, False)):
        part = {i: {i} for i in side}
        for g in linked:
            joined = set().union(*(part[i] for i in groups[g] if i in side))
            part.update(dict.fromkeys(joined, joined))
        for atoms in {id(atoms): atoms for atoms in part.values()}.values():
            violation = (sum(need[i] for i in atoms) if lacking
                         else sum(left[g] for g in linked if groups[g][0] in atoms))
            if violation > worst:
                worst, moving = violation, sorted(atoms)
    return flow, worst, moving


def _shift(ws: _Workspace, c, s, winner, moving, target: float) -> float:
    """The common shift of the ``moving`` atoms' weights, the others fixed,
    at which their mass is ``target``; ``s``, ``winner`` are ``ws.stats(c)``'s.

    The mass grows continuously with the shift, and jumps by a cell's mass
    where the set takes the cell from an atom scoring above 0. An
    exponential search, then bisection, over those sorted take-over shifts
    ends between two of them (one ``_level`` solve), or on one where the
    mass jumps across ``target``, so that cell ties exactly.
    """
    d, held = ws.dist_p, moving[winner]
    inner, outer = s.copy(), s.copy()  # each cell's best score in and out of the set
    cols, rows = np.flatnonzero(~held), np.flatnonzero(moving)
    inner[cols] = (c[rows, None] - d[rows[:, None], cols]).max(axis=0)
    cols, rows = np.flatnonzero(held), np.flatnonzero(~moving)
    outer[cols] = (c[rows, None] - d[rows[:, None], cols]).max(axis=0, initial=-np.inf)
    jumps = outer > 0
    at = outer[jumps] - inner[jumps]  # the shift at which the set takes each cell
    order = np.argsort(at, kind="stable")
    at, kept = at[order], int(np.count_nonzero(~jumps))
    # the set's scores: the cells no other atom scores above 0 on, then the
    # others by take-over shift
    scores = np.concatenate([inner[~jumps], inner[jumps][order]])

    def short(j):  # on its cells and the first j jumps, the set lacks mass at the next jump
        return j < len(at) and float(ws.f.k(scores[: kept + j] + at[j]).sum()) * ws.vol < target

    # the first j that is not short, by exponential search from the cells
    # the set holds now, then bisection
    lo = hi = int(np.searchsorted(at, 0.0, side="right"))
    step = 1
    while short(hi):
        lo, hi, step = hi, min(hi + step, len(at)), 2 * step
    if lo == hi:
        lo = hi - 1
        while lo >= 0 and not short(lo):
            hi, lo, step = lo, max(lo - step, -1), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if not short(mid) else (mid, hi)
    t = _level(ws.f, ws.vol, scores[: kept + hi], target)
    # at or below the last jump taken, the mass jumps across the target there
    return max(t, float(at[hi - 1])) if hi else t


_ROOT_ULPS = 4.0 * np.finfo(float).eps


def _monotone_root(gap, x: float, lo: float, scale: float, floor: float) -> float:
    """A root of a continuous nondecreasing function, by Newton from ``x``.

    ``gap(x)`` returns (value, slope); the value is <= 0 at ``lo`` and
    constant below ``floor``. A Newton step of a few ulps of |x| + ``scale``
    ends the search: below that, the value is rounding noise. Other steps
    stay inside the bracket of the root found so far; one that would leave
    it bisects, or, while an end of the bracket is unknown, moves 1 + |end|
    past the known end (and past ``floor`` when moving up).
    """
    hi = np.inf
    for _ in range(100):
        value, slope = gap(x)
        if value == 0.0:
            break
        nxt = x - value / slope if slope > 0.0 else np.nan
        if abs(nxt - x) <= _ROOT_ULPS * (abs(x) + scale):
            return nxt
        if value < 0.0:
            lo = x
        else:
            hi = x
        if not lo < nxt < hi:
            if np.isfinite(lo) and np.isfinite(hi):
                nxt = 0.5 * (lo + hi)
            elif np.isfinite(lo):
                nxt = max(lo, floor) + 1.0 + abs(lo)
            else:
                nxt = hi - 1.0 - abs(hi)
        if nxt in (x, lo, hi):
            break
        x = nxt
    return x


def _level(f: FunctionFamily, vol: float, base: np.ndarray, target: float) -> float:
    """The shift L with vol * sum k(L + base) = target, ``base`` not empty;
    the mass is continuous and nondecreasing in L."""
    def gap(level):
        t = level + base
        return float(f.k(t).sum()) * vol - target, float(f.k_prime(t).sum()) * vol

    return _monotone_root(gap, 0.0, -np.inf, float(np.abs(base).max()), -float(base.max()))


def _line_search(
    ws: _Workspace, c: np.ndarray, step: np.ndarray, phi: float, slope: float, floor: float
):
    """Armijo backtracking along ``step``: the step factors 1, 1/2, ..., 1/128
    in turn until a trial passes, one ``stats`` call per factor.

    A trial passes if the dual rises by the Armijo fraction of ``slope`` and
    every atom's cell mass is at least ``floor``, so that no step starves an
    atom (Kitagawa, Merigot & Thibert 2019). Returns (weights, cell masses,
    dual value, scores, winners) of the accepted trial, or None when no
    factor passes: the step has run into a kink of the dual, where the
    crossover takes over.
    """
    slack = 1e-13 * (1.0 + abs(phi))
    for k in range(8):
        lam = 0.5**k
        trial = c + lam * step
        s, winner, u, cm = ws.stats(trial)
        if cm.min() < floor:
            continue
        phi2 = ws.dual_value(trial, s, u)
        if phi2 >= phi + 1e-4 * lam * slope - slack:
            return trial, cm, phi2, s, winner
    return None


def min_Fp_nu(
    nu: AtomicMeasure,
    f: FunctionFamily,
    p: float,
    grid: Grid,
    tol: float = 1e-7,
):
    """Minimize transport-plus-spread cost over densities at fixed atoms.

    Returns the optimal density and a value breakdown. The weight solve
    (``solve_weights``, to the mass tolerance ``tol``) ends at the split
    optimum, whose power cells are an optimal plan from the density to
    ``nu``; the transport term is that plan's cost, and
    ``total - dual_objective`` certifies it.
    """
    return _min_Fp_nu(nu, f, p, grid, tol)[:2]


def _min_Fp_nu(nu, f, p, grid, tol):
    """``min_Fp_nu`` plus the transport plan of its power cells."""
    weights, ws = _solve_weights(nu, f, p, grid, tol)
    density, breakdown, plan = _evaluate(ws, weights.c, weights.split)
    breakdown["transport_route"] = "lp"  # the cell plan solves the LP; the benchmark reads this key
    return density, breakdown, plan


def _evaluate(ws: _Workspace, c: np.ndarray, split=None):
    """The fixed-atom value of weights ``c``: (density, breakdown, plan).

    ``stats`` at ``c`` gives the density, the dual's scores and the power
    cells; they are read off ``ws.last`` when the workspace's latest call
    was at ``c``, as after a solve that ends on its final round. The plan
    sends each support cell's mass to its winner (a cell of ``split`` to
    the atoms its row of shares gives a nonzero share), one flow per cell
    and atom in cell order, and carries the potentials psi = -s and
    psi^c = c, tight on every flow, so it is optimal to its column sums:
    the atom masses at a split optimum. The transport term is its cost.
    """
    s, winner, u, _ = ws.stats_at(c)
    cm = _split_masses(ws, winner, u, split)
    density = _density(ws, s, u)
    cells = np.flatnonzero(density.values.ravel() > 0)
    fi, fj, share = np.arange(len(cells)), winner[cells], np.ones(len(cells))
    if split is not None:
        # a split cell carries mass, so it is a support cell: its entries
        # replace its winner's, and a stable sort keeps each row's atom order
        rows, atoms = np.nonzero(split[1])
        alone = ~np.isin(cells, split[0])
        fi = np.concatenate([fi[alone], np.searchsorted(cells, split[0][rows])])
        order = np.argsort(fi, kind="stable")
        fi = fi[order]
        fj = np.concatenate([fj[alone], atoms])[order]
        share = np.concatenate([share[alone], split[1][rows, atoms]])[order]
    flow = u[cells[fi]] * ws.vol * share
    transport = float(ws.dist_p[fj, cells[fi]] @ flow)
    plan = TransportPlan(
        WeightedPointCloud(ws.centers[cells], u[cells] / u[cells].sum()),
        WeightedPointCloud(ws.atoms.points, ws.atoms.masses / ws.atoms.total_mass),
        fi, fj, flow, ws.p, transport, 0.0, -s[cells], c.copy(),
    )
    f_term = eval_F(ws.f, density)
    breakdown = {
        "transport": transport,
        "F": f_term,
        "total": transport + f_term,
        "dual_objective": ws.dual_value(c, s, u),
        "mass_residual": float(np.abs(cm - ws.atoms.masses).max()),
    }
    return density, breakdown, plan

"""Resident-density subproblem for a fixed atomic service measure.

Given atoms with masses, the optimal density is a truncated radial profile
around each atom pinned by one weight per atom: u(x) = k(max_i(c_i - |x-x_i|^p) v 0).
Weights are solved so each atom's cell carries exactly its mass, by damped
Newton on the concave dual with a boundary-coupled Jacobian, from equal
weights balanced to the total mass: each atom starts with the cells nearest
it (its Voronoi cells). The Armijo line search halves the step until the
test passes, one workspace ``stats`` call per step factor; the Jacobian
computes each active cell's boundary-layer width from the distances to its
two best atoms.

The workspace stores every per-(atom, cell) array atom-major, (atoms, cells),
so each pass over the atoms runs along contiguous rows of cells: a cell's
best score is a maximum over axis 0, and its winner is the first row (the
lowest atom index) that reaches it, which is ``argmax``'s tie rule.

Hard cell assignment on a grid makes the per-atom mass map piecewise smooth
with jumps of order (boundary density) * (cell volume), and the dual's
maximiser sits on such a jump: there some cells tie between atoms and must
be split. An active-set crossover (Megiddo 1991) ties those cells exactly,
pivoting about one event per round for at most ``_PIVOTS`` + 4 rounds per
atom, and splits them so that every atom gets its mass: the exact discrete
optimum. There the power cells are an optimal transport plan to the atoms
(Kitagawa, Merigot & Thibert 2019), so the fixed-atom value reads its
transport term off them and solves no LP. Newton hands over to the
crossover once, when its active set first repeats or its residual comes
within the crossover's reach (the mass of ``_PIVOTS`` of the largest
cells), and again wherever Newton stops; a split that meets the tolerance
ends the solve, so its cost does not grow as the tolerance tightens. If
the crossover finds no consistent split, the solve goes on as without it,
and if Newton stops above the tolerance one monotone pass (a
per-coordinate bisection sweep, then a uniform shift balancing the total
mass) starts from its best iterate and is kept only if it lowers the
residual.

Every smooth one-dimensional solve is one bracketed Newton root-finder
(``_monotone_root``): the crossover's and the pass's level shifts, and a
custom family's ball radius R(m).
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

    def stats(self, c: np.ndarray):
        """Winning score, winner, density and winner's cell mass per cell."""
        s, winner = _first_max(c[:, None] - self.dist_p, self._rank)
        u = self.f.k(s)  # exactly 0 off the support (s <= 0)
        return s, winner, u, np.bincount(winner, weights=u * self.vol, minlength=self.m)

    def dual_value(self, c: np.ndarray, s: np.ndarray, u: np.ndarray) -> float:
        """c . masses - vol * sum f*(max(s, 0)), f* read off the density u = k(s)."""
        conj = np.where(s > 0, s * u - self.f.f(u), 0.0).sum() * self.vol
        return float(c @ self.atoms.masses) - float(conj)

    def full_jacobian(self, c: np.ndarray) -> np.ndarray:
        """Mass sensitivity: diagonal response plus cell-boundary coupling."""
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
            coupling = self.f.k(s[ii][on]) * self.vol / tau[on]
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
    max_iter: int = 500,
) -> DualWeights:
    """Solve the per-atom weights so cell masses match atom masses.

    Damped Newton ascends the concave dual (gradient: atom masses minus cell
    masses); the Jacobian couples neighboring cells through their shared
    boundary layer. It starts from equal weights balanced to the total mass
    and raises GridTooCoarse if an atom's Voronoi cells carry no mass there.
    At the kink where Newton cycles or once it is within the crossover's
    reach, and again wherever it stops, an active-set crossover splits the
    exactly tied cells so that every atom gets its mass
    (``DualWeights.split``): the exact discrete optimum, whatever ``tol``
    asks, at a cost that does not grow as ``tol`` tightens. If it finds no
    split and Newton stopped above ``tol``, one pass of per-coordinate
    bisection plus a uniform shift balancing the total mass (one Newton
    solve on the winners of one ``stats`` call) runs from Newton's best
    iterate. Raises NoConvergence with the best residual when the
    requested tolerance is out of reach.
    """
    return _solve_weights(atoms, f, p, grid, tol, max_iter)[0]


def _solve_weights(atoms, f, p, grid, tol, max_iter):
    """``solve_weights`` plus the workspace it solved on, for reuse."""
    if not atoms.is_probability():
        raise NotProbability("solve_weights needs a probability atomic measure")
    ws = _Workspace(atoms, f, p, grid)
    c, residual, split = _solve_weights_best(atoms, f, p, grid, tol, max_iter, ws=ws)
    if residual > tol:
        raise NoConvergence(
            f"mass balance reached {residual:.3e} > tol {tol:.3e}; "
            "refine the grid or relax the tolerance",
            residual=residual,
        )
    return DualWeights(c=c, atoms=atoms, residual=residual, split=split), ws


def _solve_weights_best(
    atoms: AtomicMeasure,
    f: FunctionFamily,
    p: float,
    grid: Grid,
    tol: float,
    max_iter: int = 500,
    ws: _Workspace | None = None,
):
    """Best-effort weight solve; returns ``(c, residual, split)`` without raising.

    ``split`` is the tied-cell split as in ``DualWeights.split``, (cells,
    shares) with each row of shares one cell's fractions per atom, or None
    when every cell has one owner. Newton starts from the equal weights
    whose level balances the total mass (one ``_level`` solve on the
    nearest atoms' distances), and raises GridTooCoarse if an atom owns no
    mass there. It hands over to ``_crossover`` from its best iterate
    once, at the first accepted iterate whose active set (each cell's
    winner, -1 off the support) repeats one from before the previous
    iterate, or whose best residual is within the crossover's reach: the
    mass of ``_PIVOTS`` of the start's largest cells. A split that meets
    ``tol`` (at a revisit, one that lowers the residual) ends the solve. It
    hands over again when it stops unless that best iterate was handed
    over already. If the crossover finds no consistent split, the solve
    goes on as if it had not run: a Newton that stops above ``tol`` ends
    in the sweep-and-polish pass.
    """
    if ws is None:
        ws = _Workspace(atoms, f, p, grid)
    targets = atoms.masses
    c = np.full(ws.m, _level(f, ws.vol, -ws.dist_p.min(axis=0), float(targets.sum())))
    s, winner, u, cm = ws.stats(c)
    if not (cm > 0).all():
        raise GridTooCoarse("grid cannot give every atom a supporting cell; refine the grid")
    # the best iterate, and its scores and winners for the crossover's start
    best_c, best_start = c.copy(), (s, winner)
    best_res = float(np.abs(cm - targets).max())
    phi = ws.dual_value(c, s, u)
    seen = {_active_set(s, winner): 0}  # active set -> last iterate that had it
    # the crossover pivots about one cell per round
    reach = _PIVOTS * ws.vol * float(u.max())
    crossed_from = crossed = None
    it = 0
    while it < max_iter and best_res > tol:
        it += 1
        r = cm - targets
        J = ws.full_jacobian(c)
        scale = max(float(np.trace(J)) / ws.m, 1e-12)
        # J is a nonnegative diagonal plus one graph-Laplacian term per
        # boundary pair, so the shifted system is symmetric positive
        # definite and its step ascends
        step = np.linalg.solve(J + 1e-10 * scale * np.eye(ws.m), -r)
        slope = float(-r @ step)
        phi_prev = phi
        found = _line_search(ws, c, step, phi, slope)
        if found is not None:
            c, cm, phi, s, winner = found
        res = float(np.abs(cm - targets).max())
        if res < best_res:
            best_res, best_c, best_start = res, c.copy(), (s, winner)
        if found is None or (
            it > 10 and res > tol and phi <= phi_prev + 1e-15 * (1.0 + abs(phi_prev))
        ):
            break
        # Newton cycles about a kink of the dual, or is within the
        # crossover's reach: split the tied cells once
        key = _active_set(s, winner)
        revisit = seen.get(key, it - 1) < it - 1
        if best_res > tol and crossed_from is None and (revisit or best_res <= reach):
            crossed_from, crossed = best_c, _crossover(ws, best_c, best_start)
            if crossed is not None and (crossed[1] <= tol or revisit and crossed[1] < best_res):
                return crossed
        seen[key] = it
    out = crossed if best_c is crossed_from else _crossover(ws, best_c, best_start)
    if out is not None and out[1] < best_res:
        return out
    if best_res > tol:
        # one monotone pass: per-coordinate bisection, then a level re-balance
        c = _level_polish(ws, _coordinate_sweep(ws, best_c, targets), float(targets.sum()))
        res = float(np.abs(ws.stats(c)[3] - targets).max())
        if res < best_res:
            best_res, best_c = res, c
    return best_c, best_res, None


def _active_set(s: np.ndarray, winner: np.ndarray) -> bytes:
    """Each cell's winner, -1 off the support, as a hashable key."""
    return np.where(s > 0, winner, -1).tobytes()


def _split_masses(ws: _Workspace, winner, u, split) -> np.ndarray:
    """Per-atom mass: winner-takes-all but for the split's cells, shared by their rows."""
    mass = u * ws.vol
    if split is None:
        return np.bincount(winner, weights=mass, minlength=ws.m)
    cells, shares = split
    rest = np.ones(len(mass), dtype=bool)
    rest[cells] = False
    return np.bincount(winner[rest], weights=mass[rest], minlength=ws.m) + mass[cells] @ shares


_PIVOTS = 8  # crossover rounds beyond 4 per atom, one stats call each


def _crossover(ws: _Workspace, c0: np.ndarray, start):
    """The dual optimum near ``c0`` with its tied cells split, or None.

    ``start`` is (scores, winners) of ``ws.stats(c0)``.

    Atoms are held in components joined by tie edges. An edge (a, b, tau)
    fixes c_a - c_b = tau, so its run ties exactly: every cell where a and
    b lead their component and d_a - d_b = tau (a whole run of cells for
    p = 1, or where the atoms line up with the grid). Each cell belongs to
    one component and goes to its best atom there, and one level per
    component balances the component's mass (``_level``). Each run is then
    shared so that every atom gets its mass: across an edge flows what the
    atoms on its side still lack. A round, one ``stats`` call, pivots until
    that split is consistent:
    - a component that owns no cell ties to the cell it loses by least;
    - cells that an atom of another component now beats tie the two
      components, at the cell beaten by most (the first to flip as the
      levels moved apart);
    - the edge whose share leaves [0, 1] by most gives its run to the side
      that wants more, and the sides tie again at the first cell across
      their boundary by which the flipped cells and the level shift cover
      that want; they are left untied if the shift covers it before that
      cell flips, or if that cell is in the run the last pivot released.
    Returns None if none of the ``_PIVOTS`` + 4 m rounds is consistent.
    """
    m, d, vol, idx, rank = ws.m, ws.dist_p, ws.vol, ws._idx, ws._rank
    targets = ws.atoms.masses
    eps = 1e-12 * (1.0 + float(d.max()) + float(np.abs(c0).max()))  # tie tolerance
    s, winner = start
    own, c = winner, c0.copy()
    comp = np.arange(m)  # component label of each atom
    edges = []  # (a, b, tau): c_a - c_b = tau
    released = np.zeros(d.shape[1], dtype=bool)
    for _ in range(_PIVOTS + 4 * m):
        delta, sides = _forest(c, comp, edges)
        rel = delta[:, None] - d
        # cells off the support carry no mass and follow the global winner;
        # an owner within eps of its component's best keeps the cell, so a
        # pivot's assignment of a tied cell holds
        own = np.where(s > 0, own, winner)
        within = rel  # one component holds every atom
        if comp.min() < comp.max():
            within = np.where(comp[:, None] == comp[own], rel, -np.inf)
        top, best = _first_max(within, rank)
        own = np.where(rel[own, idx] >= top - eps, own, best)
        held = np.bincount(comp[own], minlength=comp.max() + 1) > 0
        if not held[comp].all():
            label = comp[np.argmin(held[comp])]
            lead = np.where((comp == label)[:, None], c[:, None] - d, -np.inf).max(axis=0)
            x = int(np.argmin(s - lead))
            i = int(np.where(comp == label, c - d[:, x], -np.inf).argmax())
            edges.append((i, own[x], d[i, x] - d[own[x], x]))
            comp[comp == label] = comp[own[x]]
            continue
        base = rel[own, idx]
        levels = np.zeros(m)
        for label in np.unique(comp):
            total = float(targets[comp == label].sum())
            levels[comp == label] = _level(ws.f, vol, base[comp[own] == label], total)
        c = delta + levels
        s, winner, u, _ = ws.stats(c)
        score = c[own] - d[own, idx]
        beaten = np.nonzero((s > 0) & (s - score > eps))[0]
        if len(beaten):
            beaten = beaten[np.argsort(score[beaten] - s[beaten], kind="stable")]
            _, first = np.unique(own[beaten] * m + winner[beaten], return_index=True)
            for x in beaten[np.sort(first)]:
                i, j = own[x], winner[x]
                if comp[i] != comp[j]:
                    edges.append((i, j, d[i, x] - d[j, x]))
                    comp[comp == comp[j]] = comp[i]
            released[:] = False
            continue
        runs, free = [], np.ones(len(own), dtype=bool)
        for a, b, tau in edges:
            run = free & ((own == a) | (own == b)) & (np.abs(d[a] - d[b] - tau) <= eps)
            free &= ~run
            runs.append(np.nonzero(run)[0])
        cell_mass = ws.f.k(score) * vol
        lack = targets - np.bincount(own[free], weights=cell_mass[free], minlength=m)
        run_mass = np.array([cell_mass[r].sum() for r in runs])
        # the mass each run gives its edge's atom a: what a's side lacks,
        # less what the side's other runs give it
        inside = sides[:, [a for a, _, _ in edges]] & ~np.eye(len(edges), dtype=bool)
        shares = [float(lack[side].sum() - run_mass[ins].sum()) for side, ins in zip(sides, inside)]
        over = [max(t - w, -t) for t, w in zip(shares, run_mass)]
        if not edges or max(over) <= 1e-13:
            return _certify(ws, c, winner, u, own, free, edges, runs, shares, run_mass)
        e = int(np.argmax(over))
        a, b, tau = edges[e]
        grow_a = shares[e] > run_mass[e]
        label = comp[a]
        grows = (sides[e] == grow_a) & (comp == label)
        del edges[e]
        own[runs[e]] = a if grow_a else b
        # candidates: the shrinking side's free cells, by their margin over
        # the growing side, but for those on the released run's own line
        top, j = _first_max(np.where(grows[:, None], rel, -np.inf), rank)
        margin = rel[own, idx] - top
        same_line = (np.abs(d[a] - d[b] - tau) <= eps) & (
            ((j == a) & (own == b)) | ((j == b) & (own == a)))
        mine = free & ~same_line & (comp[own] == label) & ~grows[own] & (s > 0)
        order = np.nonzero(mine)[0][np.argsort(margin[mine], kind="stable")]
        # the level shift a margin t needs moves t * k'_grow k'_shrink /
        # (k'_grow + k'_shrink) of mass, each side as stiff as its cells
        want = shares[e] - run_mass[e] if grow_a else -shares[e]
        stiff = ws.f.k_prime(score) * vol
        k_grow = float(stiff[free & grows[own]].sum())
        k_shrink = float(stiff[free & ~grows[own] & (comp[own] == label)].sum())
        slope = k_grow * k_shrink / (k_grow + k_shrink) if k_grow + k_shrink > 0 else 0.0
        cover = np.cumsum(cell_mass[order]) + slope * margin[order]
        k = min(int(np.searchsorted(cover, want)), len(order) - 1)
        x = order[k] if len(order) else -1
        if x >= 0:
            flips = mine & (margin < margin[x] - eps)
            own[flips] = j[flips]
        if x < 0 or released[x] or want < cover[k] - cell_mass[x]:  # no tie: untie the sides
            comp[(comp == label) & ~grows] = comp.max() + 1
        else:
            edges.append((j[x], own[x], d[j[x], x] - d[own[x], x]))
        released[:] = False
        released[runs[e]] = True
    return None


def _forest(c: np.ndarray, comp: np.ndarray, edges):
    """The tie forest's weights and sides, in one breadth-first pass.

    Returns (delta, sides): weights meeting every edge's tie, each
    component's lowest atom kept at c, and an (edges, atoms) mask of the
    atoms joined to each edge's first atom by the other edges.
    """
    m = len(c)
    links = [[] for _ in range(m)]
    for e, (a, b, tau) in enumerate(edges):  # c_a - c_b = tau
        links[a].append((e, b, -tau))
        links[b].append((e, a, tau))
    order = np.unique(comp, return_index=True)[1].tolist()
    delta = {root: c[root] for root in order}
    path = np.eye(m, dtype=bool)  # path[v]: v and its ancestors
    child = np.empty(len(edges), dtype=np.intp)  # each edge's end away from its root
    for v in order:  # the queue grows as the pass reaches new atoms
        for e, w, step in links[v]:
            if w not in delta:
                delta[w] = delta[v] + step
                path[w] |= path[v]
                child[e] = w
                order.append(w)
    below = path[:, child].T  # the atoms under each edge
    first = np.array([a for a, _, _ in edges], dtype=np.intp)
    sides = np.where((first == child)[:, None], below, (comp == comp[child][:, None]) & ~below)
    return np.array([delta[v] for v in range(m)]), sides


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


def _certify(ws: _Workspace, c, winner, u, own, free, edges, runs, shares, run_mass):
    """(c, residual, split) of a consistent crossover round.

    Each run is shared as its edge's flow says; a cell outside the runs
    that ``stats`` gives another atom by a margin below the tie tolerance
    keeps its crossover owner through a one-hot row.
    """
    rows = []
    for (a, b, _), run, t, w in zip(edges, runs, shares, run_mass):
        row = np.zeros((len(run), ws.m))
        row[:, a] = min(max(t / w, 0.0), 1.0) if w > 0 else 0.5
        row[:, b] = 1.0 - row[:, a]
        rows.append(row)
    moved = np.nonzero(free & (winner != own))[0]
    cells = np.concatenate(runs + [moved])
    split = (cells, np.concatenate(rows + [np.eye(ws.m)[own[moved]]])) if len(cells) else None
    residual = float(np.abs(_split_masses(ws, winner, u, split) - ws.atoms.masses).max())
    return c, residual, split


def _line_search(ws: _Workspace, c: np.ndarray, step: np.ndarray, phi: float, slope: float):
    """Armijo backtracking along ``step``: halve the step factor from 1 until
    the test passes, one ``stats`` call per factor, down to 1e-13.

    Returns (weights, cell masses, dual value, scores, winners) of the
    accepted trial, or None when no factor passes.
    """
    slack = 1e-13 * (1.0 + abs(phi))
    lam = 1.0
    while lam > 1e-13:
        trial = c + lam * step
        s, winner, u, cm = ws.stats(trial)
        phi2 = ws.dual_value(trial, s, u)
        if phi2 >= phi + 1e-4 * lam * slope - slack:
            return trial, cm, phi2, s, winner
        lam *= 0.5
    return None


def min_Fp_nu(
    nu: AtomicMeasure,
    f: FunctionFamily,
    p: float,
    grid: Grid,
    tol: float = 1e-7,
    max_iter: int = 500,
):
    """Minimize transport-plus-spread cost over densities at fixed atoms.

    Returns the optimal density and a value breakdown. The weight solve ends
    at the split optimum, whose power cells are an optimal plan from the
    density to ``nu``; the transport term is that plan's cost, and
    ``total - dual_objective`` certifies it.
    """
    return _min_Fp_nu(nu, f, p, grid, tol, max_iter)[:2]


def _min_Fp_nu(nu, f, p, grid, tol, max_iter):
    """``min_Fp_nu`` plus the transport plan of its power cells."""
    weights, ws = _solve_weights(nu, f, p, grid, tol, max_iter)
    density, breakdown, plan = _evaluate(ws, weights.c, weights.split)
    breakdown["transport_route"] = "lp"  # the cell plan solves the LP; the benchmark reads this key
    return density, breakdown, plan


def _evaluate(ws: _Workspace, c: np.ndarray, split=None):
    """The fixed-atom value of weights ``c``: (density, breakdown, plan).

    One ``stats`` call gives the density, the dual's scores and the power
    cells. The plan sends each support cell's mass to its winner (a cell of
    ``split`` by its row of shares) and carries the potentials psi = -s and
    psi^c = c, tight on every flow, so it is optimal to its column sums: the
    atom masses at a split optimum. The transport term is its cost.
    """
    s, winner, u, _ = ws.stats(c)
    cm = _split_masses(ws, winner, u, split)
    density = _density(ws, s, u)
    shares = np.eye(ws.m)[winner]
    if split is not None:
        shares[split[0]] = split[1]
    cells = np.flatnonzero(density.values.ravel() > 0)
    fi, fj = np.nonzero(shares[cells])
    flow = u[cells[fi]] * ws.vol * shares[cells[fi], fj]
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

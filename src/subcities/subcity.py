"""Per-atom energy: the full cost contributed by one service pole.

A pole of mass m carries its ball-supported resident profile; its energy
adds the concentration cost g(m), the spread penalty of the profile, and
the transport cost of its residents. The energy's curvature controls
whether small poles want to merge, which bounds the optimal atom count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MassOutOfRange
from .functionals import ConcentrationFamily, FunctionFamily
from .semidiscrete import (
    _generic_radial,
    kprime_radial_integral,
    mass_of_radius,
    radial_power_integral,
    radius_of_mass,
    unit_ball_volume,
)


def _profile_cost(f: FunctionFamily, p: float, n: int, R: float) -> float:
    """Spread plus transport cost of one ball profile of radius R.

    int_0^R [f(k(R^p - r^p)) + k(R^p - r^p) r^p] n w_n r^(n-1) dr
    """
    if R <= 0.0:
        return 0.0
    nwn = n * unit_ball_volume(n)
    if f.is_power_shaped:
        # f(k(t)) = a kappa^q t^(alpha+1) for the power catalogue
        spread = f.a * f.kappa**f.q * radial_power_integral(f.alpha + 1.0, n, p, R)
        move = f.kappa * radial_power_integral(f.alpha, n + p, p, R)
        return nwn * (spread + move)
    kk = lambda r: f.k(R**p - r**p)
    return nwn * _generic_radial(lambda r: f.f(kk(r)) + kk(r) * r**p, n, R)


def _check_mass(m: float, allow_zero: bool) -> None:
    if m < 0.0 or m > 1.0 + 1e-12 or (m == 0.0 and not allow_zero):
        raise MassOutOfRange(f"subcity mass {m} outside the admissible range")


def subcity_energy(f: FunctionFamily, g: ConcentrationFamily, p: float, n: int, m: float) -> float:
    """E(m): total objective contribution of one atom of mass m."""
    _check_mass(m, allow_zero=True)
    if m == 0.0:
        return 0.0
    return float(g.g(m)) + _profile_cost(f, p, n, radius_of_mass(f, p, n, m))


def subcity_energy_dm(f: FunctionFamily, g: ConcentrationFamily, p: float, n: int, m: float) -> float:
    """E'(m) = g'(m) + R(m)^p."""
    _check_mass(m, allow_zero=False)
    return float(g.g_prime(m)) + radius_of_mass(f, p, n, m) ** p


def subcity_energy_d2m(f: FunctionFamily, g: ConcentrationFamily, p: float, n: int, m: float) -> float:
    """E''(m) = g''(m) + 1 / int_0^R(m) k'(R^p - r^p) n w_n r^(n-1) dr."""
    _check_mass(m, allow_zero=False)
    R = radius_of_mass(f, p, n, m)
    return float(g.g_second(m)) + 1.0 / kprime_radial_integral(f, p, n, R)


@dataclass(frozen=True, eq=False)
class EnergyCurve:
    """Cached samples of E and its derivatives on a log-spaced mass grid.

    For the power catalogue the profile cost collapses to a single power of
    the radius, so the curve carries closed-form (coefficient, exponent)
    evaluators, validated against the quadrature route on the sample grid;
    custom families fall back to per-call quadrature.
    """

    f: FunctionFamily
    g: ConcentrationFamily
    p: float
    n: int
    masses: np.ndarray
    energies: np.ndarray
    denergies: np.ndarray
    d2energies: np.ndarray
    power_law: tuple[float, float, float] | None = None  # (mass_coef, K(1), R-exponent)

    @classmethod
    def build(
        cls,
        f: FunctionFamily,
        g: ConcentrationFamily,
        p: float,
        n: int,
        n_samples: int = 64,
        m_min: float = 1e-3,
    ) -> "EnergyCurve":
        masses = np.logspace(np.log10(m_min), 0.0, n_samples)
        energies = np.array([subcity_energy(f, g, p, n, m) for m in masses])
        denergies = np.array([subcity_energy_dm(f, g, p, n, m) for m in masses])
        d2energies = np.array([subcity_energy_d2m(f, g, p, n, m) for m in masses])
        power_law = None
        if f.is_power_shaped:
            mass_coef = mass_of_radius(f, p, n, 1.0)  # m(R) = mass_coef * R^e
            e = n + p * f.alpha
            fast = g.g(masses) + _profile_cost(f, p, n, 1.0) * (masses / mass_coef) ** (
                (e + p) / e
            )
            if np.allclose(fast, energies, rtol=1e-9, atol=1e-12):
                power_law = (mass_coef, _profile_cost(f, p, n, 1.0), e)
        return cls(f, g, p, n, masses, energies, denergies, d2energies, power_law)

    def energy(self, m) -> float | np.ndarray:
        scalar = np.isscalar(m)
        if self.power_law is not None:
            mass_coef, k1, e = self.power_law
            marr = np.asarray(m, dtype=float)
            out = np.where(
                marr > 0,
                self.g.g(np.maximum(marr, 1e-300))
                + k1 * (np.maximum(marr, 0.0) / mass_coef) ** ((e + self.p) / e),
                0.0,
            )
            return float(out) if scalar else out
        if scalar:
            return subcity_energy(self.f, self.g, self.p, self.n, float(m))
        return self._per_mass(subcity_energy, m)

    def denergy(self, m) -> float | np.ndarray:
        scalar = np.isscalar(m)
        if self.power_law is not None:
            mass_coef, _, e = self.power_law
            marr = np.asarray(m, dtype=float)
            out = self.g.g_prime(marr) + ((marr / mass_coef) ** (1.0 / e)) ** self.p
            return float(out) if scalar else out
        if scalar:
            return subcity_energy_dm(self.f, self.g, self.p, self.n, float(m))
        return self._per_mass(subcity_energy_dm, m)

    def _per_mass(self, fn, m) -> np.ndarray:
        """fn evaluated at every entry of an array of masses, keeping its shape."""
        marr = np.asarray(m, dtype=float)
        vals = [fn(self.f, self.g, self.p, self.n, float(v)) for v in marr.ravel()]
        return np.array(vals, dtype=float).reshape(marr.shape)


@dataclass(frozen=True, eq=False)
class AtomizationReport:
    """Sweep of the merge-condition product toward R = 0."""

    radii: np.ndarray
    products: np.ndarray
    limsup_estimate: float
    satisfied: bool


def check_atomization_condition(
    f: FunctionFamily,
    g: ConcentrationFamily,
    p: float,
    n: int,
    R_sweep=None,
) -> AtomizationReport:
    """Numeric stand-in for the small-ball merge condition.

    Evaluates g''(ball mass) * (k' radial integral) on a decreasing radius
    sweep; the condition holds when the values trend down and the tail sits
    strictly below -1 (the analytic requirement is limsup < -1 as R -> 0).
    """
    radii = np.logspace(-1, -6, 6) if R_sweep is None else np.asarray(R_sweep, dtype=float)
    products = np.empty(len(radii))
    for i, R in enumerate(radii):
        ball_mass = mass_of_radius(f, p, n, R)
        products[i] = float(g.g_second(ball_mass)) * kprime_radial_integral(f, p, n, R)
    decreasing = bool(np.all(np.diff(products) < 0))
    below = np.nonzero(products < -1.0)[0]
    tail_ok = len(below) > 0 and bool(np.all(products[below[0]:] < -1.0))
    satisfied = bool(decreasing and tail_ok and products[-1] < -1.0)
    return AtomizationReport(
        radii=radii,
        products=products,
        limsup_estimate=float(products[-1]),
        satisfied=satisfied,
    )


def subadditivity_threshold(curve: EnergyCurve) -> float:
    """Largest sampled mass below which E stays strictly concave.

    Concave functions vanishing at zero are subadditive, so E is subadditive
    on [0, m0]; returns 0 when even the smallest sample has E'' >= 0.
    """
    m0 = 0.0
    for m, d2 in zip(curve.masses, curve.d2energies):
        if d2 < 0.0:
            m0 = float(m)
        else:
            break
    return m0

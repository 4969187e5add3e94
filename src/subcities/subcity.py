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
    _profile_cost,
    kprime_radial_integral,
    mass_of_radius,
    radius_of_mass,
)


def _on_masses(f: FunctionFamily, m, allow_zero: bool, closed, quadrature):
    """One of E, E', E'' at a mass or an array of masses, every entry checked.

    The power catalogue evaluates ``closed`` on the whole array (a scalar m
    as a 1-entry array, so it gets the same bits as that entry of an array);
    a custom family evaluates ``quadrature`` at each entry, as a float.
    """
    marr = np.atleast_1d(np.asarray(m, dtype=float))
    ok = (marr >= 0.0 if allow_zero else marr > 0.0) & (marr <= 1.0 + 1e-12)
    if not ok.all():
        raise MassOutOfRange(f"subcity mass {marr[~ok][0]} outside the admissible range")
    if f.is_power_shaped:
        out = closed(marr)
    else:
        out = np.array([quadrature(v) for v in marr.ravel().tolist()]).reshape(marr.shape)
    return float(out.flat[0]) if np.ndim(m) == 0 else out


def subcity_energy(f: FunctionFamily, g: ConcentrationFamily, p: float, n: int, m):
    """E(m): total objective contribution of one atom, for a mass in [0, 1] or an array.

    For the power catalogue the profile cost is K(1) R^(e+p) with
    R = (m / m(1))^(1/e), e = n + p alpha, so E = g(m) + K(1) (m / m(1))^((e+p)/e).
    """

    def closed(x):
        e = n + p * f.alpha
        grow = (x / mass_of_radius(f, p, n, 1.0)) ** ((e + p) / e)
        return np.where(x > 0, g.g(np.maximum(x, 1e-300)) + _profile_cost(f, p, n, 1.0) * grow, 0.0)

    quadrature = lambda v: (
        float(g.g(v)) + _profile_cost(f, p, n, radius_of_mass(f, p, n, v)) if v > 0 else 0.0
    )
    return _on_masses(f, m, True, closed, quadrature)


def subcity_energy_dm(f: FunctionFamily, g: ConcentrationFamily, p: float, n: int, m):
    """E'(m) = g'(m) + R(m)^p, for a mass in (0, 1] or an array."""
    de = lambda x: g.g_prime(x) + radius_of_mass(f, p, n, x) ** p
    return _on_masses(f, m, False, de, de)


def subcity_energy_d2m(f: FunctionFamily, g: ConcentrationFamily, p: float, n: int, m):
    """E''(m) = g''(m) + 1 / int_0^R(m) k'(R^p - r^p) n w_n r^(n-1) dr.

    For a mass in (0, 1] or an array. For the power catalogue the integral
    is its value at R = 1 times R^(n + p (alpha - 1)).
    """
    closed = lambda x: g.g_second(x) + 1.0 / (
        kprime_radial_integral(f, p, n, 1.0)
        * radius_of_mass(f, p, n, x) ** (n + p * (f.alpha - 1.0))
    )
    quadrature = lambda v: float(g.g_second(v)) + 1.0 / kprime_radial_integral(
        f, p, n, radius_of_mass(f, p, n, v)
    )
    return _on_masses(f, m, False, closed, quadrature)


@dataclass(frozen=True, eq=False)
class EnergyCurve:
    """E, E' and E'' sampled on a log-spaced mass grid, and E, E' at any mass.

    ``energy`` and ``denergy`` are ``subcity_energy`` and
    ``subcity_energy_dm`` for the curve's families (closed form for the
    power catalogue, per-mass quadrature for a custom family), and the
    samples are those functions on the grid.
    """

    f: FunctionFamily
    g: ConcentrationFamily
    p: float
    n: int
    masses: np.ndarray
    energies: np.ndarray
    denergies: np.ndarray
    d2energies: np.ndarray

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
        return cls(
            f, g, p, n, masses,
            subcity_energy(f, g, p, n, masses),
            subcity_energy_dm(f, g, p, n, masses),
            subcity_energy_d2m(f, g, p, n, masses),
        )

    def energy(self, m) -> float | np.ndarray:
        return subcity_energy(self.f, self.g, self.p, self.n, m)

    def denergy(self, m) -> float | np.ndarray:
        return subcity_energy_dm(self.f, self.g, self.p, self.n, m)


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

"""Penalty families and the induced functionals on measures.

The spread penalty integrates a convex cost of the local density; the
concentration cost sums a subadditive cost of the atom masses. Both are
kept in a closed-form catalogue (quadratic and power shapes) so that the
derived maps -- the inverse marginal cost ``k`` and the convex conjugate --
are exact rather than numerically inverted. A ``custom`` kind accepts
user-supplied evaluators for experimentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .measures import AtomicMeasure, GridDensity


@dataclass(frozen=True)
class FunctionFamily:
    """Convex density penalty f with f(0)=0, f'(0)=0, superlinear growth.

    Kinds:
      quadratic   f(s) = s^2/2
      power       f(s) = a * s^q          (a > 0, q > 1)
      custom      user evaluators (f, f_prime, k, optionally k_prime)
    """

    kind: str
    a: float = 1.0
    q: float = 2.0
    f_impl: Callable | None = None
    f_prime_impl: Callable | None = None
    k_impl: Callable | None = None
    k_prime_impl: Callable | None = None

    def __post_init__(self):
        if self.kind == "quadratic":
            object.__setattr__(self, "a", 0.5)
            object.__setattr__(self, "q", 2.0)
        elif self.kind == "power":
            if not (self.a > 0 and self.q > 1):
                raise ValueError("power family needs a > 0 and q > 1")
        elif self.kind == "custom":
            if not (self.f_impl and self.f_prime_impl and self.k_impl):
                raise ValueError("custom family needs f, f_prime and k evaluators")
        else:
            raise ValueError(f"unknown function family kind {self.kind!r}")

    @property
    def is_power_shaped(self) -> bool:
        return self.kind in ("quadratic", "power")

    # k(t) = kappa * t^alpha on t > 0 for the power catalogue; computed on
    # first use, so a custom family's unused q is never checked
    @cached_property
    def alpha(self) -> float:
        return 1.0 / (self.q - 1.0)

    @cached_property
    def kappa(self) -> float:
        return (self.a * self.q) ** (-self.alpha)

    def f(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "custom":
            return np.asarray(self.f_impl(s), dtype=float)
        return self.a * s**self.q

    def f_prime(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "custom":
            return np.asarray(self.f_prime_impl(s), dtype=float)
        return self.a * self.q * np.where(s > 0, s, 0.0) ** (self.q - 1.0)

    def k(self, t):
        """Inverse of f' extended by 0 on t <= 0."""
        t = np.asarray(t, dtype=float)
        pos = np.where(t > 0, t, 0.0)
        if self.kind == "custom":
            return np.where(t > 0, np.asarray(self.k_impl(pos), dtype=float), 0.0)
        return self.kappa * pos**self.alpha  # 0**alpha = 0 since alpha > 0

    def k_prime(self, t):
        t = np.asarray(t, dtype=float)
        pos = np.where(t > 0, t, 1.0)
        if self.kind == "custom":
            if self.k_prime_impl is not None:
                out = np.asarray(self.k_prime_impl(pos), dtype=float)
            else:
                dt = 1e-6 * np.maximum(pos, 1e-6)
                out = (self.k(pos + dt) - self.k(np.maximum(pos - dt, 0.0))) / (
                    dt + np.minimum(pos, dt)
                )
            return np.where(t > 0, out, 0.0)
        return np.where(t > 0, self.kappa * self.alpha * pos ** (self.alpha - 1.0), 0.0)

    def conjugate(self, t):
        """f*(t) = sup_s [s t - f(s)] = t k(t) - f(k(t)) for t >= 0."""
        t = np.asarray(t, dtype=float)
        kt = self.k(t)
        return np.where(t > 0, t * kt - self.f(kt), 0.0)


@dataclass(frozen=True)
class ConcentrationFamily:
    """Subadditive atom cost g with g(0)=0 and g(t)/t -> infinity at 0.

    Kinds:
      power    g(t) = b * t^r   (b > 0, 0 < r < 1)
      custom   user evaluators (g, g_prime, g_second); the divergence-at-zero
               hypothesis is not checked for custom evaluators.
    """

    kind: str
    b: float = 1.0
    r: float = 0.5
    g_impl: Callable | None = None
    g_prime_impl: Callable | None = None
    g_second_impl: Callable | None = None

    def __post_init__(self):
        if self.kind == "power":
            if not (self.b > 0 and 0 < self.r < 1):
                raise ValueError("power family needs b > 0 and 0 < r < 1")
        elif self.kind == "custom":
            if not (self.g_impl and self.g_prime_impl and self.g_second_impl):
                raise ValueError("custom family needs g, g_prime and g_second")
        else:
            raise ValueError(f"unknown concentration family kind {self.kind!r}")

    def g(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "custom":
            return np.asarray(self.g_impl(t), dtype=float)
        return self.b * t**self.r

    def g_prime(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "custom":
            return np.asarray(self.g_prime_impl(t), dtype=float)
        return self.b * self.r * t ** (self.r - 1.0)

    def g_second(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "custom":
            return np.asarray(self.g_second_impl(t), dtype=float)
        return self.b * self.r * (self.r - 1.0) * t ** (self.r - 2.0)


def eval_F(f: FunctionFamily, mu: GridDensity) -> float:
    """Spread cost of a grid density by the midpoint rule on its own grid."""
    return float(f.f(mu.values).sum() * mu.cell_volume)


def eval_G(g: ConcentrationFamily, nu: AtomicMeasure) -> float:
    """Concentration cost of an atomic measure: the sum of g over atom masses."""
    return float(g.g(nu.masses).sum())


def k_of(f: FunctionFamily, t):
    """Density response to a potential gap: 0 for t <= 0, (f')^{-1}(t) above."""
    out = f.k(t)
    return float(out) if np.isscalar(t) else out


def conjugate_f(f: FunctionFamily, t):
    """Convex conjugate f*(t) for t >= 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("conjugate_f is defined for t >= 0")
    out = f.conjugate(t_arr)
    return float(out) if np.isscalar(t) else out


def quadratic() -> FunctionFamily:
    return FunctionFamily(kind="quadratic")

def power_f(a: float, q: float) -> FunctionFamily:
    return FunctionFamily(kind="power", a=a, q=q)

def power_g(b: float, r: float) -> ConcentrationFamily:
    return ConcentrationFamily(kind="power", b=b, r=r)

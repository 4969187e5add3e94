"""Grid error of the fixed-atom value against the 1-D continuum optimum.

For quadratic f (k(s) = s) and p = 2 in 1-D, the density is u(x) = c_i -
(x - x_i)^2 on atom i's power cell, cut at 0. The cells are intervals split
at one point b, and every mass and cost integral is a polynomial in the
interval ends, so the continuum optimum comes from a 2x2 Newton solve for
the two weights.
"""

import numpy as np
import pytest

from subcities import AtomicMeasure, Domain, Grid, min_Fp_nu, quadratic


def _continuum_two_atoms(points, masses, lo, hi):
    """Continuum optimum (value, weights) for two atoms x_0 < x_1 in [lo, hi].

    On atom i's support [L, R] within its cell, with d = x - x_i, the mass
    is int (c_i - d^2) dx and the cost int (u^2/2 + u d^2) dx = int (c_i^2 -
    d^4)/2 dx.
    """
    x = np.asarray(points, dtype=float)
    m = np.asarray(masses, dtype=float)
    gap = x[1] - x[0]

    def pieces(c):
        # the cells meet where c_0 - (b - x_0)^2 = c_1 - (b - x_1)^2
        b = (x[0] + x[1]) / 2 + (c[0] - c[1]) / (2 * gap)
        r = np.sqrt(np.maximum(c, 0.0))
        ends = [(max(lo, x[0] - r[0]), min(b, x[0] + r[0])), (max(b, x[1] - r[1]), min(hi, x[1] + r[1]))]
        return b, ends

    def masses_at(c):
        _, ends = pieces(c)
        return np.array([
            c[i] * (R - L) - ((R - x[i]) ** 3 - (L - x[i]) ** 3) / 3 if R > L else 0.0
            for i, (L, R) in enumerate(ends)
        ])

    def jacobian(c):
        # the support's own ends carry u = 0; the shared end b carries the
        # density s_b there and moves by +-1 / (2 gap) per unit weight
        b, ends = pieces(c)
        J = np.diag([max(R - L, 0.0) for L, R in ends])
        s_b = c[0] - (b - x[0]) ** 2
        if s_b > 0 and lo < b < hi:
            J += s_b / (2 * gap) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        return J

    c = np.cbrt(0.75 * m) ** 2  # each atom's ball of its own mass
    for _ in range(100):
        res = masses_at(c) - m
        if np.abs(res).max() <= 1e-15:
            break
        step = np.linalg.solve(jacobian(c), -res)
        t = 1.0
        while np.abs(masses_at(c + t * step) - m).max() >= np.abs(res).max() and t > 1e-12:
            t /= 2
        c = c + t * step
    assert np.abs(masses_at(c) - m).max() <= 1e-14
    _, ends = pieces(c)
    value = sum(
        (c[i] ** 2 * (R - L) - ((R - x[i]) ** 5 - (L - x[i]) ** 5) / 5) / 2
        for i, (L, R) in enumerate(ends)
        if R > L
    )
    return value, c


ATOMS, MASSES = [0.25, 0.6], [0.4, 0.6]


@pytest.mark.parametrize(
    "lo, hi, want, cells",
    [
        (0.0, 1.0, 0.52969765785, (32, 64, 100, 200, 400, 1600)),
        # the support ends inside the box
        (-1.0, 2.0, 0.40166950167, (96, 192, 300, 600, 1200, 4800)),
    ],
    ids=["unit-box", "support-inside"],
)
def test_grid_error_is_second_order(lo, hi, want, cells):
    value, c = _continuum_two_atoms(ATOMS, MASSES, lo, hi)
    assert value == pytest.approx(want, abs=1e-10)
    support = (ATOMS[0] - np.sqrt(c[0]), ATOMS[1] + np.sqrt(c[1]))
    assert (lo < support[0] and support[1] < hi) == (lo < 0)
    nu = AtomicMeasure([[x] for x in ATOMS], MASSES)
    for n in cells:
        h = (hi - lo) / n
        _, breakdown = min_Fp_nu(nu, quadratic(), 2.0, Grid(Domain.box([(lo, hi)]), (n,)), tol=1e-12)
        assert abs(breakdown["total"] - value) <= 0.05 * h**2, (n, (breakdown["total"] - value) / h**2)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subcities import (
    AtomicMeasure,
    ConcentrationFamily,
    Domain,
    FunctionFamily,
    conjugate_f,
    eval_F,
    eval_G,
    k_of,
    make_grid_density,
    power_f,
    power_g,
    quadratic,
)

families = st.one_of(
    st.just(quadratic()),
    st.builds(power_f, st.floats(0.2, 5.0), st.floats(1.2, 4.0)),
)


class TestEvalF:
    def test_zero_density(self):
        mu = make_grid_density(Domain.box([(0, 1)]), 4, [0, 0, 0, 0])
        assert eval_F(quadratic(), mu) == 0.0

    def test_uniform_quadratic(self):
        mu = make_grid_density(Domain.box([(0, 1)]), 8, np.ones(8))
        assert eval_F(quadratic(), mu) == pytest.approx(0.5)

    def test_two_cell_quadratic(self):
        mu = make_grid_density(Domain.box([(0, 1)]), 2, [2, 0])
        assert eval_F(quadratic(), mu) == pytest.approx(1.0)


class TestEvalG:
    def test_single_atom(self):
        nu = AtomicMeasure([[0.5]], [1.0])
        assert eval_G(power_g(1.0, 0.5), nu) == pytest.approx(1.0)

    def test_two_half_atoms(self):
        nu = AtomicMeasure([[0.2], [0.8]], [0.5, 0.5])
        assert eval_G(power_g(1.0, 0.5), nu) == pytest.approx(1.4142135623730951)

    def test_merge_cheaper_than_split(self):
        g = power_g(1.3, 0.7)
        merged = eval_G(g, AtomicMeasure([[0.5]], [1.0]))
        split = eval_G(g, AtomicMeasure([[0.2], [0.8]], [0.4, 0.6]))
        assert merged <= split


class TestK:
    def test_quadratic_identity(self):
        assert k_of(quadratic(), 0.3) == pytest.approx(0.3)

    def test_power_half(self):
        assert k_of(power_f(1.0, 2.0), 1.0) == pytest.approx(0.5)

    def test_truncation(self):
        assert k_of(quadratic(), -1.0) == 0.0
        assert k_of(power_f(2.0, 3.0), -1.0) == 0.0

    @given(families, st.floats(1e-6, 100.0))
    def test_inverse_of_f_prime(self, f, t):
        assert float(f.f_prime(k_of(f, t))) == pytest.approx(t, rel=1e-10)


class TestConjugate:
    def test_quadratic(self):
        assert conjugate_f(quadratic(), 1.0) == pytest.approx(0.5)

    def test_at_zero(self):
        assert conjugate_f(quadratic(), 0.0) == 0.0
        assert conjugate_f(power_f(2.0, 1.5), 0.0) == 0.0

    def test_power_quarter(self):
        assert conjugate_f(power_f(1.0, 2.0), 1.0) == pytest.approx(0.25)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            conjugate_f(quadratic(), -0.5)

    @given(families, st.floats(0.0, 100.0))
    @settings(max_examples=60)
    def test_fenchel_young_equality(self, f, t):
        kt = k_of(f, t)
        lhs = float(f.f(kt)) + conjugate_f(f, t)
        assert lhs == pytest.approx(t * kt, abs=1e-10, rel=1e-10)

    @given(families, st.floats(0.0, 50.0), st.floats(0.0, 20.0))
    @settings(max_examples=60)
    def test_young_inequality(self, f, t, s):
        assert s * t <= float(f.f(s)) + conjugate_f(f, t) + 1e-9 * (1 + s * t)


@given(families, st.floats(1e-3, 20.0), st.floats(1.0, 4.0))
def test_unhappiness_ratio_nondecreasing(f, u, factor):
    ratio_lo = float(f.f(u)) / u
    ratio_hi = float(f.f(u * factor)) / (u * factor)
    assert ratio_hi >= ratio_lo - 1e-12


@given(
    st.floats(0.2, 3.0),
    st.floats(0.1, 0.9),
    st.floats(1e-4, 1.0),
    st.floats(1e-4, 1.0),
)
def test_g_subadditive_sampled(b, r, s, t):
    g = power_g(b, r)
    assert float(g.g(s + t)) <= float(g.g(s)) + float(g.g(t)) + 1e-12


def test_family_validation():
    with pytest.raises(ValueError):
        FunctionFamily(kind="power", a=-1.0, q=2.0)
    with pytest.raises(ValueError):
        FunctionFamily(kind="power", a=1.0, q=1.0)
    with pytest.raises(ValueError):
        ConcentrationFamily(kind="power", b=1.0, r=1.0)
    with pytest.raises(ValueError):
        FunctionFamily(kind="exotic")


def test_custom_family_hooks():
    f = FunctionFamily(
        kind="custom",
        f_impl=lambda s: s**2 / 2,
        f_prime_impl=lambda s: s,
        k_impl=lambda t: t,
    )
    assert k_of(f, 0.7) == pytest.approx(0.7)
    assert conjugate_f(f, 1.0) == pytest.approx(0.5)
    g = ConcentrationFamily(
        kind="custom",
        g_impl=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        g_prime_impl=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        g_second_impl=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )
    assert float(g.g(0.5)) == 0.0


def test_custom_family_ignores_the_power_exponent():
    # q only shapes the power catalogue; a custom family never reads it
    f = FunctionFamily(
        kind="custom",
        q=1.0,
        f_impl=lambda s: s**2 / 2,
        f_prime_impl=lambda s: s,
        k_impl=lambda t: t,
    )
    assert k_of(f, 0.7) == pytest.approx(0.7)

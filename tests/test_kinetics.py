"""Unit tests for the pointwise kinetics.

Reaction values are checked against an independent scalar reimplementation
(plain math-module arithmetic, no shared code with the package).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmsim import (
    DimensionalParameters,
    DimensionlessParameters,
    FieldTriple,
    InvalidParameterError,
    hypoxia_factor,
    nondimensionalize,
    reaction_necrosis,
    reaction_tumor,
    reaction_vasculature,
    rescale_spacetime,
    vascular_fraction,
)

TABLE_PARAMS = DimensionlessParameters(
    kappa1=55.0, alpha=45.0, beta1=27.5, beta2=2.55, gamma=0.255, delta=2.55
)


# --- independent scalar oracle -------------------------------------------

def oracle_fraction(phi, t):
    phi = max(phi, 0.0)
    t = max(t, 0.0)
    return min(max(phi / ((phi + 1.0) / 2.0 + t), 0.0), 1.0)


def oracle_reactions(t, n, phi, p):
    frac = oracle_fraction(phi, t)
    lack = math.sqrt(1.0 - frac**2)
    crowd = 1.0 - (t + n + phi)
    f1 = t * frac * crowd - p.alpha * t * lack - p.beta1 * n * t
    f2 = p.alpha * t * lack + p.beta1 * n * t + p.delta * t * phi + p.beta2 * n * phi
    f3 = p.gamma * t * lack * phi * crowd - p.delta * t * phi - p.beta2 * n * phi
    return f1, f2, f3


# --- vascular fraction and hypoxia ---------------------------------------

def test_fraction_zero_vasculature():
    assert vascular_fraction(0.0, 0.7) == 0.0


def test_fraction_negative_vasculature_annihilated():
    assert vascular_fraction(-0.3, 0.5) == 0.0


def test_fraction_full_vasculature():
    assert vascular_fraction(1.0, 0.0) == 1.0


def test_fraction_balanced():
    assert vascular_fraction(1.0, 1.0) == 0.5


def test_fraction_bounds_on_grid():
    phi, t = np.meshgrid(np.linspace(0, 1, 101), np.linspace(0, 1, 101))
    p = vascular_fraction(phi, t)
    assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_fraction_monotone_on_grid():
    grid = np.linspace(0.0, 1.0, 81)
    phi, t = np.meshgrid(grid, grid, indexing="ij")
    p = vascular_fraction(phi, t)
    # nondecreasing in phi (axis 0), nonincreasing in t (axis 1)
    assert np.all(np.diff(p, axis=0) >= -1e-15)
    assert np.all(np.diff(p, axis=1) <= 1e-15)


def test_hypoxia_factor_extremes():
    assert hypoxia_factor(0.0, 0.4) == 1.0
    assert hypoxia_factor(1.0, 0.0) == 0.0
    assert hypoxia_factor(1.0, 1.0) == pytest.approx(math.sqrt(0.75), abs=1e-15)


def test_hypoxia_factor_survives_overshoot():
    # phi marginally above 1 must not produce a negative radicand
    value = hypoxia_factor(1.0 + 1e-12, 0.0)
    assert 0.0 <= value <= 1.0


# --- reaction terms -------------------------------------------------------

def test_reaction_tumor_vanishes_without_tumor():
    state = FieldTriple(0.0, 0.3, 0.8)
    assert reaction_tumor(state, TABLE_PARAMS) == 0.0


def test_reaction_tumor_pure_hypoxia():
    state = FieldTriple(0.2, 0.0, 0.0)
    assert reaction_tumor(state, TABLE_PARAMS) == pytest.approx(-9.0, abs=1e-14)


def test_reaction_tumor_mixed_state():
    state = FieldTriple(0.2, 0.1, 0.4)
    expected = oracle_reactions(0.2, 0.1, 0.4, TABLE_PARAMS)[0]
    assert expected == pytest.approx(-8.585591081631885, abs=1e-12)
    assert reaction_tumor(state, TABLE_PARAMS) == pytest.approx(expected, abs=1e-12)


def test_reaction_necrosis_vanishes_without_partners():
    state = FieldTriple(0.0, 0.5, 0.0)
    assert reaction_necrosis(state, TABLE_PARAMS) == 0.0


def test_reaction_necrosis_vasculature_conversion_only():
    state = FieldTriple(0.0, 0.2, 0.5)
    assert reaction_necrosis(state, TABLE_PARAMS) == pytest.approx(0.255, abs=1e-15)


def test_reaction_necrosis_mixed_state():
    state = FieldTriple(0.2, 0.1, 0.4)
    expected = oracle_reactions(0.2, 0.1, 0.4, TABLE_PARAMS)[1]
    assert expected == pytest.approx(8.91825774829855, abs=1e-12)
    assert reaction_necrosis(state, TABLE_PARAMS) == pytest.approx(expected, abs=1e-12)


def test_reaction_vasculature_vanishes_without_vasculature():
    state = FieldTriple(0.7, 0.2, 0.0)
    assert reaction_vasculature(state, TABLE_PARAMS) == 0.0


def test_reaction_vasculature_mixed_state():
    state = FieldTriple(0.2, 0.1, 0.4)
    expected = oracle_reactions(0.2, 0.1, 0.4, TABLE_PARAMS)[2]
    assert expected == pytest.approx(-0.30051766473115704, abs=1e-12)
    assert reaction_vasculature(state, TABLE_PARAMS) == pytest.approx(
        expected, abs=1e-12
    )


def test_reaction_vasculature_mirrors_necrosis_without_tumor():
    state = FieldTriple(0.0, 0.2, 0.5)
    assert reaction_vasculature(state, TABLE_PARAMS) == pytest.approx(
        -reaction_necrosis(state, TABLE_PARAMS), abs=1e-15
    )


def test_necrosis_nonnegative_on_random_states():
    rng = np.random.default_rng(7)
    t, n, phi = rng.random((3, 10_000))
    state = FieldTriple(t, n, phi)
    assert np.all(reaction_necrosis(state, TABLE_PARAMS) >= 0.0)


def test_exchange_identity_random_states():
    rng = np.random.default_rng(11)
    t, n, phi = rng.random((3, 10_000))
    state = FieldTriple(t, n, phi)
    p = vascular_fraction(phi, t)
    lack = np.sqrt(1.0 - p * p)
    crowd = 1.0 - (t + n + phi)
    target = t * p * crowd + TABLE_PARAMS.gamma * t * lack * phi * crowd
    total = (
        reaction_tumor(state, TABLE_PARAMS)
        + reaction_necrosis(state, TABLE_PARAMS)
        + reaction_vasculature(state, TABLE_PARAMS)
    )
    assert np.abs(total - target).max() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(0, 1),
    n=st.floats(0, 1),
    phi=st.floats(0, 1),
    alpha=st.floats(10, 100),
    beta1=st.floats(5, 50),
    beta2=st.floats(0.1, 5),
    gamma=st.floats(0.01, 0.5),
    delta=st.floats(0.1, 5),
)
def test_exchange_identity_property(t, n, phi, alpha, beta1, beta2, gamma, delta):
    params = DimensionlessParameters(55.0, alpha, beta1, beta2, gamma, delta)
    state = FieldTriple(t, n, phi)
    p = float(vascular_fraction(phi, t))
    lack = math.sqrt(1.0 - p * p)
    crowd = 1.0 - (t + n + phi)
    target = t * p * crowd + gamma * t * lack * phi * crowd
    total = (
        reaction_tumor(state, params)
        + reaction_necrosis(state, params)
        + reaction_vasculature(state, params)
    )
    assert abs(float(total) - target) <= 1e-12


# --- parameter scaling ----------------------------------------------------

def test_nondimensionalize_identity_scaling():
    p = DimensionalParameters(
        kappa1=2, kappa0=1, rho=1, alpha=3, beta1=4, beta2=5, gamma=6, delta=7, K=1
    )
    q = nondimensionalize(p)
    assert (q.kappa1, q.alpha, q.beta1, q.beta2, q.gamma, q.delta) == (
        2, 3, 4, 5, 6, 7,
    )


def test_nondimensionalize_table_formulas():
    p = DimensionalParameters(
        kappa1=0.02, kappa0=0.01, rho=0.5, alpha=1.0,
        beta1=0.25, beta2=0.5, gamma=0.1, delta=0.125, K=2.0,
    )
    q = nondimensionalize(p)
    assert (q.kappa1, q.alpha, q.beta1, q.beta2, q.gamma, q.delta) == (
        2.0, 2.0, 1.0, 2.0, 0.2, 0.5,
    )


def test_nondimensionalize_rejects_zero_kappa0():
    with pytest.raises(InvalidParameterError):
        DimensionalParameters(
            kappa1=1, kappa0=0, rho=1, alpha=1, beta1=1, beta2=1,
            gamma=1, delta=1, K=1,
        )


def test_rescale_identity():
    assert rescale_spacetime(0.7, 1.3, 1.0, 1.0) == (0.7, 1.3)


def test_rescale_example():
    y, s = rescale_spacetime(2.0, 3.0, 1.0, 4.0)
    assert y == pytest.approx(4.0) and s == pytest.approx(12.0)


def test_rescale_origin_fixed():
    assert rescale_spacetime(0.0, 0.0, 0.3, 2.0) == (0.0, 0.0)


def test_rescale_rejects_nonpositive_scales():
    with pytest.raises(InvalidParameterError):
        rescale_spacetime(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        rescale_spacetime(1.0, 1.0, 1.0, -2.0)


@pytest.mark.parametrize("name", ["kappa0", "rho"])
def test_rescale_rejects_infinite_scales_like_the_parameters(name):
    scales = {"kappa0": 1.0, "rho": 1.0, name: math.inf}
    rates = dict.fromkeys(
        ("kappa1", "alpha", "beta1", "beta2", "gamma", "delta", "K"), 1.0
    )
    with pytest.raises(InvalidParameterError) as expected:
        DimensionalParameters(**rates, **scales)
    with pytest.raises(InvalidParameterError) as info:
        rescale_spacetime(1.0, 1.0, scales["kappa0"], scales["rho"])
    assert str(info.value) == str(expected.value) == f"{name} must be finite, got inf"


def test_dimensional_consistency_random():
    # f_dimless(T/K, N/K, Phi/K; scaled rates) == f_dimensional / (rho * K)
    rng = np.random.default_rng(3)
    for _ in range(200):
        k1, k0, rho, alpha, beta1, beta2, gamma, delta, cap = rng.uniform(
            0.05, 3.0, size=9
        )
        dims = DimensionalParameters(k1, k0, rho, alpha, beta1, beta2, gamma, delta, cap)
        q = nondimensionalize(dims)
        t, n, phi = rng.uniform(0.0, cap, size=3)

        # dimensional oracle with explicit carrying capacity
        phi_p, t_p = max(phi, 0.0), max(t, 0.0)
        frac = min(max(phi_p / ((phi_p + cap) / 2.0 + t_p), 0.0), 1.0)
        lack = math.sqrt(1.0 - frac**2)
        crowd = 1.0 - (t + n + phi) / cap
        f1 = rho * t * frac * crowd - alpha * t * lack - beta1 * n * t
        f2 = alpha * t * lack + beta1 * n * t + delta * t * phi + beta2 * n * phi
        f3 = (
            gamma * t * lack * (phi / cap) * crowd
            - delta * t * phi
            - beta2 * n * phi
        )

        state = FieldTriple(t / cap, n / cap, phi / cap)
        scale = rho * cap
        assert float(reaction_tumor(state, q)) == pytest.approx(
            f1 / scale, abs=1e-12
        )
        assert float(reaction_necrosis(state, q)) == pytest.approx(
            f2 / scale, abs=1e-12
        )
        assert float(reaction_vasculature(state, q)) == pytest.approx(
            f3 / scale, abs=1e-12
        )


@pytest.mark.parametrize("index", range(6))
def test_dimensionless_parameters_reject_infinite(index):
    rates = [55, 45, 27.5, 2.55, 0.255, 2.55]
    rates[index] = math.inf
    with pytest.raises(InvalidParameterError, match="must be finite, got inf"):
        DimensionlessParameters(*rates)


@pytest.mark.parametrize("index", range(9))
def test_dimensional_parameters_reject_infinite(index):
    rates = [0.02, 0.01, 0.5, 1.0, 0.25, 0.5, 0.1, 0.125, 2.0]
    rates[index] = math.inf
    with pytest.raises(InvalidParameterError, match="must be finite, got inf"):
        DimensionalParameters(*rates)


def test_dimensionless_parameters_reject_negative():
    with pytest.raises(InvalidParameterError):
        DimensionlessParameters(55, -1.0, 27.5, 2.55, 0.255, 2.55)

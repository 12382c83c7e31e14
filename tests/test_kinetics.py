"""Unit tests for the pointwise kinetics.

Reaction values are checked against an independent scalar reimplementation
(plain math-module arithmetic, no shared code with the package).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmsim import (
    DEFAULT_PARAMETERS,
    PARAMETER_RANGES,
    DimensionlessParameters,
    FieldTriple,
    InvalidParameterError,
    reactions,
    vascular_fraction,
)

TABLE_PARAMS = DimensionlessParameters(
    kappa1=55.0, alpha=45.0, beta1=27.5, beta2=2.55, gamma=0.255, delta=2.55
)
# At (1, 0, 1) P = 1/2, so sqrt(1 - P^2) = sqrt(0.75).
ORACLE_STATES = ((0.2, 0.1, 0.4), (1.0, 0.0, 1.0))


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


# --- vascular fraction ---------------------------------------------------

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


# --- reaction terms -------------------------------------------------------

def test_reaction_tumor_vanishes_without_tumor():
    state = FieldTriple(0.0, 0.3, 0.8)
    assert reactions(state, TABLE_PARAMS)[0] == 0.0


def test_reaction_tumor_pure_hypoxia():
    state = FieldTriple(0.2, 0.0, 0.0)
    assert reactions(state, TABLE_PARAMS)[0] == pytest.approx(-9.0, abs=1e-14)


def test_reaction_tumor_mixed_state():
    assert oracle_reactions(0.2, 0.1, 0.4, TABLE_PARAMS)[0] == pytest.approx(
        -8.585591081631885, abs=1e-12
    )
    assert oracle_reactions(1.0, 0.0, 1.0, TABLE_PARAMS)[0] == pytest.approx(
        -0.5 - 45.0 * math.sqrt(0.75), abs=1e-12
    )
    for t, n, phi in ORACLE_STATES:
        expected = oracle_reactions(t, n, phi, TABLE_PARAMS)[0]
        assert reactions(FieldTriple(t, n, phi), TABLE_PARAMS)[0] == pytest.approx(
            expected, abs=1e-12
        )


def test_reaction_tumor_hypoxic_death_factor():
    # The hypoxic death term is alpha * T * sqrt(1 - P^2); removing alpha
    # isolates sqrt(1 - P^2): 1 without vasculature, sqrt(0.75) at P = 1/2.
    no_death = replace(TABLE_PARAMS, alpha=0.0)
    cases = (((0.4, 0.0, 0.0), 1.0), ((1.0, 0.0, 1.0), math.sqrt(0.75)))
    for (t, n, phi), factor in cases:
        state = FieldTriple(t, n, phi)
        death = reactions(state, no_death)[0] - reactions(state, TABLE_PARAMS)[0]
        assert death / (TABLE_PARAMS.alpha * t) == pytest.approx(factor, abs=1e-14)


def test_reactions_finite_past_full_vasculature():
    # Phi just above 1 with T = 0 puts P above 1 before the clip, which alone
    # keeps sqrt(1 - P^2) from being NaN (a RuntimeWarning fails the test).
    state = FieldTriple(0.0, 0.0, 1.0 + 1e-12)
    for rate in reactions(state, TABLE_PARAMS):
        assert rate == 0.0


def test_reaction_necrosis_vanishes_without_partners():
    state = FieldTriple(0.0, 0.5, 0.0)
    assert reactions(state, TABLE_PARAMS)[1] == 0.0


def test_reaction_necrosis_vasculature_conversion_only():
    state = FieldTriple(0.0, 0.2, 0.5)
    assert reactions(state, TABLE_PARAMS)[1] == pytest.approx(0.255, abs=1e-15)


def test_reaction_necrosis_mixed_state():
    assert oracle_reactions(0.2, 0.1, 0.4, TABLE_PARAMS)[1] == pytest.approx(
        8.91825774829855, abs=1e-12
    )
    for t, n, phi in ORACLE_STATES:
        expected = oracle_reactions(t, n, phi, TABLE_PARAMS)[1]
        assert reactions(FieldTriple(t, n, phi), TABLE_PARAMS)[1] == pytest.approx(
            expected, abs=1e-12
        )


def test_reaction_vasculature_vanishes_without_vasculature():
    state = FieldTriple(0.7, 0.2, 0.0)
    assert reactions(state, TABLE_PARAMS)[2] == 0.0


def test_reaction_vasculature_mixed_state():
    assert oracle_reactions(0.2, 0.1, 0.4, TABLE_PARAMS)[2] == pytest.approx(
        -0.30051766473115704, abs=1e-12
    )
    for t, n, phi in ORACLE_STATES:
        expected = oracle_reactions(t, n, phi, TABLE_PARAMS)[2]
        assert reactions(FieldTriple(t, n, phi), TABLE_PARAMS)[2] == pytest.approx(
            expected, abs=1e-12
        )


def test_reaction_vasculature_mirrors_necrosis_without_tumor():
    state = FieldTriple(0.0, 0.2, 0.5)
    assert reactions(state, TABLE_PARAMS)[2] == pytest.approx(
        -reactions(state, TABLE_PARAMS)[1], abs=1e-15
    )


def test_necrosis_nonnegative_on_random_states():
    rng = np.random.default_rng(7)
    t, n, phi = rng.random((3, 10_000))
    state = FieldTriple(t, n, phi)
    assert np.all(reactions(state, TABLE_PARAMS)[1] >= 0.0)


def test_exchange_identity_random_states():
    rng = np.random.default_rng(11)
    t, n, phi = rng.random((3, 10_000))
    state = FieldTriple(t, n, phi)
    p = vascular_fraction(phi, t)
    lack = np.sqrt(1.0 - p * p)
    crowd = 1.0 - (t + n + phi)
    target = t * p * crowd + TABLE_PARAMS.gamma * t * lack * phi * crowd
    tumor, necrosis, vasculature = reactions(state, TABLE_PARAMS)
    total = tumor + necrosis + vasculature
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
    tumor, necrosis, vasculature = reactions(state, params)
    total = tumor + necrosis + vasculature
    assert abs(float(total) - target) <= 1e-12


def test_no_tumor_growth_anywhere_in_the_parameter_box():
    # Per unit T the tumor rate is at most (alpha* - alpha) sqrt(1 - P^2), where
    # alpha* is the largest P (1 - T - N - Phi)_+ / sqrt(1 - P^2).  That is at
    # T = N = 0, where it reads 2 Phi sqrt((1 - Phi) / (1 + 3 Phi)), largest at
    # Phi = 1/sqrt(3).
    phi_star = 1.0 / math.sqrt(3.0)
    alpha_star = 2.0 * phi_star * math.sqrt((1.0 - phi_star) / (1.0 + 3.0 * phi_star))
    assert alpha_star == pytest.approx(0.454167, abs=1e-6)

    low = PARAMETER_RANGES["alpha"][0]
    assert low == 10.0
    grid = np.linspace(0.0, 1.0, 41)
    t, n, phi = np.meshgrid(grid[1:], grid, grid, indexing="ij")
    decaying = replace(DEFAULT_PARAMETERS, alpha=low)
    assert reactions(FieldTriple(t, n, phi), decaying)[0].max() < 0.0

    growing = replace(DEFAULT_PARAMETERS, alpha=0.9 * alpha_star)
    assert reactions(FieldTriple(1e-6, 0.0, phi_star), growing)[0] > 0.0


# --- parameter scaling ----------------------------------------------------

def test_dimensional_consistency_random():
    # f_dimless(T/K, N/K, Phi/K; scaled rates) == f_dimensional / (rho * K)
    rng = np.random.default_rng(3)
    for _ in range(200):
        k1, k0, rho, alpha, beta1, beta2, gamma, delta, cap = rng.uniform(
            0.05, 3.0, size=9
        )
        q = DimensionlessParameters(
            kappa1=k1 / k0,
            alpha=alpha / rho,
            beta1=cap * beta1 / rho,
            beta2=cap * beta2 / rho,
            gamma=gamma / rho,
            delta=cap * delta / rho,
        )
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
        assert float(reactions(state, q)[0]) == pytest.approx(
            f1 / scale, abs=1e-12
        )
        assert float(reactions(state, q)[1]) == pytest.approx(
            f2 / scale, abs=1e-12
        )
        assert float(reactions(state, q)[2]) == pytest.approx(
            f3 / scale, abs=1e-12
        )


@pytest.mark.parametrize("index", range(6))
def test_dimensionless_parameters_reject_infinite(index):
    rates = [55, 45, 27.5, 2.55, 0.255, 2.55]
    rates[index] = math.inf
    with pytest.raises(InvalidParameterError, match="must be finite, got inf"):
        DimensionlessParameters(*rates)


def test_dimensionless_parameters_reject_negative():
    with pytest.raises(InvalidParameterError):
        DimensionlessParameters(55, -1.0, 27.5, 2.55, 0.255, 2.55)


def test_dimensionless_parameters_reject_a_value_that_is_not_a_number():
    rates = dict(kappa1=55, alpha=45, beta1="2", beta2=2.55, gamma=0.255, delta=2.55)
    with pytest.raises(InvalidParameterError, match="^beta1 must be finite, got '2'$"):
        DimensionlessParameters(**rates)
    # NaN is a number: it still fails the range check, under that check's name
    with pytest.raises(InvalidParameterError, match="^kappa1 must be nonnegative, got nan$"):
        DimensionlessParameters(**{**rates, "beta1": 2, "kappa1": math.nan})

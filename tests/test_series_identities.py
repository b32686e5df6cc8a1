"""Hermite-series identities behind the boundary kernel expansion.

The truncated mass-one residual decays like N^(-1/2) at fixed x, so no
finite truncation reaches high accuracy near the edge; the frozen values
below pin the exact truncation levels.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from plasma_kernel.limits import (
    SERIES_MAX_N,
    hermite_identity_residual,
    mass_one_series_residual,
    telescoping_sum,
)
from plasma_kernel.special import hermite_scaled_pair, plasma_F


# --------------------------------------------------------------------------
# truncated mass-one residual
# --------------------------------------------------------------------------

MASS_SERIES_ORACLE = [
    # (x, N, residual) frozen from an independent high-precision evaluation
    (0.0, 80, 1.4212132794361565e-2),
    (0.0, 160, 1.0044407378878906e-2),
    (1.0, 80, 1.9189591266967794e-3),
]


@pytest.mark.parametrize("x,n,expected", MASS_SERIES_ORACLE)
def test_mass_series_frozen_values(x, n, expected):
    assert_allclose(mass_one_series_residual(x, n), expected, rtol=1e-9)


@pytest.mark.parametrize("n", [0, 1, 80, SERIES_MAX_N])
def test_series_residuals_batch_equals_single_points(n):
    # an array call gives each point the bits of a call on that point alone
    xs = np.linspace(-6.0, 6.0, 49).reshape(7, 7)
    for func in (mass_one_series_residual, hermite_identity_residual):
        batch = func(xs, n)
        single = [func(float(x), n) for x in xs.ravel()]
        assert batch.shape == xs.shape
        assert all(isinstance(v, float) for v in single)
        assert_array_equal(batch.ravel(), single)


def test_mass_series_vanishes_deep_inside():
    # far inside the droplet every term is microscopic
    assert abs(mass_one_series_residual(-4.0, 80)) <= 1e-12
    assert abs(mass_one_series_residual(-6.0, 80)) <= 1e-12


def test_mass_series_zero_terms():
    # N = 0 leaves the bare F - F^2
    assert_allclose(mass_one_series_residual(0.0, 0), 0.25, rtol=1e-14)
    x = 0.7
    f = complex(plasma_F(2 * x)).real
    assert_allclose(mass_one_series_residual(x, 0), f - f * f, rtol=1e-12)


def test_mass_series_slow_square_root_decay():
    # residual(0, N) ~ c / sqrt(N): doubling N shrinks it by ~sqrt(2)
    r80 = mass_one_series_residual(0.0, 80)
    r160 = mass_one_series_residual(0.0, 160)
    assert 1.2 <= r80 / r160 <= 1.6


# --------------------------------------------------------------------------
# term-churn identity
# --------------------------------------------------------------------------

CHURN_ORACLE = [
    (-6.0, 40, -9.350635230873435e-10),
    (0.0, 80, 0.0),
    (1.0, 80, 4.1044219592693e-3),
    (8.0, 80, 7.45675696734365e-16),
]


@pytest.mark.parametrize("s,n,expected", CHURN_ORACLE)
def test_churn_frozen_values(s, n, expected):
    assert_allclose(hermite_identity_residual(s, n), expected,
                    rtol=1e-8, atol=1e-18)


def test_churn_zero_terms():
    # N = 0: residual is -F(s) gamma(s) + gamma(s)/2
    s = 1.3
    f = complex(plasma_F(s)).real
    g = math.exp(-s * s / 2.0) / math.sqrt(2.0 * math.pi)
    assert_allclose(hermite_identity_residual(s, 0), -f * g + g / 2.0,
                    rtol=1e-12)


def test_churn_odd_in_s():
    # the exact identity makes the truncated residual odd in s
    for s, n in ((0.7, 60), (1.9, 90)):
        assert_allclose(hermite_identity_residual(-s, n),
                        -hermite_identity_residual(s, n), rtol=1e-10)


# --------------------------------------------------------------------------
# telescoping normalization
# --------------------------------------------------------------------------


def test_telescoping_closed_form():
    # sum of p_{n-1}^2 - p_n^2 telescopes to 1 - p_N^2 exactly
    for s, n in ((1.2, 80), (0.0, 80), (-2.5, 40), (3.0, 120)):
        tele = telescoping_sum(s, n)
        _, p_n = hermite_scaled_pair(n, s)
        assert_allclose(tele + p_n * p_n, 1.0, rtol=0, atol=5e-13)


def test_telescoping_frozen_values():
    assert_allclose(telescoping_sum(0.0, 80), 0.9110721212260929, rtol=1e-12)
    assert_allclose(telescoping_sum(1.2, 80), 1.0 - 0.01008415442, rtol=1e-9)


def test_telescoping_never_reaches_one_near_edge():
    # the defect p_N(s)^2 stays macroscopic for s = O(1)
    for n in (40, 80, 160):
        assert telescoping_sum(1.2, n) < 1.0 - 1e-4


# --------------------------------------------------------------------------
# truncation guards
# --------------------------------------------------------------------------


@pytest.mark.parametrize("func", [
    mass_one_series_residual,
    hermite_identity_residual,
    telescoping_sum,
])
def test_truncation_guards(func):
    with pytest.raises(ValueError):
        func(0.0, SERIES_MAX_N + 1)
    with pytest.raises(ValueError):
        func(0.0, -1)

"""Plane-quadrature operators: mass-one residuals, Cauchy transforms,
Ward-equation residuals, Gram positivity, inequalities, and tail bounds."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_less

from plasma_kernel.limits import (
    LimitKernelSpec,
    QuadratureConfig,
    ZeroIntensity,
    cauchy_transform,
    eighth_formula,
    gram_min_eig,
    inequality_suite,
    mass_one_residual,
    polarized_mass_one_residual,
    tail_bounds_report,
    ward_point_residual,
    ward_residual,
)

rng = np.random.default_rng(2024)

BULK = LimitKernelSpec.ginibre_bulk()
FB = LimitKernelSpec.free_boundary()
HE = LimitKernelSpec.hard_edge()
ML2 = LimitKernelSpec.mittag_leffler(2.0)
CONST = LimitKernelSpec.constant_profile(0.5)


# --------------------------------------------------------------------------
# mass-one equation
# --------------------------------------------------------------------------


def test_mass_one_bulk():
    assert abs(mass_one_residual(BULK, 2.0 + 1.0j)) <= 1e-12


@pytest.mark.parametrize("z", [0.0, 1.0, -1.0 + 1.0j, -2.0])
def test_mass_one_free_boundary(z):
    assert abs(mass_one_residual(FB, z)) <= 1e-8


@pytest.mark.parametrize("z", [-0.5, -1.0 - 1.0j])
def test_mass_one_hard_edge(z):
    assert abs(mass_one_residual(HE, z)) <= 1e-8


@pytest.mark.parametrize("z", [0.0, 0.5, 1.0 + 0.5j])
def test_mass_one_mittag_leffler(z):
    assert abs(mass_one_residual(ML2, z)) <= 1e-10


def test_mass_one_constant_profile_defect():
    # the constant profile is a counterexample: the defect is exactly -1/2
    for z in (0.0, 0.7 - 0.3j):
        assert_allclose(mass_one_residual(CONST, z), -0.5, rtol=0, atol=1e-9)


def test_mass_one_interval_union_edge_effects():
    # bounded windows satisfy mass-one only up to Gaussian edge
    # corrections: genuine O(1e-3) defect near edges, zero far from them
    near = LimitKernelSpec.free_boundary(((-2.0, -1.0), (1.0, 2.0)))
    res = mass_one_residual(near, 1.5)
    assert 1e-4 <= abs(res) <= 1e-2
    far = LimitKernelSpec.free_boundary(((-20.0, -1.0), (1.0, 20.0)))
    assert abs(mass_one_residual(far, 6.0)) <= 1e-10


def test_mass_one_zero_intensity_guard():
    with pytest.raises(ZeroIntensity):
        mass_one_residual(FB, 40.0)


# --------------------------------------------------------------------------
# polarized (reproducing-property) residuals
# --------------------------------------------------------------------------


def test_polarized_free_boundary():
    res = polarized_mass_one_residual(FB, 0.4 + 0.3j, -0.2 - 0.5j)
    assert abs(res) <= 1e-9


def test_polarized_hard_edge():
    res = polarized_mass_one_residual(HE, -0.6 + 0.2j, -1.1 - 0.4j)
    assert abs(res) <= 1e-9


def test_polarized_rejects_ml():
    with pytest.raises(ValueError):
        polarized_mass_one_residual(ML2, 0.0, 0.5)


# --------------------------------------------------------------------------
# Cauchy transform
# --------------------------------------------------------------------------


def test_cauchy_at_origin_closed_form():
    # C(0) = 1/sqrt(2 pi) for the half-line free boundary
    val = cauchy_transform(FB, 0.0)
    assert_allclose(val.real, 1.0 / math.sqrt(2.0 * math.pi), rtol=1e-11)
    assert abs(val.imag) <= 1e-11


def test_cauchy_node_doubling_free_boundary():
    z = 0.3 + 0.1j
    c1 = cauchy_transform(FB, z)
    c2 = cauchy_transform(FB, z, QuadratureConfig().doubled())
    assert abs(c1 - c2) <= 1e-9


def test_cauchy_node_doubling_hard_edge():
    z = -0.7 + 0.3j
    c1 = cauchy_transform(HE, z)
    c2 = cauchy_transform(HE, z, QuadratureConfig().doubled())
    assert abs(c1 - c2) <= 1e-9


def test_cauchy_node_doubling_mittag_leffler():
    z = 0.5 + 0.4j
    c1 = cauchy_transform(ML2, z)
    c2 = cauchy_transform(ML2, z, QuadratureConfig().doubled())
    assert abs(c1 - c2) <= 1e-10


def test_cauchy_decays_deep_in_bulk():
    assert abs(cauchy_transform(FB, -3.0)) <= 1e-6


def test_empirical_convergence_order_at_least_four():
    # halving both node counts must raise the error by >= 2^4
    z = 0.3 + 0.1j
    coarse = QuadratureConfig(r_max=8.0, n_radial=48, n_angular=64)
    fine = QuadratureConfig()
    e_mass = (abs(mass_one_residual(FB, z, coarse)),
              abs(mass_one_residual(FB, z, fine)))
    assert e_mass[0] >= 16.0 * e_mass[1]
    ref = cauchy_transform(FB, z, fine.doubled())
    e_cauchy = (abs(cauchy_transform(FB, z, coarse) - ref),
                abs(cauchy_transform(FB, z, fine) - ref))
    assert e_cauchy[0] >= 16.0 * e_cauchy[1]


# --------------------------------------------------------------------------
# Ward equation
# --------------------------------------------------------------------------


def test_ward_point_bulk():
    assert abs(ward_point_residual(BULK, 0.4 + 0.3j)) <= 1e-10


def test_ward_point_free_boundary():
    assert abs(ward_point_residual(FB, 0.5 + 0.2j)) <= 5e-4


def test_ward_point_hard_edge():
    assert abs(ward_point_residual(HE, -0.8 + 0.4j)) <= 1e-3


def test_ward_point_mittag_leffler():
    assert abs(ward_point_residual(ML2, 0.7 + 0.2j)) <= 5e-3


def test_ward_residual_keeps_shape_and_ignores_threads():
    axis = -0.5 + 0.5 * np.arange(3)
    pts = axis[None, :] + 1j * axis[:, None]
    values = ward_residual(BULK, pts)
    assert values.shape == (3, 3)
    assert np.max(values) <= 1e-8
    threaded = ward_residual(BULK, pts, threads=2)
    assert np.array_equal(values, threaded)


def test_ward_residual_scalar_point_gives_float():
    value = ward_residual(BULK, 0.5 + 0.5j)
    assert type(value) is float
    assert value == ward_residual(BULK, [0.5 + 0.5j])[0]


def test_ward_hard_edge_grid_guard():
    axis = -1.0 + 0.5 * np.arange(3)
    with pytest.raises(ValueError, match="Re z <= -2 fd_step"):
        ward_residual(HE, axis[None, :] + 1j * axis[:, None])


def test_ward_distinguishes_disconnected_union():
    # a genuinely disconnected union is NOT a Ward solution: the residual
    # at the origin must tower over the connected-interval noise floor
    gap = LimitKernelSpec.free_boundary(((-2.0, -1.0), (1.0, 2.0)))
    solid = LimitKernelSpec.free_boundary(((-2.0, 2.0),))
    r_gap = abs(ward_point_residual(gap, 0.0))
    r_solid = abs(ward_point_residual(solid, 0.0))
    assert r_gap >= 20.0 * max(r_solid, 1e-300)
    assert r_gap > 0.1


def test_ward_free_boundary_matches_bulk_deep_inside():
    # far inside the droplet the free-boundary window is invisible
    z = -3.0 + 0.2j
    diff = abs(ward_point_residual(FB, z)) - abs(ward_point_residual(BULK, z))
    assert abs(diff) <= 1e-3


# --------------------------------------------------------------------------
# Gram positivity
# --------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [BULK, FB, HE, ML2], ids=lambda s: s.kind)
def test_gram_positive(spec):
    pts = rng.uniform(-2, 2, 8) + 1j * rng.uniform(-2, 2, 8)
    if spec.kind == "hard_edge":
        pts = -np.abs(pts.real) - 0.05 + 1j * pts.imag
    assert gram_min_eig(spec, pts) >= -1e-9


def test_gram_complementary_positive():
    pts = rng.uniform(-2, 2, 8) + 1j * rng.uniform(-2, 2, 8)
    assert gram_min_eig(FB, pts, complementary=True) >= -1e-9


def test_gram_guards():
    with pytest.raises(ValueError):
        gram_min_eig(FB, np.zeros(33, dtype=complex))
    with pytest.raises(ValueError):
        gram_min_eig(FB, [])
    with pytest.raises(ValueError):
        gram_min_eig(ML2, np.zeros(4, dtype=complex), complementary=True)


# --------------------------------------------------------------------------
# scalar inequalities and tail bounds
# --------------------------------------------------------------------------


def test_inequality_suite_margins():
    margins, params = inequality_suite()
    assert params["min_margin"] == np.min(margins) >= -1e-10
    assert params["sharpness_F"] <= 1e-6
    assert params["sharpness_H"] <= 1e-6


def test_tail_bounds_decreasing_on_integers():
    vals, _ = tail_bounds_report(FB, [1.0, 2.0, 3.0])
    assert_array_less(np.diff(vals), 0.0)
    assert_array_less(vals, 0.2)


def test_tail_bounds_interior():
    _, params = tail_bounds_report(FB, np.arange(-3.0, 0.01, 0.25))
    assert params["sup_interior"] <= 1.0


@pytest.mark.parametrize("report", [
    lambda grid: inequality_suite(x_grid=grid),
    lambda grid: tail_bounds_report(FB, grid),
], ids=["inequalities", "tail_bounds"])
def test_line_reports_take_one_point_and_refuse_none(report):
    values, _ = report([0.5])
    assert np.all(np.isfinite(values))
    with pytest.raises(ValueError, match="x_grid is empty"):
        report([])


def test_tail_bounds_requires_half_line():
    with pytest.raises(ValueError):
        tail_bounds_report(BULK, [0.0, 1.0])
    with pytest.raises(ValueError):
        tail_bounds_report(LimitKernelSpec.free_boundary(((-1.0, 1.0),)),
                           [0.0, 1.0])


# --------------------------------------------------------------------------
# the 1/8 formula
# --------------------------------------------------------------------------


def test_eighth_formula_value():
    assert_allclose(eighth_formula(), 0.125, rtol=0, atol=1e-10)


def test_eighth_formula_wrong_center_detects_shift():
    assert_allclose(eighth_formula(shift=0.5), 0.15625, rtol=1e-9)
    assert abs(eighth_formula(shift=0.5) - 0.125) > 1e-3


def test_eighth_formula_node_consistency():
    assert abs(eighth_formula(n_nodes=96) - eighth_formula()) <= 1e-12

"""Exact symmetries the kernels and the Ward driver rely on, and the
shortcuts built on them: the mirror symmetry of the profiles, the Re z and
|z| collapses of the Ward driver, per-point H rule sizes, and a CSV that
does not depend on the thread count."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plasma_kernel import limits
from plasma_kernel.cli import main
from plasma_kernel.limits import (
    LimitKernelSpec,
    QuadratureConfig,
    _profile_for,
    cauchy_transform,
    ward_point_residual,
    ward_residual,
)
from plasma_kernel.special import hard_edge_H_scaled

BULK = LimitKernelSpec.ginibre_bulk()
FB = LimitKernelSpec.free_boundary()
GAP = LimitKernelSpec.free_boundary(((-2.0, -1.0), (1.0, 2.0)))
HE = LimitKernelSpec.hard_edge()
CONST = LimitKernelSpec.constant_profile(0.5)
ML2 = LimitKernelSpec.mittag_leffler(2.0)
ML1 = LimitKernelSpec.mittag_leffler(1.0)


@pytest.mark.parametrize("spec", [BULK, FB, GAP, HE, CONST],
                         ids=["bulk", "fb", "gap", "he", "const"])
def test_profile_mirror_symmetry(spec):
    # |Phi_s(v)| = |Phi_s(conj v)|: Phi is real on the real axis, so the
    # Berezin density is even in Im(z - w)
    rng = np.random.default_rng(7)
    v = rng.uniform(-12.0, 4.0, 2000) + 1j * rng.uniform(-25.0, 25.0, 2000)
    profile = _profile_for(spec)
    assert_allclose(np.abs(profile.scaled(v)), np.abs(profile.scaled(np.conj(v))),
                    rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("spec,x", [(FB, 0.5), (HE, -0.8)], ids=["fb", "he"])
def test_cauchy_real_and_y_invariant(spec, x):
    base = cauchy_transform(spec, x)
    assert base.imag == 0.0
    for y in (0.3, -1.7):
        c = cauchy_transform(spec, complex(x, y))
        assert c.imag == 0.0
        assert abs(c - base) <= 1e-14


@pytest.mark.parametrize("spec,z", [(FB, 0.5 + 0.2j), (HE, -0.8 + 0.4j),
                                    (ML2, 0.7 + 0.2j), (ML1, -0.4 + 0.9j)],
                         ids=["fb", "he", "ml2", "ml1"])
def test_ward_driver_matches_full_stencil_off_axis(spec, z):
    # ward_residual takes dbar C exactly for the translation-invariant kernels
    # and by the radial stencil of c for Mittag-Leffler, the full stencil
    # takes C_x and C_y: equal up to the O(h^4) terms of the stencils
    values = ward_residual(spec, [z])
    assert abs(values[0] - abs(ward_point_residual(spec, z))) <= 1e-12


def test_ward_driver_spreads_over_equal_real_parts():
    pts = [0.5 + 0.0j, 0.5 + 1.0j, -0.5 - 1.0j, -0.5 + 0.5j]
    values = ward_residual(BULK, pts)
    assert values[0] == values[1] and values[2] == values[3]


def test_ward_driver_spreads_over_equal_radii():
    # one value per distinct |z|, in every quadrant, down to 0: stencil nodes
    # below 0 take -c(|node|), and at 0 dbar C = c'(0)
    fd_step = limits._FD_STEP
    near = [0.0, 0.5 * fd_step, 2.0 * fd_step * 1j, 0.002 + 0.001j, -0.0015 - 0.001j,
            0.0027j, 5e-4, 1e-5j]
    pts = [0.6 + 0.8j, -0.6 + 0.8j, -0.6 - 0.8j, 0.6 - 0.8j, 0.8 + 0.6j,
           0.3 + 0.4j, -0.4 - 0.3j] + near
    values = ward_residual(ML2, pts)
    assert len(set(values[:5].tolist())) == 1
    assert values[5] == values[6] != values[0]
    assert values[9] == ward_residual(ML2, -2.0 * fd_step)
    for z, value in zip(near, values[7:]):
        assert abs(value - abs(ward_point_residual(ML2, z, fd_step=fd_step))) <= 1e-12


@pytest.mark.parametrize("quad", [QuadratureConfig(), QuadratureConfig(8.0, 24)],
                         ids=["default", "8-24"])
def test_ward_driver_batch_equals_single_points(quad):
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.2, 1.5, 8) * np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(8)))
    values = ward_residual(ML2, pts, quad)
    assert np.array_equal(values, [ward_residual(ML2, p, quad) for p in pts])


def test_ward_residual_leaves_caller_grid_unchanged():
    grid = np.array([[0.0j, 0.5 + 0.0j]])
    values = ward_residual(BULK, grid)
    assert np.array_equal(grid, [[0.0j, 0.5 + 0.0j]])
    assert values.shape == (1, 2) and values.dtype == float
    assert np.max(values) <= 1e-8


def test_hard_edge_H_batch_matches_single_points():
    rng = np.random.default_rng(11)
    z = rng.uniform(-6.0, 2.0, 300) + 1j * rng.uniform(-20.0, 20.0, 300)
    batch = hard_edge_H_scaled(z)
    single = np.array([hard_edge_H_scaled(complex(p)) for p in z])
    assert_allclose(batch, single, rtol=1e-13, atol=0.0)


def test_verify_ward_csv_ignores_threads(tmp_path):
    # the Mittag-Leffler grid has three distinct radii over four points
    cases = [("bulk", "-0.5:0.5:0.5", 9), ("ml:2", "-0.707:0.706:1.413", 4)]
    for spec, grid, rows in cases:
        argv = ["verify", "ward", "--spec", spec, "--grid", grid]
        outs = [tmp_path / f"{spec}-{name}" for name in ("t1", "t2", "t1again")]
        for out, threads in zip(outs, ("1", "2", "1")):
            assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
        csv = [next(out.glob("*.csv")).read_bytes() for out in outs]
        assert csv[0] == csv[1] == csv[2]
        js = [next(out.glob("*.json")).read_bytes() for out in outs]
        assert js[0] == js[1] == js[2]
        assert len(csv[0].decode().strip().splitlines()) == 1 + rows


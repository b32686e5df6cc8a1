"""Exact symmetries the plane quadrature relies on, and the shortcuts built
on them: the mirror fold of the Berezin density, the Re z collapse of the
Ward driver, and per-point H rule sizes."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plasma_kernel.cli import main
from plasma_kernel.limits import (
    LimitKernelSpec,
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


@pytest.mark.parametrize("spec", [BULK, FB, GAP, HE, CONST],
                         ids=["bulk", "fb", "gap", "he", "const"])
def test_profile_mirror_symmetry(spec):
    # |Phi_s(v)| = |Phi_s(conj v)|: the fold of the sgn = +-1 half lines
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


@pytest.mark.parametrize("spec,z", [(FB, 0.5 + 0.2j), (HE, -0.8 + 0.4j)],
                         ids=["fb", "he"])
def test_ward_driver_matches_full_stencil_off_axis(spec, z):
    values = ward_residual(spec, [z])
    assert abs(values[0] - abs(ward_point_residual(spec, z))) <= 1e-12


def test_ward_driver_spreads_over_equal_real_parts():
    pts = [0.5 + 0.0j, 0.5 + 1.0j, -0.5 - 1.0j, -0.5 + 0.5j]
    values = ward_residual(BULK, pts)
    assert values[0] == values[1] and values[2] == values[3]


def test_ward_driver_keeps_full_path_for_mittag_leffler():
    z = 0.7 + 0.2j
    values = ward_residual(ML2, [z])
    assert values[0] == abs(ward_point_residual(ML2, z))


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
    argv = ["verify", "ward", "--spec", "bulk", "--grid", "-0.5:0.5:0.5"]
    outs = [tmp_path / name for name in ("t1", "t2", "t1again")]
    for out, threads in zip(outs, ("1", "2", "1")):
        assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
    csv = [next(out.glob("*.csv")).read_bytes() for out in outs]
    assert csv[0] == csv[1] == csv[2]
    assert len(csv[0].decode().strip().splitlines()) == 1 + 9

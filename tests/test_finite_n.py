"""Finite-n kernels, rescaling frames, and exponential sections."""

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plasma_kernel.finite_n import (
    KERNEL_MAX_N,
    DivisionNearZero,
    KernelGrid,
    Potential,
    RescaleFrame,
    bulk_approx_kernel,
    cocycle_fix,
    droplet_radius,
    exp_section,
    kernel_finite_n,
    poly_norm_sq,
    psi_ratio,
    rescaled_kernel,
)

rng = np.random.default_rng(7)

GINIBRE = Potential.ginibre()
POWER2 = Potential.power(2.0)
HARD = Potential.hard_edge()


def random_complex(count, radius):
    r = np.sqrt(rng.uniform(0.0, radius**2, count))
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    return r * np.exp(1j * phi)


# --------------------------------------------------------------------------
# potentials and droplets
# --------------------------------------------------------------------------


def test_potential_validation():
    with pytest.raises(ValueError):
        Potential.power(0.0)
    with pytest.raises(ValueError):
        Potential("nope")


def test_q_value_and_density():
    z = 0.6 - 0.3j
    assert GINIBRE.q_value(z) == pytest.approx(abs(z) ** 2, rel=1e-15)
    assert POWER2.q_value(z) == pytest.approx(abs(z) ** 4, rel=1e-15)
    assert HARD.q_value(0.5j) == pytest.approx(0.25, rel=1e-15)
    # finite branch only; the wall is enforced by the kernel's domain check
    assert HARD.q_value(1.5) == pytest.approx(2.25, rel=1e-15)
    # quarter-Laplacian of Q
    assert GINIBRE.delta_q(z) == pytest.approx(1.0, rel=1e-15)
    assert POWER2.delta_q(z) == pytest.approx(4.0 * abs(z) ** 2, rel=1e-13)


def test_droplet_radii():
    assert droplet_radius(GINIBRE) == pytest.approx(1.0, rel=1e-15)
    assert droplet_radius(HARD) == pytest.approx(1.0, rel=1e-15)
    # power(lam) droplet: lam * R^(2 lam) = 1
    lam = 2.0
    assert droplet_radius(POWER2) == pytest.approx(lam ** (-1 / (2 * lam)), rel=1e-13)


# --------------------------------------------------------------------------
# monomial norms
# --------------------------------------------------------------------------


def test_poly_norm_sq_ginibre():
    assert poly_norm_sq(GINIBRE, 4, 2) == pytest.approx(
        math.log(2.0 / 4.0**3), rel=1e-14
    )


def test_poly_norm_sq_power():
    # Gamma((j+1)/lam) / (lam n^((j+1)/lam))
    val = poly_norm_sq(POWER2, 3, 1)
    assert val == pytest.approx(math.log(1.0 / (2.0 * 3.0)), rel=1e-13)


def test_poly_norm_sq_hard_edge_matches_poisson_sum():
    # log gamma(j+1, n) = lgamma(j+1) + log P(Poisson(n) >= j+1), with the
    # survival probability summed exactly at 40 digits
    mpmath = pytest.importorskip("mpmath")
    for n, j in ((9, 0), (16, 3), (64, 60), (1024, 10), (4096, 4000), (4096, 4095)):
        with mpmath.workdps(40):
            term = cdf = mpmath.mpf(1)
            for k in range(1, j + 1):
                term *= mpmath.mpf(n) / k
                cdf += term
            surv = 1 - cdf * mpmath.exp(-n)
            ref = float(mpmath.loggamma(j + 1) + mpmath.log(surv)
                        - (j + 1) * mpmath.log(n))
        assert_allclose(poly_norm_sq(HARD, n, j), ref, rtol=1e-12)


def test_poly_norm_sq_guards():
    with pytest.raises(ValueError):
        poly_norm_sq(GINIBRE, 4, 4)
    with pytest.raises(ValueError):
        poly_norm_sq(GINIBRE, 4, -1)


# --------------------------------------------------------------------------
# finite-n kernel
# --------------------------------------------------------------------------


def test_kernel_small_n_explicit_sum():
    # n = 2 Ginibre: K_2 = (n + n^2 zeta conj(eta)) e^{-n(|zeta|^2+|eta|^2)/2}
    zeta, eta = 0.3 + 0.2j, -0.1 + 0.4j
    direct = (2.0 + 4.0 * zeta * eta.conjugate()) * cmath.exp(
        -1.0 * (abs(zeta) ** 2 + abs(eta) ** 2)
    )
    assert_allclose(kernel_finite_n(GINIBRE, 2, zeta, eta), direct, rtol=1e-13)


def test_kernel_diagonal_boundary_value():
    # K_n(1, 1)/n = P(Poisson(n) <= n-1) at the Ginibre droplet edge
    assert_allclose(
        kernel_finite_n(GINIBRE, 64, 1.0, 1.0).real / 64.0,
        0.48337601249617351,
        rtol=1e-12,
    )


def test_kernel_hermitian_and_diagonal():
    for pot in (GINIBRE, POWER2, HARD):
        pts = random_complex(8, 0.9)
        for zeta in pts[:4]:
            for eta in pts[4:]:
                a = kernel_finite_n(pot, 24, complex(zeta), complex(eta))
                b = kernel_finite_n(pot, 24, complex(eta), complex(zeta))
                assert_allclose(a, b.conjugate(), rtol=1e-12)
            diag = kernel_finite_n(pot, 24, complex(zeta), complex(zeta))
            assert abs(diag.imag) <= 1e-12 * diag.real
            assert diag.real >= 0.0


def test_kernel_rotation_covariance():
    for pot in (GINIBRE, POWER2, HARD):
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        rot = cmath.exp(1j * alpha)
        for _ in range(10):
            zeta, eta = (complex(v) for v in random_complex(2, 0.9))
            a = kernel_finite_n(pot, 16, rot * zeta, rot * eta)
            b = kernel_finite_n(pot, 16, zeta, eta)
            assert_allclose(abs(a), abs(b), rtol=1e-11)


def test_power_one_reduces_to_ginibre():
    pot1 = Potential.power(1.0)
    pts = random_complex(200, 1.2)
    for k in range(100):
        zeta, eta = complex(pts[2 * k]), complex(pts[2 * k + 1])
        a = kernel_finite_n(pot1, 12, zeta, eta)
        b = kernel_finite_n(GINIBRE, 12, zeta, eta)
        assert abs(a - b) <= 1e-12 * max(abs(b), 1e-300)


def test_hard_edge_kernel_vanishes_outside_disc():
    assert kernel_finite_n(HARD, 16, 1.2, 0.5) == 0.0
    assert kernel_finite_n(HARD, 16, 0.5, 1.0 + 1e-9) == 0.0
    assert kernel_finite_n(HARD, 16, 0.9, 0.9) != 0.0


def test_kernel_total_mass():
    # integral of K_n(zeta, zeta) over the plane (dA = Lebesgue/pi) equals n
    n = 16
    nodes, weights = np.polynomial.legendre.leggauss(80)
    r = 1.5 * (nodes + 1.0)  # [0, 3]
    wr = 1.5 * weights
    total = 0.0
    for rad, wgt in zip(r, wr):
        # angular integral is trivial by rotation invariance
        total += 2.0 * rad * wgt * kernel_finite_n(GINIBRE, n, rad, rad).real
    assert_allclose(total, n, rtol=1e-10)


def test_kernel_size_guard():
    with pytest.raises(ValueError):
        kernel_finite_n(GINIBRE, KERNEL_MAX_N + 1, 0.0, 0.0)


# --------------------------------------------------------------------------
# second correlation and Gram positivity
# --------------------------------------------------------------------------


def test_two_point_function_nonnegative():
    pot = GINIBRE
    pts = random_complex(12, 1.1)
    for k in range(6):
        zeta, eta = complex(pts[2 * k]), complex(pts[2 * k + 1])
        r_z = kernel_finite_n(pot, 32, zeta, zeta).real
        r_w = kernel_finite_n(pot, 32, eta, eta).real
        k_zw = kernel_finite_n(pot, 32, zeta, eta)
        assert r_z * r_w - abs(k_zw) ** 2 >= -1e-9 * max(r_z * r_w, 1.0)


def test_two_point_function_vanishes_on_diagonal():
    zeta = 0.4 - 0.7j
    r = kernel_finite_n(GINIBRE, 32, zeta, zeta).real
    k = kernel_finite_n(GINIBRE, 32, zeta, zeta)
    assert r * r - abs(k) ** 2 == pytest.approx(0.0, abs=1e-12 * r * r)


def test_gram_matrix_positive_semidefinite():
    frame = RescaleFrame.boundary(GINIBRE, 64)
    pts = random_complex(6, 2.0)
    mat = np.empty((6, 6), dtype=complex)
    for i, z in enumerate(pts):
        for j, w in enumerate(pts):
            mat[i, j] = rescaled_kernel(GINIBRE, frame, complex(z), complex(w))
    eigs = np.linalg.eigvalsh(mat)
    assert eigs.min() >= -1e-9 * max(eigs.max(), 1.0)


# --------------------------------------------------------------------------
# rescaling frames
# --------------------------------------------------------------------------


def test_frame_roundtrip():
    frame = RescaleFrame.boundary(GINIBRE, 100, theta=0.7)
    for z in random_complex(10, 3.0):
        assert_allclose(frame.to_local(frame.to_global(complex(z))), complex(z),
                        rtol=1e-12, atol=1e-12)


def test_frame_factories():
    fb = RescaleFrame.bulk(GINIBRE, 25)
    assert fb.p == 0.0 and fb.zoom == pytest.approx(5.0)
    bd = RescaleFrame.boundary(GINIBRE, 25, theta=math.pi / 2)
    assert_allclose(bd.p, 1j, rtol=1e-12)
    sg = RescaleFrame.singularity(POWER2, 16)
    assert sg.zoom == pytest.approx(2.0)
    with pytest.raises(ValueError):
        RescaleFrame.singularity(GINIBRE, 16)
    with pytest.raises(ValueError):
        RescaleFrame(p=0.0, theta=0.0, n=4, zoom=0.0)


def test_rescaled_bulk_density_near_one():
    frame = RescaleFrame.bulk(GINIBRE, 256)
    assert_allclose(rescaled_kernel(GINIBRE, frame, 0.0, 0.0).real, 1.0, atol=1e-3)


def test_cocycle_unimodular():
    for z, w in zip(random_complex(5, 2.0), random_complex(5, 2.0)):
        c = cocycle_fix(64, complex(z), complex(w))
        assert abs(abs(c) - 1.0) <= 1e-15
        assert_allclose(c * cocycle_fix(64, complex(w), complex(z)), 1.0, rtol=1e-14)


def test_psi_ratio_diagonal():
    # on the diagonal the bulk approximation is exactly n/zoom^2 = 1
    frame = RescaleFrame.boundary(GINIBRE, 64)
    assert_allclose(bulk_approx_kernel(64, frame, 0.3j, 0.3j).real, 1.0, rtol=1e-13)
    psi = psi_ratio(frame, 0.0, 0.0)
    assert_allclose(psi.real, 0.48337601249617351, rtol=1e-12)
    assert abs(psi.imag) <= 1e-13


def test_psi_ratio_underflow_guard():
    frame = RescaleFrame.bulk(GINIBRE, 16)
    with pytest.raises(DivisionNearZero):
        psi_ratio(frame, 0.0, 40.0)


def test_kernel_grid_points():
    grid = KernelGrid(origin=-1.0 - 1.0j, step=0.5, nx=5, ny=3,
                      values=np.zeros((3, 5)))
    pts = grid.points()
    assert pts.shape == (3, 5)
    assert pts[0, 0] == -1.0 - 1.0j
    assert pts[2, 4] == pytest.approx(1.0 + 0.0j)


# --------------------------------------------------------------------------
# exponential sections
# --------------------------------------------------------------------------


def test_exp_section_trivial():
    assert_allclose(exp_section(1, 0.0), math.exp(-1.0), rtol=1e-14)


def test_exp_section_matches_poisson_cdf():
    # frozen log-space oracle values
    assert_allclose(exp_section(64, 0.0), 0.48337601249617351, atol=1e-9)
    assert_allclose(exp_section(4096, 0.0), 0.49792217280621542, atol=1e-9)


def test_exp_section_negative_mean_branch():
    # mu = n + sqrt(n) x <= 0: alternating direct sum
    n, mu = 3, -2.0
    x = (mu - n) / math.sqrt(n)
    expected = (1.0 + mu + mu * mu / 2.0) * math.exp(-mu)
    assert_allclose(exp_section(n, x), expected, rtol=1e-13)
    n2 = 2
    x2 = (-1.0 - n2) / math.sqrt(n2)
    assert exp_section(n2, x2) == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("n", [64, 1024, 4096, 65536])
def test_exp_section_against_poisson_sum(n):
    # P(Poisson(mu) <= n-1) summed exactly at 40 digits, at the double mu
    # that exp_section forms from x
    mpmath = pytest.importorskip("mpmath")
    for x in np.linspace(-3.0, 3.0, 7):
        mu = n + math.sqrt(n) * float(x)
        with mpmath.workdps(40):
            m = mpmath.mpf(mu)
            term = total = mpmath.mpf(1)
            for j in range(1, n):
                term *= m / j
                total += term
            ref = float(total * mpmath.exp(-m))
        assert_allclose(exp_section(n, float(x)), ref, rtol=1e-12)


def test_exp_section_guards():
    with pytest.raises(ValueError):
        exp_section(0, 0.0)
    with pytest.raises(ValueError):
        exp_section(10**6 + 1, 0.0)

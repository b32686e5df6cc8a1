"""Plane-quadrature operators: mass-one residuals, Cauchy transforms,
Ward-equation residuals, Gram positivity, inequalities, and tail bounds."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_less

from plasma_kernel import finite_n, limits
from plasma_kernel.limits import (
    LimitKernelSpec,
    QuadratureConfig,
    ZeroIntensity,
    cauchy_transform,
    eighth_formula,
    gram_min_eig,
    inequality_suite,
    laplacian_log_R,
    mass_one_residual,
    polarized_mass_one_residual,
    tail_bounds_report,
    ward_point_residual,
    ward_residual,
)
from plasma_kernel.special import _leggauss, mittag_leffler_kernel_eval

rng = np.random.default_rng(2024)

BULK = LimitKernelSpec.ginibre_bulk()
FB = LimitKernelSpec.free_boundary()
HE = LimitKernelSpec.hard_edge()
ML2 = LimitKernelSpec.mittag_leffler(2.0)
CONST = LimitKernelSpec.constant_profile(0.5)
GAP = LimitKernelSpec.free_boundary(((-2.0, -1.0), (1.0, 2.0)))


def test_quadrature_config_node_budget():
    # at n_radial = 768 the reduced rule of one point, two panels of 256 nodes
    # in each of two variables, fills exactly one block, which never splits a
    # point; above it a request is refused before any node is built
    assert (2 * limits._panel_nodes(QuadratureConfig(8.0, 768))) ** 2 == limits._BLOCK
    assert QuadratureConfig(8.0, 384).doubled().n_radial == limits.QUAD_MAX_N_RADIAL == 768
    with pytest.raises(ValueError, match="n_radial must be at most 768, got 769"):
        QuadratureConfig(8.0, 769)
    with pytest.raises(ValueError, match="at most 768, got 770"):
        QuadratureConfig(8.0, 385).doubled()


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


@pytest.mark.parametrize("lam", [1.25, 1.5, 3.0, 4.5])
def test_mass_one_mittag_leffler_every_lam(lam):
    # the radial rule sits where |rho^lam - r^lam| <= r_max, so a narrow
    # density far out (lam = 4.5, |z| = 2.5) is resolved too
    zs = np.array([0.0, 0.3, 0.9, 1.0 + 0.5j, 2.5j])
    spec = LimitKernelSpec.mittag_leffler(lam)
    assert np.max(np.abs(mass_one_residual(spec, zs))) <= 1e-14
    assert np.max(np.abs(mass_one_residual(spec, zs, QuadratureConfig().doubled()))) <= 1e-14


def test_mass_one_constant_profile_defect():
    # the constant profile is a counterexample: the defect is exactly -1/2
    for z in (0.0, 0.7 - 0.3j):
        assert_allclose(mass_one_residual(CONST, z), -0.5, rtol=0, atol=1e-9)


def test_mass_one_interval_union_edge_effects():
    # m = 1_E gives m^2 = m, so every union of intervals satisfies mass-one
    # exactly, at its edges as well as far from them (the kernel is an
    # orthogonal projection); the gapped union fails Ward's equation
    # instead, see test_ward_distinguishes_disconnected_union
    near = LimitKernelSpec.free_boundary(((-2.0, -1.0), (1.0, 2.0)))
    assert np.max(np.abs(mass_one_residual(near, [1.5, 1.0 + 0.5j, 0.0, -1.7]))) <= 1e-14
    far = LimitKernelSpec.free_boundary(((-20.0, -1.0), (1.0, 20.0)))
    assert abs(mass_one_residual(far, 6.0)) <= 1e-14


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
    # outside the domain Re < 0 both the kernel and its reproducing integral vanish
    res = polarized_mass_one_residual(HE, [0.6 + 0.2j, -0.6], [-1.1 - 0.4j, 0.3j])
    assert res.tolist() == [0, 0]


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


def _unfolded_ml_cauchy(z, n_angular, quad=QuadratureConfig()):
    """C(z) for ML2 on the full polar rule centred at z: every angle
    ``2 pi k / n_angular``, no rotation to the real axis and no fold."""
    x, w = _leggauss(quad.n_radial, polish=True)
    rho, w_rho = 0.5 * quad.r_max * (x + 1.0), 0.5 * quad.r_max * w
    phi = 2.0 * math.pi * np.arange(n_angular) / n_angular
    t = z + rho[:, None] * np.exp(1j * phi)
    m = mittag_leffler_kernel_eval(2.0, z * np.conj(t))
    m_diag = mittag_leffler_kernel_eval(2.0, abs(z) ** 2).real
    dens = np.abs(m) ** 2 * np.exp(-np.abs(t) ** 4) / m_diag
    return -np.sum(dens * np.exp(-1j * phi) * w_rho[:, None]) * 2.0 / n_angular


@pytest.mark.parametrize("n_angular", [128, 127], ids=["even", "odd"])
def test_mittag_leffler_cauchy_rotation_and_fold(n_angular):
    # C(z) = e^{-i arg z} c(|z|), c from the angular reduction at |z|,
    # against a polar rule centred at z itself: every angle, no rotation to
    # the real axis and no fold
    zs = np.array([0.5 + 0.4j, -0.7 + 0.2j, -0.3 - 0.9j, 1.1 - 0.6j])
    ref = np.array([_unfolded_ml_cauchy(z, n_angular) for z in zs])
    assert np.max(np.abs(cauchy_transform(ML2, zs) - ref)) <= 1e-14


def test_mittag_leffler_cauchy_is_real_on_the_real_axis():
    # the reduction gives c real; at a real point the polar rule's imaginary
    # part is rounding, and its real part is c (the rule's unscaled M_2
    # overflows at r = 2.5)
    rs = np.array([0.0, 0.3, 1.2, 2.5])
    c = cauchy_transform(ML2, rs)
    assert np.all(c.imag == 0.0)
    for n_angular in (128, 127):
        ref = np.array([_unfolded_ml_cauchy(complex(r), n_angular) for r in rs[:3]])
        assert np.max(np.abs(ref.imag)) <= 1e-14
        assert np.max(np.abs(c[:3] - ref)) <= 1e-14
    assert cauchy_transform(ML2, 1.2).imag == 0.0


def _mp_ml_cauchy(mpmath, lam, r):
    """c(r) of the Mittag-Leffler kernel from its definition, at the working
    precision: ``(1/(r R)) sum_j [P_j sum_{l<=j} s_l - Q_j sum_{l>j} s_l]``
    over the 12 standard deviations of the terms around their peak.  For
    rational lam = p/q, ``P((j+1+p)/lam, x) = P((j+1)/lam, x) - sum_{i<q}
    x^(a+i) e^-x / Gamma(a+i+1)``, a = (j+1)/lam (DLMF 8.8.5), so only the
    first p shapes call ``gammainc``."""
    frac = Fraction(lam).limit_denominator(100)
    period, step = frac.numerator, frac.denominator
    lam, r = mpmath.mpf(frac.numerator) / frac.denominator, mpmath.mpf(r)
    if r == 0:
        return mpmath.mpf(0)
    x = r ** (2 * lam)
    sd = float(lam * mpmath.sqrt(max(x, 1)))
    peak = int(lam * x)
    js = range(max(0, peak - int(12 * sd) - 40), peak + int(12 * sd) + 40)
    shape = [(j + 1) / lam for j in js]
    s = [lam * mpmath.exp(2 * j * mpmath.log(r) - x - mpmath.loggamma(a))
         for j, a in zip(js, shape)]
    p = []
    for k, a in enumerate(shape):
        if k < period:
            p.append(mpmath.gammainc(a, 0, x, regularized=True))
        else:
            b = shape[k - period]
            p.append(p[k - period] - mpmath.fsum(
                mpmath.exp((b + i) * mpmath.log(x) - x - mpmath.loggamma(b + i + 1))
                for i in range(step)))
    total, below, acc = mpmath.fsum(s), mpmath.mpf(0), []
    for sk, pk in zip(s, p):
        below += sk
        acc.append(pk * below - (1 - pk) * (total - below))
    return mpmath.fsum(acc) / (r * total)


ORACLE_RADII = [0.0, 1e-3, 0.3, 0.9, 1.5, 2.5]


@pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 3.0, 4.5])
def test_mittag_leffler_cauchy_against_mpmath(lam):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = np.array([float(_mp_ml_cauchy(mpmath, lam, r)) for r in ORACLE_RADII])
    got = cauchy_transform(LimitKernelSpec.mittag_leffler(lam), ORACLE_RADII)
    assert np.all(got.imag == 0.0) and got[0] == 0.0
    assert np.max(np.abs(got.real - ref)) <= 1e-14


# Independent oracles of the two Mittag-Leffler stencils at _FD_STEP = h, at
# radii away from the |z|^3 kink of R at 0 (lam = 1.5).  Each bound is the
# stencil's rounding floor plus twice its truncation term at the centre, which
# covers the unknown intermediate point within 2h.  With weights w_k, the
# computed inputs f_k and the 40-digit f at the exact nodes x_k = r + k h, the
# floor is sum_k |w_k| (|f_k - f(x_k)| + 4 eps |f(x_k)|): the inputs' errors,
# node rounding included, then the products and the sum.
STENCIL_RADII = (0.3, 0.9, 1.5)
EPS = np.finfo(float).eps


@functools.lru_cache(maxsize=None)
def _mp_ml_coefficients(mpmath, lam, prec):
    """``lam / Gamma((j+1)/lam)`` for j < 400 at ``prec`` bits; for x <= 4 and
    lam <= 3 the terms past j = 400 are below 1e-70."""
    with mpmath.workprec(prec):
        lam = mpmath.mpf(lam)
        return tuple(lam / mpmath.gamma((j + 1) / lam) for j in range(400))


def _mp_log_R(mpmath, lam, r):
    """log R(r) = log(M_lam(r^2)) - r^(2 lam), M_lam(x) = lam sum_j x^j /
    Gamma((j+1)/lam), at the working precision."""
    x = r * r
    coeffs = _mp_ml_coefficients(mpmath, lam, mpmath.mp.prec)
    return mpmath.log(mpmath.polyval(coeffs[::-1], x)) - x ** mpmath.mpf(lam)


@pytest.mark.parametrize("lam", [1.5, 3.0])
def test_mittag_leffler_laplacian_stencil_against_mpmath(lam):
    # (1/4) Lap log R of a radial f(r) = log R at z = r: (f'' + f'/r) / 4.  The
    # 5-point stencil of a second derivative misses by (h^4 / 90) f^(6)(xi)
    mpmath = pytest.importorskip("mpmath")
    h = limits._FD_STEP
    coeff = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    offsets = h * np.arange(-2.0, 3.0)
    got = laplacian_log_R(LimitKernelSpec.mittag_leffler(lam), np.array(STENCIL_RADII))
    with mpmath.workdps(40):
        def f(r):
            return _mp_log_R(mpmath, lam, r)

        for r, value in zip(STENCIL_RADII, got):
            r_mp = mpmath.mpf(r)
            ref = float((mpmath.diff(f, r_mp, 2) + mpmath.diff(f, r_mp, 1) / r_mp) / 4)
            nodes = np.concatenate([r + offsets, r + 1j * offsets])
            steps = [k * mpmath.mpf(h) for k in range(-2, 3)]
            exact = np.array([float(f(r_mp + s)) for s in steps]
                             + [float(f(mpmath.sqrt(r_mp**2 + s**2))) for s in steps])
            ours = np.log(limits.one_point(LimitKernelSpec.mittag_leffler(lam), nodes))
            weights = 0.25 * np.abs(np.concatenate([coeff, coeff]))
            rounding = np.sum(weights * (np.abs(ours - exact) + 4.0 * EPS * np.abs(exact)))
            d6_x = mpmath.diff(f, r_mp, 6)
            d6_y = mpmath.diff(lambda y: f(mpmath.sqrt(r_mp**2 + y**2)), 0, 6)
            truncation = 2.0 * h**4 / 90.0 * float(abs(d6_x) + abs(d6_y)) / 4.0
            assert abs(value - ref) <= rounding + truncation, (r, value - ref, rounding)


@pytest.mark.parametrize("lam", [1.5, 3.0])
def test_mittag_leffler_radial_stencil_against_mpmath(lam):
    # dbar C = (c' + c/r) / 2 with c' from the 4-point central difference of
    # c, which misses by (h^4 / 30) c^(5)(xi)
    mpmath = pytest.importorskip("mpmath")
    h = limits._FD_STEP
    stencil = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    rs = np.array(STENCIL_RADII)
    got = limits._ml_dbar_cauchy(lam, rs)
    with mpmath.workdps(40):
        def c(r):
            return _mp_ml_cauchy(mpmath, lam, r)

        for r, value in zip(rs, got):
            r_mp = mpmath.mpf(r)
            ref = float((mpmath.diff(c, r_mp, 1) + c(r_mp) / r_mp) / 2)
            nodes = r + h * np.arange(-2.0, 3.0)
            exact = np.array([float(c(r_mp + k * mpmath.mpf(h))) for k in range(-2, 3)])
            ours = finite_n._ml_cauchy(lam, nodes)[0]
            weights = 0.5 * (np.abs(stencil) + np.array([0.0, 0.0, 1.0 / r, 0.0, 0.0]))
            rounding = np.sum(weights * (np.abs(ours - exact) + 4.0 * EPS * np.abs(exact)))
            truncation = 2.0 * h**4 / 30.0 * float(abs(mpmath.diff(c, r_mp, 5))) / 2.0
            assert abs(value - ref) <= rounding + truncation, (r, value - ref, rounding)


def test_mittag_leffler_cauchy_vanishes_at_lam_one():
    # lam = 1 is the bulk kernel: P_j is the Poisson tail sum_{l>j} s_l / R,
    # so every summand of the reduction cancels
    rs = np.concatenate([[0.0, 1e-3], np.linspace(0.05, 6.0, 120)])
    c = cauchy_transform(LimitKernelSpec.mittag_leffler(1.0), rs)
    assert np.max(np.abs(c)) <= 1e-15


def test_mittag_leffler_integrals_at_tiny_radii():
    # where r^(2 lam) underflows, c = kappa r + O(r^3) with |kappa| < 1.03
    # is 0 within the reported 2r; mass-one stays at rounding
    rs = np.array([1e-100, 1e-170, 5e-324])
    for lam in (2.0, 3.0, 10.0):
        spec = LimitKernelSpec.mittag_leffler(lam)
        c, bound = finite_n._ml_cauchy(lam, rs)
        assert np.all(c == 0.0) and np.all(bound == 2.0 * rs)
        assert np.all(cauchy_transform(spec, rs) == 0.0)
        assert np.max(np.abs(mass_one_residual(spec, rs))) <= 1e-15
    # kappa = 1/Gamma(1 + 1/lam) - Gamma(1/lam)/Gamma(2/lam) once r^(2 lam) is
    # representable: -0.64 at lam = 2
    c = cauchy_transform(ML2, 1e-80)
    assert c.real == pytest.approx(-(math.gamma(0.5) - 1.0 / math.gamma(1.5)) * 1e-80, rel=1e-14)


@pytest.mark.parametrize("lam,r", [(1.5, 2.5), (3.0, 1.5), (4.5, 1.5)])
def test_mittag_leffler_cauchy_tail_bound_holds(monkeypatch, lam, r):
    # every window width, down to ones that drop most of the mass, reports a
    # bound on the error of c that it makes (plus 2e-15 of rounding), within
    # a factor 10 once the window holds most of it
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = float(_mp_ml_cauchy(mpmath, lam, r))
    c, bound = finite_n._ml_cauchy(lam, np.array([r]))
    assert bound[0] <= 1e-17 and abs(c[0] - ref) <= 1e-14
    monkeypatch.setattr(finite_n, "_TAIL_TOL", math.inf)  # keep the first window
    for width in (1, 2, 4, 8, 16, 32, 64, 128):
        monkeypatch.setattr(finite_n, "_half_width",
                            lambda pot, n, mu, uncapped=False: np.full(mu.shape, width))
        c, bound = finite_n._ml_cauchy(lam, np.array([r]))
        err = abs(c[0] - ref)
        assert err <= bound[0] + 2e-15, (width, err, bound[0])
        assert bound[0] <= 10.0 * err + 1e-14 or bound[0] > 1.0, (width, err, bound[0])


def test_mittag_leffler_mass_one_is_radial_and_at_rounding():
    zs = np.array([0.5 + 0.4j, -0.7 + 0.2j, -0.3 - 0.9j, 1.1 - 0.6j, 1.5j])
    res = mass_one_residual(ML2, zs)
    assert np.max(np.abs(res - mass_one_residual(ML2, np.abs(zs)))) <= 1e-15
    # the polished radial rule; numpy's leggauss end weights leave up to 1e-14
    assert np.max(np.abs(res)) <= 1e-15


def test_cauchy_decays_deep_in_bulk():
    assert abs(cauchy_transform(FB, -3.0)) <= 1e-6


def test_empirical_convergence_order_at_least_four():
    # halving both node counts must raise the error by >= 2^4
    z = 0.3 + 0.1j
    coarse = QuadratureConfig(r_max=8.0, n_radial=48)
    fine = QuadratureConfig()
    e_mass = (abs(mass_one_residual(FB, z, coarse)),
              abs(mass_one_residual(FB, z, fine)))
    assert e_mass[0] >= 16.0 * e_mass[1]
    ref = cauchy_transform(FB, z, fine.doubled())
    e_cauchy = (abs(cauchy_transform(FB, z, coarse) - ref),
                abs(cauchy_transform(FB, z, fine) - ref))
    assert e_cauchy[0] >= 16.0 * e_cauchy[1]


# --------------------------------------------------------------------------
# reduced rules against independent oracles
# --------------------------------------------------------------------------


def _mp_half_line_cauchy(mpmath, x):
    """C = sF(s) - s - gamma(s) + gamma(s)/F(s), s = 2x: Ward's equation
    integrated once for the half line, so an oracle only."""
    s = 2 * mpmath.mpf(x)
    f, g = mpmath.ncdf(-s), mpmath.npdf(s)
    return s * f - s - g + g / f


def test_cauchy_half_line_closed_form():
    mpmath = pytest.importorskip("mpmath")
    xs = np.round(np.arange(-3.0, 3.0 + 1e-9, 0.1), 12)
    with mpmath.workdps(40):
        ref = np.array([float(_mp_half_line_cauchy(mpmath, x)) for x in xs])
    values = cauchy_transform(FB, xs)
    assert np.all(values.imag == 0.0)
    assert np.max(np.abs(values.real - ref)) <= 1e-14


def test_cauchy_bulk_vanishes():
    axis = np.arange(-3.0, 3.0 + 1e-9, 0.25)
    values = cauchy_transform(BULK, axis[None, :] + 1j * np.array([[0.0], [1.3]]))
    assert values.shape == (2, axis.size)
    assert np.max(np.abs(values)) <= 1e-14


@pytest.mark.parametrize("level", [0.25, 0.5, 2.0])
def test_constant_profile_mass_one_defect_is_level_minus_one(level):
    spec = LimitKernelSpec.constant_profile(level)
    res = mass_one_residual(spec, [0.0, 0.3, -1.2 + 0.7j])
    assert np.max(np.abs(res - (level - 1.0))) <= 1e-14


@functools.lru_cache(maxsize=None)
def _mp_cumulative_rule(n):
    """n-point Gauss-Legendre rule on [-1, 1] at the working precision and the
    matrix Q with ``sum_j Q[i][j] f(x_j) = int_{-1}^{x_i} f`` for every
    polynomial f of degree below n."""
    mpmath = pytest.importorskip("mpmath")

    def legendre(x):
        p = [mpmath.mpf(1), x]
        for j in range(2, n + 1):
            p.append(((2 * j - 1) * x * p[-1] - (j - 1) * p[-2]) / j)
        return p

    xs = []
    for k in range(1, n + 1):
        x = mpmath.cos(mpmath.pi * (k - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2))
        for _ in range(60):
            p = legendre(x)
            step = p[n] * (1 - x * x) / (n * (p[n - 1] - x * p[n]))
            x -= step
            if abs(step) < mpmath.mpf(10) ** -45:
                break
        xs.append(x)
    leg = [legendre(x) for x in xs]
    ws = [2 * (1 - x * x) / (n * p[n - 1]) ** 2 for x, p in zip(xs, leg)]
    q = [[ws[j] * ((xs[i] + 1) / 2 + sum(leg[j][k] * (leg[i][k + 1] - leg[i][k - 1]) / 2
                                           for k in range(1, n)))
          for j in range(n)] for i in range(n)]
    return xs, ws, q


def _mp_hard_edge(mpmath, x, n=20):
    """40-digit ``R C``, ``R`` and the reduced mass-one integral times R at
    the hard edge, by a composite Gauss rule on [2x - 14, 0] whose inner
    integrals over t < s are cumulative (``_mp_cumulative_rule``)."""
    xs, ws, q = _mp_cumulative_rule(n)
    c = 2 * mpmath.mpf(x)
    lo = c - 14
    panels = int(mpmath.ceil(-lo))
    h = -lo / panels
    num = mass = a0 = b0 = mpmath.mpf(0)
    for p in range(panels):
        s = [lo + p * h + (u + 1) * h / 2 for u in xs]
        big_f = [mpmath.ncdf(-t) for t in s]  # F(t) = 1/m(t)
        m = [1 / f for f in big_f]
        g = [mpmath.npdf(t - c) for t in s]
        cdf = [mpmath.ncdf(t - c) for t in s]
        fa = [mt * gt for mt, gt in zip(m, g)]
        fb = [mt * (ct - (1 - ft)) for mt, ct, ft in zip(m, cdf, big_f)]
        for i in range(n):
            a = a0 + h / 2 * mpmath.fdot(q[i], fa)
            b = b0 + h / 2 * mpmath.fdot(q[i], fb)
            num += ws[i] * h / 2 * m[i] * ((1 - cdf[i]) * a - g[i] * b)
            mass += ws[i] * h / 2 * m[i] ** 2 * g[i] * big_f[i]
        a0 += h / 2 * mpmath.fdot(ws, fa)
        b0 += h / 2 * mpmath.fdot(ws, fb)
    return num, a0, mass


def test_hard_edge_reduced_integrals_against_mpmath():
    # the reduced Cauchy numerator, R = (gamma * m)(2x) and the reduced
    # mass-one integral (1/pi) int m^2 e^{-(tau-2x)^2/2} int_{a<0} ... da
    mpmath = pytest.importorskip("mpmath")
    xs = np.array([-0.5, -1.0, -2.0])
    with mpmath.workdps(40):
        ref = [_mp_hard_edge(mpmath, x) for x in xs]
    c_ref = np.array([float(num / r) for num, r, _ in ref])
    mass_ref = np.array([float(mass / r - 1) for _, r, mass in ref])
    assert np.max(np.abs(cauchy_transform(HE, xs).real - c_ref)) <= 1e-14
    assert np.max(np.abs(mass_one_residual(HE, xs) - mass_ref)) <= 1e-14


def _psi(mpmath, q):
    return q * mpmath.ncdf(q) + mpmath.npdf(q)


def test_gapped_union_reduced_cauchy_against_mpmath():
    # m = 1_E: the t < s integrals close (Phi and its antiderivative Psi),
    # the s integral is mpmath.quad over each interval
    mpmath = pytest.importorskip("mpmath")
    ivals = ((-2, -1), (1, 2))
    with mpmath.workdps(40):
        def inner(s, f):
            return sum(f(min(s, hi)) - f(lo) for lo, hi in ivals if s > lo)

        def integrand(s):
            a = inner(s, mpmath.ncdf)
            b = inner(s, lambda u: _psi(mpmath, u))
            return mpmath.ncdf(-s) * a - mpmath.npdf(s) * b

        num = sum(mpmath.quad(integrand, [lo, hi]) for lo, hi in ivals)
        r = sum(mpmath.ncdf(-lo) - mpmath.ncdf(-hi) for lo, hi in ivals)
        ref = float(num / r)
    assert abs(cauchy_transform(GAP, 0.0) - ref) <= 1e-14


def test_polarized_pair_against_mpmath():
    # the first free-boundary pair of ``verify polarized``
    mpmath = pytest.importorskip("mpmath")
    z, w = 0.5 + 0.0j, -0.3 + 0.4j
    with mpmath.workdps(40):
        xz, yz, xw, yw = (mpmath.mpf(v) for v in (z.real, z.imag, w.real, w.imag))
        c = xz + xw
        tau = mpmath.quad(lambda t: mpmath.exp(-(t - c) ** 2 / 2 + 1j * (yw - yz) * t),
                          [-mpmath.inf, min(c, 0), 0])
        lhs = (mpmath.exp(-(xw - xz) ** 2 / 2 - 1j * (yw * xw - yz * xz))
               * tau * mpmath.sqrt(mpmath.pi / 2) / mpmath.pi)
        # K(w, z) = e^{-(xw-xz)^2/2} e^{i Im(w conj z)} F(v) e^{-Im(v)^2/2}, v = w + conj z
        kernel = (mpmath.exp(-((xw - xz) ** 2 + (yw - yz) ** 2) / 2 + 1j * (yw * xz - xw * yz))
                  * mpmath.erfc(mpmath.mpc(xw + xz, yw - yz) / mpmath.sqrt(2)) / 2)
        ref = complex(lhs - kernel)
    assert abs(ref) <= 1e-30  # the reproducing property holds exactly for 1_E
    assert abs(polarized_mass_one_residual(FB, z, w) - ref) <= 1e-14


def test_reduced_rule_tail_bound():
    # the bound written next to limits._CUT, at the cut-off in use and the
    # largest density (m = 1/F <= 2 at the hard edge)
    mpmath = pytest.importorskip("mpmath")
    cut, m_max = limits._CUT, 2
    with mpmath.workdps(30):
        phi, big_phi = mpmath.npdf, mpmath.ncdf

        def lost_s(q):
            return big_phi(q) * big_phi(-q) + phi(q) * _psi(mpmath, q)

        s_range = m_max**2 * (mpmath.quad(lost_s, [-mpmath.inf, -cut])
                              + mpmath.quad(lost_s, [cut, mpmath.inf]))
        t_range = m_max**2 * (2 * _psi(mpmath, -cut) + phi(0) * big_phi(-cut))
        reproducing = 4 * m_max**2 * big_phi(-cut)
    assert s_range + t_range < 1e-17
    assert reproducing < 1e-17


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


def test_ward_residual_keeps_shape():
    axis = -0.5 + 0.5 * np.arange(3)
    pts = axis[None, :] + 1j * axis[:, None]
    values = ward_residual(BULK, pts)
    assert values.shape == (3, 3)
    assert np.max(values) <= 1e-8


def test_ward_residual_scalar_point_gives_float():
    value = ward_residual(BULK, 0.5 + 0.5j)
    assert type(value) is float
    assert value == ward_residual(BULK, [0.5 + 0.5j])[0]


def test_ward_hard_edge_grid_guard():
    # the intensity vanishes from Re z = 0 on, as in every plane integral;
    # any point left of it is in the domain, however close
    axis = -1.0 + 0.5 * np.arange(3)
    with pytest.raises(ZeroIntensity, match="vanishes at 0j"):
        ward_residual(HE, axis[None, :] + 1j * axis[:, None])
    assert ward_residual(HE, [-1e-4 + 0.5j])[0] <= 1e-12


def test_ward_dbar_against_mpmath_half_line():
    # dbar C = C_x / 2 = (N' R - N R') / R^2 in c = 2x, N' from the reduced
    # rule's own nodes, against the derivative of the closed form
    mpmath = pytest.importorskip("mpmath")
    xs = np.round(np.arange(-3.0, 3.0 + 1e-9, 0.1), 12)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.diff(lambda u: _mp_half_line_cauchy(mpmath, u), x) / 2)
                        for x in xs])
    profile = limits._profile_for(FB)
    num, d_num = limits._ti_cauchy_numerator(profile, xs, QuadratureConfig())
    r = profile.diag(2.0 * xs)
    dbar = (d_num * r - num * profile.diag(2.0 * xs, 1)) / (r * r)
    assert np.max(np.abs(dbar - ref)) <= 1e-14


@pytest.mark.parametrize("spec,z", [(FB, 0.5 + 0.2j), (HE, -0.8 + 0.4j), (GAP, 0.0)],
                         ids=["fb", "he", "gap"])
def test_ward_stencil_reference_converges_at_fourth_order(spec, z):
    # the full stencil's distance to the exact dbar C is its O(h^4) truncation,
    # so it grows 16-fold per doubling of the step
    exact = ward_residual(spec, z)
    gaps = [abs(abs(ward_point_residual(spec, z, fd_step=h)) - exact)
            for h in (0.01, 0.02, 0.04)]
    assert 15.0 <= gaps[1] / gaps[0] <= 17.0
    assert 15.0 <= gaps[2] / gaps[1] <= 17.0


@pytest.mark.parametrize("spec,z", [(CONST, 0.3 - 0.2j), (GAP, 0.0)], ids=["const", "gap"])
def test_ward_failures_match_the_stencil_reference(spec, z):
    # kernels that are not Ward solutions keep the residual the stencil gives
    ref = abs(ward_point_residual(spec, z))
    assert ref > 0.1
    assert abs(ward_residual(spec, z) - ref) <= 1e-9 * ref


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


@pytest.mark.parametrize("spec,complementary", [
    (FB, False), (FB, True), (LimitKernelSpec.mittag_leffler(1.5), False)],
    ids=["plain", "complementary", "ml1.5"])
def test_gram_stack_is_bitwise_the_single_sets(spec, complementary):
    # a 2-D input is a stack of sets, not one set of all its points
    sets = 40 if spec.kind == "free_boundary" else 4
    pts = rng.uniform(-2, 2, (sets, 8)) + 1j * rng.uniform(-2, 2, (sets, 8))
    stacked = gram_min_eig(spec, pts, complementary=complementary)
    single = np.array([gram_min_eig(spec, p, complementary=complementary) for p in pts])
    assert stacked.shape == (sets,)
    assert np.array_equal(stacked.view(np.uint64), single.view(np.uint64))


def test_gram_stack_shapes():
    pts = rng.uniform(-2, 2, (2, 3, 8)) + 1j * rng.uniform(-2, 2, (2, 3, 8))
    eig = gram_min_eig(FB, pts)
    assert eig.shape == (2, 3)
    assert eig[1, 2] == gram_min_eig(FB, pts[1, 2])
    assert type(gram_min_eig(FB, pts[0, 0])) is float
    assert type(gram_min_eig(FB, [0.5j])) is float
    assert gram_min_eig(FB, 0.5j) == gram_min_eig(FB, [0.5j])


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
    lambda grid: tail_bounds_report(FB, grid),
], ids=["tail_bounds"])
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


def test_eighth_formula_node_consistency(monkeypatch):
    value = eighth_formula()
    monkeypatch.setattr(limits, "_EIGHTH_NODES", 96)
    assert abs(eighth_formula() - value) <= 1e-12

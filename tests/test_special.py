"""Special-function oracles and analytic invariants."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy.special import erfc, erfcx

from plasma_kernel import special
from plasma_kernel.finite_n import _ml_kernel
from plasma_kernel.limits import LimitKernelSpec, _profile_for
from plasma_kernel.special import (
    HERMITE_MAX_DEGREE,
    QuadratureNotConverged,
    _flat,
    _shaped,
    gauss_gamma,
    hard_edge_H,
    hard_edge_H_scaled,
    hermite_prob,
    hermite_scaled,
    mittag_leffler_kernel_eval,
    mittag_leffler_kernel_scaled,
    plasma_F,
    plasma_F_scaled,
)

rng = np.random.default_rng(20260814)


def random_complex(count, radius, min_radius=0.0):
    r = rng.uniform(min_radius, radius, count)
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    return r * np.exp(1j * phi)


# --------------------------------------------------------------------------
# complex error function: scipy's erfc and erfcx, which plasma_F and
# plasma_F_scaled call on complex input
# --------------------------------------------------------------------------


def _mp_erfcx(z):
    """Faddeeva function ``w(iz) = exp(z^2) erfc(z)`` from mpmath at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return np.array([
            complex(mpmath.exp(mpmath.mpc(v) ** 2) * mpmath.erfc(mpmath.mpc(v)))
            for v in z
        ])


def test_erfcx_against_faddeeva_small():
    z = random_complex(400, 8.0)
    ref = _mp_erfcx(z)
    assert_allclose(erfcx(z), ref, rtol=2e-12, atol=1e-300)


def test_erfcx_against_faddeeva_envelope():
    z = random_complex(400, 30.0)  # the documented envelope |z| <= 30
    # where Re z < 0 and Re z^2 is huge the true value ~ 2 e^{z^2} overflows
    # doubles on every route; compare only representable values
    z = z[np.abs((z * z).real) < 650.0]
    assert z.size > 100
    ref = _mp_erfcx(z)
    with np.errstate(over="ignore", invalid="ignore"):
        ours = erfcx(z)
    assert_allclose(ours, ref, rtol=5e-11, atol=1e-300)


def test_erfc_real_axis_value():
    assert_allclose(erfc(1.0 + 0j).real, 0.15729920705028522, rtol=1e-13)
    assert erfc(0j).real == pytest.approx(1.0, abs=1e-14)


def test_erfc_reflection():
    z = random_complex(100, 6.0)
    assert_allclose(erfc(z) + erfc(-z), 2.0, rtol=0, atol=1e-12)


# --------------------------------------------------------------------------
# plasma function and Gaussian density
# --------------------------------------------------------------------------


def test_plasma_F_real_values():
    # standard-normal tail probabilities
    assert_allclose(complex(plasma_F(0.0)).real, 0.5, rtol=1e-14)
    assert_allclose(complex(plasma_F(2.0)).real, 0.0227501319481792072, rtol=1e-13)
    assert_allclose(complex(plasma_F(1.0)).real, 0.158655253931457051, rtol=1e-13)
    assert_allclose(
        complex(plasma_F(-2.0)).real, 1.0 - 0.0227501319481792072, rtol=1e-13
    )


def test_gauss_gamma_values():
    assert_allclose(complex(gauss_gamma(0.0)).real, 1.0 / math.sqrt(2 * math.pi),
                    rtol=1e-14)
    z = random_complex(50, 4.0)
    assert_allclose(gauss_gamma(z),
                    np.exp(-z * z / 2) / math.sqrt(2 * math.pi), rtol=1e-12)


@pytest.mark.parametrize("func", [
    erfc,
    plasma_F,
    hard_edge_H,
    lambda z: _window_M(1.7, z),
])
def test_schwarz_reflection(func):
    z = random_complex(100, 4.0)
    upper = np.array([complex(func(complex(v.real, abs(v.imag)))) for v in z])
    lower = np.array([complex(func(complex(v.real, -abs(v.imag)))) for v in z])
    assert_allclose(lower, np.conj(upper), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("func", [plasma_F, hard_edge_H])
def test_cauchy_riemann(func):
    # analyticity: central-difference CR residual at 50 random points
    h = 1e-4
    pts = random_complex(50, 4.0)
    if func is hard_edge_H:
        pts = -1.0 - 3.0j + random_complex(50, 2.0)  # stay in a smooth region
    for z in pts:
        z = complex(z)
        dx = (complex(func(z + h)) - complex(func(z - h))) / (2 * h)
        dy = (complex(func(z + 1j * h)) - complex(func(z - 1j * h))) / (2 * h)
        assert abs(dx + 1j * dy) <= 1e-6 * max(1.0, abs(dx))


def test_heat_flow_endpoint_identities():
    # F' = -gamma and F'' = s gamma, by finite differences
    h1, h2 = 1e-5, 1e-4
    for s in np.linspace(-3.0, 3.0, 13):
        f = lambda x: complex(plasma_F(x)).real
        d1 = (f(s + h1) - f(s - h1)) / (2 * h1)
        d2 = (f(s + h2) - 2 * f(s) + f(s - h2)) / (h2 * h2)
        g = complex(gauss_gamma(s)).real
        assert abs(d1 + g) <= 1e-8
        assert abs(d2 - s * g) <= 1e-6


F_GRID_RE = np.array([-4.0, -1.0, -0.3, 0.0, 0.6, 1.5, 4.5])
F_GRID_IM = np.array([-3.0, -0.5, 0.0, 0.8, 3.0])


def test_plasma_F_against_mpmath_convolution():
    # F(z) is the Gaussian convolved with the indicator of (-inf, 0); the
    # oracle integrates that convolution with mpmath.quad at 40 digits, so it
    # shares nothing with the erfc route.  Documented envelope: 1e-13 relative.
    mpmath = pytest.importorskip("mpmath")
    ref = np.empty((F_GRID_RE.size, F_GRID_IM.size), dtype=complex)
    with mpmath.workdps(40):
        norm = 1 / mpmath.sqrt(2 * mpmath.pi)
        for i, x in enumerate(F_GRID_RE):
            # the Gaussian sits at Re z; panels reach 12 widths below it
            panels = [-mpmath.inf] + mpmath.linspace(min(x, 0.0) - 12, 0, 5)
            for j, y in enumerate(F_GRID_IM):
                z = mpmath.mpc(float(x), float(y))
                ref[i, j] = complex(norm * mpmath.quad(lambda t: mpmath.exp(-(z - t) ** 2 / 2),
                                                       panels))
    u = F_GRID_RE[:, None] + 1j * F_GRID_IM[None, :]
    assert_allclose(plasma_F(u), ref, rtol=1e-13, atol=0.0)


# --------------------------------------------------------------------------
# interval profiles: F summed over the pieces of E
# --------------------------------------------------------------------------


def _interval_profile(*pieces):
    return _profile_for(LimitKernelSpec.free_boundary(pieces))


def test_half_line_profile_is_plasma_F():
    # the half line's sum is F itself, through the same code path: bitwise
    for _ in range(25):
        a = rng.uniform(-3.0, 3.0)
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        profile = _interval_profile((-math.inf, a))
        assert complex(profile.scaled(np.array([z]))[0]) == complex(plasma_F_scaled(z - a))
        assert profile.diag(np.array([z.real]))[0] == complex(plasma_F(z.real - a)).real


def test_interval_profile_values():
    # symmetric interval at the center: 1 - 2 F(1)
    val = _interval_profile((-1.0, 1.0)).diag(np.array([0.0]))[0]
    assert_allclose(val, 0.682689492137085897, rtol=1e-13)
    # full line: identically 1, once the scaling exp(-Im(z)^2 / 2) is undone
    z = np.array([0.7 - 0.3j])
    bulk = _profile_for(LimitKernelSpec.ginibre_bulk())
    assert_allclose(bulk.scaled(z) * np.exp(0.5 * z.imag**2), 1.0, rtol=0, atol=1e-14)
    # additivity over a partition of the line, piece by piece and in one profile
    z = np.array([0.4 + 0.2j])
    pieces = ((-math.inf, -1.0), (-1.0, 2.0), (2.0, math.inf))
    parts = sum(_interval_profile(piece).scaled(z) for piece in pieces)
    for total in (parts, _interval_profile(*pieces).scaled(z)):
        assert_allclose(total * np.exp(0.5 * z.imag**2), 1.0, rtol=0, atol=1e-13)


def _conv_indicator(z, interval):
    """The retired ``special.conv_indicator``, kept as the bitwise reference."""
    lo, hi = interval
    shape, (zz,) = _flat(z)
    upper = np.ones(zz.shape, dtype=complex) if math.isinf(hi) else plasma_F(zz - hi)
    lower = np.zeros(zz.shape, dtype=complex) if math.isinf(lo) else plasma_F(zz - lo)
    return _shaped(upper - lower, shape)


def _conv_indicator_scaled(z, interval):
    """The retired ``special.conv_indicator_scaled``, kept as the bitwise reference."""
    lo, hi = interval
    shape, (zz,) = _flat(z)
    if math.isinf(hi):
        upper = np.exp(-0.5 * zz.imag**2).astype(complex)
    else:
        upper = plasma_F_scaled(zz - hi)
    lower = np.zeros(zz.shape, dtype=complex) if math.isinf(lo) else plasma_F_scaled(zz - lo)
    return _shaped(upper - lower, shape)


@pytest.mark.parametrize("spec", [
    LimitKernelSpec.ginibre_bulk(),
    LimitKernelSpec.free_boundary(),
    LimitKernelSpec.free_boundary(((-2.0, -1.0), (1.0, 2.0))),
    LimitKernelSpec.constant_profile(0.7),
], ids=["bulk", "half-line", "gapped-union", "constant-0.7"])
def test_interval_profile_sums_keep_the_bits_of_conv_indicator(spec):
    # scaled and diag(s, 0) give every value the bits of the per-interval
    # sums they replace: the ends, signed zeros, far tails and large |Im|
    profile = _profile_for(spec)
    ends = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
    real = np.concatenate([ends, rng.uniform(-8.0, 8.0, 200), [-40.0, 40.0]])
    plane = np.concatenate([
        real + 0j, real + 1j * rng.uniform(-25.0, 25.0, real.size),
        ends - 0.5j, ends + 1j * np.array([-0.0, 0.0, 3.0, -3.0, 21.0, -30.0])])
    ref_scaled = profile.level * sum(_conv_indicator_scaled(plane, iv) for iv in profile.pieces)
    ref_diag = profile.level * np.real(sum(_conv_indicator(real, iv) for iv in profile.pieces))
    for ours, ref in ((profile.scaled(plane), ref_scaled), (profile.diag(real), ref_diag)):
        assert ours.dtype == ref.dtype and ours.shape == ref.shape
        assert ours.tobytes() == ref.tobytes()


# --------------------------------------------------------------------------
# hard-edge profile H
# --------------------------------------------------------------------------

H_ORACLE = [
    (0.0, 0.693147180559945309 + 0.0j),
    (-8.0, 1.00000000771498034 + 0.0j),
    (-4.0, 1.00249294470442563 + 0.0j),
    (2.0, 0.0367274850640174922 + 0.0j),
    (1 + 0.5j, 0.200461561488495831 - 0.176944045662161638j),
    (-2 + 1j, 1.06872521505726735 + 0.084829763583703799j),
    (-4 - 3j, 1.01020583895871158 - 0.00466310348828860577j),
    (2 - 2j, -0.0285067081588670116 - 0.227637414139631863j),
    (-1 + 4j, -264.794484005118651 + 255.231337828142538j),
    (0.5 - 6j, -2663607.69694353978 - 7121524.0502461741j),
    (-6 + 2j, 1.00002849294053839 + 6.85564679420530877e-7j),
]


@pytest.mark.parametrize("z,expected", H_ORACLE)
def test_hard_edge_H_oracle(z, expected):
    # frozen values from an independent high-precision quadrature oracle
    value = complex(hard_edge_H(z))
    assert_allclose(value, expected, rtol=5e-13)


def test_hard_edge_H_at_zero_is_log2():
    assert abs(complex(hard_edge_H(0.0)).real - math.log(2.0)) <= 1e-8


def test_hard_edge_H_absolute_error_envelope():
    # abs error <= 1e-9 for |z| <= 6: spot-check against tight oracle values
    for z, expected in H_ORACLE:
        if abs(z) <= 6.0:
            assert abs(complex(hard_edge_H(z)) - expected) <= 1e-9 * max(
                1.0, abs(expected)
            )


def test_hard_edge_H_derivatives_match_finite_differences():
    h = 1e-5
    for z in (-1.0 + 0.0j, -2.0 + 1.0j, 0.5 - 0.5j):
        d1 = complex(hard_edge_H(z, deriv=1))
        fd1 = (complex(hard_edge_H(z + h)) - complex(hard_edge_H(z - h))) / (2 * h)
        assert_allclose(d1, fd1, rtol=1e-8, atol=1e-10)
        d2 = complex(hard_edge_H(z, deriv=2))
        fd2 = (complex(hard_edge_H(z + h, deriv=1))
               - complex(hard_edge_H(z - h, deriv=1))) / (2 * h)
        assert_allclose(d2, fd2, rtol=1e-8, atol=1e-10)


# Oracle rows and columns: Re on both sides of the Gaussian peak, Im on both
# sides of |Im| = 21 and of Im^2 = Re^2 + 46 (7.4 and 12.6 straddle it for
# Re = -1, -4 and -10.5), where the asymptotic branch may take over.
H_GRID_RE = np.array([-10.5, -7.951, -4.0, -1.0, 0.3, 0.5])
H_GRID_IM = np.array([0.0, 7.4, 12.6, 17.186, -20.9, 20.999, 21.0, -21.3, 25.0])


def _mp_H_scaled_grid(re, im):
    """``H(u) exp(-Im(u)^2/2)`` at 40 digits by ``mpmath.quad``.

    ``H = F + Gamma * (1/F - 1)`` on the negative half line; the correction
    ``1/F(t) - 1 = erfc(-t/sqrt2) / (2 - erfc(-t/sqrt2))`` is below 1e-44 for
    ``t < -14``, so its integral runs over [-14, 0] in unit panels.  The
    panel nodes are the same for every point, so the correction is cached.
    """
    mpmath = pytest.importorskip("mpmath")
    out = np.empty((re.size, im.size), dtype=complex)
    with mpmath.workdps(40):
        r2 = mpmath.sqrt(2)
        panels = mpmath.linspace(-14, 0, 15)
        corr = {}

        def correction(t):
            if t not in corr:
                e = mpmath.erfc(-t / r2)
                corr[t] = e / (2 - e)
            return corr[t]

        for i, x in enumerate(re):
            for j, y in enumerate(im):
                x_, y_ = mpmath.mpf(float(x)), mpmath.mpf(float(y))
                f_s = mpmath.erfc(mpmath.mpc(x_, y_) / r2) / 2 * mpmath.exp(-y_**2 / 2)
                integral = mpmath.quad(
                    lambda t: mpmath.exp(-(x_ - t) ** 2 / 2 - 1j * y_ * (x_ - t)) * correction(t),
                    panels, method="gauss-legendre")
                out[i, j] = complex(f_s + integral / mpmath.sqrt(2 * mpmath.pi))
    return out


def test_hard_edge_H_scaled_against_mpmath_grid():
    # documented envelope: |error of H_s| <= 1e-13 on Re in [-10.5, 0.5],
    # |Im| <= 25
    ref = _mp_H_scaled_grid(H_GRID_RE, H_GRID_IM)
    u = H_GRID_RE[:, None] + 1j * H_GRID_IM[None, :]
    assert np.max(np.abs(hard_edge_H_scaled(u.ravel()).reshape(u.shape) - ref)) <= 1e-13


def test_hard_edge_H_scaled_asymptotic_branch_against_mpmath():
    # far from the real axis the asymptotic branch is the accurate path: it
    # stays within 3.1e-17 of H_s out to |Im| = 100, where the quadrature
    # branch is off by up to 1.4e-13 (at 0.3+60i)
    re, im = np.array([-1.0, 0.3, 0.5]), np.array([-45.0, 60.0, 100.0])
    ref = _mp_H_scaled_grid(re, im)
    u = re[:, None] + 1j * im[None, :]
    assert np.max(np.abs(hard_edge_H_scaled(u.ravel()).reshape(u.shape) - ref)) <= 1e-15


def test_hard_edge_H_refuses_past_the_rule_cap():
    # off the asymptotic branch (Im z^2 < Re z^2 + 46) |Im z| = 600 would
    # need a 4816-node rule, past the cap: refused, not truncated
    with pytest.raises(QuadratureNotConverged, match="needs 4816 nodes"):
        hard_edge_H_scaled(-600 + 600j)
    # on the asymptotic branch a point as far out keeps a finite, nonzero
    # value (about -3.9e-198 - 4.5e-198j)
    v = hard_edge_H_scaled(-30 + 40j)
    assert np.isfinite(v) and 1e-199 < abs(v) < 1e-196


# --------------------------------------------------------------------------
# Hermite polynomials
# --------------------------------------------------------------------------


def test_hermite_prob_small_orders():
    z = 1.5
    assert complex(hermite_prob(0, z)) == 1.0
    assert complex(hermite_prob(1, z)).real == pytest.approx(1.5)
    # h_5(x) = x^5 - 10x^3 + 15x
    assert_allclose(complex(hermite_prob(5, z)).real, -3.65625, rtol=1e-13)


def test_hermite_prob_degree_guard():
    with pytest.raises(ValueError):
        hermite_prob(HERMITE_MAX_DEGREE + 1, 0.5)


def test_hermite_scaled_pair_matches_direct():
    # p_n = h_n / sqrt(n!) stays bounded where h_n overflows
    for n in (3, 10, 40):
        p = hermite_scaled(n, 1.2)[n].real
        direct = complex(hermite_prob(n, 1.2)).real / math.sqrt(math.factorial(n))
        assert_allclose(p, direct, rtol=1e-11)
    # frozen high-order product from the churn-series oracle
    p80 = hermite_scaled(80, 1.2)[80].real
    assert_allclose(p80 * p80, 0.01008415442, rtol=1e-9)


# --------------------------------------------------------------------------
# Mittag-Leffler sums
# --------------------------------------------------------------------------


def _window_M(lam, z):
    """``M_lam(z) = lam sum z^j / Gamma((j+1)/lam)`` from the term window of
    the Mittag-Leffler kernel that the commands use, ``finite_n._ml_kernel``:
    ``K(z / sqrt|z|, sqrt|z|) e^(|z|^lam)``.  The error is a few rounding
    units of ``M_lam(|z|) (1 + |z|^lam)``."""
    z = complex(z)
    root = math.sqrt(abs(z))
    k = _ml_kernel(lam, np.array([z / root if root else 0j]), np.array([root]))[0]
    return complex(k[0]) * math.exp(abs(z) ** lam)


def test_mittag_leffler_trivial_values():
    assert_allclose(_window_M(1.0, 1.0), math.e, rtol=1e-13)
    assert_allclose(_window_M(2.0, 0.0), 2.0 / math.sqrt(math.pi), rtol=1e-14)
    lam = 3.5
    assert_allclose(_window_M(lam, 0.0), lam / math.gamma(1.0 / lam), rtol=1e-13)


def test_mittag_leffler_against_closed_form():
    # lam = 2 has the closed form 2/sqrt(pi) + 2 z erfcx(-z); the window
    # sum of the kernel path must agree with it
    assert_allclose(_window_M(2.0, 1.7), 122.491229247581464, rtol=1e-12)
    for z in (0.3 + 0.4j, 2.0 - 1.0j, 4.0 + 0.0j):
        closed = complex(mittag_leffler_kernel_eval(2.0, z))
        assert_allclose(_window_M(2.0, z), closed, rtol=1e-11)


def test_mittag_leffler_kernel_eval_lam1_is_exp():
    z = random_complex(20, 5.0)
    for v in z:
        assert_allclose(complex(mittag_leffler_kernel_eval(1.0, complex(v))),
                        np.exp(complex(v)), rtol=1e-13)


def _mp_mittag_leffler(lam, z):
    """``lam * sum z^j / Gamma((j+1)/lam)`` at 40 digits.

    For |z| <= 4 and lam <= 3 the terms past j = 800 sum to less than 1e-50
    of the term magnitudes.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        lam, z = mpmath.mpf(lam), mpmath.mpc(z)
        return complex(lam * mpmath.fsum(z**j / mpmath.gamma((j + 1) / lam)
                                         for j in range(800)))


@pytest.mark.parametrize("lam", [1.5, 3.0])
def test_mittag_leffler_against_mpmath_series(lam):
    # documented envelope: |error| <= 1e-13 M_lam(|z|), the sum of the term
    # magnitudes, for |z| <= 4; relative to |M_lam(z)| that is full precision
    # on the positive axis and a loss of log10(M_lam(|z|) / |M_lam(z)|) digits
    # where the terms cancel, which for lam > 1 includes part of Re z >= 0
    points = [r * np.exp(1j * a) for r in (0.5, 2.0, 4.0)
              for a in (-0.5 * np.pi, -0.2 * np.pi, 0.0, np.pi / 3, 0.5 * np.pi)]
    points.append(-2.0 + 0.5j)  # and one point with Re z < 0
    for z in points:
        scale = _mp_mittag_leffler(lam, abs(z)).real
        err = abs(_window_M(lam, z) - _mp_mittag_leffler(lam, z))
        assert err <= 1e-13 * scale, (z, err / scale)


def test_mittag_leffler_kernel_scaled_needs_a_closed_form():
    # lam outside {1, 2} has no closed form; its kernels take finite_n's window
    assert mittag_leffler_kernel_scaled(2.0, 0.0, 0.0) == pytest.approx(2.0 / math.sqrt(math.pi))
    for lam in (1.5, 3.0):
        with pytest.raises(ValueError, match=f"lambda = {lam}"):
            mittag_leffler_kernel_scaled(lam, 0.5, -0.25)


def test_gauss_legendre_rules_are_cached_read_only():
    # the plane quadrature and H share one cached rule per size, so no
    # caller may write into it
    x, w = special._leggauss(96)
    assert special._leggauss(96)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    ref_x, ref_w = np.polynomial.legendre.leggauss(96)
    assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()


def test_polished_gauss_legendre_against_mpmath():
    # numpy's weights next to the ends are off by up to 1e-12 relative; the
    # polished rule of the reduced plane integrals is correctly rounded
    mpmath = pytest.importorskip("mpmath")
    for n in (32, 64):
        x, w = special._leggauss(n, polish=True)
        assert special._leggauss(n, polish=True)[0] is x
        assert not x.flags.writeable and not w.flags.writeable
        with mpmath.workdps(40):
            def p_n(t):
                return mpmath.legendre(n, t)

            for k in range(n // 2):  # one half: the rule is symmetric
                root = mpmath.findroot(p_n, mpmath.mpf(float(x[k])))
                weight = 2 / ((1 - root**2) * mpmath.diff(p_n, root) ** 2)
                assert abs(x[k] - float(root)) <= 2.3e-16
                assert abs(w[k] / float(weight) - 1.0) <= 4.5e-16
        assert x.tobytes() == (-x[::-1]).tobytes() and w.tobytes() == w[::-1].tobytes()

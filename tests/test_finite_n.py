"""Finite-n kernels, rescaling frames, and exponential sections."""

import cmath
import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import gammainc

from plasma_kernel import finite_n
from plasma_kernel.finite_n import (
    KERNEL_MAX_N,
    DivisionNearZero,
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


def test_poly_norm_sq_hard_edge_at_largest_n():
    # the hard-edge norms take scipy's gammainc at or above the mean, which
    # keeps full accuracy even at n = 2^20
    mpmath = pytest.importorskip("mpmath")
    n = 2**20
    for j in (0, n // 2, n - 2, n - 1):
        with mpmath.workdps(40):
            # P(Poisson(n) <= j), summed down from k = j until the terms
            # fall below 1e-45 of the sum
            term = mpmath.exp(j * mpmath.log(n) - n - mpmath.loggamma(j + 1))
            cdf, k = term, j
            while k > 0 and term > 1e-45 * cdf:
                term *= mpmath.mpf(k) / n
                cdf += term
                k -= 1
            lower = 1 - cdf
            ref = mpmath.loggamma(j + 1) + mpmath.log(lower) - (j + 1) * mpmath.log(n)
        assert abs(gammainc(j + 1.0, n) / float(lower) - 1.0) <= 5e-15
        assert_allclose(poly_norm_sq(HARD, n, j), float(ref), rtol=1e-14)


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


def test_kernel_far_outside_underflows_to_zero():
    # n |zeta eta|^lam overflows there; every term underflows, so K is 0
    for pot in (GINIBRE, POWER2):
        vals = kernel_finite_n(pot, 1024, np.array([1e200, 1e200, 0.5]),
                               np.array([1e200, 0.5, 0.5]))
        assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] != 0.0


def test_kernel_size_guard():
    with pytest.raises(ValueError):
        kernel_finite_n(GINIBRE, KERNEL_MAX_N + 1, 0.0, 0.0)


# --------------------------------------------------------------------------
# the O(sqrt(n)) window against 40-digit mpmath
# --------------------------------------------------------------------------


def _mp_terms(mpmath, pot, n, zeta, eta):
    """Every term of K_n(zeta, eta) at 40 digits, by exact recurrences."""
    z, e = mpmath.mpc(zeta), mpmath.mpc(eta)
    u, big_n = z * mpmath.conj(e), mpmath.mpf(n)
    if u.imag == 0:
        u = u.real  # real arithmetic on the diagonal is twice as fast
    lam = 2 if pot.kind == "power" else 1
    weight = mpmath.exp(-big_n * (abs(z) ** (2 * lam) + abs(e) ** (2 * lam)) / 2)
    if lam == 2:
        # t_j = u^j 2 n^s / Gamma(s), s = (j+1)/2, and Gamma(s+1) = s Gamma(s)
        chain = [2 * mpmath.sqrt(big_n) / mpmath.gamma(0.5) * weight, 2 * big_n * u * weight]
        step = 2 * big_n * u * u
        for j in range(n):
            if j >= 2:
                chain[j % 2] *= step / (j - 1)
            yield chain[j % 2]
        return
    # hard edge: ||z^j||^2 = j!/n^(j+1) P(Poisson(n) >= j+1)
    surv = _mp_poisson_survival(n) if pot.kind == "hard_edge" else None
    t, step = big_n * weight, big_n * u
    for j in range(n):
        if j:
            t *= step / j
        yield t / surv[j] if surv else t


@functools.lru_cache(maxsize=4)
def _mp_poisson_survival(n):
    """P(Poisson(n) >= j+1) for j = 0 .. n-1 at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        big_n = mpmath.mpf(n)
        p = cdf = mpmath.exp(-big_n)
        out = [1 - cdf]
        for j in range(1, n):
            p *= big_n / j
            cdf += p
            out.append(1 - cdf)
    return out


def _mp_kernel(mpmath, pot, n, zeta, eta):
    if pot.kind == "ginibre":
        # closed form: n e^(nu - n(|z|^2+|e|^2)/2) Q(n, nu) with u = z conj(e)
        z, e, big_n = mpmath.mpc(zeta), mpmath.mpc(eta), mpmath.mpf(n)
        nu = big_n * z * mpmath.conj(e)
        return (big_n * mpmath.exp(nu - big_n * (abs(z) ** 2 + abs(e) ** 2) / 2)
                * mpmath.gammainc(big_n, nu, mpmath.inf, regularized=True))
    return mpmath.fsum(_mp_terms(mpmath, pot, n, zeta, eta))


ORACLE_CASES = [
    (pot, n, z, w)
    for pot, ns in ((GINIBRE, (2**10, 2**16, 2**20)), (POWER2, (2**10, 2**16)),
                    (HARD, (2**10, 2**16)))
    for n in ns
    for z, w in ((-2.0, -1.0 + 0.7j), (-0.5 - 0.5j, 0.5 + 1.0j))[: 2 if pot is GINIBRE else 1]
]


@pytest.mark.parametrize(
    "pot,n,z,w", ORACLE_CASES,
    ids=[f"{pot.kind}-{n}-{k}" for k, (pot, n, _, _) in enumerate(ORACLE_CASES)])
def test_kernel_against_mpmath(pot, n, z, w):
    # boundary-frame points, given to both sides as the same doubles: relative
    # error on the diagonal, and |K - K_ref| / sqrt(K(z,z) K(w,w)) off it
    mpmath = pytest.importorskip("mpmath")
    frame = RescaleFrame.boundary(pot, n)
    zeta, eta = complex(frame.to_global(z)), complex(frame.to_global(w))
    with mpmath.workdps(40):
        ref_zz, ref_ww, ref_zw = (complex(_mp_kernel(mpmath, pot, n, a, b))
                                  for a, b in ((zeta, zeta), (eta, eta), (zeta, eta)))
    got = kernel_finite_n(pot, n, np.array([zeta, eta, zeta]), np.array([zeta, eta, eta]))
    assert abs(got[0] - ref_zz) <= 1e-12 * ref_zz.real
    assert abs(got[1] - ref_ww) <= 1e-12 * ref_ww.real
    assert abs(got[2] - ref_zw) <= 1e-12 * math.sqrt(ref_zz.real * ref_ww.real)


@pytest.mark.parametrize("pot", [GINIBRE, POWER2, HARD], ids=lambda p: p.kind)
def test_tail_bound_covers_the_terms_left_out(pot):
    # every window width, down to ones that drop real mass, reports at least
    # the exact mass it leaves out (relative to the mass it keeps)
    mpmath = pytest.importorskip("mpmath")
    n = 2**10
    frame = RescaleFrame.boundary(pot, n)
    for z, w in ((-1.0, -1.0), (-1.5 + 0.3j, -0.5 - 0.4j)):
        zeta, eta = complex(frame.to_global(z)), complex(frame.to_global(w))
        with mpmath.workdps(40):
            mags = [abs(t) for t in _mp_terms(mpmath, pot, n, zeta, eta)]
        mu = n * (np.abs([zeta]) * np.abs([eta])) ** pot.lam
        theta = np.zeros(1)  # the bound depends on |t_j| only
        peak = finite_n._peak(pot, n, mu)
        assert mags[peak[0]] == max(mags)
        first = int(finite_n._half_width(pot, n, mu)[0])
        for width in (1, 3, 8, 20, 40, first):
            lo, hi = max(peak[0] - width, 0), min(peak[0] + width, n - 1)
            with mpmath.workdps(40):
                kept = mpmath.fsum(mags[lo:hi + 1])
                left_out = float((mpmath.fsum(mags) - kept) / kept)
            bound = finite_n._window(pot, n, mu, theta, peak, width)[2][0]
            assert left_out <= bound, (width, left_out, bound)
            assert bound <= 1e3 * max(left_out, 1e-300) or bound <= 1e-17
        _, reported = kernel_finite_n(pot, n, zeta, eta, return_bound=True)
        assert reported == finite_n._window(pot, n, mu, theta, peak, first)[2][0]
        assert reported <= 1e-17


@pytest.mark.parametrize("n", [2**10, 2**16, 2**20])
def test_hard_edge_log_terms_are_concave(n):
    # the bisection for the peak and the geometric tail bounds need the term
    # ratio n|u| gamma(j+1, n) / ((j+1) gamma(j+2, n)) to fall with j; the
    # factor n|u| is common, so check the rest over every j
    j = np.arange(n - 1, dtype=float)
    mass = gammainc(np.arange(n) + 1.0, n)  # gamma(j+1, n) / j! for j < n
    ratio = mass[:-1] / ((j + 1.0) * mass[1:])
    assert np.all(np.diff(ratio) < 0.0)


def test_array_call_matches_pointwise_calls_bitwise():
    pts = random_complex(24, 1.6)
    z = pts[:12]
    w = np.concatenate([pts[:6], pts[12:18]])  # half diagonal, half not
    for pot in (GINIBRE, POWER2, HARD):
        for n in (1, 7, 4096, 2**20):
            frame = RescaleFrame.boundary(pot, n)
            zs, ws = frame.to_local(z), frame.to_local(w)
            vals, bounds = rescaled_kernel(pot, frame, zs, ws, return_bound=True)
            for k in range(z.size):
                one, one_bound = rescaled_kernel(pot, frame, complex(zs[k]), complex(ws[k]),
                                                 return_bound=True)
                assert np.array(one).tobytes() == vals[k].tobytes()
                assert one_bound == bounds[k]
            assert np.all(vals[:6].imag == 0.0)


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

    # an array call gives each point the bits of a call on that point
    # alone, on both branches: the last x has mu = -2, and x in [-4, 4]
    # reaches mu <= 0 for n <= 16
    for n in (2, 3, 4, 4096):
        xs = np.concatenate([np.linspace(-4.0, 4.0, 33), [(-2.0 - n) / math.sqrt(n)]])
        batch = exp_section(n, xs.reshape(2, 17))
        single = [exp_section(n, float(x)) for x in xs]
        assert batch.shape == (2, 17)
        assert all(isinstance(v, float) for v in single)
        assert_array_equal(batch.ravel(), single)


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


@pytest.mark.parametrize("n", [2**19, 10**6])
def test_exp_section_at_largest_n(n):
    # up to the largest n exp_section accepts; the 40-digit regularized upper
    # incomplete gamma matches the exact Poisson sum to 30 digits at n = 2^20,
    # x = -3.  scipy stays accurate here, at |x| <= 3
    mpmath = pytest.importorskip("mpmath")
    for x in np.linspace(-3.0, 3.0, 13):
        mu = n + math.sqrt(n) * float(x)
        with mpmath.workdps(40):
            ref = float(mpmath.gammainc(n, mpmath.mpf(mu), mpmath.inf, regularized=True))
        assert_allclose(exp_section(n, float(x)), ref, rtol=1e-12)


def test_exp_section_guards():
    with pytest.raises(ValueError):
        exp_section(0, 0.0)
    with pytest.raises(ValueError):
        exp_section(10**6 + 1, 0.0)

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
    Potential,
    RescaleFrame,
    _log_norm,
    droplet_radius,
    exp_section,
    kernel_finite_n,
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
    for lam in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite lam >= 1"):
            Potential.power(lam)
    with pytest.raises(ValueError):
        Potential("nope")
    # Ginibre and the hard edge are lam = 1: any other lam would be read by
    # some formulas and not by others
    for kind in ("ginibre", "hard_edge"):
        for lam in (3.0, 0.5, math.nan):
            with pytest.raises(ValueError, match=kind):
                Potential(kind, lam)
        assert Potential(kind, 1.0) == Potential(kind)


def test_q_value_and_density():
    z = 0.6 - 0.3j
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
    # log ||zeta^j||^2 = log(j! / n^(j+1))
    assert _log_norm(GINIBRE, 4, 2) == pytest.approx(
        math.log(2.0 / 4.0**3), rel=1e-14
    )


def test_poly_norm_sq_power():
    # Gamma((j+1)/lam) / (lam n^((j+1)/lam))
    val = _log_norm(POWER2, 3, 1)
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
        assert_allclose(_log_norm(HARD, n, j), ref, rtol=1e-12)


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
        assert_allclose(_log_norm(HARD, n, j), float(ref), rtol=1e-14)


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
    # the potentials are radial, so K_n(e^{ia} zeta, e^{ia} eta) = K_n(zeta,
    # eta) in complex value: within 1e-13 of sqrt(K(zeta, zeta) K(eta, eta))
    # (2e-14 measured).  At n = 16 the moduli agree to 1e-11 relative as well.
    # Pairs 1 / sqrt(n) apart, where K is of the size of that scale, are
    # checked in frame coordinates below
    for pot in (GINIBRE, POWER2, HARD):
        for n in (16, 1024):
            rot = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            zeta, eta = random_complex(10, 0.9), random_complex(10, 0.9)
            a = kernel_finite_n(pot, n, rot * zeta, rot * eta)
            b = kernel_finite_n(pot, n, zeta, eta)
            scale = np.sqrt(kernel_finite_n(pot, n, zeta, zeta).real
                            * kernel_finite_n(pot, n, eta, eta).real)
            assert np.all(np.abs(a - b) <= 1e-13 * scale)
            if n == 16:
                assert_allclose(np.abs(a), np.abs(b), rtol=1e-11)


@pytest.mark.parametrize("pot,kind", [
    (GINIBRE, "boundary"), (POWER2, "boundary"), (HARD, "boundary"), (POWER2, "singularity"),
    (HARD, "bulk"),
], ids=["ginibre-boundary", "power2-boundary", "hard-edge-boundary", "power2-singularity",
        "hard-edge-bulk"])
def test_a_rotated_frame_reads_the_frame_without_angle(pot, kind):
    # a frame about p e^{ia}, with its local axes turned by a, maps z to
    # e^{ia} frame.to_global(z): its kernel values are those of the frame
    # about p, within 1e-12 of sqrt(R(z) R(w)) (4.4e-14 measured at the
    # boundary, a = 0.9)
    n = 1024
    frame = RescaleFrame(pot, n, kind)
    axis = np.linspace(-3.0, 1.0, 9)
    z = (axis[None, :] + 1j * np.linspace(-2.0, 2.0, 5)[:, None]).ravel()
    w = z[::-1]
    ref = rescaled_kernel(frame, z, w)
    scale = np.sqrt(rescaled_kernel(frame, z, z).real * rescaled_kernel(frame, w, w).real)
    for alpha in (0.9, math.pi / 2, 2.5):
        rot = cmath.exp(1j * alpha)
        got = kernel_finite_n(pot, n, rot * frame.to_global(z), rot * frame.to_global(w))
        assert np.all(np.abs(got / frame.zoom**2 - ref) <= 1e-12 * scale)


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


def test_n_that_is_no_integer_is_refused_by_name():
    # exp_section(64.5, 0) gave 0.48344, between the sections of 64 and 65,
    # and the kernel failed with a TypeError from inside its window sums
    with pytest.raises(ValueError, match="need an integer n, got n = 64.5"):
        exp_section(64.5, 0.0)
    with pytest.raises(ValueError, match="need an integer n, got n = 64.5"):
        kernel_finite_n(GINIBRE, 64.5, 0.5, 0.5)


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
    frame = RescaleFrame(pot, n, "boundary")
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
    frame = RescaleFrame(pot, n, "boundary")
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
            terms = finite_n._terms(pot, n, mu, peak, width, False)
            bound = finite_n._window(*terms, theta)[2][0]
            assert left_out <= bound, (width, left_out, bound)
            assert bound <= 1e3 * max(left_out, 1e-300) or bound <= 1e-17
        _, reported = kernel_finite_n(pot, n, zeta, eta, return_bound=True)
        terms = finite_n._terms(pot, n, mu, peak, first, False)
        assert reported == finite_n._window(*terms, theta)[2][0]
        assert reported <= 1e-17


def _bisect_peak(pot, n, mu, uncapped=False):
    """Reference peak: the full-range bisection over [0, n-1], or without the
    cap over [0, hi] with hi the first ceil(lam (mu + 1)) 2^k whose ratio is
    below 1."""
    lo = np.zeros(mu.shape, dtype=np.int64)
    hi = np.full(mu.shape, n - 1, dtype=np.int64)
    if uncapped:
        hi = np.ceil(pot.lam * (mu + 1.0)).astype(np.int64)
        while np.any(rises := finite_n._ratio(pot, n, hi, mu) >= 1.0):
            hi[rises] *= 2
    while np.any(lo < hi):
        act = lo < hi
        mid = (lo[act] + hi[act]) // 2
        falls = finite_n._ratio(pot, n, mid, mu[act]) < 1.0
        hi[act] = np.where(falls, mid, hi[act])
        lo[act] = np.where(falls, lo[act], mid + 1)
    return lo


def _mu_sweep(lam, top):
    """mu over (0, top]: near 0, integers, lam mu an integer and one ulp to
    either side, a log-spaced and a uniform sweep."""
    ints = np.unique(np.r_[1:40, np.geomspace(40, top, 60).round()])
    exact = ints / lam
    return np.concatenate([
        [5e-324, 1e-300, 1e-100, 1e-12, 1e-3, 0.5, 0.999999],
        ints, exact, np.nextafter(exact, 0.0), np.nextafter(exact, np.inf),
        np.geomspace(1e-6, top, 200), rng.uniform(0.0, top, 200)])


@pytest.mark.parametrize("pot", [GINIBRE, Potential.power(1.5), Potential.power(3.0), HARD],
                         ids=lambda p: f"{p.kind}-{p.lam:g}")
@pytest.mark.parametrize("n", [1, 7, 2**10, 2**16, 2**20])
def test_peak_search_matches_full_range_bisection(pot, n):
    # the guess floor(lam mu), the gallop and the short bisection give the
    # peak the bisection over [0, n-1] gives, mu past the cap n included
    mu = np.concatenate([_mu_sweep(pot.lam, 4.0 * n), [2.0 * n, 1e3 * n, 1e300]])
    assert_array_equal(finite_n._peak(pot, n, mu), _bisect_peak(pot, n, mu))


@pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
def test_uncapped_peak_search_matches_doubling_bisection(lam):
    pot = Potential.power(lam)
    mu = _mu_sweep(lam, 1e6)
    assert_array_equal(finite_n._peak(pot, 1, mu, uncapped=True),
                       _bisect_peak(pot, 1, mu, uncapped=True))


def _term_array_window(pot, n, mu, theta, peak, w):
    """Reference capped window sum: the (2w + 1)-term array of each row, built
    from the clipped ratios and their reversed cumulative products."""
    top, bottom = min(w, n - 1 - int(peak.min())), min(w, int(peak.max()))
    j = peak[:, None] + np.arange(-bottom - 1, top + 1)
    r = finite_n._ratio(pot, n, np.clip(j, 0, n - 1), mu[:, None])
    up = np.where(j[:, bottom + 1:] < n - 1, r[:, bottom + 1:], 0.0)
    down = np.where(j[:, bottom::-1] >= 0, 1.0 / r[:, bottom::-1], 0.0)
    t = np.zeros((peak.size, 2 * w + 1))
    t[:, w] = 1.0
    t[:, w + 1:w + 1 + top] = np.cumprod(up[:, :top], axis=1)
    t[:, w - bottom:w] = np.cumprod(down[:, :bottom], axis=1)[:, ::-1]
    rho_down, rho_up = down[:, w] if bottom == w else 0.0, up[:, w] if top == w else 0.0
    t_up, t_down = t[:, w + 1:], t[:, w - 1::-1]
    both = t_up + t_down
    kept = 1.0 + both.sum(axis=1)
    bound = finite_n._tail(t_up[:, -1], rho_up) + finite_n._tail(t_down[:, -1], rho_down)
    phase = np.arange(1, w + 1) * theta[:, None]
    re = 1.0 + (both * np.cos(phase)).sum(axis=1)
    im = np.where(theta == 0.0, 0.0, ((t_up - t_down) * np.sin(phase)).sum(axis=1))
    return re, im, bound / kept


@pytest.mark.parametrize("pot", [GINIBRE, Potential.power(1.5), Potential.power(3.0), HARD],
                         ids=lambda p: f"{p.kind}-{p.lam:g}")
def test_capped_window_sums_match_the_term_array_bitwise(pot):
    # the sums from the two cumulative products, with the hard-edge masses
    # from one table per call, are bitwise the term array's, blocks cut short
    # at either end of [0, n-1] included
    for n in (1, 7, 300, 2**16):
        mu = np.sort(np.r_[1e-3, 0.7, 5.0, rng.uniform(0.0, 1.3 * n, 9), n, 1.5 * n])
        theta = np.r_[0.0, rng.uniform(-3.0, 3.0, mu.size - 1)]
        peak = finite_n._peak(pot, n, mu)
        masses = finite_n._MassTable(n) if pot is HARD else None
        for w in (1, 3, 32, 200):
            for sel in (np.arange(mu.size), np.arange(mu.size - 3, mu.size), np.arange(2),
                        np.arange(1)):
                got = finite_n._window(*finite_n._terms(pot, n, mu[sel], peak[sel], w, False,
                                                        masses), theta[sel])
                ref = _term_array_window(pot, n, mu[sel], theta[sel], peak[sel], w)
                for a, b in zip(got, ref):
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (n, w, sel)


@pytest.mark.parametrize("pot", [GINIBRE, Potential.power(1.5), POWER2, Potential.power(3.0)],
                         ids=lambda p: f"{p.kind}-{p.lam:g}")
def test_capped_and_uncapped_terms_are_one_row_where_the_cap_is_out_of_reach(pot):
    # at n = 2^20 no window below reaches j = n - 1, so the capped row's ratio
    # products and the uncapped row's terms, each evaluated on its own, agree
    # up to the rounding the products carry over up to 3,680 steps
    n = 2**20
    mu = np.array([1e-3, 0.7, 5.0, 37.2, 400.0, 3000.0, 2e4])
    peak = finite_n._peak(pot, n, mu)
    for i, first in enumerate(finite_n._half_width(pot, n, mu).astype(int)):
        for w in (8, 64, first):
            row = (mu[i:i + 1], peak[i:i + 1], w)
            t, rho_down, rho_up = finite_n._terms(pot, n, *row, False)
            t_u, rho_down_u, rho_up_u = finite_n._terms(pot, n, *row, True)
            big = np.maximum(t, t_u) > 1e-250
            assert np.all(np.abs(t - t_u)[big] <= 1e-12 * t_u[big]), (mu[i], w)
            assert_array_equal(np.broadcast_to(rho_down, 1), rho_down_u)
            assert_array_equal(np.broadcast_to(rho_up, 1), rho_up_u)


def test_capped_half_width_is_clipped_at_the_longest_index_range():
    # 8.6 sqrt(n lam) is 68,800,000 at lam = 1e12 and n = 64, and 8e20 at lam
    # = 1e40, past int64 once it was cast; a size-n kernel has n indices
    for n in (64, KERNEL_MAX_N):
        for lam in (1e12, 1e40):
            width = finite_n._half_width(Potential.power(lam), n, np.array([float(n)]))
            assert_array_equal(width, [n])


def test_hard_edge_masses_once_per_index_of_the_windows(monkeypatch):
    # eval --finite hard-edge --n 16384 on a boundary grid: each gammainc
    # point is a peak search probe, a window index (evaluated once per call,
    # over the union of the windows' ranges) or a peak's own mass
    n = 2**14
    frame = RescaleFrame(HARD, n, "boundary")
    axis = -2.432 + 0.25 * np.arange(9)
    zeta = frame.to_global((axis[None, :] + 1j * axis[:, None]).ravel())
    mu = n * np.abs(zeta) ** 2
    points = []
    monkeypatch.setattr(finite_n, "gammainc",
                        lambda a, x: points.append(np.size(a)) or gammainc(a, x))
    finite_n._peak(HARD, n, mu)
    searched, points[:] = sum(points), []
    windows = []
    terms = finite_n._terms
    monkeypatch.setattr(finite_n, "_terms", lambda pot, n, mu, peak, w, *rest: (
        windows.append((peak, w)) or terms(pot, n, mu, peak, w, *rest)))
    kernel_finite_n(HARD, n, zeta, zeta)
    # the masses a window reads: gammainc(j + 1, n) for j in [peak - w - 1,
    # peak + w + 1], within [0, n]
    read = np.zeros(n + 1, dtype=bool)
    for peak, w in windows:
        for p in peak:
            read[max(p - w - 1, 0):min(p + w, n - 1) + 2] = True
    assert sum(points) <= read.sum() + searched + zeta.size
    assert sum(points) < 4000  # 27,485 when every block evaluated its own range
    # two far-apart points read two short runs, not the 900,000 indices between
    points[:] = []
    far = np.array([0.3, 0.999])
    kernel_finite_n(HARD, 2**20, far, far)
    assert sum(points) < 2**16


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
            frame = RescaleFrame(pot, n, "boundary")
            zs, ws = frame.to_local(z), frame.to_local(w)
            vals, bounds = rescaled_kernel(frame, zs, ws, return_bound=True)
            for k in range(z.size):
                one, one_bound = rescaled_kernel(frame, complex(zs[k]), complex(ws[k]),
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
    frame = RescaleFrame(GINIBRE, 64, "boundary")
    pts = random_complex(6, 2.0)
    mat = np.empty((6, 6), dtype=complex)
    for i, z in enumerate(pts):
        for j, w in enumerate(pts):
            mat[i, j] = rescaled_kernel(frame, complex(z), complex(w))
    eigs = np.linalg.eigvalsh(mat)
    assert eigs.min() >= -1e-9 * max(eigs.max(), 1.0)


# --------------------------------------------------------------------------
# rescaling frames
# --------------------------------------------------------------------------


def test_frame_roundtrip():
    frame = RescaleFrame(GINIBRE, 100, "boundary")
    z = random_complex(10, 3.0)
    for k in range(z.size):
        assert_allclose(frame.to_local(frame.to_global(complex(z[k]))), complex(z[k]),
                        rtol=1e-12, atol=1e-12)
    # the maps are elementwise over arrays, real ones included
    assert_allclose(frame.to_local(frame.to_global(z)), z, rtol=1e-12, atol=1e-12)
    assert frame.to_global(np.array([-10.0, 0.0])).tolist() == [0.0, 1.0]


def test_frame_factories():
    fb = RescaleFrame(GINIBRE, 25, "bulk")
    assert fb.p == 0.0 and fb.zoom == pytest.approx(5.0)
    bd = RescaleFrame(GINIBRE, 25, "boundary")
    assert bd.p == 1.0 and bd.zoom == 5.0
    sg = RescaleFrame(POWER2, 16, "singularity")
    assert sg.zoom == pytest.approx(2.0)
    # at lam = 1 the singularity frame is the bulk frame, bit for bit also at
    # an n where n**0.5 and sqrt(n) round apart; the hard edge has none
    assert RescaleFrame(GINIBRE, 25, "singularity") == fb
    for pot in (GINIBRE, Potential.power(1.0)):
        assert RescaleFrame(pot, 2921, "singularity") == RescaleFrame(pot, 2921, "bulk")
    with pytest.raises(ValueError):
        RescaleFrame(Potential.hard_edge(), 16, "singularity")
    with pytest.raises(ValueError, match="density vanishes"):
        RescaleFrame(POWER2, 16, "bulk")


def test_frame_refuses_an_unknown_kind_and_an_n_that_is_no_count():
    with pytest.raises(ValueError, match="unknown frame kind 'edge'"):
        RescaleFrame(GINIBRE, 16, "edge")
    # a kernel sums j < n and a run draws n radii: n is a positive integer
    for n in (0, -3, 64.5, 64.0):
        with pytest.raises(ValueError, match=f"integer n >= 1, got n = {n}"):
            RescaleFrame(GINIBRE, n, "boundary")
    assert RescaleFrame(GINIBRE, np.int64(64), "boundary").zoom == 8.0


def test_frame_takes_no_centre_or_zoom():
    # p and zoom follow from the potential, n and kind: a frame cannot hold
    # a centre off 0 and the droplet radius, nor a zoom of another n
    for extra in ({"p": 0.5}, {"zoom": 8.0}):
        with pytest.raises(TypeError):
            RescaleFrame(GINIBRE, 64, "boundary", **extra)


_FRAME_POTS = (GINIBRE, Potential.power(1.0), Potential.power(1.5), POWER2,
               Potential.power(3.0), HARD)


@pytest.mark.parametrize("n", [1, 25, 1024, 2921, 2**20])
@pytest.mark.parametrize("pot", _FRAME_POTS, ids=lambda p: f"{p.kind}-{p.lam:g}")
def test_frame_centre_and_zoom_are_the_closed_forms(pot, n):
    # bit for bit: the boundary frame at lam**(-1/(2 lam)) with zoom
    # sqrt(n lam^2 p^(2 lam - 2)); the bulk frame, where the density at 0 is
    # 1, with zoom sqrt(n); the singularity frame with zoom n**(1/(2 lam)),
    # the bulk frame at lam = 1
    lam = pot.lam
    radius = lam ** (-1.0 / (2.0 * lam))
    forms = {"boundary": (radius, math.sqrt(n * (lam**2 * abs(radius) ** (2.0 * lam - 2.0))))}
    if lam == 1.0:
        forms["bulk"] = (0.0, math.sqrt(n * 1.0))
    if pot.kind != "hard_edge":
        forms["singularity"] = forms["bulk"] if lam == 1.0 else (0.0, n ** (1.0 / (2.0 * lam)))
    for kind, (p, zoom) in forms.items():
        frame = RescaleFrame(pot, n, kind)
        assert (frame.p.hex(), frame.zoom.hex()) == (p.hex(), zoom.hex())


def test_rescaled_bulk_density_near_one():
    frame = RescaleFrame(GINIBRE, 256, "bulk")
    assert_allclose(rescaled_kernel(frame, 0.0, 0.0).real, 1.0, atol=1e-3)


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

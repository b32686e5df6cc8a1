"""Complex special functions underlying the correlation kernels.

Provides the complementary error function on the complex plane, the plasma
function ``F`` (Gaussian convolved with a half-line indicator), indicator
convolutions for general intervals, the hard-edge plasma function ``H``,
probabilists' Hermite polynomials, the generalized Mittag-Leffler function,
and the lower incomplete gamma function.

Every function is a pure function of its arguments and accepts scalars or
numpy arrays of complex values.  Overflow-free *scaled* variants (multiplied
by ``exp(-Im(z)**2 / 2)``) are exposed for quadrature engines that need
values far from the real axis where the plain functions overflow.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import erfc, erfcx, gammainc

__all__ = [
    "SeriesNotConverged",
    "QuadratureNotConverged",
    "erfc_cpx",
    "erfcx_cpx",
    "erfc_envelope_ok",
    "plasma_F",
    "plasma_F_scaled",
    "gauss_gamma",
    "conv_indicator",
    "conv_indicator_scaled",
    "hard_edge_H",
    "hard_edge_H_scaled",
    "hard_edge_H_scaled_grid",
    "hermite_prob",
    "hermite_scaled",
    "hermite_scaled_pair",
    "mittag_leffler_M",
    "mittag_leffler_kernel_eval",
    "mittag_leffler_kernel_scaled",
    "lower_inc_gamma",
    "lower_inc_gamma_log",
]

SQRT2 = math.sqrt(2.0)
SQRT_PI = math.sqrt(math.pi)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

ERFC_ENVELOPE_RADIUS = 30.0


class SeriesNotConverged(Exception):
    """A series evaluation exhausted its term budget before converging."""


class QuadratureNotConverged(Exception):
    """An adaptive quadrature exceeded its refinement budget."""


def _as_complex_array(z):
    arr = np.asarray(z, dtype=complex)
    return np.atleast_1d(arr), arr.ndim == 0


def _restore(out, scalar):
    return complex(out[0]) if scalar else out


def erfcx_cpx(z):
    """Scaled complementary error function ``exp(z^2) erfc(z)`` on C.

    ``scipy.special.erfcx`` on complex input (the Faddeeva package of
    S. G. Johnson).  Against 40-digit mpmath values on 3000 random points
    the worst relative error is 2.1e-14 for |z| <= 8 and 1.2e-13 on the
    envelope |z| <= 30.  For ``Re z < 0`` the value ~ ``2 exp(z^2)``
    overflows honestly (to inf) once ``Re(z^2) > 709``.
    """
    zz, scalar = _as_complex_array(z)
    return _restore(erfcx(zz), scalar)


def erfc_cpx(z):
    """Complementary error function on the complex plane.

    ``scipy.special.erfc`` on complex input (the Faddeeva package).  Against
    40-digit mpmath values on 3000 random points the worst relative error is
    2.4e-14 for |z| <= 8 and 1.3e-13 on the documented envelope |z| <= 30,
    except in vanishing neighbourhoods of the zeros of erfc where only the
    absolute error is controlled.  Entire in z; real inputs give real
    outputs.
    """
    zz, scalar = _as_complex_array(z)
    return _restore(erfc(zz), scalar)


def erfc_envelope_ok(z):
    """True where the erfc accuracy envelope ``|z| <= 30`` holds."""
    return np.abs(np.asarray(z, dtype=complex)) <= ERFC_ENVELOPE_RADIUS


# --------------------------------------------------------------------------
# plasma function F and the Gaussian kernel
# --------------------------------------------------------------------------


def plasma_F(z):
    """Plasma function ``F(z) = erfc(z / sqrt 2) / 2``.

    Equals the convolution of the standard Gaussian kernel with the
    indicator of the negative half line; against 40-digit ``mpmath.quad`` of
    that convolution (``Re z in [-4, 4.5]``, ``|Im z| <= 3``) the relative
    error is at most 2e-15 (the tests bound it by 1e-13).
    """
    zz, scalar = _as_complex_array(z)
    return _restore(0.5 * erfc_cpx(zz / SQRT2), scalar)


def plasma_F_scaled(z):
    """``F(z) exp(-Im(z)^2 / 2)``, overflow-free on the whole plane.

    ``|plasma_F_scaled(z)| <= max(F(Re z), 1)`` everywhere, which is what
    plane quadratures need far from the real axis.
    """
    zz, scalar = _as_complex_array(z)
    # F(z) = 1 - F(-z): the left half plane takes the reflected argument
    left = ~(zz.real >= 0)
    v = np.where(left, -zz, zz)
    out = 0.5 * erfcx(v / SQRT2) * np.exp(-0.5 * v.real**2) * np.exp(-1j * v.real * v.imag)
    out[left] = np.exp(-0.5 * zz[left].imag ** 2) - out[left]
    return _restore(out, scalar)


def gauss_gamma(z):
    """Standard Gaussian kernel ``exp(-z^2/2) / sqrt(2 pi)``."""
    zz, scalar = _as_complex_array(z)
    return _restore(INV_SQRT_2PI * np.exp(-0.5 * zz * zz), scalar)


# --------------------------------------------------------------------------
# indicator convolutions
# --------------------------------------------------------------------------


def conv_indicator(z, interval):
    """Gaussian kernel convolved with the indicator of a real interval.

    ``interval`` is an ``(lo, hi)`` pair with ``lo < hi``; either endpoint
    may be infinite.  The value is ``F(z - hi) - F(z - lo)`` where the
    limiting values ``F(-inf) = 1`` and ``F(+inf) = 0`` apply at infinite
    endpoints, so ``conv_indicator(z, (-inf, 0))`` is exactly
    ``plasma_F(z)`` (same code path).
    """
    lo, hi = interval
    if not lo < hi:
        raise ValueError(f"interval must satisfy lo < hi, got ({lo}, {hi})")
    zz, scalar = _as_complex_array(z)
    upper = np.ones(zz.shape, dtype=complex) if math.isinf(hi) else plasma_F(zz - hi)
    lower = np.zeros(zz.shape, dtype=complex) if math.isinf(lo) else plasma_F(zz - lo)
    return _restore(upper - lower, scalar)


def conv_indicator_scaled(z, interval):
    """``conv_indicator(z, interval) exp(-Im(z)^2 / 2)``, overflow-free."""
    lo, hi = interval
    if not lo < hi:
        raise ValueError(f"interval must satisfy lo < hi, got ({lo}, {hi})")
    zz, scalar = _as_complex_array(z)
    if math.isinf(hi):
        upper = np.exp(-0.5 * zz.imag**2).astype(complex)
    else:
        upper = plasma_F_scaled(zz - hi)
    if math.isinf(lo):
        lower = np.zeros(zz.shape, dtype=complex)
    else:
        lower = plasma_F_scaled(zz - lo)
    return _restore(upper - lower, scalar)


# --------------------------------------------------------------------------
# hard-edge plasma function H
# --------------------------------------------------------------------------

_H_TAIL_SPLIT = 12.0
_H_RULE_CAP = 4096
_H_ASYMPTOTIC_IM = 21.0  # |Im| from which the asymptotic branch may apply

# Coefficients of the large-|Im| expansion H(u) ~ gamma(u) * sum a_k / u^(k+1),
# the Taylor coefficients (times k!) of exp(-s^2/2)/F(-s) at s = 0.
_H_ASYMPTOTIC_A = np.array(
    [
        2.0,
        -1.5957691216057307118,
        0.5464790894703253723,
        0.28768743673578974761,
        -0.011123635374401605797,
        -0.38265819729121071154,
        -0.65895850649843418214,
        -0.16340702075234026249,
        2.5935891831780510422,
        8.4644583310545061092,
        7.7134816784079075492,
    ]
)


def _hard_edge_rule_size(im):
    """Gauss-Legendre nodes the quadrature branch needs at each ``|Im u|``."""
    return np.maximum(96, 16 + 8 * np.ceil(np.minimum(im, 1e9)).astype(int))


@lru_cache(maxsize=64)
def _leggauss(n_nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=32)
def _hard_edge_rule(n_nodes):
    """Gauss-Legendre rule on [-split, 0] with 1/(sqrt(2 pi) F(t)) folded into weights."""
    x, w = _leggauss(n_nodes)
    t = 0.5 * _H_TAIL_SPLIT * (x - 1.0)
    w = 0.5 * _H_TAIL_SPLIT * w
    f = np.real(plasma_F(t.astype(complex)))
    return t, INV_SQRT_2PI * w / f


def _hard_edge_gauss(x, n_nodes):
    """Offsets ``d = x - t`` from the nodes and the weighted ``w_t exp(-d^2/2)``.

    With ``u = x + iy``, ``Gamma(u - t) exp(-y^2/2) = exp(-d^2/2 - iyd) / sqrt(2 pi)``:
    the quadrature branch is ``sum_t gauss[x, t] exp(-iy d[x, t])`` plus the tail.
    """
    t, wf = _hard_edge_rule(n_nodes)
    d = x[:, None] - t
    return d, wf * np.exp(-0.5 * d * d)


def _hard_edge_tail(u, deriv):
    """Scaled contribution of the far tail (-inf, -split], where 1/F = 1."""
    tail = u + _H_TAIL_SPLIT
    if deriv == 0:
        return plasma_F_scaled(tail)
    gt = INV_SQRT_2PI * np.exp(-0.5 * tail.real**2) * np.exp(-1j * tail.imag * tail.real)
    return ((-1) ** deriv) * hermite_prob(deriv - 1, tail) * gt


def _hard_edge_quad(u, n_nodes, deriv):
    """Quadrature branch of :func:`hard_edge_H_scaled` with one rule size."""
    d, gauss = _hard_edge_gauss(u.real, n_nodes)
    phase = np.exp(-1j * u.imag[:, None] * d)
    if deriv > 0:
        phase = phase * ((-1) ** deriv) * hermite_prob(deriv, d + 1j * u.imag[:, None])
    # a row-wise sum, unlike a BLAS product, gives each point the same bits
    # whatever batch it comes in
    return np.einsum("pt,pt->p", gauss, phase) + _hard_edge_tail(u, deriv)


def hard_edge_H_scaled(z, deriv=0):
    """``H(z) exp(-Im(z)^2 / 2)`` (and scaled derivatives), overflow-free.

    ``H(z)`` is the Gaussian kernel convolved with ``1/F`` restricted to the
    negative half line.  The integral over ``(-split, 0]`` is evaluated by
    Gauss-Legendre quadrature with ``1/F`` folded into the weights; on the
    far tail ``1/F`` is within 1e-33 of 1, so that piece contributes the
    exactly-known term ``F(z + split)``.  Far from the real axis
    (``|Im z| >= 21`` and ``Im(z)^2 >= Re(z)^2 + 46``) the quadrature is
    replaced by an asymptotic expansion in ``1/z``.

    ``deriv=k`` returns the k-th derivative times the same scaling (only
    supported on the quadrature branch, which covers ``|Im z| < 21``).
    """
    zz, scalar = _as_complex_array(z)
    out = np.empty(zz.shape, dtype=complex)
    x, y = zz.real, zz.imag
    asym = (np.abs(y) >= _H_ASYMPTOTIC_IM) & (y * y >= x * x + 46.0) & (deriv == 0)
    quad = ~asym
    if np.any(quad):
        u = zz[quad]
        im = np.abs(u.imag)
        # each point gets the rule its own |Im| needs, not the batch maximum
        need = _hard_edge_rule_size(im)
        sizes = np.unique(need)
        n_max = int(sizes[-1])
        if n_max > _H_RULE_CAP:
            raise QuadratureNotConverged(
                f"hard_edge_H needs {n_max} nodes (cap {_H_RULE_CAP}) at "
                f"|Im z| = {float(np.max(im)):.1f}; the asymptotic branch does not apply"
            )
        acc = np.empty(u.shape, dtype=complex)
        for n_nodes in sizes:
            sel = need == n_nodes
            acc[sel] = _hard_edge_quad(u[sel], int(n_nodes), deriv)
        out[quad] = acc
    if np.any(asym):
        u = zz[asym]
        g = INV_SQRT_2PI * np.exp(-0.5 * u.real**2) * np.exp(-1j * u.real * u.imag)
        inv = 1.0 / u
        acc = np.zeros(u.shape, dtype=complex)
        p = inv.copy()
        for a_k in _H_ASYMPTOTIC_A:
            acc += a_k * p
            p *= inv
        out[asym] = g * acc
    return _restore(out, scalar)


def hard_edge_H_scaled_grid(x, y):
    """``hard_edge_H_scaled(x[:, None] + 1j * y[None, :])`` on a tensor grid.

    On the quadrature branch the phase of each node splits,
    ``exp(-iy(x - t)) = exp(-ixy) exp(iyt)``, so the sum over the nodes (see
    ``_hard_edge_gauss``) is one ``(Nx, Nt) x (Nt, Ny)`` product per rule
    size and costs ``(Nx + Ny) Nt`` exponentials instead of ``2 Nx Ny Nt``.
    Columns with ``|y| >= 21`` go through :func:`hard_edge_H_scaled` itself,
    with its asymptotic switch and rule cap.  The sum is a fixed-order
    ``einsum``, not BLAS, so the values do not depend on the thread count.
    They differ from the pointwise ones only by the rounding of the split
    phase: at most 3.7e-15 absolute on 43,000 random points with
    ``Re in [-14, 2]``, ``|Im| <= 30``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.empty((x.size, y.size), dtype=complex)
    far = np.abs(y) >= _H_ASYMPTOTIC_IM
    if np.any(far):
        out[:, far] = hard_edge_H_scaled(x[:, None] + 1j * y[far])
    near = ~far
    need = _hard_edge_rule_size(np.abs(y))
    for n_nodes in np.unique(need[near]):
        sel = near & (need == n_nodes)
        t = _hard_edge_rule(int(n_nodes))[0]
        _, gauss = _hard_edge_gauss(x, int(n_nodes))
        out[:, sel] = np.einsum("xt,yt->xy", gauss, np.exp(1j * np.multiply.outer(y[sel], t)))
    if np.any(near):
        u = x[:, None] + 1j * y[near]
        out[:, near] = np.exp(-1j * x[:, None] * y[near]) * out[:, near] + _hard_edge_tail(u, 0)
    return out


def hard_edge_H(z, deriv=0):
    """Hard-edge plasma function ``H(z)`` (Gaussian convolved with 1/F on R-).

    Absolute error <= 1e-9 for real z in the envelope Re z <= 10.  Off the
    real axis the error is absolute on the scaled form: against 40-digit
    ``mpmath.quad`` values, :func:`hard_edge_H_scaled` and
    :func:`hard_edge_H_scaled_grid` stay within 4e-14 of ``H_s`` on
    ``Re z in [-10.5, 0.5]``, ``|Im z| <= 25`` (400 random points and a
    tensor grid across ``|Im z| = 21``; the tests bound it by 1e-13).  The
    error of H is that times ``exp(Im(z)^2 / 2)``, and the relative error
    is of order one where ``|H_s|`` is near 1e-15 (at -7.951+17.186i, say).
    Real and strictly positive on the real axis.  ``deriv=k`` returns the
    k-th derivative.

    Raises
    ------
    QuadratureNotConverged
        If |Im z| exceeds the node budget of the quadrature rule in the
        region where the asymptotic branch does not apply.
    """
    zz, scalar = _as_complex_array(z)
    out = hard_edge_H_scaled(zz, deriv=deriv) * np.exp(0.5 * zz.imag**2)
    return _restore(out, scalar)


# --------------------------------------------------------------------------
# Hermite polynomials (probabilists')
# --------------------------------------------------------------------------

HERMITE_MAX_DEGREE = 400


def hermite_prob(n, z):
    """Probabilists' Hermite polynomial ``h_n(z)`` by three-term recursion.

    ``h_0 = 1``, ``h_1 = z``, ``h_n = z h_{n-1} - (n-1) h_{n-2}``.  The
    unnormalized values grow super-exponentially; callers needing large n
    should use the normalized :func:`hermite_scaled` instead.
    """
    if n < 0 or n > HERMITE_MAX_DEGREE:
        raise ValueError(f"degree must lie in [0, {HERMITE_MAX_DEGREE}], got {n}")
    zz, scalar = _as_complex_array(z)
    if n == 0:
        return _restore(np.ones(zz.shape, dtype=complex), scalar)
    h_prev = np.ones(zz.shape, dtype=complex)
    h = zz.copy()
    for j in range(2, n + 1):
        h_prev, h = h, zz * h - (j - 1) * h_prev
    return _restore(h, scalar)


def hermite_scaled(n, z):
    """Normalized Hermite values ``p_j(z) = h_j(z) / sqrt(j!)`` for j = 0..n.

    Returns an array of shape ``(n + 1,) + shape(z)``.  The recursion
    ``p_j = (z p_{j-1} - sqrt(j-1) p_{j-2}) / sqrt(j)`` keeps the values
    bounded by ``exp(z^2/4)``-type envelopes, so products like
    ``h_{n-1} h_n / n!`` (= ``p_{n-1} p_n / sqrt(n)``) never overflow.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    zz = np.asarray(z, dtype=complex)
    p = np.empty((n + 1,) + zz.shape, dtype=complex)
    p[0] = 1.0
    if n >= 1:
        p[1] = zz
    for j in range(2, n + 1):
        p[j] = (zz * p[j - 1] - math.sqrt(j - 1) * p[j - 2]) / math.sqrt(j)
    return p


def hermite_scaled_pair(n, z):
    """Return ``(p_{n-1}(z), p_n(z))`` of :func:`hermite_scaled`, n >= 1."""
    if n < 1:
        raise ValueError(f"pair iteration needs n >= 1, got {n}")
    p = hermite_scaled(n, z)
    if np.ndim(z) == 0:
        return complex(p[n - 1]), complex(p[n])
    return p[n - 1], p[n]


# --------------------------------------------------------------------------
# Mittag-Leffler function
# --------------------------------------------------------------------------

_ML_MAX_TERMS = 10**5
_ML_STOP_RATIO = 1e-18
_ML_STOP_RUN = 5


def mittag_leffler_M(lam, z, max_terms=_ML_MAX_TERMS):
    """Generalized Mittag-Leffler function ``lam * sum z^j / Gamma((j+1)/lam)``.

    Series evaluation with log-gamma terms, accumulated exactly with
    ``math.fsum`` after collecting the terms (the partial sums are
    magnitude-ordered around the largest term, so the compensated total is
    faithfully rounded).  Truncates once five consecutive terms fall below
    1e-18 of the partial sum.

    The absolute error is at most some tens of rounding units of the sum of
    the term magnitudes, ``M_lam(|z|)``: against 40-digit mpmath sums at lam
    in {1.5, 3}, |z| <= 4, below 1e-14 ``M_lam(|z|)`` (the tests bound it by
    1e-13).  Where the terms cancel the result so loses
    ``log10(M_lam(|z|) / |M_lam(z)|)`` digits, for lam > 1 also on part of
    ``Re z >= 0``: lam = 2 loses 6.3 digits at z = -3, lam = 1.5 loses 6.2 at
    z = 4i, and lam = 3 loses 15 at z = -3 and 3i and all of them at z = 4i.
    Kernel evaluations use :func:`mittag_leffler_kernel_eval`, which
    dispatches to closed forms where they exist.

    Raises
    ------
    SeriesNotConverged
        If ``max_terms`` terms are exhausted before the stop rule fires.
    """
    if not 1.0 <= lam <= 10.0:
        raise ValueError(f"lambda must lie in [1, 10], got {lam}")
    zz, scalar = _as_complex_array(z)
    out = np.empty(zz.shape, dtype=complex)
    for idx, zval in np.ndenumerate(zz):
        out[idx] = _ml_series_scalar(lam, complex(zval), max_terms)
    return _restore(out, scalar)


def _ml_series_scalar(lam, z, max_terms):
    re_parts = []
    im_parts = []
    partial = 0.0 + 0.0j
    below = 0
    log_abs_z = math.log(abs(z)) if z != 0 else -math.inf
    phase = z / abs(z) if z != 0 else 0.0
    term_phase = 1.0 + 0.0j
    for j in range(max_terms):
        log_mag = (j * log_abs_z if j else 0.0) - math.lgamma((j + 1) / lam)
        if log_mag > 705.0:
            raise SeriesNotConverged(
                f"term {j} of M_(lam={lam})({z}) overflows the double range"
            )
        term = math.exp(log_mag) * term_phase if log_mag > -745 else 0.0
        re_parts.append(term.real if term else 0.0)
        im_parts.append(term.imag if term else 0.0)
        partial += term
        if abs(term) < _ML_STOP_RATIO * max(abs(partial), 1e-300):
            below += 1
            if below >= _ML_STOP_RUN:
                return lam * complex(math.fsum(re_parts), math.fsum(im_parts))
        else:
            below = 0
        term_phase *= phase
    raise SeriesNotConverged(
        f"Mittag-Leffler series for lambda={lam}, z={z} did not settle "
        f"within {max_terms} terms"
    )


def mittag_leffler_kernel_eval(lam, z):
    """Mittag-Leffler values for kernel work, via closed forms when exact.

    ``lam=1`` is ``exp``; ``lam=2`` uses
    ``M_2(z) = 2/sqrt(pi) + 2 z erfcx(-z) `` (exact, cancellation-free).
    Other ``lam`` fall back to the series, subject to its cancellation
    envelope.
    """
    zz, scalar = _as_complex_array(z)
    if lam == 1.0:
        return _restore(np.exp(zz), scalar)
    if lam == 2.0:
        return _restore(2.0 / SQRT_PI + 2.0 * zz * erfcx_cpx(-zz), scalar)
    return mittag_leffler_M(lam, z)


def mittag_leffler_kernel_scaled(lam, z, log_scale):
    """``M_lam(z) exp(log_scale)`` for kernel work, elementwise.

    A kernel value ``M_lam(z conj w) exp(-(|z|^(2 lam) + |w|^(2 lam)) / 2)``
    is finite where ``M_lam`` overflows and the Gaussian underflows; this
    form keeps it finite where closed forms exist.  ``lam=1`` is
    ``exp(z + log_scale)``.  ``lam=2`` is ``2/sqrt(pi) e^s + 2 z E`` with
    ``E = erfcx(-z) e^s``, taken on ``Re z >= 0`` as ``2 exp(z^2 + s) -
    erfcx(z) e^s`` (the reflection ``erfcx(-z) = 2 e^(z^2) - erfcx(z)``,
    with ``|erfcx(z)| <= 1`` there): for a kernel ``Re(z^2) + s <= 0``, so
    nothing overflows.  Other ``lam`` multiply the series by ``e^s``.
    """
    zz, scalar = _as_complex_array(z)
    s = np.broadcast_to(np.asarray(log_scale, dtype=float), zz.shape)
    if lam == 1.0:
        return _restore(np.exp(zz + s), scalar)
    g = np.exp(s)
    if lam == 2.0:
        right = zz.real >= 0.0
        e = np.empty(zz.shape, dtype=complex)
        zr = zz[right]
        e[right] = 2.0 * np.exp(zr * zr + s[right]) - erfcx(zr) * g[right]
        e[~right] = erfcx(-zz[~right]) * g[~right]
        return _restore(2.0 / SQRT_PI * g + 2.0 * zz * e, scalar)
    return _restore(mittag_leffler_M(lam, zz) * g, scalar)


# --------------------------------------------------------------------------
# lower incomplete gamma (integer shape)
# --------------------------------------------------------------------------

_GAMMA_MAX_SHAPE = 10**6


def lower_inc_gamma_log(s, x):
    """``log`` of the lower incomplete gamma ``gamma(s, x)``, integer s >= 1.

    At and above the mean (``x >= s``) this is ``log P(s, x) + log Gamma(s)``
    with scipy's regularized ``gammainc``, which stays within 5e-15 relative
    there.  Below the mean ``P`` underflows where x << s, so the value is
    ``s log x - x + log sum_j x^j / (s (s+1) ... (s+j))``: the Poisson sum
    ``(s-1)! P(Poisson(x) >= s)`` with its term ratios accumulated in log
    space.  The terms fall below ``exp(-800)`` of the first within
    ``40 sqrt(s) + 60`` of them, so the work is O(sqrt s) whatever x.
    Against 40-digit mpmath at s in {1, 10, 1000, 10^6}, on both sides of
    the mean, the absolute error of the log is at most
    ``2.5e-16 max(1, |log gamma(s, x)|)`` (the tests bound it by 1e-14).
    """
    if s < 1 or s > _GAMMA_MAX_SHAPE:
        raise ValueError(f"shape must be an integer in [1, {_GAMMA_MAX_SHAPE}], got {s}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return -math.inf
    if x >= s:
        return math.log(gammainc(s, x)) + math.lgamma(s)
    j = np.arange(1.0, int(40.0 * math.sqrt(s) + 60))
    log_terms = np.cumsum(np.log(x / (s + j)))
    return s * math.log(x) - x - math.log(s) + math.log(1.0 + float(np.sum(np.exp(log_terms))))


def lower_inc_gamma(s, x):
    """Lower incomplete gamma ``gamma(s, x)`` for integer ``s >= 1``.

    Relative error <= 1e-12; overflows honestly to inf once
    ``(s-1)!`` exceeds the double range (use :func:`lower_inc_gamma_log`).
    """
    return math.exp(lower_inc_gamma_log(s, x))

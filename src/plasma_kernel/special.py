"""Complex special functions underlying the correlation kernels.

Provides the plasma function ``F`` (Gaussian convolved with a half-line
indicator), the hard-edge plasma function ``H``, probabilists' Hermite
polynomials and the closed-form Mittag-Leffler kernel values for lambda in
{1, 2}.  The complex ``erfc`` and ``erfcx`` are scipy's own (the Faddeeva
package of S. G. Johnson), called directly: against 40-digit mpmath on 3000
random points their worst relative error is 2.4e-14 and 2.1e-14 for
``|z| <= 8`` and 1.3e-13 and 1.2e-13 on ``|z| <= 30``, except near the zeros
of erfc, where only the absolute error is controlled.  Sums of ``F`` over
the pieces of a union of intervals belong to the profiles of
:mod:`plasma_kernel.limits`.

Every function is a pure function of its arguments and accepts scalars or
numpy arrays of complex values: an array gives that shape back, a scalar a
Python scalar (``_flat`` and ``_shaped``, which the other modules share).
Overflow-free *scaled* variants (multiplied by ``exp(-Im(z)**2 / 2)``) are
exposed for kernel values far from the real axis, where the plain functions
overflow.  The module imports nothing from the package.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import erfc, erfcx

__all__ = [
    "SeriesNotConverged",
    "QuadratureNotConverged",
    "plasma_F",
    "plasma_F_scaled",
    "gauss_gamma",
    "hard_edge_H",
    "hard_edge_H_scaled",
    "hermite_prob",
    "hermite_scaled",
    "mittag_leffler_kernel_eval",
    "mittag_leffler_kernel_scaled",
]

SQRT2 = math.sqrt(2.0)
SQRT_PI = math.sqrt(math.pi)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class SeriesNotConverged(Exception):
    """A term window needs more terms than its budget allows."""


class QuadratureNotConverged(Exception):
    """An adaptive quadrature exceeded its refinement budget."""


def _flat(*points, dtype=complex):
    """Broadcast shape of ``points`` and each as a flat array of ``dtype``.

    Scalars go through the same array arithmetic as array elements, so a
    point gives the same bits whether it comes alone or in an array.
    """
    arrays = [np.asarray(p, dtype=dtype) for p in points]
    if len(arrays) > 1:  # broadcast_arrays costs ~3 us, even on one array
        arrays = np.broadcast_arrays(*arrays)
    return arrays[0].shape, [a.ravel() for a in arrays]


def _shaped(out, shape):
    """``out`` in ``shape``, or its one value as a Python scalar when ``shape`` is ()."""
    return out.reshape(shape) if shape else out[0].item()


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
    shape, (zz,) = _flat(z)
    return _shaped(0.5 * erfc(zz / SQRT2), shape)


def plasma_F_scaled(z):
    """``F(z) exp(-Im(z)^2 / 2)``, overflow-free on the whole plane.

    ``|plasma_F_scaled(z)| <= max(F(Re z), 1)`` everywhere, which is what
    kernel values need far from the real axis.
    """
    shape, (zz,) = _flat(z)
    # F(z) = 1 - F(-z): the left half plane takes the reflected argument
    left = ~(zz.real >= 0)
    v = np.where(left, -zz, zz)
    out = 0.5 * erfcx(v / SQRT2) * np.exp(-0.5 * v.real**2) * np.exp(-1j * v.real * v.imag)
    out[left] = np.exp(-0.5 * zz[left].imag ** 2) - out[left]
    return _shaped(out, shape)


def gauss_gamma(z):
    """Standard Gaussian kernel ``exp(-z^2/2) / sqrt(2 pi)``."""
    shape, (zz,) = _flat(z)
    return _shaped(INV_SQRT_2PI * np.exp(-0.5 * zz * zz), shape)


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
def _leggauss(n_nodes, polish=False):
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only.

    numpy's weights next to the ends are off by 1e-13 (24 nodes) to 1e-11
    (128 nodes) relative, against 40-digit mpmath.  An integrand that piles
    up at one end of its panel, as a far Gaussian tail does, turns that
    into a relative error of the integral of about 1e-13.  ``polish=True``
    takes one Newton step on the nodes and recomputes the weights
    ``2 / ((1 - x^2) P_n'(x)^2)`` in extended precision (``np.longdouble``),
    which gives correctly rounded nodes and weights on x86-64.  It costs an
    O(n^2) Python-level recurrence, about 3 ms at n = 64, once per size.
    """
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    if polish:
        t = x.astype(np.longdouble)
        for step in range(2):
            p_prev, p = np.ones_like(t), t
            for j in range(2, n_nodes + 1):
                p_prev, p = p, ((2 * j - 1) * t * p - (j - 1) * p_prev) / j
            dp = n_nodes * (p_prev - t * p) / (1 - t * t)
            if step == 0:
                t = t - p / dp
        x = t.astype(float)
        w = (2 / ((1 - t * t) * dp * dp)).astype(float)
        x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
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


def _hard_edge_tail(u, deriv):
    """Scaled contribution of the far tail (-inf, -split], where 1/F = 1."""
    tail = u + _H_TAIL_SPLIT
    if deriv == 0:
        return plasma_F_scaled(tail)
    gt = INV_SQRT_2PI * np.exp(-0.5 * tail.real**2) * np.exp(-1j * tail.imag * tail.real)
    return ((-1) ** deriv) * hermite_prob(deriv - 1, tail) * gt


def _hard_edge_quad(u, n_nodes, deriv):
    """Quadrature branch of :func:`hard_edge_H_scaled` with one rule size.

    With ``d = x - t`` for the nodes t, ``Gamma(u - t) exp(-y^2/2) =
    exp(-d^2/2 - iyd) / sqrt(2 pi)``, and the rule's weights carry the
    ``1 / (sqrt(2 pi) F(t))``.
    """
    t, wf = _hard_edge_rule(n_nodes)
    d = u.real[:, None] - t
    gauss = wf * np.exp(-0.5 * d * d)
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
    shape, (zz,) = _flat(z)
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
    return _shaped(out, shape)


def hard_edge_H(z, deriv=0):
    """Hard-edge plasma function ``H(z)`` (Gaussian convolved with 1/F on R-).

    Absolute error <= 1e-9 for real z in the envelope Re z <= 10.  Off the
    real axis the error is absolute on the scaled form: against 40-digit
    ``mpmath.quad`` values, :func:`hard_edge_H_scaled` stays within 4e-14
    of ``H_s`` on ``Re z in [-10.5, 0.5]``, ``|Im z| <= 25`` (400 random
    points and a grid of points across ``|Im z| = 21``; the tests bound it
    by 1e-13).  The error of H is that times ``exp(Im(z)^2 / 2)``, and the
    relative error is of order one where ``|H_s|`` is near 1e-15 (at
    -7.951+17.186i, say).  Real and strictly positive on the real axis.
    ``deriv=k`` returns the k-th derivative.  Off the real axis H serves
    the kernel values; the plane integrals of the hard-edge kernel take
    ``1/F`` on the real line instead (see :mod:`plasma_kernel.limits`).

    Raises
    ------
    QuadratureNotConverged
        If |Im z| exceeds the node budget of the quadrature rule in the
        region where the asymptotic branch does not apply.
    """
    shape, (zz,) = _flat(z)
    out = hard_edge_H_scaled(zz, deriv=deriv) * np.exp(0.5 * zz.imag**2)
    return _shaped(out, shape)


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
    shape, (zz,) = _flat(z)
    if n == 0:
        return _shaped(np.ones(zz.shape, dtype=complex), shape)
    h_prev = np.ones(zz.shape, dtype=complex)
    h = zz.copy()
    for j in range(2, n + 1):
        h_prev, h = h, zz * h - (j - 1) * h_prev
    return _shaped(h, shape)


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


# --------------------------------------------------------------------------
# Mittag-Leffler closed forms
# --------------------------------------------------------------------------


def mittag_leffler_kernel_eval(lam, z):
    """``M_lam(z)`` for ``lam`` in {1, 2}: :func:`mittag_leffler_kernel_scaled`
    at ``log_scale = 0``, so ``exp(z)`` and ``2/sqrt(pi) + 2 z erfcx(-z)``."""
    return mittag_leffler_kernel_scaled(lam, z, 0.0)


def mittag_leffler_kernel_scaled(lam, z, log_scale):
    """``M_lam(z) exp(log_scale)`` for kernel work, elementwise.

    A kernel value ``M_lam(z conj w) exp(-(|z|^(2 lam) + |w|^(2 lam)) / 2)``
    is finite where ``M_lam`` overflows and the Gaussian underflows; this
    form keeps it finite where closed forms exist.  ``lam=1`` is
    ``exp(z + log_scale)``.  ``lam=2`` is ``2/sqrt(pi) e^s + 2 z E`` with
    ``E = erfcx(-z) e^s``, taken on ``Re z >= 0`` as ``2 exp(z^2 + s) -
    erfcx(z) e^s`` (the reflection ``erfcx(-z) = 2 e^(z^2) - erfcx(z)``,
    with ``|erfcx(z)| <= 1`` there): for a kernel ``Re(z^2) + s <= 0``, so
    nothing overflows.  Other ``lam`` raise ``ValueError``: they have no
    closed form, and their kernels come from ``finite_n._ml_kernel``.
    """
    if lam not in (1.0, 2.0):
        raise ValueError(f"no closed form for lambda = {lam}; only lambda in {{1, 2}} has one")
    shape, (zz,) = _flat(z)
    s = np.broadcast_to(np.asarray(log_scale, dtype=float), shape).ravel()
    if lam == 1.0:
        return _shaped(np.exp(zz + s), shape)
    g = np.exp(s)
    right = zz.real >= 0.0
    e = np.empty(zz.shape, dtype=complex)
    zr = zz[right]
    e[right] = 2.0 * np.exp(zr * zr + s[right]) - erfcx(zr) * g[right]
    e[~right] = erfcx(-zz[~right]) * g[~right]
    return _shaped(2.0 / SQRT_PI * g + 2.0 * zz * e, shape)

"""Finite-n correlation kernels for radially symmetric potentials.

Covers the Ginibre potential ``|z|^2``, the power potentials ``|z|^(2 lam)``,
and the hard-edge Ginibre ensemble (potential +inf outside the unit disc),
together with rescaling frames, cocycle normalization, the bulk
approximation kernel, and exponential-series sections.

A kernel value sums only the O(sqrt(n)) terms around its largest one (see
:func:`kernel_finite_n`) and reports a rigorous bound on the rest.  Against
40-digit mpmath, in boundary frames at n = 2^10, 2^16 and 2^20, the measured
error is at most 3.5e-13 relative on the diagonal and 1.1e-13 of
``sqrt(K(zeta, zeta) K(eta, eta))`` off it, both at n = 2^20.  Nearly all of
it is the rounding of ``|zeta|``, ``|eta|`` and ``arg(zeta conj(eta))``,
which the kernel amplifies by about sqrt(n) near the droplet edge and more
outside it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln

__all__ = [
    "DivisionNearZero",
    "Potential",
    "RescaleFrame",
    "droplet_radius",
    "poly_norm_sq",
    "kernel_finite_n",
    "rescaled_kernel",
    "cocycle_fix",
    "bulk_approx_kernel",
    "psi_ratio",
    "exp_section",
]

KERNEL_MAX_N = 2**20


class DivisionNearZero(Exception):
    """A kernel ratio was requested where the denominator underflows."""


@dataclass(frozen=True)
class Potential:
    """Radially symmetric confining potential.

    ``kind`` is one of ``"ginibre"`` (``Q = |z|^2``), ``"power"``
    (``Q = |z|^(2 lam)``, ``lam >= 1``), or ``"hard_edge"`` (Ginibre
    restricted to the closed unit disc).
    """

    kind: str
    lam: float = 1.0

    def __post_init__(self):
        if self.kind not in ("ginibre", "power", "hard_edge"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "power" and self.lam < 1.0:
            raise ValueError(f"power potential needs lam >= 1, got {self.lam}")

    @classmethod
    def ginibre(cls) -> "Potential":
        return cls("ginibre")

    @classmethod
    def power(cls, lam: float) -> "Potential":
        return cls("power", float(lam))

    @classmethod
    def hard_edge(cls) -> "Potential":
        return cls("hard_edge")

    def q_value(self, zeta: complex) -> float:
        """Potential value Q(zeta) (finite branch; domain checks separate)."""
        if self.kind == "power":
            return abs(zeta) ** (2.0 * self.lam)
        return abs(zeta) ** 2

    def delta_q(self, zeta: complex) -> float:
        """Quarter-Laplacian of Q (the density of the equilibrium measure)."""
        if self.kind == "power":
            return self.lam**2 * abs(zeta) ** (2.0 * self.lam - 2.0)
        return 1.0


def droplet_radius(pot: Potential) -> float:
    """Radius of the circular droplet filled by the eigenvalues."""
    if pot.kind == "power":
        return pot.lam ** (-1.0 / (2.0 * pot.lam))
    return 1.0


@dataclass(frozen=True)
class RescaleFrame:
    """Local coordinates ``z = exp(-i theta) * zoom * (zeta - p)``.

    ``zoom`` is ``sqrt(n * delta_q(p))`` for bulk/boundary frames and
    ``n**(1/(2 lam))`` for bulk-singularity frames of power potentials.
    """

    p: complex
    theta: float
    n: int
    zoom: float

    def __post_init__(self):
        if self.zoom <= 0.0:
            raise ValueError(f"zoom must be positive, got {self.zoom}")

    @classmethod
    def bulk(cls, pot: Potential, n: int) -> "RescaleFrame":
        dq = pot.delta_q(0.0)
        if dq <= 0.0:
            raise ValueError("bulk frame undefined where the density vanishes")
        return cls(p=0.0, theta=0.0, n=n, zoom=math.sqrt(n * dq))

    @classmethod
    def boundary(cls, pot: Potential, n: int, theta: float = 0.0) -> "RescaleFrame":
        p = droplet_radius(pot) * cmath.exp(1j * theta)
        return cls(p=p, theta=theta, n=n, zoom=math.sqrt(n * pot.delta_q(p)))

    @classmethod
    def singularity(cls, pot: Potential, n: int) -> "RescaleFrame":
        if pot.kind != "power" or pot.lam <= 1.0:
            raise ValueError("singularity frame needs a power potential with lam > 1")
        return cls(p=0.0, theta=0.0, n=n, zoom=n ** (1.0 / (2.0 * pot.lam)))

    def to_global(self, z: complex) -> complex:
        return self.p + cmath.exp(1j * self.theta) * z / self.zoom

    def to_local(self, zeta: complex) -> complex:
        return cmath.exp(-1j * self.theta) * self.zoom * (zeta - self.p)


def _check_kernel_n(n) -> None:
    """Refuse an ``n`` outside the kernel's supported range, naming it."""
    if not 1 <= n <= KERNEL_MAX_N:
        raise ValueError(f"need 1 <= n <= {KERNEL_MAX_N}, got {n}")


def _log_norm(pot: Potential, n: int, j):
    """``log ||zeta^j||^2`` for integer ``j`` (scalar or array) in weight nQ."""
    j = np.asarray(j, dtype=float)
    log_n = math.log(n)
    if pot.kind == "power":
        s = (j + 1.0) / pot.lam
        return gammaln(s) - math.log(pot.lam) - s * log_n
    out = gammaln(j + 1.0) - (j + 1.0) * log_n
    if pot.kind == "hard_edge":
        # gamma(j+1, n) = j! P(Poisson(n) >= j+1); for j < n scipy evaluates
        # it at or above the mean, where it keeps full accuracy
        out = out + np.log(gammainc(j + 1.0, n))
    return out


def poly_norm_sq(pot: Potential, n: int, j: int) -> float:
    """``log`` of the squared monomial norm ``||zeta^j||^2`` in weight nQ.

    Ginibre: ``j! / n^(j+1)``; power(lam): ``Gamma((j+1)/lam) / (lam
    n^((j+1)/lam))``; hard edge: ``gamma(j+1, n) / n^(j+1)``.  Returned in
    log space because the values underflow doubles long before j reaches n.
    """
    if not 0 <= j < n:
        raise ValueError(f"need 0 <= j < n, got j={j}, n={n}")
    return float(_log_norm(pot, n, j))


# C. Loader, "Fast and Accurate Computation of Binomial Probabilities"
# (2000): the saddle-point log density needs Stirling's remainder and the
# deviance term, each evaluated without cancellation
_STIRLING = (1.0 / 12.0, 1.0 / 360.0, 1.0 / 1260.0, 1.0 / 1680.0, 1.0 / 1188.0)
_LOADER_MIN_X = 15.0  # Stirling's series is exact to double precision above


def _stirlerr(x):
    """``log Gamma(x+1) - log(sqrt(2 pi x) (x/e)^x)`` for ``x >= 15``."""
    y = 1.0 / (x * x)
    s0, s1, s2, s3, s4 = _STIRLING
    return (s0 - (s1 - (s2 - (s3 - s4 * y) * y) * y) * y) / x


def _bd0(x, mu):
    """The deviance ``x log(x/mu) + mu - x``, free of cancellation near ``x = mu``."""
    d = x - mu
    v = d / (x + mu)
    near = np.abs(v) < 0.5
    # x log(x/mu) = 2x artanh(v), so bd0 = d v + 2x sum_k v^(2k+1)/(2k+1);
    # the terms shrink at least fourfold each, and the first dominates
    vn = np.where(near, v, 0.0)
    s, e = d * vn, 2.0 * x * vn
    k = 1
    while True:
        e = e * vn * vn
        step = s + e / (2 * k + 1)
        if np.array_equal(step, s, equal_nan=True):
            break
        s, k = step, k + 1
    return np.where(near, s, x * np.log(x / mu) + mu - x)


def _log_poisson(x, mu):
    """``log(mu^x exp(-mu) / Gamma(x+1))`` for ``x > -1`` and ``mu > 0``.

    Above ``x = 15`` this is Loader's ``-stirlerr(x) - bd0(x, mu) -
    log(2 pi x)/2``, whose absolute error stays near one rounding even where
    ``x log mu`` and ``log Gamma(x+1)`` are ~1e7 and cancel.
    """
    x = np.asarray(x, dtype=float)
    big = x >= _LOADER_MIN_X
    xb = np.where(big, x, _LOADER_MIN_X)
    saddle = -_stirlerr(xb) - _bd0(xb, mu) - 0.5 * np.log(2.0 * math.pi * xb)
    return np.where(big, saddle, x * np.log(mu) - mu - gammaln(x + 1.0))


def _hard_edge_mass(n: int, j):
    """``gammainc(j+1, n)`` for integer arrays ``j`` in ``[0, n]``.

    A window's indices form a short range, so the function is evaluated
    once per index of that range; the values are the same either way.
    """
    lo = int(j.min())
    span = int(j.max()) - lo + 1
    if span <= j.size:
        return gammainc(np.arange(lo, lo + span) + 1.0, n)[j - lo]
    return gammainc(j + 1.0, n)


def _ratio(pot: Potential, n: int, j, mu):
    """Term ratio ``|t_(j+1) / t_j|`` for integer arrays ``j`` in ``[0, n-1]``.

    ``mu = n |zeta conj(eta)|^lam``.  Ginibre: ``mu/(j+1)``; power(lam):
    ``mu^(1/lam) Gamma(s) / Gamma(s + 1/lam)`` with ``s = (j+1)/lam``; the
    hard edge multiplies the Ginibre ratio by ``gamma(j+1, n)/gamma(j+2, n)``.
    """
    lam = pot.lam
    if lam == 1.0:
        r = mu / (j + 1.0)
    else:
        h = 1.0 / lam
        s = (j + 1.0) * h
        x0 = np.maximum(s - 1.0, _LOADER_MIN_X)
        # log Gamma(s+h) - log Gamma(s) through Stirling's form, so the ~1e7
        # log-gammas never meet in a difference
        big = (h * np.log(mu / x0) - (x0 + h + 0.5) * np.log1p(h / x0) + h
               - (_stirlerr(x0 + h) - _stirlerr(x0)))
        small = h * np.log(mu) - (gammaln(s + h) - gammaln(s))
        r = np.exp(np.where(s - 1.0 >= _LOADER_MIN_X, big, small))
    if pot.kind == "hard_edge":
        mass = _hard_edge_mass(n, np.concatenate([j.ravel(), j.ravel() + 1]))
        r = r * (mass[: j.size] / mass[j.size:]).reshape(j.shape)
    return r


def _peak(pot: Potential, n: int, mu):
    """Index of the largest term: the first ``j`` whose ratio is below 1.

    The log terms are concave in ``j``, so the ratio falls with ``j`` and a
    bisection over ``[0, n-1]`` finds the argmax exactly.
    """
    lo = np.zeros(mu.shape, dtype=np.int64)
    hi = np.full(mu.shape, n - 1, dtype=np.int64)
    while np.any(lo < hi):
        act = lo < hi
        mid = (lo[act] + hi[act]) // 2
        falls = _ratio(pot, n, mid, mu[act]) < 1.0
        hi[act] = np.where(falls, mid, hi[act])
        lo[act] = np.where(falls, lo[act], mid + 1)
    return lo


def _half_width(pot: Potential, n: int, mu):
    """First window half width to try: the 8.6 standard deviations of the
    term profile that a 1e-17 tail needs, in multiples of 32 so that the
    points of one grid share a few widths."""
    sd = pot.lam * np.sqrt(np.clip(mu, 1.0, n / pot.lam))
    return 32 * np.ceil((8.6 * sd + 24.0) / 32.0).astype(np.int64)


def _window(pot: Potential, n: int, mu, theta, peak, w: int):
    """Sum the terms ``peak - w .. peak + w`` of each row relative to the peak.

    Returns ``(re, im, bound)``: the real and imaginary parts of
    ``sum_k t_(peak+k) e^(i k theta) / t_peak`` and a bound on the terms
    left out, relative to the kept ``sum |t| / t_peak``.  Each row is
    computed on its own, so the result does not depend on the other rows.
    """
    j = peak[:, None] + np.arange(-w - 1, w + 1)
    r = _ratio(pot, n, np.clip(j, 0, n - 1), mu[:, None])
    up, down = r[:, w + 1:], 1.0 / r[:, w::-1]
    # ratios leaving [0, n-1] are zero: the sum ends there
    if peak.max() + w >= n - 1:
        up = np.where(j[:, w + 1:] < n - 1, up, 0.0)
    if peak.min() - w - 1 < 0:
        down = np.where(j[:, w::-1] >= 0, down, 0.0)
    t_up = np.cumprod(up[:, :w], axis=1)
    t_down = np.cumprod(down[:, :w], axis=1)
    both = t_up + t_down
    kept = 1.0 + both.sum(axis=1)
    # the ratios keep falling beyond either end, so each tail is at most a
    # geometric series in the first ratio past that end
    bound = np.zeros(len(peak))
    for last, rho in ((t_up[:, -1], up[:, w]), (t_down[:, -1], down[:, w])):
        with np.errstate(divide="ignore"):
            bound += np.where(rho < 1.0, last * rho / (1.0 - rho), np.inf)
    if not np.any(theta):
        return kept, np.zeros(len(peak)), bound / kept
    # t_(peak+k) e^(ik theta) + t_(peak-k) e^(-ik theta), summed over k >= 1
    phase = np.arange(1, w + 1) * theta[:, None]
    re = 1.0 + (both * np.cos(phase)).sum(axis=1)
    im = np.where(theta == 0.0, 0.0, ((t_up - t_down) * np.sin(phase)).sum(axis=1))
    return re, im, bound / kept


_TAIL_TOL = 1e-17  # relative mass a window may leave out
_BLOCK = 1 << 14  # window entries handled at once


def kernel_finite_n(pot: Potential, n: int, zeta, eta, *, return_bound: bool = False):
    """Finite-n correlation kernel ``K_n(zeta, eta)`` (weighted, unrescaled).

    ``K_n = sum_j (zeta conj(eta))^j / ||zeta^j||^2 * exp(-n(Q(zeta)+Q(eta))/2)``
    for points ``zeta``, ``eta`` (scalars or arrays that broadcast; scalars
    give a complex scalar).  Each point sums only the O(sqrt(n)) terms
    around its largest one:

    * the peak index is the first ``j`` whose term ratio is below 1, near
      ``n|zeta eta|`` (Ginibre), ``lam n|zeta eta|^lam`` (power) or
      ``min(n|zeta eta|, n-1)`` (hard edge);
    * the peak term is C. Loader's saddle-point Poisson/Gamma log density
      times the exact ``exp(-n(|zeta|^lam - |eta|^lam)^2/2)``;
    * the other terms follow by exact term ratios (see ``_ratio``), walking
      outwards until the geometric bound on each tail, relative to the kept
      mass, is below 1e-17.

    Hard-edge kernels return 0 once either argument leaves the closed unit
    disc.  Diagonal values are real and nonnegative.  With
    ``return_bound=True`` the result is ``(K, bound)``, where ``bound``
    bounds the mass of the terms left out relative to the kept ``sum |t_j|``
    (itself at most ``sqrt(K(zeta, zeta) K(eta, eta))``).
    """
    _check_kernel_n(n)
    shape, zeta, eta = _flat_pair(zeta, eta)
    lam = pot.lam
    abs_z, abs_e = np.abs(zeta), np.abs(eta)
    with np.errstate(over="ignore"):
        mu = n * (abs_z * abs_e) ** lam
    # where mu overflows, |zeta| or |eta| is so large that every term underflows
    live = np.isfinite(mu)
    if pot.kind == "hard_edge":
        live &= (abs_z <= 1.0) & (abs_e <= 1.0)
    out = np.zeros(zeta.size, dtype=complex)
    bound = np.zeros(zeta.size)

    at_zero = live & (mu == 0.0)
    if np.any(at_zero):
        # only the j = 0 term survives
        q = abs_z[at_zero] ** (2.0 * lam) + abs_e[at_zero] ** (2.0 * lam)
        out[at_zero] = np.exp(-_log_norm(pot, n, 0) - 0.5 * n * q)

    idx = np.flatnonzero(live & (mu > 0.0))
    mu = mu[idx]
    # arg(zeta conj(eta)); zero on the diagonal, which the rounded product may miss
    theta = np.where(zeta[idx] == eta[idx], 0.0, np.angle(zeta[idx] * eta[idx].conjugate()))
    peak = _peak(pot, n, mu)
    width = _half_width(pot, n, mu)
    sums = np.zeros(idx.size, dtype=complex)
    todo = np.arange(idx.size)
    while todo.size:
        redo = []
        for w in np.unique(width[todo]):
            group = todo[width[todo] == w]
            group = group[np.argsort(peak[group], kind="stable")]
            rows = max(1, _BLOCK // (2 * int(w) + 2))
            for b in range(0, group.size, rows):
                sel = group[b:b + rows]
                s_re, s_im, rel_tail = _window(pot, n, mu[sel], theta[sel], peak[sel], int(w))
                sums[sel] = s_re + 1j * s_im
                bound[idx[sel]] = rel_tail
                redo.append(sel[rel_tail > _TAIL_TOL])
        todo = np.concatenate(redo)
        width[todo] *= 2

    with np.errstate(over="ignore"):  # an infinite Gaussian exponent gives 0
        gauss = 0.5 * n * (abs_z[idx] ** lam - abs_e[idx] ** lam) ** 2
    log_peak = (math.log(lam * n) + (lam - 1.0) * np.log(abs_z[idx] * abs_e[idx])
                + _log_poisson((peak + 1.0) / lam - 1.0, mu) - gauss)
    if pot.kind == "hard_edge":
        log_peak = log_peak - np.log(gammainc(peak + 1.0, n))
    out[idx] = np.exp(log_peak) * sums * np.exp(1j * (peak * theta))
    out, bound = _unflatten(shape, out, bound)
    return (out, bound) if return_bound else out


def _flat_pair(z, w):
    """Broadcast shape of ``z`` and ``w`` and both as flat complex arrays.

    Scalars go through the same array arithmetic as array elements, so a
    point gives the same bits whether it comes alone or in an array.
    """
    z, w = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
    return z.shape, z.ravel(), w.ravel()


def _unflatten(shape, values, bound):
    if shape == ():
        return complex(values[0]), float(bound[0])
    return values.reshape(shape), bound.reshape(shape)


def rescaled_kernel(pot: Potential, frame: RescaleFrame, z, w, *,
                    return_bound: bool = False):
    """Kernel in frame coordinates: ``K_n(zeta(z), eta(w)) / zoom^2``.

    ``z`` and ``w`` are scalars or arrays that broadcast, as in
    :func:`kernel_finite_n`, which also explains ``return_bound``.  The
    diagonal ``rescaled_kernel(z, z)`` is the rescaled one-point function
    R_n(z), real and nonnegative.
    """
    shape, z, w = _flat_pair(z, w)
    k, bound = kernel_finite_n(pot, frame.n, frame.to_global(z), frame.to_global(w),
                               return_bound=True)
    k, bound = _unflatten(shape, k / frame.zoom**2, bound)
    return (k, bound) if return_bound else k


def cocycle_fix(n: int, z: complex, w: complex) -> complex:
    """Conjugated boundary cocycle ``exp(-i sqrt(n) Im(z - w))``.

    Multiplying ``rescaled_kernel`` by this unimodular factor makes it
    directly comparable to the limit kernels (which are cocycle-fixed).
    """
    return cmath.exp(-1j * math.sqrt(n) * (z - w).imag)


def bulk_approx_kernel(n: int, frame: RescaleFrame, z: complex, w: complex) -> complex:
    """Rescaled bulk approximation ``K_n^#`` for the Ginibre potential.

    Uses the Hermitian extension ``A(zeta, eta) = zeta conj(eta)`` of
    ``|zeta|^2``, which is exact (quadratic) for Ginibre:
    ``K_n^# = n exp(n A - n Q/2 - n Q/2)``, rescaled by ``1/zoom^2``.
    """
    zeta = frame.to_global(z)
    eta = frame.to_global(w)
    expo = n * (zeta * eta.conjugate() - 0.5 * abs(zeta) ** 2 - 0.5 * abs(eta) ** 2)
    return n * cmath.exp(expo) / frame.zoom**2


def psi_ratio(frame: RescaleFrame, z: complex, w: complex) -> complex:
    """Ratio ``Psi_n = rescaled_kernel / bulk_approx_kernel`` (Ginibre).

    Raises
    ------
    DivisionNearZero
        If the bulk approximation underflows below 1e-300.
    """
    pot = Potential.ginibre()
    denom = bulk_approx_kernel(frame.n, frame, z, w)
    if abs(denom) < 1e-300:
        raise DivisionNearZero(f"bulk approximation underflows at ({z}, {w})")
    return rescaled_kernel(pot, frame, z, w) / denom


def exp_section(n: int, x):
    """Normalized exponential-series section ``s_n(mu) exp(-mu)``.

    With ``mu = n + sqrt(n) x`` and ``s_n`` the degree-(n-1) Taylor section
    of exp, this equals ``P(Poisson(mu) <= n-1)``, the regularized upper
    incomplete gamma ``Q(n, mu)`` (``scipy.special.gammaincc``).  Against
    40-digit mpmath the relative error for |x| <= 3 is below 1e-14 at every
    accepted n (measured at most 2.4e-15 at n = 2^16, 2^19 and 10^6).
    Further below the mean scipy's ``gammaincc`` loses accuracy at large
    shapes: 3.8e-11 absolute at x = -4.5, n = 10^6 (1.8e-13 at n = 2^19).
    Elementwise over an array ``x``; a scalar ``x`` gives a float.
    """
    if not 1 <= n <= 10**6:
        raise ValueError(f"need 1 <= n <= 1e6, got {n}")
    mu = n + math.sqrt(n) * np.asarray(x, dtype=float)
    neg = mu <= 0.0
    out = np.array(gammaincc(n, np.where(neg, 1.0, mu)))
    if np.any(neg):
        # tiny-n corner (|x| <= 4 forces n <= 16), where Q(n, mu) is
        # undefined: direct alternating sum
        m = mu[neg]
        term, acc = np.ones_like(m), np.ones_like(m)
        for j in range(1, n):
            term *= m / j
            acc += term
        out[neg] = acc * np.exp(-m)
    return float(out) if out.ndim == 0 else out

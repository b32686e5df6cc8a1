"""Finite-n correlation kernels for radially symmetric potentials.

Covers the Ginibre potential ``|z|^2``, the power potentials ``|z|^(2 lam)``,
and the hard-edge Ginibre ensemble (potential +inf outside the unit disc),
together with rescaling frames and exponential-series sections.

A kernel value sums only the O(sqrt(n)) terms around its largest one (see
:func:`kernel_finite_n`) and reports a rigorous bound on the rest.  Against
40-digit mpmath, in boundary frames at n = 2^10, 2^16 and 2^20, the measured
error is at most 3.5e-13 relative on the diagonal and 1.1e-13 of
``sqrt(K(zeta, zeta) K(eta, eta))`` off it, both at n = 2^20.  Nearly all of
it is the rounding of ``|zeta|``, ``|eta|`` and ``arg(zeta conj(eta))``,
which the kernel amplifies by about sqrt(n) near the droplet edge and more
outside it.  One row of terms serves the sums capped at ``j < n`` and,
without the cap, the Mittag-Leffler limit kernel and its Cauchy transform.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma, gammainc, gammaincc, gammaln

from .special import SeriesNotConverged, _flat, _shaped

__all__ = [
    "Potential",
    "RescaleFrame",
    "droplet_radius",
    "kernel_finite_n",
    "rescaled_kernel",
    "exp_section",
]

KERNEL_MAX_N = 2**20
SECTION_MAX_N = 10**6


@dataclass(frozen=True)
class Potential:
    """Radially symmetric confining potential.

    ``kind`` is one of ``"ginibre"`` (``Q = |z|^2``), ``"power"``
    (``Q = |z|^(2 lam)``, ``lam >= 1``), or ``"hard_edge"`` (Ginibre
    restricted to the closed unit disc).  Ginibre and the hard edge have
    ``lam = 1``, so every formula of ``Q = |z|^(2 lam)`` serves all three.
    """

    kind: str
    lam: float = 1.0

    def __post_init__(self):
        if self.kind not in ("ginibre", "power", "hard_edge"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "power" and not (math.isfinite(self.lam) and self.lam >= 1.0):
            raise ValueError(f"power potential needs a finite lam >= 1, got {self.lam}")
        if self.kind != "power" and self.lam != 1.0:
            raise ValueError(f"{self.kind} potential has lam = 1, got {self.lam}")

    @classmethod
    def ginibre(cls) -> "Potential":
        return cls("ginibre")

    @classmethod
    def power(cls, lam: float) -> "Potential":
        return cls("power", float(lam))

    @classmethod
    def hard_edge(cls) -> "Potential":
        return cls("hard_edge")

    def delta_q(self, zeta: complex) -> float:
        """Quarter-Laplacian of Q (the density of the equilibrium measure)."""
        try:
            return self.lam**2 * abs(zeta) ** (2.0 * self.lam - 2.0)
        except OverflowError:
            raise OverflowError(f"power potential lam = {self.lam:g}: its density "
                                "lam^2 |zeta|^(2 lam - 2) leaves the float range") from None


def droplet_radius(pot: Potential) -> float:
    """Radius of the circular droplet filled by the eigenvalues."""
    return pot.lam ** (-1.0 / (2.0 * pot.lam))


@dataclass(frozen=True)
class RescaleFrame:
    """Local coordinates ``z = zoom * (zeta - p)`` of ``pot``'s size-``n`` kernel.

    A frame carries its potential and n, and derives ``p`` and ``zoom`` from
    ``kind``: ``"bulk"`` (p = 0) and ``"boundary"`` (p the droplet radius)
    have zoom ``sqrt(n delta_q(p))``, ``"singularity"`` has p = 0 and zoom
    ``n**(1/(2 lam))``, every potential's but the hard edge's; at lam = 1 it
    is the bulk frame, and stores that kind.  The potentials are radial, so
    ``K_n(e^{i a} zeta, e^{i a} eta) = K_n(zeta, eta)``: a frame about ``p
    e^{i a}`` reads the values of the frame about ``p``, and has no angle.
    """

    pot: Potential
    n: int
    kind: str
    p: float = field(init=False)
    zoom: float = field(init=False)

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and self.n >= 1):
            raise ValueError(f"a frame needs an integer n >= 1, got n = {self.n!r}")
        if self.kind not in ("bulk", "boundary", "singularity"):
            raise ValueError(f"unknown frame kind {self.kind!r}")
        pot = self.pot
        if self.kind == "singularity":
            if pot.kind == "hard_edge":
                raise ValueError("singularity frame needs a potential |z|^(2 lam), "
                                 "not the hard edge")
            if pot.lam == 1.0:
                object.__setattr__(self, "kind", "bulk")
        p = droplet_radius(pot) if self.kind == "boundary" else 0.0
        if self.kind == "singularity":
            zoom = self.n ** (1.0 / (2.0 * pot.lam))
        elif (dq := pot.delta_q(p)) > 0.0:
            zoom = math.sqrt(self.n * dq)
        else:
            raise ValueError("bulk frame undefined where the density vanishes")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "zoom", zoom)

    def to_global(self, z):
        return self.p + z / self.zoom

    def to_local(self, zeta):
        return self.zoom * (zeta - self.p)


def _check_n(n, top: int = KERNEL_MAX_N) -> None:
    """Refuse an ``n`` that is not an integer in ``1 .. top`` (the kernel's
    range by default), naming it."""
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"need an integer n, got n = {n!r}")
    if not 1 <= n <= top:
        raise ValueError(f"need 1 <= n <= {top}, got {n}")


def _log_norm(pot: Potential, n: int, j):
    """``log ||zeta^j||^2`` for integer ``j`` (scalar or array) in weight nQ.

    ``Gamma((j+1)/lam) / (lam n^((j+1)/lam))``, which is ``j! / n^(j+1)``
    for Ginibre; the hard edge has ``gamma(j+1, n) / n^(j+1)``.  In log
    space because the values underflow doubles long before j reaches n.
    """
    s = (np.asarray(j, dtype=float) + 1.0) / pot.lam
    out = gammaln(s) - math.log(pot.lam) - s * math.log(n)
    if pot.kind == "hard_edge":
        # s = j+1, and gamma(j+1, n) = j! P(Poisson(n) >= j+1); for j < n
        # scipy evaluates it at or above the mean, where it keeps full accuracy
        out = out + np.log(gammainc(s, n))
    return out


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
    with np.errstate(over="ignore"):  # x / mu in the branch not taken, at tiny mu
        saddle = -_stirlerr(xb) - _bd0(xb, mu) - 0.5 * np.log(2.0 * math.pi * xb)
    return np.where(big, saddle, x * np.log(mu) - mu - gammaln(x + 1.0))


def _poisson(x, mu, g):
    """``mu^x e^-mu / Gamma(x+1)`` to a few rounding units, ``x > -1``, ``g =
    Gamma(min(x, 150) + 1)``: ``pow`` and ``exp`` in range, else ``_log_poisson``."""
    direct = (x < 150.0) & (mu < 690.0) & (x * np.log(mu) < 690.0)
    out = np.empty(x.shape)
    xd, md = x[direct], mu[direct]
    out[direct] = np.power(md, xd) * np.exp(-md) / g[direct]
    out[~direct] = np.exp(_log_poisson(x[~direct], mu[~direct]))
    return out


class _MassTable:
    """``gammainc(j + 1, n)`` over one run of consecutive indices, for the
    hard edge's window ratios.  A block of windows whose indices meet the
    run extends it, evaluating only its new indices; one that does not
    starts a new run.  Blocks go in order of their peaks and a redo round
    only widens windows, so a kernel call evaluates each index its windows
    read about once, and never all of ``[0, n]`` unless its windows do."""

    def __init__(self, n: int):
        self.n, self.lo, self.mass = n, 0, np.zeros(0)

    def ratio(self, j):
        """``gammainc(j + 1, n) / gammainc(j + 2, n)`` for rows ``j`` of
        consecutive indices in ``[0, n - 1]``, rising or falling."""
        ends = j[:, [0, -1]]
        lo, hi, top = int(ends.min()), int(ends.max()) + 2, self.lo + self.mass.size
        if hi < self.lo or lo > top:
            self.lo = top = lo
            self.mass = np.zeros(0)
        if lo < self.lo or hi > top:
            self.mass = np.concatenate([gammainc(np.arange(lo, self.lo) + 1.0, self.n), self.mass,
                                        gammainc(np.arange(top, hi) + 1.0, self.n)])
            self.lo = min(lo, self.lo)
            self.next_ratio = self.mass[:-1] / self.mass[1:]
        return self.next_ratio[j - self.lo]


def _ratio(pot: Potential, n: int, j, mu, masses: _MassTable = None):
    """Term ratio ``|t_(j+1) / t_j|`` for integer arrays ``j`` in ``[0, n-1]``.

    ``mu = n |zeta conj(eta)|^lam``.  Ginibre: ``mu/(j+1)``; power(lam):
    ``mu^(1/lam) Gamma(s) / Gamma(s + 1/lam)`` with ``s = (j+1)/lam``; the
    hard edge multiplies the Ginibre ratio by ``gamma(j+1, n)/gamma(j+2, n)``,
    read from ``masses`` when given (rows of consecutive ``j``), else
    evaluated at each ``j``.
    """
    lam = pot.lam
    if lam == 1.0:
        r = mu / (j + 1.0)
    else:
        h = 1.0 / lam
        s = (j + 1.0) * h
        x0 = np.maximum(s - 1.0, _LOADER_MIN_X)
        # log Gamma(s+h) - log Gamma(s) through Stirling's form, so the ~1e7
        # log-gammas never meet in a difference; at a subnormal mu, mu / x0
        # can round to 0, and the log's -inf gives the ratio's limit 0
        with np.errstate(divide="ignore"):
            big = (h * np.log(mu / x0) - (x0 + h + 0.5) * np.log1p(h / x0) + h
                   - (_stirlerr(x0 + h) - _stirlerr(x0)))
        small = h * np.log(mu) - (gammaln(s + h) - gammaln(s))
        r = np.exp(np.where(s - 1.0 >= _LOADER_MIN_X, big, small))
    if pot.kind == "hard_edge":
        r = r * (gammainc(j + 1.0, n) / gammainc(j + 2.0, n) if masses is None
                 else masses.ratio(j))
    return r


def _peak(pot: Potential, n: int, mu, uncapped: bool = False):
    """Index of the largest term: the first ``j`` whose ratio is below 1, at
    most ``n - 1`` unless ``uncapped``.

    The log terms are concave in ``j``, so the ratio falls with ``j``.  The
    search starts at ``floor(lam mu)``, the peak itself for Ginibre up to
    rounding and near it otherwise, gallops away from it with doubling steps
    until the ratio crosses 1, and bisects the bracket it found.
    """
    top = 1 << 62 if uncapped else n - 1  # uncapped: past every term budget
    with np.errstate(over="ignore"):
        guess = np.minimum(np.floor(pot.lam * mu), top).astype(np.int64)
    falls = (guess >= top) | (_ratio(pot, n, guess, mu) < 1.0)
    # the peak lies in [lo, hi]: down from a falling guess, up from a rising one
    lo, hi = np.where(falls, 0, guess + 1), np.where(falls, guess, top)
    galloping, step = np.ones(mu.shape, dtype=bool), 1
    while np.any(act := lo < hi):
        # a gallop ends where the ratio crosses 1 or past the bracket's end
        probe = np.where(falls, hi - step, lo - 1 + step)
        galloping &= (lo <= probe) & (probe < hi)
        probe = np.where(galloping, probe, (lo + hi) // 2)[act]
        below = _ratio(pot, n, probe, mu[act]) < 1.0
        hi[act] = np.where(below, probe, hi[act])
        lo[act] = np.where(below, lo[act], probe + 1)
        galloping[act] &= below == falls[act]
        step *= 2
    return lo


def _half_width(pot: Potential, n: int, mu, uncapped: bool = False):
    """First window half width to try, in floats: the 8.6 standard deviations
    of the term profile that a 1e-17 tail needs, in multiples of 32 so that
    the points of one grid share a few widths; capped, at most n, the
    longest index range of a size-n kernel (uncapped, :func:`_sum_windows`
    refuses it past the term budget before it becomes an index)."""
    with np.errstate(over="ignore"):  # uncapped at a huge lam: inf, past any budget
        sd = pot.lam * np.sqrt(np.clip(mu, 1.0, 1e18 if uncapped else n / pot.lam))
        width = 32 * np.ceil((8.6 * sd + 24.0) / 32.0)
    return width if uncapped else np.minimum(width, n)


def _terms(pot: Potential, n: int, mu, peak, w: int, uncapped: bool, masses: _MassTable = None):
    """``(t, rho_down, rho_up)``: the terms ``t_(peak+k) / t_peak``, k = -w..w,
    0 outside the index range, and the first ratio past each end, 0 where the
    range ends.  Capped, the range is ``[0, n-1]`` and the terms are ratio
    products away from the peak (hard-edge masses from ``masses``); uncapped,
    it is ``j >= 0`` and, as ratio products carry their rounding along, each
    term is evaluated on its own."""
    if uncapped:
        j = peak[:, None] + np.arange(-w, w + 1)
        lo = max(int(peak.min()) - w, 0)  # Gamma once per index of the block
        xs = (np.arange(lo, int(peak.max()) + w + 1) + 1.0) / pot.lam - 1.0
        at, m = np.maximum(j, lo) - lo, np.broadcast_to(mu[:, None], j.shape)
        t = np.where(j >= 0, _poisson(xs[at], m, gamma(np.minimum(xs, 150.0) + 1.0)[at]), 0.0)
        low = peak - w - 1
        rho_down = np.where(low >= 0, 1.0 / _ratio(pot, n, np.maximum(low, 0), mu), 0.0)
        return t / t[:, w:w + 1], rho_down, _ratio(pot, n, peak + w, mu)
    # ratios only as far as some row of the block stays inside [0, n-1]
    top, bottom = min(w, n - 1 - int(peak.min())), min(w, int(peak.max()))
    j = peak[:, None] + np.arange(-bottom - 1, top + 1)
    r = _ratio(pot, n, np.maximum(np.minimum(j, n - 1), 0), mu[:, None], masses)
    # the sum ends where [0, n-1] does: the ratio up from n-1 is 0, and the
    # inverse ratio down from 0 is 1 / inf = 0
    if int(peak.max()) + top >= n - 1:
        r[j >= n - 1] = 0.0
    if int(peak.min()) <= bottom:
        r[j < 0] = np.inf
    r_up, r_down = r[:, bottom + 1:], 1.0 / r[:, bottom::-1]
    t = np.zeros((peak.size, 2 * w + 1))
    t[:, w] = 1.0
    np.cumprod(r_up[:, :top], axis=1, out=t[:, w + 1:][:, :top])
    np.cumprod(r_down[:, :bottom], axis=1, out=t[:, w - 1::-1][:, :bottom])
    return t, r_down[:, w] if bottom == w else 0.0, r_up[:, w] if top == w else 0.0


def _tail(last, rho):
    """Bound on the terms past an end of a window: the ratios keep falling, so
    they are at most a geometric series in ``rho``, the first ratio past it."""
    with np.errstate(divide="ignore"):
        return np.where(rho < 1.0, last * rho / (1.0 - rho), np.inf)


def _window(t, rho_down, rho_up, theta):
    """``(re, im, bound)`` of ``sum_k t_(peak+k) e^(i k theta) / t_peak`` over a
    row of :func:`_terms`, the bound relative to the kept ``sum |t| / t_peak``."""
    w = t.shape[1] // 2
    t_up, t_down = t[:, w + 1:], t[:, w - 1::-1]
    both = t_up + t_down
    kept = 1.0 + both.sum(axis=1)
    bound = _tail(t_up[:, -1], rho_up) + _tail(t_down[:, -1], rho_down)
    if not theta.any():
        return kept, np.zeros(len(t)), bound / kept
    # t_(peak+k) e^(ik theta) + t_(peak-k) e^(-ik theta), summed over k >= 1
    phase = np.arange(1, w + 1) * theta[:, None]
    re = 1.0 + (both * np.cos(phase)).sum(axis=1)
    im = np.where(theta == 0.0, 0.0, ((t_up - t_down) * np.sin(phase)).sum(axis=1))
    return re, im, bound / kept


_TAIL_TOL = 1e-17  # relative mass a window may leave out
_BLOCK = 1 << 14  # window entries handled at once
WINDOW_MAX_TERMS = 1 << 16  # terms a window without the cap j < n may hold


def _sum_windows(pot: Potential, n: int, mu, reduce, uncapped: bool = False):
    """``(peak, values, bound)``: ``reduce(sel, peak, *_terms(...))`` gives the
    values of rows ``sel`` (blocks of ~2^14 entries sorted by peak) and a
    bound on what the window leaves out; rows above 1e-17 go again at twice
    the width.  ``uncapped`` lifts the cap j < n, refusing windows of more
    than ``WINDOW_MAX_TERMS`` terms."""
    width = _half_width(pot, n, mu, uncapped)
    masses = _MassTable(n) if pot.kind == "hard_edge" else None
    values, bound = np.zeros(mu.size, dtype=complex), np.zeros(mu.size)
    peak, todo = None, np.arange(mu.size)
    while peak is None or todo.size:
        need = 2 * np.max(width[todo], initial=0) + 1
        if uncapped and need > WINDOW_MAX_TERMS:
            raise SeriesNotConverged(f"a term window needs {need:g} terms "
                                     f"(budget {WINDOW_MAX_TERMS})")
        if peak is None:
            peak = _peak(pot, n, mu, uncapped)
        redo = [todo[:0]]
        for w in np.unique(width[todo]):
            group = todo[width[todo] == w]
            group = group[np.argsort(peak[group], kind="stable")]
            w, b = int(w), 0
            while b < group.size:
                # a row's entries: its window, cut where j < n ends above the
                # block's lowest peak
                top = w if uncapped else min(w, n - 1 - int(peak[group[b]]))
                sel = group[b:b + max(1, _BLOCK // (w + top + 2))]
                b += sel.size
                values[sel], bound[sel] = reduce(
                    sel, peak[sel], *_terms(pot, n, mu[sel], peak[sel], w, uncapped, masses))
                redo.append(sel[bound[sel] > _TAIL_TOL])
        todo = np.concatenate(redo)
        width[todo] *= 2
    return peak, values, bound


def _kernel(pot: Potential, n: int, zeta, eta, uncapped: bool = False, square: bool = False):
    """``(K, bound)`` of :func:`kernel_finite_n` at flat arrays, over ``j < n``
    or, ``uncapped``, every ``j >= 0``; ``square`` sums the squares."""
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
        log_t0 = -_log_norm(pot, n, 0) - 0.5 * n * q
        out[at_zero] = np.exp(2.0 * log_t0 if square else log_t0)

    idx = np.flatnonzero(live & (mu > 0.0))
    mu = mu[idx]
    # arg(zeta conj(eta)); zero on the diagonal, which the rounded product may miss
    theta = np.where(zeta[idx] == eta[idx], 0.0, np.angle(zeta[idx] * eta[idx].conjugate()))

    def reduce(sel, peak, t, rho_down, rho_up):
        if square:  # only without the cap (Mittag-Leffler)
            # past the window every term is below 1, so its square is too
            return (t * t).sum(axis=1), _tail(t[:, -1], rho_up) + _tail(t[:, 0], rho_down)
        re, im, rel_tail = _window(t, rho_down, rho_up, theta[sel])
        return re + 1j * im, rel_tail

    peak, sums, bound[idx] = _sum_windows(pot, n, mu, reduce, uncapped)
    with np.errstate(over="ignore"):  # an infinite Gaussian exponent gives 0
        gauss = 0.5 * n * (abs_z[idx] ** lam - abs_e[idx] ** lam) ** 2
    a, x = abs_z[idx] * abs_e[idx], (peak + 1.0) / lam - 1.0
    # below Loader's range the terms of the saddle form cancel where a n^(1/lam) is small
    log_peak = np.where(x >= _LOADER_MIN_X,
                        math.log(lam * n) + (lam - 1.0) * np.log(a) + _log_poisson(x, mu),
                        math.log(lam) + math.log(n) / lam + peak * np.log(a * n ** (1.0 / lam))
                        - mu - gammaln(x + 1.0)) - gauss
    if pot.kind == "hard_edge":
        log_peak = log_peak - np.log(gammainc(peak + 1.0, n))
    if square:
        out[idx] = np.exp(2.0 * log_peak) * sums
    else:
        out[idx] = np.exp(log_peak) * sums * np.exp(1j * (peak * theta))
    return out, bound


def kernel_finite_n(pot: Potential, n: int, zeta, eta, *, return_bound: bool = False):
    """Finite-n correlation kernel ``K_n(zeta, eta)`` (weighted, unrescaled).

    ``K_n = sum_j (zeta conj(eta))^j / ||zeta^j||^2 * exp(-n(Q(zeta)+Q(eta))/2)``
    for points ``zeta``, ``eta`` (scalars or arrays that broadcast; scalars
    give a complex scalar), summed over the O(sqrt(n)) terms around the
    largest (see ``_peak``): C. Loader's saddle-point log density times the
    exact ``exp(-n(|zeta|^lam - |eta|^lam)^2/2)`` at the peak, exact term
    ratios (``_ratio``) outwards until the geometric bound on each tail,
    relative to the kept mass, is below 1e-17.  Hard-edge kernels return 0
    once either argument leaves the closed unit disc.  Diagonal values are
    real and nonnegative.  With ``return_bound=True`` the result is ``(K,
    bound)``, ``bound`` the mass of the terms left out relative to the kept
    ``sum |t_j|`` (itself at most ``sqrt(K(zeta, zeta) K(eta, eta))``).
    """
    _check_n(n)
    shape, (zeta, eta) = _flat(zeta, eta)
    out, bound = (_shaped(a, shape) for a in _kernel(pot, n, zeta, eta))
    return (out, bound) if return_bound else out


def _ml_kernel(lam: float, z, w, square: bool = False):
    """``(K, bound)`` of the Mittag-Leffler kernel ``M_lam(z conj w) e^{-(|z|^(2
    lam) + |w|^(2 lam))/2}`` at flat arrays: :func:`_kernel` for power(lam) at
    n = 1 without the cap, whose terms the singularity frame keeps for every
    n.  ``WINDOW_MAX_TERMS`` refuses ``|z w|^lam`` past ``(3800 / lam)^2``."""
    return _kernel(Potential.power(lam), 1, z, w, True, square)


def _ml_cauchy(lam: float, r):
    """``(c, bound)`` at flat ``r >= 0`` of the Mittag-Leffler ``C(z) = e^{-i arg
    z} c(|z|)``: with ``s_l`` the terms of ``R = K(r, r)`` and ``P_j``, ``Q_j``
    the incomplete gammas at ``((j+1)/lam, r^(2 lam))``, ``c = sum_j [P_j
    sum_{l<=j} s_l - Q_j sum_{l>j} s_l] / (r R)`` over the window of R, and
    ``bound`` covers the tails its partial sums miss and the rest."""
    # c = kappa r + O(r^3), |kappa| < 1.03: where r^(2 lam) underflows, c = 0 within 2r
    c, bound = np.zeros(r.shape), 2.0 * r
    idx = np.flatnonzero((r * r) ** lam > 0.0)
    rr = r[idx]
    mu = (rr * rr) ** lam

    def reduce(sel, peak, s, rho_down, rho_up):
        w = s.shape[1] // 2
        # shape 0 (P = 1, Q = 0) where j < 0, and s = 0 there
        shape, x = np.maximum(peak[:, None] + np.arange(1 - w, w + 2), 0) / lam, mu[sel]
        # P_j below_j and Q_j above_j nearly cancel at the peak: the running
        # sums are kept in extended precision
        below = np.cumsum(s, axis=1, dtype=np.longdouble)
        above = np.zeros(s.shape, dtype=np.longdouble)
        above[:, :-1] = np.cumsum(s[:, :0:-1], axis=1, dtype=np.longdouble)[:, ::-1]
        d = gammainc(shape, x[:, None]) * below - gammaincc(shape, x[:, None]) * above
        value = (d.sum(axis=1) / (rr[sel] * below[:, -1])).astype(float)
        kept, r2 = s.sum(axis=1), rr[sel] ** 2
        tail_d, tail_u = _tail(s[:, 0], rho_down), _tail(s[:, -1], rho_up)
        lo, hi = np.maximum((peak - w) / lam - 1.0, 0.0), (peak + w + 2.0) / lam
        with np.errstate(divide="ignore", invalid="ignore"):
            # past the window Q_j <= s_j h below it and P_j <= s_j g above it
            h = np.where(x > lo, r2 / (lam * (x - lo)), np.inf)
            g = np.where(hi + 1.0 > x, r2 * (hi + 1.0) / (lam * hi * (hi + 1.0 - x)), np.inf)
            whole = kept + tail_d + tail_u
            lost = sum(np.where(t > 0, t * (2 * w + 1 + k / (1 - q) + whole * f), 0)
                       for t, q, k, f in ((tail_d, rho_down, 1, h), (tail_u, rho_up, rho_up, g)))
            err = lost / (rr[sel] * kept) + np.abs(value) * (tail_d + tail_u) / kept
        return value, np.where(np.isfinite(tail_d + tail_u), err, np.inf)

    _, values, bound[idx] = _sum_windows(Potential.power(lam), 1, mu, reduce, True)
    c[idx] = values.real
    return c, bound


def rescaled_kernel(frame: RescaleFrame, z, w, *, return_bound: bool = False):
    """Kernel of ``frame``'s potential and n in its coordinates:
    ``K_n(zeta(z), eta(w)) / zoom^2``.

    ``z`` and ``w`` are scalars or arrays that broadcast, as in
    :func:`kernel_finite_n`, which also explains ``return_bound``.  The
    diagonal ``rescaled_kernel(z, z)`` is the rescaled one-point function
    R_n(z), real and nonnegative.
    """
    shape, (z, w) = _flat(z, w)
    k, bound = kernel_finite_n(frame.pot, frame.n, frame.to_global(z), frame.to_global(w),
                               return_bound=True)
    k, bound = _shaped(k / frame.zoom**2, shape), _shaped(bound, shape)
    return (k, bound) if return_bound else k


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
    _check_n(n, SECTION_MAX_N)
    shape, (x,) = _flat(x, dtype=float)
    mu = n + math.sqrt(n) * x
    neg = mu <= 0.0
    out = gammaincc(n, np.where(neg, 1.0, mu))
    if np.any(neg):
        # tiny-n corner (|x| <= 4 forces n <= 16), where Q(n, mu) is
        # undefined: direct alternating sum
        m = mu[neg]
        term, acc = np.ones_like(m), np.ones_like(m)
        for j in range(1, n):
            term *= m / j
            acc += term
        out[neg] = acc * np.exp(-m)
    return _shaped(out, shape)

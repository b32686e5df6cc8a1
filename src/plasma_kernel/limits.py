"""Limiting kernels and their verification machinery.

Implements the four limit kernels (bulk, free boundary, hard edge,
Mittag-Leffler), the Berezin and conditional-intensity kernels, the Cauchy
transform, Ward-equation residuals, the mass-one equations (plain,
polarized, and series forms), the 1/8-formula, tail bounds, Gram
positivity, and the inequality suite.

Quadrature design
-----------------
Every translation-invariant profile is ``Phi = gamma * m``, the standard
Gaussian ``gamma`` convolved with a density m on the real line: ``m = level
1_E`` for the bulk (level 1, E = R), the free boundary (level 1) and the
constant profile (E = R), and ``m = 1_{t<0} / F(t)`` at the hard edge.  The
interval profile is the one place that sums over the pieces of E: ``Phi(v)
= level sum (F(v - hi) - F(v - lo))``, with ``special.plasma_F_scaled`` for
kernel values and ``plasma_F`` on the diagonal; an infinite end contributes
F's limit and calls nothing.  Then ``|K(z, w)|^2`` is a double integral over
m(t) m(s) whose only dependence on ``Y = Im(z - w)`` is the phase
``exp(iY(t - s))``, so the integral over Y is exact in Fourier space: it
gives ``2 pi delta(t - s)`` against 1 (mass-one and the reproducing
integral) and ``2 pi sgn(u) exp(-|u| |t - s|)
1[u (t - s) > 0]`` against ``1/(u + iY)``, ``u = Re(z - w)`` (Cauchy
transform).  In the Cauchy transform the integral over u is then Gaussian
and closes as well.  What is left is smooth, Gaussian-tailed and free of any
singularity: a Gauss-Legendre rule in tau and in ``Re t`` for the
reproducing integral (:func:`_ti_reproducing`), and one in s and in t < s
for the Cauchy transform (:func:`_ti_cauchy_numerator`).  Each runs over
one window of half-width ``_CUT`` per interval of the support of m, made of
two panels of ``round(32 n_radial / 96)`` nodes that meet at the peak, so
node-doubling configurations refine every window.  C reads ``Re z`` only,
so it is real and y-invariant by construction.

The Mittag-Leffler kernels are invariant under a joint rotation,
``B(z e^{it}, w e^{it}) = B(z, w)``, so the mass-one integral is a function
of ``|z|`` and ``C(z) = e^{-i arg z} c(|z|)`` with c real.  At a real r,
``|K(r, rho e^{i phi})|^2`` is a Fourier series in phi, so the angular
integrals are exact: incomplete gammas for c (``finite_n._ml_cauchy``), and
by Parseval a radial Gauss rule for mass-one (:func:`_ml_mass`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .finite_n import _ml_cauchy, _ml_kernel
from .special import (
    _flat,
    _leggauss,
    _shaped,
    gauss_gamma,
    hard_edge_H,
    hard_edge_H_scaled,
    hermite_scaled,
    mittag_leffler_kernel_scaled,
    plasma_F,
    plasma_F_scaled,
)

__all__ = [
    "ZeroIntensity",
    "NonHermitianInput",
    "LimitKernelSpec",
    "QuadratureConfig",
    "limit_kernel",
    "one_point",
    "berezin",
    "conditional_intensity",
    "cauchy_transform",
    "laplacian_log_R",
    "ward_point_residual",
    "ward_residual",
    "mass_one_residual",
    "polarized_mass_one_residual",
    "mass_one_series_residual",
    "hermite_identity_residual",
    "telescoping_sum",
    "eighth_formula",
    "tail_bounds_report",
    "gram_min_eig",
    "inequality_suite",
]

LOG2 = math.log(2.0)


class ZeroIntensity(Exception):
    """A Berezin quantity was requested where the intensity vanishes."""


class NonHermitianInput(Exception):
    """A Gram matrix failed the Hermitian-symmetry precondition."""


# --------------------------------------------------------------------------
# kernel specifications
# --------------------------------------------------------------------------

_HALF_LINE = ((-math.inf, 0.0),)
_FULL_LINE = ((-math.inf, math.inf),)


@dataclass(frozen=True)
class LimitKernelSpec:
    """Which limiting kernel to evaluate; the constructor refuses any other.

    ``kind`` is one of ``"bulk"``, ``"free_boundary"`` (with a tuple of
    non-empty real intervals that do not overlap, whose indicator is
    Gaussian-smoothed; they may touch, and keep the order given), ``"hard_edge"``,
    ``"mittag_leffler"`` (with a finite ``lam >= 1``), or ``"constant"``
    (profile identically a finite ``level > 0`` — a deliberate counterexample).
    """

    kind: str
    intervals: tuple = _HALF_LINE
    lam: float = 1.0
    level: float = 1.0

    def __post_init__(self):
        if self.kind not in ("bulk", "free_boundary", "hard_edge", "mittag_leffler", "constant"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not self.intervals:
            raise ValueError("need at least one interval")
        # the kernel's m is the indicator of the union, which each integral
        # sums piece by piece: so the pieces may not overlap
        ordered = sorted(self.intervals)
        for k, (lo, hi) in enumerate(ordered):
            if not lo < hi:
                raise ValueError(f"interval ({lo}, {hi}) is empty")
            if k and lo < ordered[k - 1][1]:
                raise ValueError(f"intervals {ordered[k - 1]} and {(lo, hi)} overlap")
        if not (math.isfinite(self.lam) and self.lam >= 1.0):
            raise ValueError(f"need a finite lam >= 1, got {self.lam}")
        # level <= 0 is no intensity: every Berezin quantity would divide by it
        if not (math.isfinite(self.level) and self.level > 0.0):
            raise ValueError(f"need a positive finite level, got {self.level}")
        if self.kind != "constant" and self.level != 1.0:
            raise ValueError(f"a {self.kind} kernel has level 1, got {self.level}")

    @classmethod
    def ginibre_bulk(cls) -> "LimitKernelSpec":
        return cls("bulk", intervals=_FULL_LINE)

    @classmethod
    def free_boundary(cls, intervals=_HALF_LINE) -> "LimitKernelSpec":
        return cls("free_boundary", tuple((float(lo), float(hi)) for lo, hi in intervals))

    @classmethod
    def hard_edge(cls) -> "LimitKernelSpec":
        return cls("hard_edge")

    @classmethod
    def mittag_leffler(cls, lam: float) -> "LimitKernelSpec":
        return cls("mittag_leffler", lam=float(lam))

    @classmethod
    def constant_profile(cls, level: float = 0.5) -> "LimitKernelSpec":
        return cls("constant", level=float(level))

    @classmethod
    def of_frame(cls, pot, frame) -> "LimitKernelSpec":
        """The limit of ``pot``'s rescaled kernels in ``frame``: the free boundary
        or hard edge at ``p > 0``, Mittag-Leffler of ``pot.lam`` (bulk at 1) at 0."""
        if frame.p == 0.0:
            return cls.mittag_leffler(pot.lam)
        return cls.hard_edge() if pot.kind == "hard_edge" else cls.free_boundary()

    @property
    def translation_invariant(self) -> bool:
        return self.kind != "mittag_leffler"


QUAD_MAX_N_RADIAL = 768


@dataclass(frozen=True)
class QuadratureConfig:
    """Node budget for the plane integrals.

    The translation-invariant kernels take ``round(32 n_radial / 96)``
    Gauss-Legendre nodes per panel, two panels per window, and nothing else
    from here: their windows are fixed by the Gaussian tail bound next to
    ``_CUT``.  The Mittag-Leffler mass-one rule has ``n_radial`` polished
    nodes in ``|w|`` where ``||w|^lam - |z|^lam| <= r_max``; outside, its
    density has a factor ``exp(-(|w|^lam - |z|^lam)^2) < e^-64``.
    ``n_radial`` is at most ``QUAD_MAX_N_RADIAL``: there the reduced rule
    of one point, two panels of 256 nodes in each of its two variables,
    fills one ``_BLOCK`` of 2^18 entries, and a block never splits a point.
    """

    r_max: float = 8.0
    n_radial: int = 96

    def __post_init__(self):
        if not (math.isfinite(self.r_max) and self.r_max > 0.0):
            raise ValueError(f"quad r_max must be finite and positive, got {self.r_max}")
        if self.n_radial < 1:
            raise ValueError(f"quad n_radial must be at least 1, got {self.n_radial}")
        if self.n_radial > QUAD_MAX_N_RADIAL:
            raise ValueError(f"quad n_radial must be at most {QUAD_MAX_N_RADIAL}, "
                             f"got {self.n_radial}")

    def doubled(self) -> "QuadratureConfig":
        return QuadratureConfig(self.r_max, 2 * self.n_radial)


# --------------------------------------------------------------------------
# translation-invariant boundary profiles
# --------------------------------------------------------------------------


class _IntervalProfile:
    """Boundary profile ``Phi = level * gamma * 1_E``, E the union of
    ``intervals``: scaled values, diagonal derivatives and the density m,
    elementwise.  m is ``level`` on each of ``pieces`` and 0 off them; the
    kernel lives on ``Re z < re_max``."""

    re_max = math.inf

    def __init__(self, intervals, level=1.0):
        self.pieces, self.level = intervals, level

    def _sum(self, f, v):
        """``f(v - hi) - f(v - lo)`` summed piece by piece, f being F or its
        scaled form: an infinite ``hi`` gives f's limit ``exp(-Im(v)^2 / 2)``
        (1 on the real line, where ``diag`` takes F) and an infinite ``lo``
        nothing."""
        total = 0
        for lo, hi in self.pieces:
            upper = np.exp(-0.5 * np.imag(v) ** 2).astype(complex) if math.isinf(hi) else f(v - hi)
            total = total + (upper if math.isinf(lo) else upper - f(v - lo))
        return total

    def scaled(self, v):  # Phi(v) exp(-Im(v)^2 / 2), complex array v
        return self.level * self._sum(plasma_F_scaled, v)

    def m(self, t):  # real t on the pieces
        return np.full(np.shape(t), self.level)

    def diag(self, s, deriv=0):
        """``Phi`` or its ``deriv``-th derivative at real s."""
        if not deriv:
            return self.level * np.real(self._sum(plasma_F, s))
        # d/ds F(s-c) chains: F' = -gamma, F'' (v) = v gamma(v)
        total = 0.0
        for lo, hi in self.pieces:
            for c, sign in ((hi, 1.0), (lo, -1.0)):
                if math.isinf(c):
                    continue
                g = np.real(gauss_gamma(s - c))
                total += sign * (-g if deriv == 1 else (s - c) * g)
        return self.level * total


class _HardEdgeProfile:
    """Hard-edge profile ``Phi = gamma * (1_{t<0} / F) = H``, with the
    methods of :class:`_IntervalProfile`."""

    pieces = _HALF_LINE
    re_max = 0.0

    def scaled(self, v):
        return hard_edge_H_scaled(v)

    def m(self, t):  # 1/F(t), between 1 and 2 on t <= 0
        return 1.0 / ndtr(-t)

    def diag(self, s, deriv=0):
        return np.real(hard_edge_H(s, deriv=deriv))


def _profile_for(spec: LimitKernelSpec):
    if spec.kind == "free_boundary":
        return _IntervalProfile(spec.intervals)
    if spec.kind == "hard_edge":
        return _HardEdgeProfile()
    return _IntervalProfile(_FULL_LINE, spec.level)  # bulk (level 1) and constant


# --------------------------------------------------------------------------
# kernel values
# --------------------------------------------------------------------------


def _distinct(values):
    """``(distinct, at)`` with ``distinct[at] == values`` for a flat float
    array, by hashing: ``np.unique`` would sort, and the first sort of a
    process maps about 0.3 MB of numpy's sort kernels into a command that
    sorts nothing else (``sample``)."""
    keys = values.tolist()
    slot = {v: k for k, v in enumerate(dict.fromkeys(keys))}
    return (np.fromiter(slot, float, len(slot)),
            np.fromiter(map(slot.__getitem__, keys), np.intp, len(keys)))


def _intensity(spec: LimitKernelSpec, z):
    """``one_point(spec, z)``, refusing points where the intensity vanishes."""
    r = one_point(spec, z)
    zero = np.asarray(r) < 1e-300
    if np.any(zero):
        bad = complex(np.ravel(z)[np.argmax(zero)])
        raise ZeroIntensity(f"one-point function vanishes at {bad}")
    return r


def limit_kernel(spec: LimitKernelSpec, z, w):
    """Limiting correlation kernel K(z, w), elementwise over broadcast z, w.

    Translation-invariant kernels are evaluated in the overflow-free form
    ``exp(-(x_z-x_w)^2/2) exp(i Im(z conj w)) PhiScaled(z + conj w)``, and
    Mittag-Leffler kernels with the Gaussian inside (closed forms for lam in
    {1, 2}, else ``finite_n._ml_kernel``).  The hard-edge kernel is 0
    wherever ``Re z >= 0`` or ``Re w >= 0``.
    """
    shape, (z, w) = _flat(z, w)
    if spec.kind == "mittag_leffler":
        lam = spec.lam
        if lam not in (1.0, 2.0):
            return _shaped(_ml_kernel(lam, z, w)[0], shape)
        log_gauss = -0.5 * (np.abs(z) ** (2 * lam) + np.abs(w) ** (2 * lam))
        return _shaped(mittag_leffler_kernel_scaled(lam, z * np.conj(w), log_gauss), shape)
    out = np.zeros(z.shape, dtype=complex)
    keep = (z.real < 0.0) & (w.real < 0.0) if spec.kind == "hard_edge" else slice(None)
    z, w = z[keep], w[keep]
    mag = np.exp(-0.5 * (z.real - w.real) ** 2)
    phase = z.imag * w.real - z.real * w.imag  # Im(z conj w)
    out[keep] = mag * np.exp(1j * phase) * _profile_for(spec).scaled(z + np.conj(w))
    return _shaped(out, shape)


def one_point(spec: LimitKernelSpec, z):
    """One-point function R(z) = K(z, z), real and nonnegative, elementwise.

    Each distinct value of R is evaluated once: per distinct ``Re z`` for the
    translation-invariant kernels, per distinct ``|z|`` for Mittag-Leffler
    ones.  The hard-edge intensity is 0 wherever ``Re z >= 0``.
    """
    shape, (z,) = _flat(z)
    if spec.kind == "mittag_leffler":
        # M_lam(r^2) e^(-r^(2 lam)) with the growth cancelled exactly: for
        # lam = 2 this is (2/sqrt(pi)) e^(-r^4) + 2 r^2 erfc(-r^2)
        lam = spec.lam
        r, at = _distinct(np.abs(z))  # R is radial
        if lam in (1.0, 2.0):
            r2 = r**2
            out = np.real(mittag_leffler_kernel_scaled(lam, r2, -(r2**lam)))[at]
        else:
            out = np.real(_ml_kernel(lam, r, r)[0])[at]
    else:
        out = np.zeros(z.shape)
        keep = z.real < 0.0 if spec.kind == "hard_edge" else slice(None)
        s, at = _distinct(2.0 * z.real[keep])  # R depends on Re z
        out[keep] = _profile_for(spec).diag(s)[at]
    return _shaped(out, shape)


def berezin(spec: LimitKernelSpec, z, w):
    """Berezin kernel B(z, w) = |K(z, w)|^2 / K(z, z), elementwise.

    Raises
    ------
    ZeroIntensity
        If the intensity vanishes at a conditioning point z; the message
        names the first such point.
    """
    shape, (z, w) = _flat(z, w)
    r = _intensity(spec, z)
    return _shaped(np.abs(limit_kernel(spec, z, w)) ** 2 / r, shape)


def conditional_intensity(spec: LimitKernelSpec, a, z):
    """Intensity at z after conditioning a particle at a: R(z) - B(a, z)."""
    return one_point(spec, z) - berezin(spec, a, z)


# --------------------------------------------------------------------------
# plane integrals of the translation-invariant kernels: transverse reduction
# --------------------------------------------------------------------------

# Half-width of every integration window, in the units where each Gaussian
# factor reads exp(-q^2/2).  Tail bound: with 0 <= m <= M (M = 1 for the
# intervals, 2 for the hard edge, the level for the constant profile), phi
# and Phi the standard normal density and CDF and Psi(q) = q Phi(q) + phi(q),
# the windows leave out at most
#   of R C, over s:   M^2 int_{|q|>L} (Phi(q) Phi(-q) + phi(q) Psi(q)) dq,
#           over t:   M^2 (2 Psi(-L) + phi(0) Phi(-L)),
#   of the reproducing integral, over tau and over Re t:  2 M^2 Phi(-L) each.
# Every neglected s has |s - c| > L, and every neglected t lies below
# min(s, c) - L.  At L = 10 and M = 2 the sum is below 4e-22
# (tests/test_limits_quadrature.py).
_CUT = 10.0
_BLOCK = 1 << 18  # points x rule nodes per temporary, 2 MB of float64


def _gauss(q):
    return np.exp(-0.5 * q * q) / math.sqrt(2.0 * math.pi)


def _panel_nodes(quad: QuadratureConfig) -> int:
    return max(4, round(32 * quad.n_radial / 96))


def _window(lo, peak, hi, n):
    """Gauss-Legendre rule on ``[lo, hi]`` for arrays of bounds: two panels
    of ``n`` nodes that meet at ``peak`` (clipped into the window).

    Returns nodes and weights with a trailing axis of length ``2n``; where
    ``hi <= lo`` the weights are 0.
    """
    x, w = _leggauss(n, polish=True)
    mid = np.minimum(np.maximum(peak, lo), hi)
    nodes, weights = [], []
    for a, b in ((lo, mid), (mid, hi)):
        half = 0.5 * np.maximum(b - a, 0.0)[..., None]
        nodes.append(0.5 * (a + b)[..., None] + half * x)
        weights.append(half * w)
    return np.concatenate(nodes, axis=-1), np.concatenate(weights, axis=-1)


def _blocks(n_points, nodes_per_point):
    step = max(1, _BLOCK // nodes_per_point)
    return (slice(k, k + step) for k in range(0, n_points, step))


def _ti_cauchy_numerator(profile, x, quad: QuadratureConfig):
    """``N = R(x) C(x)`` and ``dN/dc`` for the translation-invariant kernels,
    flat real ``x``.

    With ``c = 2x``, ``phi``/``Phi`` the standard normal density/CDF and
    ``d = profile.re_max``,

        N = iint_{t<s} m(t) m(s) [phi(t-c) Phi(c-s)
                                  - phi(s-c) (Phi(t-c) - Phi(t-2d))] dt ds.

    The s-window of each piece of the support is centred on its point
    nearest to c, where the integrand peaks; the t-rule runs up to s.  Only
    ``phi(.-c)`` and ``Phi(.-c)`` depend on c, and the bounds do not, so
    ``dN/dc`` is the integral of

        m(t) m(s) [(t-c) phi(t-c) Phi(c-s) + 2 phi(t-c) phi(s-c)
                   - (s-c) phi(s-c) (Phi(t-c) - Phi(t-2d))]

    on the same nodes.
    """
    n = _panel_nodes(quad)
    out, d_out = np.empty(x.shape), np.empty(x.shape)
    for blk in _blocks(x.size, (2 * n) ** 2):
        c = 2.0 * x[blk]
        cs, ct = c[:, None], c[:, None, None]
        total = d_total = 0.0
        for lo_s, hi_s in profile.pieces:
            peak = np.clip(c, lo_s, hi_s)
            s, ws = _window(np.maximum(lo_s, peak - _CUT), peak, np.minimum(hi_s, peak + _CUT), n)
            # integrals over t < s against phi(t-c), (t-c) phi(t-c) and the Phi's
            a = da = b = 0.0
            for lo_t, hi_t in profile.pieces:
                top = np.minimum(hi_t, s)
                t, wt = _window(np.maximum(lo_t, np.minimum(cs, top) - _CUT), cs, top, n)
                mt = profile.m(t) * wt
                gt = _gauss(t - ct)
                a = a + np.sum(mt * gt, axis=-1)
                da = da + np.sum(mt * (t - ct) * gt, axis=-1)
                b = b + np.sum(mt * (ndtr(t - ct) - ndtr(t - 2.0 * profile.re_max)), axis=-1)
            ms, cdf, gs = ws * profile.m(s), ndtr(cs - s), _gauss(s - cs)
            total = total + np.sum(ms * (cdf * a - gs * b), axis=-1)
            d_total = d_total + np.sum(ms * (cdf * da + 2.0 * gs * a - (s - cs) * gs * b),
                                       axis=-1)
        out[blk], d_out[blk] = total, d_total
    return out, d_out


def _ti_reproducing(profile, z, w, quad: QuadratureConfig):
    """``integral K(t, z) K(w, t) dA(t)`` elementwise over flat ``z``, ``w``.

    With ``c = Re z + Re w`` and ``d = profile.re_max`` this is

        (1/pi) exp(-(Re w - Re z)^2/2 - i (Im w Re w - Im z Re z))
          int dtau m(tau)^2 exp(-(tau - c)^2/2 + i (Im w - Im z) tau)
              int_{a<d} exp(-(2a - tau)^2/2) da,

    where ``a = Re t``; the tau-windows are centred as in
    :func:`_ti_cauchy_numerator`.  It is 0 where z or w lies outside the
    domain ``Re < d``.
    """
    n = _panel_nodes(quad)
    out = np.empty(z.shape, dtype=complex)
    for blk in _blocks(z.size, (2 * n) ** 2):
        zb, wb = z[blk], w[blk]
        c = zb.real + wb.real
        dy = (wb.imag - zb.imag)[:, None]
        total = 0.0
        for lo, hi in profile.pieces:
            peak = np.clip(c, lo, hi)
            tau, wt = _window(np.maximum(lo, peak - _CUT), peak, np.minimum(hi, peak + _CUT), n)
            a, wa = _window(0.5 * (tau - _CUT), 0.5 * tau,
                            np.minimum(profile.re_max, 0.5 * (tau + _CUT)), n)
            re_t = np.sum(wa * np.exp(-0.5 * (2.0 * a - tau[..., None]) ** 2), axis=-1)
            dens = profile.m(tau) ** 2 * np.exp(-0.5 * (tau - c[:, None]) ** 2) * re_t
            total = total + np.sum(wt * dens * np.exp(1j * dy * tau), axis=-1)
        phase = wb.imag * wb.real - zb.imag * zb.real
        inside = (zb.real < profile.re_max) & (wb.real < profile.re_max)
        out[blk] = inside * np.exp(-0.5 * (wb.real - zb.real) ** 2 - 1j * phase) * total / math.pi
    return out


def _ml_mass(spec: LimitKernelSpec, r, quad: QuadratureConfig):
    """``integral B(r, w) dA(w)`` of a Mittag-Leffler kernel at flat radii r:
    by Parseval the mean of ``|K(r, rho e^{i phi})|^2`` over phi is the sum of
    the squared terms ``a_l^2 (r rho)^(2l)`` times the weight, so this is
    ``(1/R(r)) int 2 rho mean(rho) drho`` on the rule of
    :class:`QuadratureConfig`, 1 only if the ``a_l`` match the weight."""
    x, wx = _leggauss(quad.n_radial, polish=True)
    lo, hi = np.maximum(r**spec.lam + np.c_[[-1.0, 1.0]] * quad.r_max, 0.0) ** (1 / spec.lam)
    half = 0.5 * (hi - lo)[:, None]
    rho = (lo[:, None] + half * (x + 1.0)).ravel()
    mean = _ml_kernel(spec.lam, np.repeat(r, x.size), rho, square=True)[0].real * rho
    return np.sum(2.0 * mean.reshape(half.size, -1) * (half * wx), axis=1) / _intensity(spec, r)


# --------------------------------------------------------------------------
# integral operations
# --------------------------------------------------------------------------

_DEFAULT_QUAD = QuadratureConfig()


def cauchy_transform(spec: LimitKernelSpec, z, quad: QuadratureConfig = _DEFAULT_QUAD):
    """Cauchy transform ``C(z) = integral B(z,w)/(z-w) dA(w)``, elementwise.

    Translation-invariant kernels take the reduced rule of
    :func:`_ti_cauchy_numerator` for every point in one call; C depends on
    ``Re z`` alone there and is real.  Mittag-Leffler kernels have ``C(z) =
    e^{-i arg z} c(|z|)`` with c real from the exact angular reduction of
    ``finite_n._ml_cauchy``, which takes no ``quad``.

    Raises
    ------
    ZeroIntensity
        Where the Berezin kernel is undefined.
    """
    shape, (z,) = _flat(z)
    if spec.kind == "mittag_leffler":
        out = np.exp(-1j * np.angle(z)) * _ml_cauchy(spec.lam, np.abs(z))[0]
    else:
        r = _intensity(spec, z)
        out = (_ti_cauchy_numerator(_profile_for(spec), z.real, quad)[0] / r).astype(complex)
    return _shaped(out, shape)


def mass_one_residual(spec: LimitKernelSpec, z, quad: QuadratureConfig = _DEFAULT_QUAD):
    """``integral B(z, w) dA(w) - 1`` (mass-one equation residual), elementwise.

    Mittag-Leffler kernels take the radial rule of :func:`_ml_mass`.
    """
    shape, (z,) = _flat(z)
    if spec.kind == "mittag_leffler":
        mass = _ml_mass(spec, np.abs(z), quad)
    else:
        mass = _ti_reproducing(_profile_for(spec), z, z, quad).real / _intensity(spec, z)
    return _shaped(mass - 1.0, shape)


def polarized_mass_one_residual(spec: LimitKernelSpec, z, w,
                                quad: QuadratureConfig = _DEFAULT_QUAD):
    """Reproducing-property residual ``integral K(t,z)K(w,t)dA(t) - K(w,z)``,
    elementwise over broadcast z, w."""
    if not spec.translation_invariant:
        raise ValueError("polarized mass-one is defined for the boundary kernels")
    shape, (z, w) = _flat(z, w)
    lhs = _ti_reproducing(_profile_for(spec), z, w, quad)
    return _shaped(lhs - limit_kernel(spec, w, z), shape)


# Step of the finite differences Ward's equation keeps: the radial stencil of
# the Mittag-Leffler c and the 5-point (1/4) Lap log R for lam not in {1, 2}.
# Both stay independent of the term window: its own sums satisfy Ward's
# equation term by term (r c = sum_j P_j - E[l], (1/4) Lap log R = Var(l)/r^2
# - lam^2 r^(2 lam - 2)), so derivatives taken from them would make the
# residual an identity.
_FD_STEP = 1e-3


def laplacian_log_R(spec: LimitKernelSpec, z):
    """``(1/4) * (standard Laplacian) of log R`` at z, elementwise.

    Analytic for translation-invariant kernels (where it reduces to
    ``(log Phi)''(2x)``) and for Mittag-Leffler ``lam`` in {1, 2}.  At
    ``lam = 1``, R = 1 and the value is 0.  At ``lam = 2``, with
    ``x = |z|^2``, ``E = erfcx(-x)`` and ``M = M_2(x) = 2/sqrt(pi) + 2xE``:
    ``E' = M``, so ``M' = 2E + 2xM`` and ``M'' = 4M + 2xM'``, and

        (1/4) Lap log R = M'/M + x (M''/M - (M'/M)^2) - 4x = 2 (x + b/R) a/R

    in the scaled terms ``a = (2/sqrt(pi)) e^{-x^2}``, ``b = erfc(-x)`` and
    ``R = M e^{-x^2} = a + 2xb``: every term is positive and finite, also
    where ``erfcx(-x)`` overflows.  Other ``lam`` take 4th-order central
    finite differences with step ``_FD_STEP``.  That stencil weights log R
    by up to ``30 / (12 _FD_STEP^2)``, 2.5e6, so one ulp of R moves the
    value by about 3e-10: their Ward residuals below about 1e-9 are
    rounding.
    """
    shape, (z,) = _flat(z)
    if spec.translation_invariant:
        profile = _profile_for(spec)
        s = 2.0 * z.real
        phi, d1, d2 = (profile.diag(s, deriv) for deriv in range(3))
        return _shaped((d2 * phi - d1 * d1) / (phi * phi), shape)
    if spec.lam == 1.0:
        return _shaped(np.zeros(z.shape), shape)
    if spec.lam == 2.0:
        x = np.abs(z) ** 2
        a = 2.0 / math.sqrt(math.pi) * np.exp(-x * x)
        b = 2.0 * ndtr(math.sqrt(2.0) * x)  # erfc(-x)
        r = a + 2.0 * x * b
        return _shaped(2.0 * (x + b / r) * a / r, shape)
    coeff = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * _FD_STEP**2)
    steps = _FD_STEP * np.arange(-2.0, 3.0)
    # the ten stencil points in one call: rows 0-4 step along x, 5-9 along y
    logs = np.log(one_point(spec, z + np.concatenate([steps, 1j * steps])[:, None]))
    lxx = sum(c * v for c, v in zip(coeff, logs[:5]))
    lyy = sum(c * v for c, v in zip(coeff, logs[5:]))
    return _shaped(0.25 * (lxx + lyy), shape)


def _ward_rhs(spec: LimitKernelSpec, z):
    """Right-hand side ``R - background - Lap log R`` of Ward's equation."""
    background = 1.0
    if spec.kind == "mittag_leffler":
        background = spec.lam**2 * np.abs(z) ** (2.0 * (spec.lam - 1.0))
    return one_point(spec, z) - background - laplacian_log_R(spec, z)


_FD_OFFSETS = (-2, -1, 1, 2)


def _central_diff(values, fd_step):
    """4th-order central difference from the values at ``_FD_OFFSETS``."""
    stencil = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * fd_step)
    return sum(c * v for c, v in zip(stencil, values))


def ward_point_residual(spec: LimitKernelSpec, z: complex,
                        quad: QuadratureConfig = _DEFAULT_QUAD,
                        fd_step: float = _FD_STEP) -> complex:
    """Ward-equation residual ``dbar C - (R - 1 - Lap log R)`` at one point.

    Takes the full 2-D stencil (eight Cauchy transforms of step ``fd_step``)
    at every point; it is the finite-difference reference for
    :func:`ward_residual`.
    """
    z = np.array([complex(z)])
    steps = np.array([s * fd_step * d for d in (1.0, 1j) for s in _FD_OFFSETS])
    cs = cauchy_transform(spec, z[:, None] + steps, quad).T
    dbar = 0.5 * (_central_diff(cs[:4], fd_step) + 1j * _central_diff(cs[4:], fd_step))
    return (dbar - _ward_rhs(spec, z))[0].item()


def ward_residual(spec: LimitKernelSpec, points, quad: QuadratureConfig = _DEFAULT_QUAD):
    """Ward-equation residual magnitudes ``|dbar C - (R - 1 - Lap log R)|``.

    ``points`` may have any shape; the result has that shape, or is a Python
    float for a scalar point, and the caller's array is left as it was.

    For the translation-invariant kernels both sides of Ward's equation
    depend on ``Re z`` alone, and ``C = N / R`` with ``c = 2 Re z``, so
    ``dbar C = C_x / 2 = (N' R - N R') / R^2`` with c-derivatives: N and N'
    from one reduced rule per distinct real part
    (:func:`_ti_cauchy_numerator`), ``R' = profile.diag(c, 1)``.  The
    residual is spread over every point with that real part; the tests
    compare it with :func:`ward_point_residual` off the axis.  Where the
    intensity vanishes (the hard edge at ``Re z >= 0``) it raises
    :class:`ZeroIntensity`.

    For the Mittag-Leffler kernels ``C(z) = e^{-i arg z} c(|z|)`` (see
    :func:`cauchy_transform`), so ``dbar C = (c'(r) + c(r)/r) / 2`` at
    ``r = |z|``, with c' the 4th-order central difference of c at
    ``r + k _FD_STEP``, k = -2..2, all in one call, and the residual is
    spread over every point of that radius.  Along the line through 0 and
    z, ``e^{i arg z} C(t e^{i arg z}) = sgn(t) c(|t|)``, so nodes below 0
    take ``-c(|node|)``; at ``r = 0``, ``c/r`` is ``c'(0)`` and
    ``dbar C = c'(0)``.
    """
    shape, (pts,) = _flat(points)
    if spec.translation_invariant:
        xs, at = _distinct(pts.real)
        r = _intensity(spec, xs)
        profile = _profile_for(spec)
        num, d_num = _ti_cauchy_numerator(profile, xs, quad)
        dbar = (d_num * r - num * profile.diag(2.0 * xs, 1)) / (r * r)
    else:
        xs, at = _distinct(np.abs(pts))
        dbar = _ml_dbar_cauchy(spec.lam, xs)
    return _shaped(np.abs(dbar - _ward_rhs(spec, xs))[at], shape)


def _ml_dbar_cauchy(lam: float, r):
    """``dbar C = (c'(r) + c(r)/r) / 2`` of the Mittag-Leffler kernel at flat
    ``r >= 0``, c' by the radial stencil of :func:`ward_residual`."""
    nodes = r[:, None] + _FD_STEP * np.arange(-2.0, 3.0)
    c = np.sign(nodes) * _ml_cauchy(lam, np.abs(nodes).ravel())[0].reshape(nodes.shape)
    dc = _central_diff(c.T[[0, 1, 3, 4]], _FD_STEP)
    return 0.5 * (dc + np.divide(c[:, 2], r, out=dc.copy(), where=r > 0))


# --------------------------------------------------------------------------
# Hermite-series identities
# --------------------------------------------------------------------------

SERIES_MAX_N = 200


def _hermite_rows(n_terms: int, s: np.ndarray) -> np.ndarray:
    """Real :func:`hermite_scaled` values, one contiguous row per point, so
    a sum along a row has the bits of a call on that point alone."""
    return np.ascontiguousarray(np.moveaxis(hermite_scaled(n_terms, s).real, 0, -1))


def mass_one_series_residual(x, n_terms: int):
    """Truncation residual of the series form of the mass-one equation.

    For the free-boundary diagonal ``R = F(2x)`` the identity reads
    ``F(s) - F(s)^2 = sum_{n>=1} F^(n)(s)^2 / n!``, ``s = 2x``; with
    ``F^(n)(s) = (-1)^n h_{n-1}(s) gamma(s)`` this returns
    ``F(s) - F(s)^2 - gamma(s)^2 sum_{n=1}^{N} p_{n-1}(s)^2 / n``,
    elementwise over an array ``x``.
    """
    if not 0 <= n_terms <= SERIES_MAX_N:
        raise ValueError(f"need 0 <= N <= {SERIES_MAX_N}, got {n_terms}")
    shape, (x,) = _flat(x, dtype=float)
    s = 2.0 * x
    f = plasma_F(s).real
    # float_power is libm's pow, as the ** of a Python float
    g2 = np.float_power(gauss_gamma(s).real, 2)
    p = _hermite_rows(n_terms, s)
    tail = np.sum(p[..., :-1] ** 2 / np.arange(1, n_terms + 1), axis=-1)
    return _shaped(f - f * f - g2 * tail, shape)


def hermite_identity_residual(s, n_terms: int):
    """Residual of ``sum_n F^(n)(s) F^(n+1)(s) / n! = F'(s) / 2`` at N
    terms, elementwise over an array ``s``."""
    if not 0 <= n_terms <= SERIES_MAX_N:
        raise ValueError(f"need 0 <= N <= {SERIES_MAX_N}, got {n_terms}")
    shape, (ss,) = _flat(s, dtype=float)
    f = plasma_F(ss).real
    g = gauss_gamma(ss).real
    lhs = -f * g  # n = 0 term F F'
    p = _hermite_rows(n_terms, ss)
    cross = np.sum(p[..., :-1] * p[..., 1:] / np.sqrt(np.arange(1, n_terms + 1)), axis=-1)
    return _shaped(lhs - g * g * cross - (-0.5 * g), shape)


def telescoping_sum(s: float, n_terms: int) -> float:
    """Partial sum ``sum_{n=1}^{N} (n h_{n-1}^2 - h_n^2) / n!`` (limit 1)."""
    if not 1 <= n_terms <= SERIES_MAX_N:
        raise ValueError(f"need 1 <= N <= {SERIES_MAX_N}, got {n_terms}")
    p = hermite_scaled(n_terms, s).real
    return float(np.sum(p[:-1] ** 2 - p[1:] ** 2))


# --------------------------------------------------------------------------
# 1/8-formula, tail bounds, positivity, inequalities
# --------------------------------------------------------------------------

_EIGHTH_NODES = 192  # Gauss-Legendre nodes on each side of the 1/8 integral's kink


def eighth_formula(shift: float = 0.0) -> float:
    """``integral t (F(2t - shift) - 1_{t<0}) dt`` over the real line.

    Splits at the indicator kink at 0; equals exactly 1/8 when
    ``shift = 0`` and moves by ``shift^2/8`` otherwise.  Integrates over
    ``|t| <= 12 + |shift|``, past which the integrand is below ``e^-288``.
    """
    total, (x, w) = 0.0, _leggauss(_EIGHTH_NODES)
    for lo, hi in ((-12.0 - abs(shift), 0.0), (0.0, 12.0 + abs(shift))):
        t, wt = 0.5 * (hi - lo) * x + 0.5 * (lo + hi), 0.5 * (hi - lo) * w
        f = np.real(plasma_F(2.0 * t - shift))
        indicator = (t < 0.0).astype(float)
        total += float(np.sum(t * (f - indicator) * wt))
    return total


def tail_bounds_report(spec: LimitKernelSpec, x_grid) -> tuple:
    """Exterior/interior tail-bound ratios of the free-boundary intensity.

    Returns ``(values, params)``: ``values`` holds ``R(x) e^{2x^2}`` on the
    ``x >= 0`` part of the grid and ``|R(x) - 1| e^{0.4 x^2}`` on the
    ``x <= 0`` part, and ``params`` their sups.
    """
    if spec.kind != "free_boundary" or spec.intervals != _HALF_LINE:
        raise ValueError("tail bounds apply to the half-line free-boundary kernel")
    xs = np.ravel(np.asarray(x_grid, dtype=float))
    if not xs.size:
        raise ValueError("x_grid is empty; it needs at least one point")
    r = one_point(spec, xs)
    ext = xs >= 0.0
    values = np.abs(r - 1.0) * np.exp(0.4 * xs * xs)
    values[ext] = r[ext] * np.exp(2.0 * xs[ext] * xs[ext])
    return values, {
        "equation": "tail_bounds",
        "sup_exterior": float(np.max(values[ext], initial=0.0)),
        "sup_interior": float(np.max(values[xs <= 0.0], initial=0.0)),
    }


def gram_min_eig(spec: LimitKernelSpec, points, complementary: bool = False):
    """Minimum eigenvalue of the Gram matrix ``[K(z_i, z_j)]`` of each point set.

    ``points`` has shape ``(..., N)``, a stack of sets of N points, and the
    result has its leading shape; a scalar or 1-D input is one set and gives
    a Python float.  A set's value does not depend on the stack it comes in.
    With ``complementary=True`` uses ``G(z,w) (1 - Psi(z,w))`` instead,
    where ``Psi = K/G`` (defined for the bulk/free-boundary kernels).

    Raises
    ------
    NonHermitianInput
        If an assembled matrix deviates from Hermitian by more than 1e-10.
    """
    z = np.atleast_1d(np.asarray(points, dtype=complex))
    if not 1 <= z.shape[-1] <= 32:
        raise ValueError(f"gram_min_eig needs 1 to 32 points, got {z.shape[-1]}")
    if complementary and spec.kind not in ("bulk", "free_boundary"):
        raise ValueError("complementary kernel defined for bulk/free-boundary specs")
    zi, zj = z[..., :, None], z[..., None, :]
    m = limit_kernel(spec, zi, zj)
    if complementary:
        # the bulk profile is exactly exp(-Im(v)^2 / 2), so G - K = G (1 - Psi)
        m = limit_kernel(LimitKernelSpec.ginibre_bulk(), zi, zj) - m
    m_h = np.swapaxes(m, -1, -2).conj()
    asym = float(np.max(np.abs(m - m_h), initial=0.0))
    if asym > 1e-10:
        raise NonHermitianInput(f"Gram matrix asymmetry {asym:.3e} exceeds 1e-10")
    eig = np.linalg.eigvalsh(0.5 * (m + m_h))[..., 0]
    return float(eig) if z.ndim == 1 else eig


def inequality_suite(seed: int = 0) -> tuple:
    """Margins of the sharp F- and H-inequalities (all must be >= 0).

    Returns ``(margins, params)``: the margins of the three families below,
    concatenated in that order, and their minimum and sharpness gaps.

    * ``F(x) - F(x)^2 - e^{-x^2}/4`` on ``x = -5, -4.9, ..., 5`` (sharp at
      x = 0);
    * ``e^{|z|^2} H(z + conj z) log 2 - |H(z)|^2`` on the grid of ``Re z =
      -3, -2.75, ..., -0.25`` and ``Im z = -3, -2.5, ..., 3`` (sharp as z -> 0);
    * ``e^{|z-w|^2} F(2 Re z) F(2 Re w) - |F(z + conj w)|^2`` on 200 pairs
      with parts uniform on [-2, 2), drawn from ``seed``.
    """
    n_pairs = 200
    xs = np.arange(-5.0, 5.0 + 1e-9, 0.1)
    f = np.real(plasma_F(xs.astype(complex)))
    margins_f = f - f * f - 0.25 * np.exp(-xs * xs)

    re = np.arange(-3.0, -0.049, 0.25)
    im = np.arange(-3.0, 3.0 + 1e-9, 0.5)
    zs = (re[:, None] + 1j * im[None, :]).ravel()
    h_at = np.atleast_1d(hard_edge_H(zs))
    h_diag = np.real(hard_edge_H(2.0 * zs.real))
    margins_h = np.exp(np.abs(zs) ** 2) * h_diag * LOG2 - np.abs(h_at) ** 2

    rng = np.random.default_rng(seed)
    zw = rng.uniform(-2.0, 2.0, size=(n_pairs, 4))
    z1 = zw[:, 0] + 1j * zw[:, 1]
    w1 = zw[:, 2] + 1j * zw[:, 3]
    f_z = np.real(plasma_F((2.0 * z1.real).astype(complex)))
    f_w = np.real(plasma_F((2.0 * w1.real).astype(complex)))
    cross = np.atleast_1d(plasma_F(z1 + np.conj(w1)))
    margins_e = np.exp(np.abs(z1 - w1) ** 2) * f_z * f_w - np.abs(cross) ** 2

    margins = np.concatenate([margins_f, margins_h, margins_e])
    sharp_h = float(
        np.exp(1e-14) * float(hard_edge_H(complex(-2e-7)).real) * LOG2
        - abs(complex(hard_edge_H(complex(-1e-7)))) ** 2
    )
    return margins, {
        "equation": "inequalities",
        "min_margin": float(np.min(margins)),
        "sharpness_F": float(margins_f[np.argmin(np.abs(xs))]),
        "sharpness_H": sharp_h,
        "n_pairs": n_pairs,
    }

"""Limiting kernels and their verification machinery.

Implements the four limit kernels (bulk, free boundary, hard edge,
Mittag-Leffler), the Berezin and conditional-intensity kernels, the Cauchy
transform, Ward-equation residuals, the mass-one equations (plain,
polarized, and series forms), the 1/8-formula, tail bounds, Gram
positivity, and the inequality suite.

Quadrature design
-----------------
The Cauchy transform kernel ``B(z,w)/(z-w)`` is integrated in polar
coordinates centered at ``z``: writing ``w = z + r e^{i phi}``, the measure
``dA/(z-w)`` becomes ``-e^{-i phi} dr dphi / pi``, which removes the
singularity analytically.

For the translation-invariant kernels the Berezin density is *not*
``exp(-r^2)``-dominated: along the boundary direction it decays only like
``1/|w|^2``, so a polar cutoff alone cannot reach the advertised
tolerances.  The plane integrals therefore combine a polar core (only
around an actual singularity) with Cartesian strips whose transverse
panels end in tangent-map tails that integrate the algebraic decay exactly.
Across the carved-out core the strip columns are parametrized by the angle
of the circle (``a = x_z + rho sin psi``), which removes the square-root
kink the circular hole would otherwise induce.  All panel node counts scale
with ``QuadratureConfig.n_radial / 96``, so node-doubling configurations
refine every panel at once.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .finite_n import KernelGrid
from .special import (
    QuadratureNotConverged,
    _leggauss,
    conv_indicator,
    conv_indicator_scaled,
    gauss_gamma,
    hard_edge_H,
    hard_edge_H_scaled,
    hard_edge_H_scaled_grid,
    hermite_scaled,
    mittag_leffler_kernel_eval,
    mittag_leffler_kernel_scaled,
    plasma_F,
)

__all__ = [
    "ZeroIntensity",
    "NonHermitianInput",
    "LimitKernelSpec",
    "QuadratureConfig",
    "ResidualReport",
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
    """Which limiting kernel to evaluate.

    ``kind`` is one of ``"bulk"``, ``"free_boundary"`` (with a tuple of
    disjoint real intervals whose indicator is Gaussian-smoothed),
    ``"hard_edge"``, ``"mittag_leffler"`` (with ``lam``), or ``"constant"``
    (profile identically ``level`` — a deliberate counterexample kernel).
    """

    kind: str
    intervals: tuple = _HALF_LINE
    lam: float = 1.0
    level: float = 0.5

    @classmethod
    def ginibre_bulk(cls) -> "LimitKernelSpec":
        return cls("bulk", intervals=_FULL_LINE)

    @classmethod
    def free_boundary(cls, intervals=_HALF_LINE) -> "LimitKernelSpec":
        ivals = tuple((float(lo), float(hi)) for lo, hi in intervals)
        if not ivals:
            raise ValueError("need at least one interval")
        for lo, hi in ivals:
            if not lo < hi:
                raise ValueError(f"interval ({lo}, {hi}) is empty")
        return cls("free_boundary", intervals=ivals)

    @classmethod
    def hard_edge(cls) -> "LimitKernelSpec":
        return cls("hard_edge")

    @classmethod
    def mittag_leffler(cls, lam: float) -> "LimitKernelSpec":
        if lam < 1.0:
            raise ValueError(f"need lam >= 1, got {lam}")
        return cls("mittag_leffler", lam=float(lam))

    @classmethod
    def constant_profile(cls, level: float = 0.5) -> "LimitKernelSpec":
        return cls("constant", level=float(level))

    @property
    def translation_invariant(self) -> bool:
        return self.kind in ("bulk", "free_boundary", "hard_edge", "constant")


@dataclass(frozen=True)
class QuadratureConfig:
    """Node budget for the plane integrals.

    ``n_radial=96`` / ``n_angular=128`` are the defaults; ``r_max`` bounds
    the polar core and sets the Gaussian padding of the strip geometry
    (truncation of ``exp(-r^2)``-dominated factors beyond ``r_max=8`` is
    below 1e-27; the algebraically decaying boundary lobes are handled by
    the tangent-map tails, not by truncation).
    """

    r_max: float = 8.0
    n_radial: int = 96
    n_angular: int = 128

    def doubled(self) -> "QuadratureConfig":
        return QuadratureConfig(self.r_max, 2 * self.n_radial, 2 * self.n_angular)


@dataclass
class ResidualReport:
    """Residual field on a grid plus its norms and run parameters."""

    grid: KernelGrid
    residuals: np.ndarray
    sup_norm: float
    l2_norm: float
    params: dict = field(default_factory=dict)


def _report(grid: KernelGrid, residuals: np.ndarray, params: dict) -> ResidualReport:
    res = np.asarray(residuals, dtype=float)
    weight = grid.step * grid.step if res.ndim == 2 else grid.step
    return ResidualReport(
        grid=grid,
        residuals=res,
        sup_norm=float(np.max(np.abs(res))) if res.size else 0.0,
        l2_norm=float(math.sqrt(np.sum(res * res) * weight)),
        params=params,
    )


# --------------------------------------------------------------------------
# translation-invariant boundary profiles
# --------------------------------------------------------------------------


class _Profile:
    """Scaled boundary profile Phi and its diagonal derivatives, elementwise."""

    domain_left_only = False

    def scaled(self, v):  # Phi(v) exp(-Im(v)^2 / 2)
        raise NotImplementedError

    def scaled_grid(self, re, im):  # scaled(re[:, None] + 1j * im[None, :])
        return self.scaled(np.add.outer(re, 1j * im))

    def diag(self, s):  # Phi(s), real s
        raise NotImplementedError

    def diag_d1(self, s):
        raise NotImplementedError

    def diag_d2(self, s):
        raise NotImplementedError


class _IntervalProfile(_Profile):
    def __init__(self, intervals):
        self.intervals = intervals

    def scaled(self, v):
        v = np.atleast_1d(np.asarray(v, dtype=complex))
        return sum(conv_indicator_scaled(v, interval) for interval in self.intervals)

    def diag(self, s):
        return np.real(sum(conv_indicator(s, interval) for interval in self.intervals))

    def _endpoint_sum(self, s, order):
        # d/ds F(s-c) chains: F' = -gamma, F'' (v) = v gamma(v)
        total = 0.0
        for lo, hi in self.intervals:
            for c, sign in ((hi, 1.0), (lo, -1.0)):
                if math.isinf(c):
                    continue
                g = np.real(gauss_gamma(s - c))
                total += sign * (-g if order == 1 else (s - c) * g)
        return total

    def diag_d1(self, s):
        return self._endpoint_sum(s, 1)

    def diag_d2(self, s):
        return self._endpoint_sum(s, 2)


class _HardEdgeProfile(_Profile):
    domain_left_only = True

    def scaled(self, v):
        return np.atleast_1d(hard_edge_H_scaled(np.asarray(v, dtype=complex)))

    def scaled_grid(self, re, im):
        return hard_edge_H_scaled_grid(re, im)

    def diag(self, s):
        return np.real(hard_edge_H(s))

    def diag_d1(self, s):
        return np.real(hard_edge_H(s, deriv=1))

    def diag_d2(self, s):
        return np.real(hard_edge_H(s, deriv=2))


class _ConstantProfile(_Profile):
    def __init__(self, level):
        self.level = level

    def scaled(self, v):
        v = np.atleast_1d(np.asarray(v, dtype=complex))
        return self.level * np.exp(-0.5 * v.imag**2).astype(complex)

    def diag(self, s):
        return np.full(np.shape(s), self.level)

    def diag_d1(self, s):
        return np.zeros(np.shape(s))

    def diag_d2(self, s):
        return np.zeros(np.shape(s))


def _profile_for(spec: LimitKernelSpec) -> _Profile:
    if spec.kind in ("bulk", "free_boundary"):
        return _IntervalProfile(spec.intervals if spec.kind == "free_boundary" else _FULL_LINE)
    if spec.kind == "hard_edge":
        return _HardEdgeProfile()
    if spec.kind == "constant":
        return _ConstantProfile(spec.level)
    raise ValueError(f"{spec.kind} has no translation-invariant profile")


# --------------------------------------------------------------------------
# kernel values
# --------------------------------------------------------------------------


def _flat(*points):
    """Common shape of the broadcast ``points`` and a flat complex copy of each.

    The kernels work elementwise on these, so an array call gives each point
    the bits of a call on that point alone.
    """
    arrays = np.broadcast_arrays(*(np.asarray(p, dtype=complex) for p in points))
    return arrays[0].shape, [np.ravel(a) for a in arrays]


def _shaped(out, shape):
    """``out`` in ``shape``, or as a Python scalar when ``shape`` is ()."""
    return out.reshape(shape) if shape else out[0].item()


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
    Mittag-Leffler kernels with the Gaussian inside
    :func:`mittag_leffler_kernel_scaled`.  The hard-edge kernel is 0
    wherever ``Re z >= 0`` or ``Re w >= 0``.
    """
    shape, (z, w) = _flat(z, w)
    if spec.kind == "mittag_leffler":
        lam = spec.lam
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

    The hard-edge intensity is 0 wherever ``Re z >= 0``.
    """
    shape, (z,) = _flat(z)
    if spec.kind == "mittag_leffler":
        # M_lam(r^2) e^(-r^(2 lam)) with the growth cancelled exactly: for
        # lam = 2 this is (2/sqrt(pi)) e^(-r^4) + 2 r^2 erfc(-r^2)
        lam, r2 = spec.lam, np.abs(z) ** 2
        out = np.real(mittag_leffler_kernel_scaled(lam, r2, -(r2**lam)))
    else:
        out = np.zeros(z.shape)
        keep = z.real < 0.0 if spec.kind == "hard_edge" else slice(None)
        out[keep] = _profile_for(spec).diag(2.0 * z.real[keep])
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
# plane quadrature engine
# --------------------------------------------------------------------------

_B_CORE = 16.0  # transverse extent of the linear strip panels


def _gl_panel(n, a, b):
    x, w = _leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _half_lines(bmin, edges_offsets, n_panel, n_tail):
    """Composite rule on [bmin, inf) per column; bmin is a column vector.

    Returns (nodes, weights) of shape (n_cols, n_total).  Panels run from
    bmin through the fixed edges, then a tangent-map tail captures the
    algebraic decay exactly.
    """
    xu, wu = _leggauss(n_panel)
    cols = bmin.shape[0]
    prev = bmin[:, None]
    nodes, weights = [], []
    for edge in edges_offsets:
        nxt = np.maximum(prev, edge if np.ndim(edge) else np.full((cols, 1), edge))
        mid, half = 0.5 * (prev + nxt), 0.5 * (nxt - prev)
        nodes.append(mid + half * xu[None, :])
        weights.append(half * wu[None, :])
        prev = nxt
    xt, wt = _gl_panel(n_tail, 0.0, 0.5 * math.pi * (1.0 - 1e-12))
    nodes.append(prev + np.tan(xt)[None, :])
    weights.append(np.broadcast_to(wt / np.cos(xt) ** 2, (cols, n_tail)).copy())
    return np.concatenate(nodes, axis=1), np.concatenate(weights, axis=1)


def _ti_plane_integral(profile: _Profile, z: complex, w: complex, kind: str,
                       quad: QuadratureConfig) -> complex:
    """Plane integral for translation-invariant kernels.

    ``kind="polarized"``: ``integral K(t,z) K(w,t) dA(t)`` (reproducing
    integrand).  ``kind="cauchy"``: ``integral B(z,t)/(z-t) dA(t)``.
    """
    xz, yz, xw, yw = z.real, z.imag, w.real, w.imag
    scale = quad.n_radial / 96.0
    n_zone = max(8, round(54 * scale))
    n_a = max(16, round(160 * scale))
    n_panel = max(6, round(32 * scale))
    n_tail = max(6, round(28 * scale))
    singular = kind == "cauchy"
    # Phi(conj v) = conj Phi(v): the sgn = -1 half line (and, in the polar
    # core, phi -> -phi) contributes the complex conjugate of the sgn = +1
    # half whenever the integrand is built from |Phi|^2 alone
    fold = singular or z == w
    r0 = profile.diag(2.0 * xz)
    total = 0.0 + 0.0j

    rho = 0.0
    if singular:
        rho = max(1.0, min(2.0 * abs(xz) + 1.5, 4.0))
        if profile.domain_left_only:
            rho = min(rho, 0.995 * abs(xz))
        total += _polar_core(profile, z, rho, quad, r0)

    pad = quad.r_max + 0.5
    a_lo = min(xz, xw) - pad
    a_hi = 0.0 if profile.domain_left_only else max(xz, xw) + pad

    if singular:
        a_cols, a_wts, carved = [], [], []
        if a_lo < xz - rho:
            a, wa = _gl_panel(n_zone, a_lo, xz - rho)
            a_cols.append(a), a_wts.append(wa), carved.append(np.zeros(a.shape, bool))
        psi, wpsi = _gl_panel(n_zone, -0.5 * math.pi, 0.5 * math.pi)
        a_cols.append(xz + rho * np.sin(psi))
        a_wts.append(wpsi * rho * np.cos(psi))
        carved.append(np.ones(psi.shape, bool))
        if a_hi > xz + rho:
            a, wa = _gl_panel(n_zone, xz + rho, a_hi)
            a_cols.append(a), a_wts.append(wa), carved.append(np.zeros(a.shape, bool))
        a = np.concatenate(a_cols)
        wa = np.concatenate(a_wts)
        carved = np.concatenate(carved)
    else:
        a, wa = _gl_panel(n_a, a_lo, a_hi)
        carved = np.zeros(a.shape, bool)

    ymid = 0.5 * (yz + yw)
    dy = 0.5 * abs(yz - yw)
    col_sums = np.zeros(a.shape, dtype=complex)

    for is_carved in (False, True):
        sel = carved == is_carved
        if not np.any(sel):
            continue
        a_sel = a[sel]
        if is_carved:
            bmin = np.sqrt(np.maximum(rho**2 - (a_sel - xz) ** 2, 0.0))
            edges = [bmin[:, None] + 1.0, bmin[:, None] + 3.0, 7.0, _B_CORE]
            center = yz
        else:
            # every strip column has the same half-line rule, so one row of
            # offsets serves them all and Phi is taken on the (a, b) grid
            bmin = np.zeros(1)
            edges = [dy + 2.0, dy + 6.0, dy + 11.0, _B_CORE]
            center = ymid
        offs, wb = _half_lines(bmin, edges, n_panel, n_tail)
        if fold:
            acc = np.sum(_ti_integrand(profile, z, w, a_sel[:, None], center + offs,
                                       kind, r0) * wb, axis=1)
            col_sums[sel] = 2.0 * acc.real
            continue
        acc = np.zeros(a_sel.shape, dtype=complex)
        for sgn in (1.0, -1.0):
            b = center + sgn * offs
            acc += np.sum(_ti_integrand(profile, z, w, a_sel[:, None], b, kind, r0) * wb, axis=1)
        col_sums[sel] = acc

    total += np.sum(col_sums * wa) / math.pi
    return complex(total)


def _ti_integrand(profile, z, w, a, b, kind, r0):
    """Integrand at ``t = a + ib`` for a column ``a`` of shape (n, 1).

    ``b`` is either (n, m), one row of Im t per column, or (1, m), one row
    shared by every column; then ``Re v`` and ``Im v`` vary along separate
    axes and Phi is evaluated on that tensor grid.
    """
    xz, yz, xw, yw = z.real, z.imag, w.real, w.imag

    def phi(re, im):
        if im.shape[0] == 1:
            return profile.scaled_grid(re[:, 0], im[0])
        return profile.scaled(re + 1j * im)

    phi1 = phi(a + xz, b - yz)
    if kind == "cauchy":
        dens = np.exp(-((a - xz) ** 2)) * np.abs(phi1) ** 2 / r0
        dx, dyy = xz - a, yz - b
        return dens * (dx - 1j * dyy) / (dx * dx + dyy * dyy)
    if z == w:
        # v2 = conj(v1) and theta = 0, so Phi(v1) Phi(v2) = |Phi(v1)|^2
        return np.exp(-((a - xz) ** 2)) * np.abs(phi1) ** 2
    phi2 = phi(xw + a, yw - b)
    mag = np.exp(-0.5 * (a - xz) ** 2 - 0.5 * (a - xw) ** 2)
    theta = b * xz - a * yz + yw * a - xw * b
    return mag * np.exp(1j * theta) * phi1 * phi2


def _polar_core(profile, z, rho, quad, r0):
    """Cauchy-transform core: polar disc around the singularity at z.

    The angular rule is folded onto ``phi in [0, pi]``: the nodes at ``phi``
    and ``-phi`` give complex-conjugate integrands, so each interior node
    counts twice and only the real part survives.
    """
    n_r = max(8, round(48 * quad.n_radial / 96.0))
    n_ang = quad.n_angular
    r, wr = _gl_panel(n_r, 0.0, rho)
    k = np.arange(n_ang // 2 + 1)
    mult = np.where((k == 0) | (2 * k == n_ang), 1.0, 2.0)
    phi = 2.0 * math.pi * k / n_ang
    rr, pp = np.meshgrid(r, phi, indexing="ij")
    v = 2.0 * z.real + rr * np.exp(-1j * pp)
    dens = np.exp(-((rr * np.cos(pp)) ** 2)) * np.abs(profile.scaled(v)) ** 2 / r0
    terms = (dens * np.exp(-1j * pp)).real * wr[:, None] * mult[None, :]
    return -np.sum(terms) * (2.0 * math.pi / n_ang) / math.pi


def _ml_polar_integral(spec: LimitKernelSpec, z: complex, kind: str,
                       quad: QuadratureConfig) -> complex:
    """Mittag-Leffler plane integrals on a polar grid centered at z.

    The Berezin density decays like ``exp(-(r^lam - |z|^lam)^2)`` in every
    direction, so the default polar truncation is already exact here.
    """
    lam = spec.lam
    r, wr = _gl_panel(quad.n_radial, 0.0, quad.r_max)
    phi = 2.0 * math.pi * np.arange(quad.n_angular) / quad.n_angular
    rr, pp = np.meshgrid(r, phi, indexing="ij")
    t = z + rr * np.exp(1j * pp)
    m = mittag_leffler_kernel_eval(lam, z * np.conj(t))
    m_diag = float(mittag_leffler_kernel_eval(lam, abs(z) ** 2).real)
    dens = np.abs(m) ** 2 / m_diag * np.exp(-np.abs(t) ** (2 * lam))
    w_ang = 2.0 * math.pi / quad.n_angular
    if kind == "cauchy":
        return complex(-np.sum(dens * np.exp(-1j * pp) * wr[:, None]) * w_ang / math.pi)
    return complex(np.sum(dens * rr * wr[:, None]) * w_ang / math.pi)


# --------------------------------------------------------------------------
# integral operations
# --------------------------------------------------------------------------

_DEFAULT_QUAD = QuadratureConfig()


def cauchy_transform(spec: LimitKernelSpec, z: complex,
                     quad: QuadratureConfig = _DEFAULT_QUAD) -> complex:
    """Cauchy transform ``C(z) = integral B(z,w)/(z-w) dA(w)``.

    Raises
    ------
    ZeroIntensity
        Where the Berezin kernel is undefined.
    """
    z = complex(z)
    _intensity(spec, z)
    if spec.kind == "mittag_leffler":
        return _ml_polar_integral(spec, z, "cauchy", quad)
    return _ti_plane_integral(_profile_for(spec), z, z, "cauchy", quad)


def mass_one_residual(spec: LimitKernelSpec, z: complex,
                      quad: QuadratureConfig = _DEFAULT_QUAD) -> float:
    """``integral B(z, w) dA(w) - 1`` (mass-one equation residual)."""
    z = complex(z)
    r = _intensity(spec, z)
    if spec.kind == "mittag_leffler":
        return float(_ml_polar_integral(spec, z, "mass", quad).real) - 1.0
    val = _ti_plane_integral(_profile_for(spec), z, z, "polarized", quad)
    return float(val.real) / r - 1.0


def polarized_mass_one_residual(spec: LimitKernelSpec, z: complex, w: complex,
                                quad: QuadratureConfig = _DEFAULT_QUAD) -> complex:
    """Reproducing-property residual ``integral K(t,z)K(w,t)dA(t) - K(w,z)``."""
    if not spec.translation_invariant:
        raise ValueError("polarized mass-one is defined for the boundary kernels")
    z, w = complex(z), complex(w)
    lhs = _ti_plane_integral(_profile_for(spec), z, w, "polarized", quad)
    return lhs - limit_kernel(spec, w, z)


def laplacian_log_R(spec: LimitKernelSpec, z, fd_step: float = 1e-3):
    """``(1/4) * (standard Laplacian) of log R`` at z, elementwise.

    Analytic for translation-invariant kernels (where it reduces to
    ``(log Phi)''(2x)``); 4th-order central finite differences for
    Mittag-Leffler kernels.
    """
    shape, (z,) = _flat(z)
    if spec.translation_invariant:
        profile = _profile_for(spec)
        s = 2.0 * z.real
        phi = profile.diag(s)
        d1 = profile.diag_d1(s)
        d2 = profile.diag_d2(s)
        return _shaped((d2 * phi - d1 * d1) / (phi * phi), shape)
    coeff = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * fd_step**2)
    steps = np.array([-2, -1, 0, 1, 2], dtype=float)
    lxx = sum(c * np.log(one_point(spec, z + s * fd_step)) for c, s in zip(coeff, steps))
    lyy = sum(c * np.log(one_point(spec, z + 1j * s * fd_step)) for c, s in zip(coeff, steps))
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


def _dbar_cauchy(spec, z, quad, fd_step):
    cx, cy = (
        _central_diff([cauchy_transform(spec, z + s * fd_step * d, quad) for s in _FD_OFFSETS],
                      fd_step)
        for d in (1.0, 1j)
    )
    return 0.5 * (cx + 1j * cy)


def ward_point_residual(spec: LimitKernelSpec, z: complex,
                        quad: QuadratureConfig = _DEFAULT_QUAD,
                        fd_step: float = 1e-3) -> complex:
    """Ward-equation residual ``dbar C - (R - 1 - Lap log R)`` at one point.

    Takes the full 2-D stencil (eight Cauchy transforms) at every point; it
    is the uncollapsed reference for :func:`_ward_residuals`.
    """
    return _dbar_cauchy(spec, complex(z), quad, fd_step) - _ward_rhs(spec, complex(z))


def _thread_map(fn, items, threads):
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _ward_residuals(spec: LimitKernelSpec, points, quad: QuadratureConfig = _DEFAULT_QUAD,
                    fd_step: float = 1e-3, threads: int = 1) -> np.ndarray:
    """Ward-residual magnitudes at ``points``.

    For the translation-invariant kernels both sides of Ward's equation
    depend on ``Re z`` alone, so C is evaluated once on a 4-point x-stencil
    per distinct real part (on the real axis), ``dbar C = C_x / 2`` (the
    y-derivative is exactly 0), and the residual is spread over every point
    with that real part.  The quadrature frame of :func:`cauchy_transform`
    recentres on ``Im z`` and the right-hand side reads ``Re z`` only, so
    the computed values are y-invariant up to rounding; the tests compare
    this collapse with :func:`ward_point_residual` off the axis.
    Mittag-Leffler kernels take the full stencil of
    :func:`ward_point_residual` at every point.  The right-hand side is one
    array call over the distinct real parts, or over the points.
    ``threads`` map over the Cauchy transforms (translation-invariant
    kernels) or the points.

    Hard-edge points must satisfy ``Re z <= -2 fd_step`` so stencils never
    cross the domain boundary.
    """
    pts = np.ravel(np.asarray(points, dtype=complex))
    if spec.kind == "hard_edge" and np.any(pts.real > -2.0 * fd_step + 1e-15):
        raise ValueError("hard-edge points must satisfy Re z <= -2 fd_step")
    if spec.translation_invariant:
        xs, at = np.unique(pts.real, return_inverse=True)
        nodes = (xs[:, None] + fd_step * np.array(_FD_OFFSETS)).ravel()
        cs = _thread_map(lambda t: cauchy_transform(spec, t, quad), nodes.tolist(), threads)
        dbar = 0.5 * _central_diff(np.reshape(cs, (xs.size, len(_FD_OFFSETS))).T, fd_step)
    else:
        xs, at = pts, slice(None)
        dbar = np.array(_thread_map(lambda z: _dbar_cauchy(spec, z, quad, fd_step),
                                    pts.tolist(), threads))
    res = dbar - _ward_rhs(spec, xs)
    # np.hypot is libm's hypot, as abs() of a Python complex is; np.abs may
    # round differently, and these equal abs(ward_point_residual(...)) bitwise
    return np.hypot(res.real, res.imag)[at]


def ward_residual(spec: LimitKernelSpec, grid, quad: QuadratureConfig = _DEFAULT_QUAD,
                  fd_step: float = 1e-3, threads: int = 1) -> ResidualReport:
    """Ward-equation residual magnitudes over a grid.

    ``grid`` is a :class:`KernelGrid` or an ``(origin, step, nx, ny)``
    tuple; the report holds a new grid with the residuals as values, and
    the caller's grid is left as it was.  ``dbar`` is taken by 4th-order
    central differences of the Cauchy transform; the quadrature frame moves
    with the point, so C is smooth in z.  See :func:`_ward_residuals` for
    the translation-invariant collapse.
    """
    grid = _as_grid(grid)
    pts = grid.points()
    res = _ward_residuals(spec, pts, quad, fd_step, threads).reshape(pts.shape)
    out = replace(grid, values=res.astype(complex), meta=dict(grid.meta))
    return _report(out, res, {
        "equation": "ward",
        "spec": _spec_label(spec),
        "fd_step": fd_step,
        "quad": (quad.r_max, quad.n_radial, quad.n_angular),
    })


def _as_grid(grid) -> KernelGrid:
    if isinstance(grid, KernelGrid):
        return grid
    origin, step, nx, ny = grid
    return KernelGrid(
        origin=complex(origin), step=float(step), nx=int(nx), ny=int(ny),
        values=np.zeros((int(ny), int(nx)), dtype=complex),
    )


def _spec_label(spec: LimitKernelSpec) -> str:
    if spec.kind == "free_boundary":
        return f"free_boundary{spec.intervals}"
    if spec.kind == "mittag_leffler":
        return f"mittag_leffler(lam={spec.lam})"
    if spec.kind == "constant":
        return f"constant(level={spec.level})"
    return spec.kind


# --------------------------------------------------------------------------
# Hermite-series identities
# --------------------------------------------------------------------------

SERIES_MAX_N = 200


def mass_one_series_residual(x: float, n_terms: int) -> float:
    """Truncation residual of the series form of the mass-one equation.

    For the free-boundary diagonal ``R = F(2x)`` the identity reads
    ``R = sum_n (d^n R)^n-th-derivative^2 / n!``; with ``s = 2x`` and
    ``F^(n)(s) = (-1)^n h_{n-1}(s) gamma(s)`` this returns
    ``F(s) - F(s)^2 - gamma(s)^2 sum_{n=1}^{N} p_{n-1}(s)^2 / n``.
    """
    if not 0 <= n_terms <= SERIES_MAX_N:
        raise ValueError(f"need 0 <= N <= {SERIES_MAX_N}, got {n_terms}")
    s = 2.0 * x
    f = float(plasma_F(s).real)
    residual = f - f * f
    if n_terms == 0:
        return residual
    g2 = float(gauss_gamma(s).real) ** 2
    p = hermite_scaled(n_terms, s).real
    tail = float(np.sum(p[:-1] ** 2 / np.arange(1, n_terms + 1)))
    return residual - g2 * tail


def hermite_identity_residual(s: float, n_terms: int) -> float:
    """Residual of ``sum_n F^(n)(s) F^(n+1)(s) / n! = F'(s) / 2`` at N terms."""
    if not 0 <= n_terms <= SERIES_MAX_N:
        raise ValueError(f"need 0 <= N <= {SERIES_MAX_N}, got {n_terms}")
    f = float(plasma_F(s).real)
    g = float(gauss_gamma(s).real)
    lhs = -f * g  # n = 0 term F F'
    p = hermite_scaled(n_terms, s).real
    cross = float(np.sum(p[:-1] * p[1:] / np.sqrt(np.arange(1, n_terms + 1))))
    lhs -= g * g * cross
    return lhs - (-0.5 * g)


def telescoping_sum(s: float, n_terms: int) -> float:
    """Partial sum ``sum_{n=1}^{N} (n h_{n-1}^2 - h_n^2) / n!`` (limit 1)."""
    if not 1 <= n_terms <= SERIES_MAX_N:
        raise ValueError(f"need 1 <= N <= {SERIES_MAX_N}, got {n_terms}")
    p = hermite_scaled(n_terms, s).real
    return float(np.sum(p[:-1] ** 2 - p[1:] ** 2))


# --------------------------------------------------------------------------
# 1/8-formula, tail bounds, positivity, inequalities
# --------------------------------------------------------------------------


def eighth_formula(n_nodes: int = 192, shift: float = 0.0, t_max: float = 12.0) -> float:
    """``integral t (F(2t - shift) - 1_{t<0}) dt`` over the real line.

    Splits at the indicator kink at 0; equals exactly 1/8 when
    ``shift = 0`` and moves by ``shift^2/8`` otherwise.
    """
    total = 0.0
    for lo, hi in ((-t_max - abs(shift), 0.0), (0.0, t_max + abs(shift))):
        t, wt = _gl_panel(n_nodes, lo, hi)
        f = np.real(plasma_F(2.0 * t - shift))
        indicator = (t < 0.0).astype(float)
        total += float(np.sum(t * (f - indicator) * wt))
    return total


def _real_grid(x_grid) -> np.ndarray:
    xs = np.ravel(np.asarray(x_grid, dtype=float))
    if not xs.size:
        raise ValueError("x_grid is empty; it needs at least one point")
    return xs


def _line_grid(xs, values) -> KernelGrid:
    """One row of ``values`` on the grid that starts at ``xs[0]``."""
    step = float(xs[1] - xs[0]) if xs.size > 1 else 1.0
    return KernelGrid(origin=complex(xs[0]), step=step, nx=len(values), ny=1,
                      values=np.asarray(values, dtype=complex))


def tail_bounds_report(spec: LimitKernelSpec, x_grid) -> ResidualReport:
    """Exterior/interior tail-bound ratios of the free-boundary intensity.

    Reports ``R(x) e^{2x^2}`` on the ``x >= 0`` part of the grid and
    ``|R(x) - 1| e^{0.4 x^2}`` on the ``x <= 0`` part, plus their sups.
    """
    if spec.kind != "free_boundary" or spec.intervals != _HALF_LINE:
        raise ValueError("tail bounds apply to the half-line free-boundary kernel")
    xs = _real_grid(x_grid)
    r = one_point(spec, xs)
    ext = xs >= 0.0
    values = np.abs(r - 1.0) * np.exp(0.4 * xs * xs)
    values[ext] = r[ext] * np.exp(2.0 * xs[ext] * xs[ext])
    grid = _line_grid(xs, values)
    sup_ext = float(np.max(values[ext], initial=0.0))
    sup_int = float(np.max(values[xs <= 0.0], initial=0.0))
    return _report(grid, values, {
        "equation": "tail_bounds",
        "sup_exterior": sup_ext,
        "sup_interior": sup_int,
    })


def gram_min_eig(spec: LimitKernelSpec, points, complementary: bool = False) -> float:
    """Minimum eigenvalue of the Gram matrix ``[K(z_i, z_j)]``.

    With ``complementary=True`` uses ``G(z,w) (1 - Psi(z,w))`` instead,
    where ``Psi = K/G`` (defined for the bulk/free-boundary kernels).

    Raises
    ------
    NonHermitianInput
        If the assembled matrix deviates from Hermitian by more than 1e-10.
    """
    z = np.ravel(np.asarray(points, dtype=complex))
    if not 1 <= z.size <= 32:
        raise ValueError(f"gram_min_eig needs 1 to 32 points, got {z.size}")
    if complementary and spec.kind not in ("bulk", "free_boundary"):
        raise ValueError("complementary kernel defined for bulk/free-boundary specs")
    m = limit_kernel(spec, z[:, None], z[None, :])
    if complementary:
        # the bulk profile is exactly exp(-Im(v)^2 / 2), so G - K = G (1 - Psi)
        m = limit_kernel(LimitKernelSpec.ginibre_bulk(), z[:, None], z[None, :]) - m
    asym = float(np.max(np.abs(m - m.conj().T)))
    if asym > 1e-10:
        raise NonHermitianInput(f"Gram matrix asymmetry {asym:.3e} exceeds 1e-10")
    m = 0.5 * (m + m.conj().T)
    return float(np.linalg.eigvalsh(m)[0])


def inequality_suite(x_grid=None, z_points=None, n_pairs: int = 200,
                     seed: int = 0) -> ResidualReport:
    """Margins of the sharp F- and H-inequalities (all must be >= 0).

    * ``F(x) - F(x)^2 - e^{-x^2}/4`` on a real grid (sharp at x = 0);
    * ``e^{|z|^2} H(z + conj z) log 2 - |H(z)|^2`` for Re z < 0 (sharp as
      z -> 0);
    * ``e^{|z-w|^2} F(2 Re z) F(2 Re w) - |F(z + conj w)|^2`` on random
      pairs.
    """
    if x_grid is None:
        x_grid = np.arange(-5.0, 5.0 + 1e-9, 0.1)
    xs = _real_grid(x_grid)
    f = np.real(plasma_F(xs.astype(complex)))
    margins_f = f - f * f - 0.25 * np.exp(-xs * xs)

    if z_points is None:
        re = np.arange(-3.0, -0.049, 0.25)
        im = np.arange(-3.0, 3.0 + 1e-9, 0.5)
        z_points = (re[:, None] + 1j * im[None, :]).ravel()
    zs = np.asarray(z_points, dtype=complex)
    if np.any(zs.real >= 0.0):
        raise ValueError("H-inequality points must have Re z < 0")
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
    grid = _line_grid(xs, margins)
    sharp_h = float(
        np.exp(1e-14) * float(hard_edge_H(complex(-2e-7)).real) * LOG2
        - abs(complex(hard_edge_H(complex(-1e-7)))) ** 2
    )
    return _report(grid, margins, {
        "equation": "inequalities",
        "min_margin": float(np.min(margins)),
        "sharpness_F": float(margins_f[np.argmin(np.abs(xs))]),
        "sharpness_H": sharp_h,
        "n_pairs": n_pairs,
    })

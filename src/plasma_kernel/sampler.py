"""Seeded Monte Carlo sampling of eigenvalue moduli.

For radially symmetric potentials the correlation kernel is diagonal in the
monomial basis, so the set of eigenvalue moduli is distributed as *n
independent* radii with densities proportional to ``r^{2j+1} e^{-n Q(r)}``.
Sampling those radii and histogramming them in a rescaled frame gives an
empirical one-point profile that cross-validates the analytic kernels
without any dense eigensolver.

Every radius is drawn by inverse-CDF from a single uniform: Ginibre,
``|z_j|^2 = P^{-1}(j+1, u) / n``; Power(lam), ``|z_j|^{2 lam} =
P^{-1}((j+1)/lam, u) / n``; hard edge, ``|z_j|^2 = P^{-1}(j+1, u P(j+1, n))
/ n`` (the Gamma CDF conditioned on the droplet).  Using one shared uniform
per index makes hard-edge radii coupled monotonically below the unconfined
ones, and makes every output a pure function of ``(seed, trial)``.

A profile needs only the bin of each radius, and bins it without inverting
it.  Each radius is ``r(P^{-1}(a_j, q_j))`` with ``q_j`` the index's
(scaled) uniform, ``zoom (r - r0)`` increases with ``q_j``, and ``X(v) = n
(r0 + v / zoom)^(2 lam)`` inverts that map.  So once per run a forward
table holds ``P(a_j, X(e_k))`` at every bin edge ``e_0 = lo, ..., e_bins =
hi``.  Index j can land in ``[lo, hi)`` only if ``q_j`` lies in its band
``[P(a_j, X(lo)) - eps, P(a_j, X(hi)) + eps]`` (``eps = BAND_EPS``).  Every
trial still draws all n uniforms from its ``(seed, trial)`` stream and keeps
the indices inside the band.  A kept draw more than ``eps`` from every edge
probability takes the bin between the two edge probabilities around it; a
draw within ``eps`` of one is inverted and binned from its radius, exactly
as :func:`sample_radii` (the full-inversion reference) would.

The premise: the inverse's backward error ``|P(a, P^{-1}(a, q)) - q|`` is
below ``eps``.  Then a draw more than ``eps`` from every edge probability
inverts strictly inside the bin the table gives it, with a margin of about
1e-13 relative in x, far above the rounding of r, of ``zoom (r - r0)`` and
of the bin index; so every count equals that of the full inversion.  Once
per run the band's cutting edges are inverted to measure the premise: their
backward error must stay below ``eps`` and their values outside the window,
or the run is refused (:class:`InversionCheckFailed`).  ``gammaincinv``'s
backward error passes that check for n up to 2^22 and fails it from about
n = 2^23 on.

Trials run one block after another in one thread.  At the sizes sampled
most of a trial is the set-up of its own random stream, which runs in
Python, so a thread pool over the trials did not pay.
"""

from __future__ import annotations

from dataclasses import dataclass

import math
import numpy as np
from scipy.special import gammainc, gammaincinv

from .finite_n import Potential, RescaleFrame, droplet_radius

__all__ = [
    "BudgetExceeded",
    "InversionCheckFailed",
    "SampleConfig",
    "Histogram1D",
    "sample_radii",
    "boundary_profile",
    "bulk_singularity_profile",
]

BUDGET_LIMIT = 10**9
DEFAULT_BIN_WIDTH = 0.1  # limit curves vary on unit scale; bias <= 0.005
# probability margin of the inversion band: about 200x the worst backward
# error of gammaincinv on 2e5 random (a <= 2^14, u) pairs (5.2e-15 to 5.4e-15)
BAND_EPS = 1e-12
# uniforms per block of trials: a block's temporaries stay O(points) while
# each numpy call still spans many trials
BLOCK_POINTS = 2**16


class BudgetExceeded(Exception):
    """n * trials exceeds the sampling budget guard."""


class InversionCheckFailed(Exception):
    """The inverse Gamma CDF misses the band margin at a band edge."""


@dataclass(frozen=True)
class SampleConfig:
    """A reproducible sampling run: potential, matrix size, trials, seed."""

    pot: Potential
    n: int
    trials: int
    seed: int

    def __post_init__(self):
        if self.n < 1 or self.trials < 1:
            raise ValueError("n and trials must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.n * self.trials > BUDGET_LIMIT:
            raise BudgetExceeded(
                f"n*trials = {self.n * self.trials} exceeds {BUDGET_LIMIT}"
            )


@dataclass
class Histogram1D:
    """Binned counts plus the context needed to turn them into intensities.

    :meth:`estimates` divides the counts by ``trials * bin width * scale``.
    With ``scale`` unset that is a density per unit length; the profiles set
    it to the per-bin Jacobian ``2 r zoom`` that converts radial counts into
    the rescaled planar one-point function per unit ``dA`` (area measure
    normalized by 1/pi, the convention in which the bulk intensity is
    exactly 1).
    """

    lo: float
    hi: float
    bins: int
    counts: np.ndarray = None
    trials: int = 0
    counts_sq: np.ndarray = None  # per-bin sum over trials of count^2
    scale: np.ndarray = None      # per-bin Jacobian divisor (1 if plain density)
    inverted: int = 0             # inverse-CDF evaluations: band check + near-edge draws
    band_backward_error: float = 0.0  # worst backward error at the band edges

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if self.bins < 1:
            raise ValueError("need at least one bin")
        if self.counts is None:
            self.counts = np.zeros(self.bins, dtype=np.int64)

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bins

    def bin_centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.bins) + 0.5) * self.bin_width

    def estimates(self) -> np.ndarray:
        scale = self.scale if self.scale is not None else np.ones(self.bins)
        return self.counts / (self.trials * self.bin_width * scale)

    def stderrs(self) -> np.ndarray:
        """Standard error of each bin estimate from across-trial variation."""
        scale = self.scale if self.scale is not None else np.ones(self.bins)
        t = self.trials
        if self.counts_sq is None or t < 2:
            var = self.counts.astype(float)  # Poisson fallback
            return np.sqrt(var) / (t * self.bin_width * scale)
        mean = self.counts / t
        var = np.maximum(self.counts_sq / t - mean * mean, 0.0) * t / (t - 1)
        return np.sqrt(var / t) / (self.bin_width * scale)


def _shapes(pot: Potential, n: int) -> np.ndarray:
    """Gamma shapes ``a_j`` of the radial laws, j = 0..n-1."""
    shape = np.arange(1, n + 1, dtype=float)
    return shape / pot.lam if pot.kind == "power" else shape


def _radius_of(pot: Potential, n: int, x: np.ndarray) -> np.ndarray:
    """Radius of the Gamma variate ``x``; increasing in ``x``."""
    if pot.kind == "power":
        return (x / n) ** (1.0 / (2.0 * pot.lam))
    if pot.kind == "hard_edge":
        return np.sqrt(np.minimum(x / n, 1.0))
    return np.sqrt(x / n)


def _radii(pot: Potential, n: int, a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Radii of the indices with shapes ``a`` at Gamma probabilities ``q``."""
    return _radius_of(pot, n, gammaincinv(a, q))


def _radii_from_uniforms(pot: Potential, n: int, u: np.ndarray) -> np.ndarray:
    """Radii for indices j = 0..n-1 from one uniform per index (unsorted)."""
    a = _shapes(pot, n)
    q = u * gammainc(a, float(n)) if pot.kind == "hard_edge" else u
    return _radii(pot, n, a, q)


def _trial_uniforms(cfg: SampleConfig, trial: int) -> np.ndarray:
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(trial,))
    return np.random.default_rng(seq).random(cfg.n)


def sample_radii(cfg: SampleConfig, trial: int) -> np.ndarray:
    """Sorted eigenvalue moduli of one trial: a pure function of (seed, trial)."""
    return np.sort(_radii_from_uniforms(cfg.pot, cfg.n, _trial_uniforms(cfg, trial)))


def _histogram_counts(values: np.ndarray, lo: float, hi: float, bins: int,
                      rows=0, nrows: int = 1) -> np.ndarray:
    """Counts of ``values`` in ``bins`` equal bins of ``[lo, hi)``: one row
    of counts per label in ``rows`` (labels ``0..nrows-1``)."""
    idx = np.floor((values - lo) / ((hi - lo) / bins)).astype(np.int64)
    inside = (idx >= 0) & (idx < bins) & (values < hi)
    flat = (rows * bins + idx)[inside]
    return np.bincount(flat, minlength=nrows * bins).reshape(nrows, bins)


@dataclass(frozen=True)
class _Band:
    """Per-index Gamma probabilities at the bin edges of a window.

    Row k of ``p`` holds ``P(a_j, X(e_k))`` at edge ``e_k``, nondecreasing
    in k.  Index j's radius lands in ``lo <= zoom (r - r0) < hi`` only if its
    probability ``q_j`` lies in ``[q_lo_j, q_hi_j]``, the outer rows widened
    by ``BAND_EPS``; ``q_scale`` is ``P(a, n)`` for the hard edge (``q = u
    P(a, n)``) and None otherwise.
    """

    a: np.ndarray
    q_scale: np.ndarray | None
    p: np.ndarray
    q_lo: np.ndarray
    q_hi: np.ndarray
    checked: int            # band edges inverted by the check
    backward_error: float   # worst |P(a, P^{-1}(a, q)) - q| over those edges


def _window_band(pot: Potential, n: int, zoom: float, r0: float,
                 lo: float, hi: float, bins: int) -> _Band:
    """The edge table and band of every index, checked once.

    ``x -> zoom (r(x) - r0)`` is increasing and ``X(v) = n (r0 + v /
    zoom)^(2 lam)`` inverts it (lam = 1 but for power potentials), so the
    table is ``P(a, X(e_k))`` and the band ``[P(a, X(lo)) - eps, P(a, X(hi))
    + eps]``.  A row whose outer edges lie within ``2 eps`` keeps ``P(a,
    X(lo))`` in its inner columns: each draw of its band sits within ``eps``
    of an outer edge and is inverted.  The running maximum over the edges
    only guards the order against rounding.  The check inverts every band
    edge that cuts off some probability: its backward error must stay below
    ``eps`` and its value must fall outside the window, or the run is
    refused with :class:`InversionCheckFailed`.
    """
    a = _shapes(pot, n)
    q_scale = gammainc(a, float(n)) if pot.kind == "hard_edge" else None
    lam = pot.lam if pot.kind == "power" else 1.0
    with np.errstate(over="ignore"):  # an edge beyond every radius maps to inf
        x = n * np.maximum(r0 + np.linspace(lo, hi, bins + 1) / zoom, 0.0) ** (2.0 * lam)
    p = np.tile(gammainc(a, x[0]), (bins + 1, 1))
    p[-1] = gammainc(a, x[-1])
    wide = p[-1] - p[0] > 2.0 * BAND_EPS
    p[1:-1, wide] = gammainc(a[wide], x[1:-1, None])
    p = np.maximum.accumulate(p, axis=0)
    q_lo = p[0] - BAND_EPS
    q_hi = p[-1] + BAND_EPS
    cut_lo = q_lo > 0.0
    cut_hi = q_hi < (1.0 if q_scale is None else q_scale)
    a_e = np.concatenate([a[cut_lo], a[cut_hi]])
    q_e = np.concatenate([q_lo[cut_lo], q_hi[cut_hi]])
    x_e = gammaincinv(a_e, q_e)
    err = float(np.max(np.abs(gammainc(a_e, x_e) - q_e), initial=0.0))
    v_e = zoom * (_radius_of(pot, n, x_e) - r0)
    k = int(cut_lo.sum())
    if not err < BAND_EPS or np.any(v_e[:k] >= lo) or np.any(v_e[k:] < hi):
        raise InversionCheckFailed(
            f"inverse Gamma CDF misses the {BAND_EPS:g} band margin at n={n}: "
            f"backward error {err:.2e} at the band edges")
    return _Band(a, q_scale, p, q_lo, q_hi, int(a_e.size), err)


def _accumulate(cfg: SampleConfig, zoom: float, r0: float, hist) -> Histogram1D:
    """Histogram of ``zoom (r - r0)`` over all trials, with per-bin squared
    counts.  Each trial draws all n uniforms and keeps the indices inside
    the window's band.  A kept draw's bin is the number of edge
    probabilities more than ``eps`` below it, less one; a draw within
    ``eps`` of an edge probability is inverted and binned from its radius.
    Trials run in blocks of about ``BLOCK_POINTS`` uniforms, and the edges
    in a loop, so temporaries stay O(points)."""
    lo, hi, bins = _hist_window(hist)
    pot, n = cfg.pot, cfg.n
    band = _window_band(pot, n, zoom, r0, lo, hi, bins)
    out = Histogram1D(lo, hi, bins, trials=cfg.trials,
                      counts_sq=np.zeros(bins, dtype=np.int64),
                      inverted=band.checked,
                      band_backward_error=band.backward_error)
    step = max(1, BLOCK_POINTS // n)
    for start in range(0, cfg.trials, step):
        block = range(start, min(start + step, cfg.trials))
        u = np.stack([_trial_uniforms(cfg, t) for t in block])
        q = u if band.q_scale is None else u * band.q_scale
        rows, cols = np.nonzero((q >= band.q_lo) & (q <= band.q_hi))
        q = q[rows, cols]
        q_eps = q - BAND_EPS
        # kept draws lie in the band, so 0 <= above <= bins, and a draw
        # with above == 0 sits within eps of the lower edge
        above = np.zeros(q.size, dtype=np.int64)
        for edge in band.p[:-1]:
            above += q_eps > edge[cols]
        near = q >= band.p[above, cols] - BAND_EPS
        far = rows[~near] * bins + above[~near] - 1
        h = np.bincount(far, minlength=len(block) * bins).reshape(len(block), bins)
        values = zoom * (_radii(pot, n, band.a[cols[near]], q[near]) - r0)
        h += _histogram_counts(values, lo, hi, bins, rows[near], len(block))
        out.counts += h.sum(axis=0)
        out.counts_sq += (h * h).sum(axis=0)
        out.inverted += values.size
    return out


def _hist_window(hist) -> tuple:
    """The ``(lo, hi, bins)`` window ``hist``, checked before any sampling."""
    lo, hi, bins = hist
    lo, hi, bins = float(lo), float(hi), int(bins)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"histogram window needs finite lo < hi, got {lo}:{hi}")
    if bins < 1:
        raise ValueError(f"histogram needs at least one bin, got {bins}")
    return lo, hi, bins


def boundary_profile(cfg: SampleConfig, frame: RescaleFrame, hist) -> Histogram1D:
    """Empirical rescaled one-point profile along the boundary normal.

    Accumulates ``zoom * (r - droplet radius)`` over all trials; the
    estimate in each bin divides by the radial-to-planar Jacobian
    ``2 r(x) zoom`` so it converges to the rescaled one-point function
    (``F(2x)`` for Ginibre, ``H(2x)`` for the hard edge).

    ``hist`` is the ``(lo, hi, bins)`` window.
    """
    r0 = droplet_radius(cfg.pot)
    if abs(abs(frame.p) - r0) > 1e-12:
        raise ValueError("frame must be centered on the droplet boundary")
    zoom = frame.zoom
    out = _accumulate(cfg, zoom, r0, hist)
    out.scale = 2.0 * np.maximum(r0 + out.bin_centers() / zoom, 1e-300) * zoom
    return out


def bulk_singularity_profile(cfg: SampleConfig, hist=(0.0, 4.0, 40)) -> Histogram1D:
    """Empirical rescaled profile at a bulk singularity (zoom ``n^{1/(2 lam)}``).

    Histograms ``n^{1/(2 lam)} r``; the normalized estimate targets the
    radial intensity ``M_lam(s^2) e^{-s^{2 lam}}`` (flat 1 when lam = 1).
    """
    if cfg.pot.kind not in ("power", "ginibre"):
        raise ValueError("bulk singularity profiles require a power-law potential")
    lam = cfg.pot.lam if cfg.pot.kind == "power" else 1.0
    zoom = float(cfg.n) ** (1.0 / (2.0 * lam))
    out = _accumulate(cfg, zoom, 0.0, hist)
    out.scale = 2.0 * np.maximum(out.bin_centers(), 1e-300)
    return out

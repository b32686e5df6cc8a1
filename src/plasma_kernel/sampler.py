"""Seeded Monte Carlo sampling of eigenvalue moduli.

For radially symmetric potentials the correlation kernel is diagonal in the
monomial basis, so the set of eigenvalue moduli is distributed as *n
independent* radii with densities proportional to ``r^{2j+1} e^{-n Q(r)}``.
Sampling those radii and histogramming them in a rescaled frame gives an
empirical one-point profile that cross-validates the analytic kernels
without any dense eigensolver.  A run (:class:`SampleConfig`) is a frame,
which carries the potential and n it samples, a trial count and a seed.

Every radius is drawn by inverse-CDF from a single uniform: Ginibre,
``|z_j|^2 = P^{-1}(j+1, u) / n``; Power(lam), ``|z_j|^{2 lam} =
P^{-1}((j+1)/lam, u) / n``; hard edge, ``|z_j|^2 = P^{-1}(j+1, u P(j+1, n))
/ n`` (the Gamma CDF conditioned on the droplet).

A profile needs only the bin of each radius, and bins it without inverting
it.  Each radius is ``r(P^{-1}(a_j, q_j))`` with ``q_j`` the index's
(scaled) uniform, the frame's ``zoom (r - p)`` increases with ``q_j``, and
``X(v) = n (p + v / zoom)^(2 lam)`` inverts that map.  ``P(a, x)`` decreases
in the shape ``a``, so a bisection with O(log n) scalar ``gammainc`` calls
finds the indices that can reach the window: from ``j0``, the first with
``P(a_j, X(lo)) < 1 - eps/2``, up to ``j1``, the first with ``P(a_j, X(hi))
<= eps/2`` (``eps = BAND_EPS``; the halves are a rounding margin), O(sqrt n)
in a boundary frame.  Once per run a table holds ``P(a_j, X(e_k))`` for
these rows at every bin edge ``e_0 = lo, ..., e_bins = hi``; row j can land
in ``[lo, hi)`` only if ``q_j`` lies in its band ``[P(a_j, X(lo)) - eps,
P(a_j, X(hi)) + eps]``.  The narrow indices share a wider band: ``q >= 1 -
2 eps`` below ``j0`` and ``q <= 2 eps`` from ``j1`` on, tested in u at the
hard edge (``q = u P(a_j, n) <= u``, and ``q <= 2 eps`` implies ``u <= 2 eps
/ P(a_{n-1}, n)``).  A trial draws one uniform per table row.  A narrow
index keeps a draw in its band with probability ``2 eps`` or ``p_above``
(the threshold in u), so one trigger uniform per trial, against ``P_none =
(1 - 2 eps)^j0 (1 - p_above)^(n - j1)`` (about ``1 - 2e-6`` at n = 2^20),
decides whether :func:`_narrow_draws` draws any.  A kept row draw more than
``eps`` from every edge probability takes the bin between the two around
it, found by a binary search over its row; a draw within ``eps`` of an edge
probability, and every narrow draw, is inverted and binned from its radius.

The premise: the inverse's backward error ``|P(a, P^{-1}(a, q)) - q|`` is
below ``eps``.  Then a draw more than ``eps`` from every edge probability
inverts strictly inside the bin the table gives it, with a margin of about
1e-13 relative in x, far above the rounding of r, of ``zoom (r - p)`` and
of the bin index; and a draw outside its band, shared or not, inverts
outside the window.  So every count equals that of the full inversion of
the trial's draws.  Once per run the check inverts every cutting edge of a
table row, and each shared threshold at the two extreme shapes of its
indices (``1 - 2 eps`` at 0 and ``j0 - 1``, ``2 eps`` at ``j1`` and ``n -
1``): their backward error must stay below ``eps`` and their values outside
the window, or the run is refused (:class:`InversionCheckFailed`).
``P^{-1}(a, q)`` increases in ``a``, so for the values the extreme shapes
cover every narrow index; the backward error is measured at them only.
``gammaincinv`` passes the check for n up to 2^22, and fails it from about
n = 2^23 on.

A run draws from one PCG64 stream seeded with ``seed``: trial k is its
draws ``k (R + 1) .. (k + 1) (R + 1) - 1``, its trigger and then the
uniforms of the ``R = j1 - j0`` table rows, so a trial's draws depend on
the window's rows; its narrow draws come from ``SeedSequence(seed,
spawn_key=(k,))``.  ``advance`` jumps to a block's first trial, and one call
draws the whole block, so a trial drawn alone equals its row in any block.
Trials run one block after another in one thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import bisect
import math
import numpy as np
from scipy.special import gammainc, gammaincinv

from .finite_n import Potential, RescaleFrame
from .special import NumericError

__all__ = [
    "BudgetExceeded",
    "InversionCheckFailed",
    "SampleConfig",
    "Histogram1D",
    "radial_profile",
]

BUDGET_LIMIT = 10**9
# float64 entries of the edge table, 64 MB: n = 2^20 at 40 bins needs 0.86 M
TABLE_BUDGET = 1 << 23
# probability margin of the inversion band: about 200x the worst backward
# error of gammaincinv on 2e5 random (a <= 2^14, u) pairs (5.2e-15 to 5.4e-15)
BAND_EPS = 1e-12
# uniforms (or bin counts, if a trial has more bins than uniforms) per block
# of trials: a block's temporaries stay O(points) while each numpy call still
# spans many trials
BLOCK_POINTS = 2**16


class BudgetExceeded(ValueError):
    """n * trials, the bin edges or the edge table exceed their budget: a usage error."""


class InversionCheckFailed(NumericError):
    """The inverse Gamma CDF misses the band margin at a band edge."""


@dataclass(frozen=True)
class SampleConfig:
    """A reproducible sampling run: the frame (its potential and matrix size
    n), trials, seed."""

    frame: RescaleFrame
    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.frame.n * self.trials > BUDGET_LIMIT:
            raise BudgetExceeded(
                f"n*trials = {self.frame.n * self.trials} exceeds the sampling "
                f"budget of {BUDGET_LIMIT}"
            )


@dataclass(frozen=True)
class Histogram1D:
    """Binned counts of one profile run, and what turns them into intensities.

    :meth:`estimates` divides the counts by ``trials * bin width * scale``,
    with ``scale`` the per-bin Jacobian ``2 r zoom`` that converts radial
    counts into the rescaled planar one-point function per unit ``dA``
    (area measure normalized by 1/pi, the convention in which the bulk
    intensity is exactly 1).
    """

    lo: float
    hi: float
    bins: int
    counts: np.ndarray
    trials: int
    counts_sq: np.ndarray       # per-bin sum over trials of count^2
    scale: np.ndarray           # per-bin Jacobian divisor 2 r zoom
    inverted: int               # inverse-CDF evaluations: band check, near-edge and narrow draws
    band_backward_error: float  # worst backward error at the band edges
    band_rows: int              # indices j0 .. j1 - 1 with a row of the edge table

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bins

    def bin_centers(self) -> np.ndarray:
        return _bin_centers(self.lo, self.hi, self.bins)

    def estimates(self) -> np.ndarray:
        return self.counts / (self.trials * self.bin_width * self.scale)

    def stderrs(self) -> np.ndarray:
        """Standard error of each bin estimate from across-trial variation
        (from Poisson counts when there is one trial)."""
        t = self.trials
        if t < 2:
            return np.sqrt(self.counts.astype(float)) / (t * self.bin_width * self.scale)
        mean = self.counts / t
        var = np.maximum(self.counts_sq / t - mean * mean, 0.0) * t / (t - 1)
        return np.sqrt(var / t) / (self.bin_width * self.scale)


def _bin_centers(lo: float, hi: float, bins: int) -> np.ndarray:
    """Centres of ``bins`` equal bins of ``[lo, hi)``."""
    return lo + (np.arange(bins) + 0.5) * ((hi - lo) / bins)


def _shapes(pot: Potential, j) -> np.ndarray:
    """Gamma shapes ``a_j`` of the radial laws of the indices ``j``."""
    return (np.asarray(j, dtype=float) + 1.0) / pot.lam


def _radius_of(pot: Potential, n: int, x: np.ndarray) -> np.ndarray:
    """Radius of the Gamma variate ``x``, at most 1 at the hard edge;
    increasing in ``x``."""
    q = np.minimum(x / n, 1.0) if pot.kind == "hard_edge" else x / n
    return q ** (1.0 / (2.0 * pot.lam))


def _radii_from_uniforms(pot: Potential, n: int, u: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Radii of the indices ``j`` from one uniform each."""
    a = _shapes(pot, j)
    q = u * gammainc(a, float(n)) if pot.kind == "hard_edge" else u
    return _radius_of(pot, n, gammaincinv(a, q))


def _trial_uniforms(seed: int, width: int, start: int, stop: int) -> np.ndarray:
    """Rows of ``width`` uniforms of trials ``start..stop-1``: trial k is draws
    ``k width .. (k+1) width - 1`` of the stream seeded with ``seed``."""
    bits = np.random.PCG64(seed)
    bits.advance(start * width)
    return np.random.Generator(bits).random((stop - start, width))


def _histogram_counts(values: np.ndarray, lo: float, hi: float, bins: int,
                      rows=0, nrows: int = 1) -> np.ndarray:
    """Counts of ``values`` in ``bins`` equal bins of ``[lo, hi)``: one row
    of counts per label in ``rows`` (labels ``0..nrows-1``)."""
    idx = np.floor((values - lo) / ((hi - lo) / bins)).astype(np.int64)
    inside = (idx >= 0) & (idx < bins) & (values < hi)
    flat = (rows * bins + idx)[inside]
    return np.bincount(flat, minlength=nrows * bins).reshape(nrows, bins)


# the band that the narrow indices share: below j0 and from j1 on
Q_BELOW = 1.0 - 2.0 * BAND_EPS
Q_ABOVE = 2.0 * BAND_EPS


@dataclass(frozen=True)
class _Band:
    """Gamma probabilities at the bin edges of a window of a size-``n`` run
    for the indices ``j0 .. j1 - 1`` that can reach it, and the bands.

    Row i of ``p`` holds ``P(a_j, X(e_k))`` of index ``j = j0 + i`` at edges
    ``e_0 .. e_bins`` in columns ``0 .. bins``, nondecreasing in k, then
    ``+inf`` up to a power-of-two width for the binary search.  Row i's draw
    is kept when ``u_i q_scale_i`` lies in ``[q_lo_i, q_hi_i]``, its band
    widened by ``BAND_EPS``; ``q_scale`` is ``P(a_j, n)`` at the hard edge
    and None otherwise.  A narrow index keeps its draw with probability
    ``p_narrow[0]`` below ``j0``, ``p_narrow[1]`` (a threshold in u) above.
    """

    n: int
    j0: int
    j1: int
    q_scale: np.ndarray | None
    p: np.ndarray
    q_lo: np.ndarray
    q_hi: np.ndarray
    p_narrow: tuple
    checked: int            # band edges inverted by the check
    backward_error: float   # worst |P(a, P^{-1}(a, q)) - q| over those edges

    def log_keep_none(self) -> tuple:
        """Log-probabilities that the narrow indices below ``j0``, and those
        from ``j1`` on, keep no draw."""
        return (self.j0 * math.log1p(-self.p_narrow[0]),
                (self.n - self.j1) * math.log1p(-self.p_narrow[1]))


def _window_band(frame: RescaleFrame, lo: float, hi: float, bins: int) -> _Band:
    """The edge table and bands of the window of ``frame``, checked once
    (module docstring).

    A row whose outer edges lie within ``2 eps`` keeps ``P(a, X(lo))`` in its
    inner columns: each draw of its band sits within ``eps`` of an outer edge
    and is inverted.  The running maximum over the edges only guards the
    order against rounding.  A window that no index can reach (``j1 == j0``)
    and a table of more than ``TABLE_BUDGET`` entries are refused before
    anything is built or drawn.
    """
    pot, n = frame.pot, frame.n
    with np.errstate(over="ignore"):  # an edge beyond every radius maps to inf
        x = n * np.maximum(frame.to_global(np.linspace(lo, hi, bins + 1)), 0.0) ** (2.0 * pot.lam)
    j0 = bisect.bisect_left(range(n), True, key=lambda j: (
        gammainc(_shapes(pot, j), x[0]) < 1.0 - BAND_EPS / 2))
    j1 = bisect.bisect_left(range(n), True, lo=j0, key=lambda j: (
        gammainc(_shapes(pot, j), x[-1]) <= BAND_EPS / 2))
    if j1 == j0:
        raise ValueError(f"no index can reach the window {lo:g}:{hi:g} at n={n}: each lands "
                         f"in it with probability below {BAND_EPS / 2:g}, so every count is 0")
    width = 1 << bins.bit_length()  # a power of two > bins
    if (j1 - j0) * width > TABLE_BUDGET:
        raise BudgetExceeded(f"{bins} bins need an edge table of {j1 - j0} x {width} = "
                             f"{(j1 - j0) * width} entries, over the budget of {TABLE_BUDGET}")
    a = _shapes(pot, np.arange(j0, j1))
    p = np.full((j1 - j0, width), np.inf)
    p[:, :bins] = gammainc(a, x[0])[:, None]
    p[:, bins] = gammainc(a, x[-1])
    wide = p[:, bins] - p[:, 0] > 2.0 * BAND_EPS
    p[wide, 1:bins] = gammainc(a[wide, None], x[1:-1])
    np.maximum.accumulate(p, axis=1, out=p)
    q_lo = p[:, 0] - BAND_EPS
    q_hi = p[:, bins] + BAND_EPS
    q_scale, p_above = None, Q_ABOVE
    if pot.kind == "hard_edge":
        q_scale = gammainc(a, float(n))
        p_above = Q_ABOVE / gammainc(_shapes(pot, n - 1), float(n))
    cut_lo = q_lo > 0.0
    cut_hi = q_hi < (1.0 if q_scale is None else q_scale)
    below = sorted({0, j0 - 1}) if j0 else []
    above = sorted({j1, n - 1}) if j1 < n else []
    a_e = np.concatenate([a[cut_lo], _shapes(pot, below), a[cut_hi], _shapes(pot, above)])
    q_e = np.concatenate([q_lo[cut_lo], np.full(len(below), Q_BELOW),
                          q_hi[cut_hi], np.full(len(above), Q_ABOVE)])
    x_e = gammaincinv(a_e, q_e)
    err = float(np.max(np.abs(gammainc(a_e, x_e) - q_e), initial=0.0))
    v_e = frame.to_local(_radius_of(pot, n, x_e))
    k = int(cut_lo.sum()) + len(below)
    if not err < BAND_EPS or np.any(v_e[:k] >= lo) or np.any(v_e[k:] < hi):
        raise InversionCheckFailed(
            f"inverse Gamma CDF misses the {BAND_EPS:g} band margin at n={n}: "
            f"backward error {err:.2e} at the band edges")
    return _Band(n, j0, j1, q_scale, p, q_lo, q_hi, (Q_ABOVE, p_above), int(a_e.size), err)


def _narrow_draws(band: _Band, seed: int, k: int) -> tuple:
    """Indices and uniforms of trial k's kept narrow draws, given that it keeps
    one, from its own child stream: the first kept index of ``0 .. j0 - 1,
    j1 .. n - 1`` by inverse CDF of its truncated-geometric law, each later
    one kept independently with its ``band.p_narrow`` (a binomial count at
    uniform positions), and each kept uniform uniform on its shared band."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
    j0, j1, n = band.j0, band.j1, band.n
    (p_below, p_above), (log_below, log_above) = band.p_narrow, band.log_keep_none()
    # the first kept index is the first at which log P(none kept so far) < c
    c = math.log1p(math.expm1(log_below + log_above) * rng.random())
    first = math.floor(c / math.log1p(-p_below))
    if first < j0 or j1 == n:
        first = min(first, j0 - 1)
    else:
        first = j1 + min(math.floor((c - log_below) / math.log1p(-p_above)), n - j1 - 1)
    j = [first]
    for start, stop, p in ((first + 1, j0, p_below), (max(first + 1, j1), n, p_above)):
        if start < stop:
            j.extend(start + rng.choice(stop - start, rng.binomial(stop - start, p), replace=False))
    j = np.array(j)
    v = rng.random(j.size)
    # below j0 up to the largest uniform numpy draws, so no radius is infinite
    return j, np.where(j < j0, Q_BELOW + (np.nextafter(1.0, 0.0) - Q_BELOW) * v, p_above * v)


def radial_profile(cfg: SampleConfig, hist) -> Histogram1D:
    """Empirical rescaled one-point profile along a ray from the centre of
    ``cfg.frame``, whose potential and n the run samples.

    Histograms ``zoom (r - p)`` over all trials, with per-bin squared counts
    and the Jacobian ``2 r zoom`` at each bin centre: the estimate in each
    bin divides by it, so it converges to the rescaled one-point function
    of ``limits.LimitKernelSpec.of_frame(cfg.frame)``.  ``hist`` is the
    ``(lo, hi, bins)`` window.

    Each trial is drawn, binned and inverted as the module docstring says.
    Trials run in blocks of about ``BLOCK_POINTS`` uniforms or bin counts,
    whichever a trial has more of, so temporaries stay O(points).
    """
    lo, hi, bins = _hist_window(hist)
    frame, pot, n = cfg.frame, cfg.frame.pot, cfg.frame.n
    band = _window_band(frame, lo, hi, bins)
    rows_p, width = band.p.shape
    table = band.p.ravel()
    p_none = math.exp(sum(band.log_keep_none()))
    counts = np.zeros(bins, dtype=np.int64)
    counts_sq = np.zeros(bins, dtype=np.int64)
    inverted = band.checked
    step = max(1, BLOCK_POINTS // max(n, bins))
    for start in range(0, cfg.trials, step):
        stop = min(start + step, cfg.trials)
        u = _trial_uniforms(cfg.seed, rows_p + 1, start, stop)
        trigger, u = u[:, 0], u[:, 1:]
        q = u if band.q_scale is None else u * band.q_scale
        rows, cols = np.divmod(np.flatnonzero((q >= band.q_lo) & (q <= band.q_hi)), rows_p)
        q = q[rows, cols]
        q_eps = q - BAND_EPS
        # pos - base counts the edges of the draw's row below q_eps.  The
        # top edge is below it only by rounding, so the count is capped at
        # bins.  Kept draws lie in the band, so a draw with no edge below
        # q_eps sits within eps of the lower edge
        base = cols * width
        pos = base.copy()
        half = width // 2
        while half:
            pos += half * (q_eps > table[pos + (half - 1)])
            half //= 2
        np.minimum(pos, base + bins, out=pos)
        near = q >= table[pos] - BAND_EPS
        far = rows[~near] * bins + (pos - base)[~near] - 1
        h = np.bincount(far, minlength=(stop - start) * bins).reshape(-1, bins)
        draws = [(rows[near], band.j0 + cols[near], u[rows[near], cols[near]])]
        for t in np.flatnonzero(trigger >= p_none):
            j, u_t = _narrow_draws(band, cfg.seed, start + t)
            draws.append((np.full(j.size, t), j, u_t))
        trial, j, u = map(np.concatenate, zip(*draws))
        values = frame.to_local(_radii_from_uniforms(pot, n, u, j))
        h += _histogram_counts(values, lo, hi, bins, trial, stop - start)
        counts += h.sum(axis=0)
        counts_sq += (h * h).sum(axis=0)
        inverted += values.size
    scale = 2.0 * np.maximum(frame.to_global(_bin_centers(lo, hi, bins)), 1e-300) * frame.zoom
    return Histogram1D(lo, hi, bins, counts, cfg.trials, counts_sq, scale, inverted,
                       band.backward_error, rows_p)


def _hist_window(hist) -> tuple:
    """The ``(lo, hi, bins)`` window ``hist``, checked before any sampling."""
    lo, hi, bins = hist
    lo, hi, bins = float(lo), float(hi), int(bins)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"histogram window needs finite lo < hi, got {lo}:{hi}")
    if bins < 1:
        raise ValueError(f"histogram needs at least one bin, got {bins}")
    if bins + 1 > TABLE_BUDGET:
        raise BudgetExceeded(f"{bins} bins need {bins + 1} edges, over the table budget "
                             f"of {TABLE_BUDGET}")
    return lo, hi, bins

"""Radial sampling of rotation-invariant ensembles: determinism,
conservation, the exact law of the counts, and agreement with the limiting
profiles."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from scipy.special import gammainc, gammaincinv
from scipy.stats import gamma as gamma_dist

from plasma_kernel import sampler
from plasma_kernel.finite_n import Potential, RescaleFrame
from plasma_kernel.sampler import (
    BAND_EPS,
    BLOCK_POINTS,
    BUDGET_LIMIT,
    BudgetExceeded,
    Histogram1D,
    SampleConfig,
    _histogram_counts,
    _radii_from_uniforms,
    radial_profile,
)
from plasma_kernel.special import plasma_F

rng = np.random.default_rng(11)

GINIBRE = Potential.ginibre()
# the largest uniform numpy draws
U_TOP = np.nextafter(1.0, 0.0)


# --------------------------------------------------------------------------
# configuration and reproducibility
# --------------------------------------------------------------------------


def test_config_validation():
    one = RescaleFrame(GINIBRE, 1, "boundary")
    with pytest.raises(ValueError):
        SampleConfig(RescaleFrame(GINIBRE, 0, "boundary"), 1, 0)
    with pytest.raises(ValueError):
        SampleConfig(one, 0, 0)
    with pytest.raises(ValueError):
        SampleConfig(one, 1, -1)
    with pytest.raises(ValueError):
        SampleConfig(one, 1, 2**64)
    with pytest.raises(BudgetExceeded):
        SampleConfig(RescaleFrame(GINIBRE, BUDGET_LIMIT, "boundary"), 2, 0)


def test_radii_deterministic_per_trial():
    # a trial's draws, its row uniforms and its narrow draws alike, are a
    # pure function of (seed, trial)
    frame = RescaleFrame(GINIBRE, 64, "boundary")
    band = sampler._window_band(frame, -3.0, 1.0, 40)
    width = len(band.p) + 1
    one = sampler._trial_uniforms(123, width, 3, 4)
    assert_array_equal(one, sampler._trial_uniforms(123, width, 3, 4))
    assert not np.array_equal(one, sampler._trial_uniforms(123, width, 4, 5))
    assert not np.array_equal(one, sampler._trial_uniforms(124, width, 3, 4))
    narrow = sampler._narrow_draws(band, 123, 3)
    assert all(map(np.array_equal, narrow, sampler._narrow_draws(band, 123, 3)))
    assert not np.array_equal(narrow[1], sampler._narrow_draws(band, 123, 4)[1])
    cfg = SampleConfig(frame, 10, seed=123)
    one, two = (radial_profile(cfg, (-3.0, 1.0, 40)) for _ in range(2))
    assert_array_equal(one.counts, two.counts)
    assert_array_equal(one.counts_sq, two.counts_sq)


@pytest.mark.parametrize("n,trials,ks", [
    (1024, 200, (0, 63, 64, 199)),
    (2**17, 3, (0, 1, 2)),
], ids=["n1024", "n2^17"])
def test_trial_drawn_alone_equals_its_row_in_a_block(n, trials, ks):
    # trial k is draws k (R + 1) .. (k + 1) (R + 1) - 1 of the run's one
    # stream, R the table rows: drawn alone it equals its row of the
    # sampler's block, at n = 1024 the first row, a block's last and the
    # next block's first, and the run's last; above BLOCK_POINTS every block
    # is one trial
    band = sampler._window_band(RescaleFrame(GINIBRE, n, "boundary"), -3.0, 1.0, 40)
    width = len(band.p) + 1
    step = max(1, BLOCK_POINTS // n)
    assert step == (64 if n == 1024 else 1)
    for k in ks:
        start = k - k % step
        block = sampler._trial_uniforms(5, width, start, min(start + step, trials))
        assert_array_equal(sampler._trial_uniforms(5, width, k, k + 1)[0], block[k - start])


@pytest.mark.parametrize("block_points", [1, 300, 5000])
def test_block_size_leaves_the_counts_alone(monkeypatch, block_points):
    # a trial's uniforms do not depend on its block, so blocks of any size,
    # down to one trial (the size many bins force), give the same counts
    cfg = SampleConfig(RescaleFrame(GINIBRE, 64, "boundary"), trials=37, seed=5)
    ref = radial_profile(cfg, (-3.0, 1.0, 40))
    monkeypatch.setattr(sampler, "BLOCK_POINTS", block_points)
    got = radial_profile(cfg, (-3.0, 1.0, 40))
    assert got.counts.tobytes() == ref.counts.tobytes()
    assert got.counts_sq.tobytes() == ref.counts_sq.tobytes()
    assert got.inverted == ref.inverted


def test_blocks_hold_trials_times_bins_within_the_budget(monkeypatch):
    # n = 1024 at 40 bins keeps blocks of 64 trials; 100,000 bins at n = 64
    # get one trial per block instead of 1024 (three 1024 x 100,000 int64
    # arrays, about 2.5 GB)
    sizes = []
    uniforms = sampler._trial_uniforms
    monkeypatch.setattr(sampler, "_trial_uniforms", lambda seed, width, start, stop: (
        sizes.append(stop - start) or uniforms(seed, width, start, stop)))
    radial_profile(SampleConfig(RescaleFrame(GINIBRE, 1024, "boundary"), trials=100, seed=1),
                   (-3.0, 1.0, 40))
    assert sizes == [64, 36]
    sizes.clear()
    radial_profile(SampleConfig(RescaleFrame(GINIBRE, 64, "boundary"), trials=3, seed=1),
                   (-3.0, 1.0, 100_000))
    assert sizes == [1, 1, 1]


# --------------------------------------------------------------------------
# the radial laws themselves
# --------------------------------------------------------------------------


def test_ginibre_moduli_are_gamma_quantiles():
    # r_j^2 ~ gamma(j+1, 1/n): pushing the shared uniforms through scipy's
    # quantile function must reproduce the sampler exactly
    n = 16
    u = rng.random(n)
    ours = _radii_from_uniforms(GINIBRE, n, u, np.arange(n))
    ref = np.sqrt(gamma_dist.ppf(u, np.arange(1, n + 1)) / n)
    assert_allclose(ours, ref, rtol=1e-10)


def test_power_law_moduli_distribution():
    # Power(2), index j = 3: r^4 ~ gamma(2) / n; Kolmogorov-Smirnov at 1%
    pot = Potential.power(2.0)
    n, draws = 10, 2000
    samples = np.empty(draws)
    for t in range(draws):
        u = rng.random(n)
        samples[t] = _radii_from_uniforms(pot, n, u, np.arange(n))[3]
    pulled = n * samples**4
    grid = np.sort(pulled)
    ecdf = np.arange(1, draws + 1) / draws
    dist = np.max(np.abs(ecdf - gamma_dist.cdf(grid, 2.0)))
    assert dist * math.sqrt(draws) <= 1.63


def test_hard_edge_radii_clipped_to_disc():
    # every radius is positive, and inside the disc at the hard edge, down
    # to the smallest and up to the largest uniform numpy draws
    n = 256
    u = np.concatenate([rng.random((4, n)), [np.zeros(n), np.full(n, U_TOP)]])
    r = _radii_from_uniforms(Potential.hard_edge(), n, u, np.arange(n))
    assert np.all(r <= 1.0)
    assert np.all(r[:4] > 0.0)
    assert np.all(_radii_from_uniforms(GINIBRE, n, u[:4], np.arange(n)) > 0.0)


def test_kostlan_mean_modulus():
    # E r_j^2 = (j+1)/n for Ginibre: check the empirical mean of sum r_j^2,
    # which is n(n+1)/(2n); 200 trials keep the standard error tiny
    u = np.random.default_rng(77).random((200, 64))
    total = np.mean(np.sum(_radii_from_uniforms(GINIBRE, 64, u, np.arange(64)) ** 2, axis=1))
    assert_allclose(total, 65.0 / 2.0, rtol=0.02)


# --------------------------------------------------------------------------
# histograms
# --------------------------------------------------------------------------


def test_histogram_validation_and_centers(monkeypatch):
    # a bad window is refused before any draw
    monkeypatch.setattr(sampler, "_trial_uniforms", None)
    cfg = SampleConfig(RescaleFrame(GINIBRE, 64, "boundary"), 2, seed=0)
    with pytest.raises(ValueError):
        radial_profile(cfg, (1.0, 0.0, 10))
    with pytest.raises(ValueError):
        radial_profile(cfg, (0.0, 1.0, 0))
    monkeypatch.undo()
    hist = radial_profile(cfg, (-1.0, 1.0, 4))
    assert isinstance(hist, Histogram1D)
    assert hist.bin_width == pytest.approx(0.5)
    assert_allclose(hist.bin_centers(), [-0.75, -0.25, 0.25, 0.75])
    assert hist.counts.dtype == np.int64


def test_profile_counts_conserved():
    # a window covering every transformed radius must count n per trial
    cfg = SampleConfig(RescaleFrame(GINIBRE, 64, "boundary"), 25, seed=3)
    hist = radial_profile(cfg, (-30.0, 30.0, 120))
    assert int(hist.counts.sum()) == 64 * 25


def test_boundary_profile_matches_plasma_profile():
    # moderate run: every bin within 3 standard errors + bin bias of F(2x)
    cfg = SampleConfig(RescaleFrame(GINIBRE, 256, "boundary"), 600, seed=42)
    hist = radial_profile(cfg, (-3.0, 1.0, 40))
    est = hist.estimates()
    err = hist.stderrs()
    target = np.array([complex(plasma_F(2 * x)).real
                       for x in hist.bin_centers()])
    dev = np.abs(est - target)
    assert np.all(dev <= 3.0 * err + 0.03)


def test_singularity_profile_flat_for_ginibre():
    # lam = 1: the rescaled radial intensity is flat at 1
    cfg = SampleConfig(RescaleFrame(GINIBRE, 400, "singularity"), 300, seed=8)
    hist = radial_profile(cfg, (0.5, 3.5, 15))
    est = hist.estimates()
    err = hist.stderrs()
    assert np.all(np.abs(est - 1.0) <= 3.0 * err + 0.05)


def test_singularity_profile_rejects_hard_edge():
    with pytest.raises(ValueError):
        RescaleFrame(Potential.hard_edge(), 64, "singularity")


# --------------------------------------------------------------------------
# the exact law of the counts
# --------------------------------------------------------------------------


# family-wise false-alarm rate of one exact-law check, over all its bins
LAW_ALPHA = 1e-6


def _exact_bin_law(frame, lo, hi, bins):
    """Per trial, each bin's expected count and its variance.

    The radii are independent (Kostlan), so index j lands in bin k with
    probability ``P(a_j, X(e_{k+1})) - P(a_j, X(e_k))``, divided by ``P(a_j,
    n)`` at the hard edge, where ``X`` clips at n.  Summed over every index:
    the rows of the sampler's edge table and the narrow indices, whose mass
    is below ``BAND_EPS`` each.  Built here from ``gammainc`` alone, not from
    the sampler's table."""
    pot, n = frame.pot, frame.n
    with np.errstate(over="ignore"):
        x = n * np.maximum(frame.to_global(np.linspace(lo, hi, bins + 1)), 0.0) ** (2 * pot.lam)
    a = (np.arange(n) + 1.0)[:, None] / pot.lam
    if pot.kind == "hard_edge":
        cdf = gammainc(a, np.minimum(x, n)) / gammainc(a, n)
    else:
        cdf = gammainc(a, x)
    m = np.diff(cdf, axis=1)
    return m.sum(axis=0), (m * (1.0 - m)).sum(axis=0)


def _law_ratio(hist, frame):
    """Worst ``|count - trials mean| / s`` over the bins, with ``s`` the
    Bernstein bound at a false-alarm rate of ``LAW_ALPHA / bins`` per bin.
    Above 1 the counts break their law."""
    mean, var = _exact_bin_law(frame, hist.lo, hist.hi, hist.bins)
    s = _bernstein(hist.trials * var, math.log(2.0 * hist.bins / LAW_ALPHA))
    return float(np.max(np.abs(hist.counts - hist.trials * mean) / s))


def _bernstein(var, log_odds):
    """The deviation ``s`` that a sum of independent Bernoulli variables of
    total variance ``var`` exceeds with probability at most ``2 exp(-s^2 /
    (2 (var + s / 3))) = 2 exp(-log_odds)``."""
    return log_odds / 3.0 + np.sqrt((log_odds / 3.0) ** 2 + 2.0 * log_odds * var)


LAW_CASES = {
    "ginibre": (GINIBRE, "boundary", (-3.0, 1.0, 40)),
    "power2-boundary": (Potential.power(2.0), "boundary", (-3.0, 1.0, 40)),
    "power2-singularity": (Potential.power(2.0), "singularity", (0.0, 4.0, 20)),
    "hard-edge": (Potential.hard_edge(), "boundary", (-3.0, 1.0, 40)),
}


@pytest.mark.parametrize("case", sorted(LAW_CASES))
def test_counts_follow_their_exact_law(case):
    # n = 1024, 2000 trials: every bin's count lies within the Bernstein
    # bound of its exact mean; a false alarm has probability below 1e-6
    pot, kind, window = LAW_CASES[case]
    frame = RescaleFrame(pot, 1024, kind)
    hist = radial_profile(SampleConfig(frame, 2000, seed=3), window)
    assert _law_ratio(hist, frame) <= 1.0


def test_exact_law_sees_a_table_off_by_one_bin(monkeypatch):
    # the sampler's edge table shifted by one bin (inner edge k takes edge
    # k + 1's probabilities) bins the far draws one bin low: the law fails
    window_band = sampler._window_band

    def shifted(frame, lo, hi, bins):
        band = window_band(frame, lo, hi, bins)
        band.p[:, 1:bins] = band.p[:, 2:bins + 1]
        return band

    monkeypatch.setattr(sampler, "_window_band", shifted)
    pot, kind, window = LAW_CASES["ginibre"]
    frame = RescaleFrame(pot, 1024, kind)
    hist = radial_profile(SampleConfig(frame, 2000, seed=3), window)
    assert _law_ratio(hist, frame) > 1.0


def test_stderr_scales_like_inverse_sqrt_trials():
    frame = RescaleFrame(GINIBRE, 64, "boundary")
    errs = []
    for trials in (50, 200):
        hist = radial_profile(SampleConfig(frame, trials, seed=1), (-2.0, 0.0, 10))
        errs.append(np.median(hist.stderrs()))
    assert 1.5 <= errs[0] / errs[1] <= 2.6


# --------------------------------------------------------------------------
# the inversion band: only radii that can land in the window are inverted
# --------------------------------------------------------------------------


def _frame(pot, n):
    """The singularity frame of a power potential, else the boundary frame."""
    return RescaleFrame(pot, n, "singularity" if pot.kind == "power" else "boundary")


def _trial_draws(cfg, band, t):
    """Trial t's indices and uniforms as the sampler draws them: one per
    table row, and the kept narrow draws when its trigger is past
    ``P_none``."""
    u = sampler._trial_uniforms(cfg.seed, len(band.p) + 1, t, t + 1)[0]
    j, u_rows = np.arange(band.j0, band.j1), u[1:]
    if u[0] < math.exp(sum(band.log_keep_none())):
        return j, u_rows
    j_narrow, u_narrow = sampler._narrow_draws(band, cfg.seed, t)
    return np.concatenate([j, j_narrow]), np.concatenate([u_rows, u_narrow])


def _full_inversion_counts(cfg, lo, hi, bins):
    """Counts and squared counts of every trial's draws, each inverted."""
    frame = cfg.frame
    band = sampler._window_band(frame, lo, hi, bins)
    c = np.zeros(bins, dtype=np.int64)
    c2 = np.zeros(bins, dtype=np.int64)
    for t in range(cfg.trials):
        j, u = _trial_draws(cfg, band, t)
        r = _radii_from_uniforms(frame.pot, frame.n, u, j)
        h = _histogram_counts(frame.zoom * (r - frame.p), lo, hi, bins)[0]
        c += h
        c2 += h * h
    return c, c2


@pytest.mark.parametrize("pot,window", [
    (GINIBRE, (-3.0, 1.0, 40)),
    (Potential.hard_edge(), (-3.0, 1.0, 40)),
    (Potential.hard_edge(), (-2.0, -0.5, 6)),
    (Potential.power(2.0), (0.9, 1.3, 2)),
    (GINIBRE, (-3.0, 1e300, 4)),
    (GINIBRE, (-3.0, 1.0, 1)),
    (Potential.hard_edge(), (-3.0, 1.0, 2)),
    (GINIBRE, (-3.0, 1.0, 3)),
    (Potential.hard_edge(), (-3.0, 1.0, 8)),
    (GINIBRE, (-3.0, 1.0, 64)),
    (Potential.hard_edge(), (-3.0, 1.0, 65)),
], ids=["ginibre", "hard-edge", "hard-edge-inner", "power2-singularity",
        "edge-beyond-every-radius", "ginibre-bins1", "hard-edge-bins2",
        "ginibre-bins3", "hard-edge-bins8", "ginibre-bins64",
        "hard-edge-bins65"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_windowed_counts_match_full_inversion(pot, window, seed):
    # the band drops only indices that cannot land in the window, and the
    # kept radii are bitwise those of the full inversion
    n, trials = 256, 30
    cfg = SampleConfig(_frame(pot, n), trials, seed)
    hist = radial_profile(cfg, window)
    counts, counts_sq = _full_inversion_counts(cfg, *window)
    assert_array_equal(hist.counts, counts)
    assert_array_equal(hist.counts_sq, counts_sq)
    assert hist.inverted < n * trials


def test_window_inverts_few_radii(monkeypatch):
    # ginibre n = 1024, window -3:1: about 180 draws per trial land in the
    # band and the edge table bins them without inversion.  The band-edge
    # check inverts about 1200 points once per run; a draw within eps of an
    # edge probability (a chance of about 3e-8 per trial) would add one
    points = []

    def counting(a, q):
        points.append(np.size(a))
        return gammaincinv(a, q)

    monkeypatch.setattr(sampler, "gammaincinv", counting)
    n, trials = 1024, 20
    cfg = SampleConfig(RescaleFrame(GINIBRE, n, "boundary"), trials, seed=4)
    hist = radial_profile(cfg, (-3.0, 1.0, 40))
    assert sum(points) == hist.inverted
    assert sum(points) / trials < n / 4
    assert sum(points) < 2 * n
    assert hist.band_backward_error < BAND_EPS


def test_band_margin_against_mpmath():
    # the band margin must dwarf the backward error |P(a, P^-1(a, q)) - q| of
    # the inverse, measured with a 40-digit regularized gamma integral
    mpmath = pytest.importorskip("mpmath")
    qs = np.concatenate([[1e-12, 1e-9, 1e-6, 1 - 1e-6],
                         np.random.default_rng(21).random(12)])
    worst = 0.0
    with mpmath.workdps(40):
        for a in (0.5, 1.0, 7.5, 100.0, 1024.0, 4096.0, 16384.0):
            for q in qs:
                x = gammaincinv(a, q)
                p = mpmath.gammainc(a, 0, float(x), regularized=True)
                worst = max(worst, abs(float(p - mpmath.mpf(float(q)))))
    assert worst <= BAND_EPS / 100


def test_inaccurate_inverse_refuses_the_run(monkeypatch):
    # an inverse whose backward error reaches the margin fails the band
    # check before any trial is drawn
    monkeypatch.setattr(sampler, "gammaincinv",
                        lambda a, q: gammaincinv(a, q) * (1.0 + 1e-9))
    cfg = SampleConfig(RescaleFrame(GINIBRE, 256, "boundary"), 2, seed=0)
    with pytest.raises(sampler.InversionCheckFailed, match="band margin"):
        radial_profile(cfg, (-3.0, 1.0, 8))


# --------------------------------------------------------------------------
# the edge table: a kept draw is binned by the Gamma CDF at the bin edges
# --------------------------------------------------------------------------


@pytest.mark.parametrize("pot", [GINIBRE, Potential.hard_edge()],
                         ids=["ginibre", "hard-edge"])
def test_draws_on_edge_probabilities_are_inverted(monkeypatch, pot):
    # per trial, three table rows get a probability exactly on an inner edge
    # probability and eps/2 either side of one: all three take the inverse,
    # and the counts stay those of the full inversion
    n, trials, window = 64, 6, (-3.0, 1.0, 8)
    frame = RescaleFrame(pot, n, "boundary")
    band = sampler._window_band(frame, *window)
    widest = int(np.argmax(band.p[:, 8] - band.p[:, 0]))
    offsets = (0.0, BAND_EPS / 2, -BAND_EPS / 2)
    real_uniforms = sampler._trial_uniforms

    def on_edges(seed, width, start, stop):
        u = real_uniforms(seed, width, start, stop)
        for trial, row in zip(range(start, stop), u):
            for i, off in enumerate(offsets):
                r, k = widest + i - 1, 1 + (i + trial) % 5  # edges -2.5 .. -0.5
                q = band.p[r, k] + off
                row[1 + r] = q if band.q_scale is None else q / band.q_scale[r]
        return u

    monkeypatch.setattr(sampler, "_trial_uniforms", on_edges)
    cfg = SampleConfig(frame, trials, seed=17)
    hist = radial_profile(cfg, window)
    counts, counts_sq = _full_inversion_counts(cfg, *window)
    assert_array_equal(hist.counts, counts)
    assert_array_equal(hist.counts_sq, counts_sq)
    assert hist.inverted == band.checked + len(offsets) * trials


def _fire_every_trigger(monkeypatch):
    """Make every trial's trigger the largest uniform, past any ``P_none < 1``."""
    real_uniforms = sampler._trial_uniforms

    def fired(seed, width, start, stop):
        u = real_uniforms(seed, width, start, stop)
        u[:, 0] = U_TOP
        return u

    monkeypatch.setattr(sampler, "_trial_uniforms", fired)


@pytest.mark.parametrize("pot,window,side", [
    (GINIBRE, (-3.0, 1.0, 40), "below"),
    (Potential.hard_edge(), (-3.0, 1.0, 40), "below"),
    (Potential.power(2.0), (0.9, 1.3, 2), "above"),
], ids=["ginibre-below-j0", "hard-edge-below-j0", "power2-above-j1"])
def test_draws_on_shared_thresholds_are_inverted(monkeypatch, pot, window, side):
    # every trigger fires, and the trial keeps two narrow draws: one on the
    # shared threshold in u (1 - 2 eps below j0, 2 eps from j1 on) and one
    # eps/2 inside it.  Both take the inverse, and the counts stay those of
    # the full inversion
    n, trials = 256, 6
    frame = _frame(pot, n)
    band = sampler._window_band(frame, *window)
    assert band.p_narrow[0] == 2.0 * BAND_EPS
    if side == "below":
        js, threshold, inside = [band.j0 - 2, band.j0 - 1], sampler.Q_BELOW, 1.0
    else:
        js, threshold, inside = [band.j1, band.j1 + 1], sampler.Q_ABOVE, -1.0
    _fire_every_trigger(monkeypatch)
    monkeypatch.setattr(sampler, "_narrow_draws", lambda band, seed, k: (
        np.array(js), np.array([threshold, threshold + inside * BAND_EPS / 2])))
    cfg = SampleConfig(frame, trials, seed=19)
    hist = radial_profile(cfg, window)
    counts, counts_sq = _full_inversion_counts(cfg, *window)
    assert_array_equal(hist.counts, counts)
    assert_array_equal(hist.counts_sq, counts_sq)
    assert hist.inverted == band.checked + 2 * trials


@pytest.mark.parametrize("pot", [GINIBRE, Potential.hard_edge()],
                         ids=["ginibre", "hard-edge"])
def test_a_fired_trigger_draws_and_inverts_narrow_draws(monkeypatch, pot):
    # trial 5's trigger is forced past P_none: its kept narrow draws come
    # from its own child stream, are inverted and counted in `inverted`, and
    # the counts stay those of the full inversion of the same draws
    n, trials, window = 1024, 8, (-3.0, 0.0, 6)
    frame = RescaleFrame(pot, n, "boundary")
    cfg = SampleConfig(frame, trials, seed=23)
    plain = radial_profile(cfg, window)
    band = sampler._window_band(frame, *window)
    j, u = sampler._narrow_draws(band, cfg.seed, 5)
    assert j.size >= 1 and np.all((j < band.j0) | (j >= band.j1))
    real_uniforms, real_narrow, calls = sampler._trial_uniforms, sampler._narrow_draws, []

    def trial_5_fires(seed, width, start, stop):
        u = real_uniforms(seed, width, start, stop)
        if start <= 5 < stop:
            u[5 - start, 0] = U_TOP
        return u

    monkeypatch.setattr(sampler, "_trial_uniforms", trial_5_fires)
    monkeypatch.setattr(sampler, "_narrow_draws", lambda band, seed, k: (
        calls.append(k) or real_narrow(band, seed, k)))
    hist = radial_profile(cfg, window)
    assert calls == [5]
    assert hist.inverted == plain.inverted + j.size
    counts, counts_sq = _full_inversion_counts(cfg, *window)
    assert_array_equal(hist.counts, counts)
    assert_array_equal(hist.counts_sq, counts_sq)


def test_narrow_draws_follow_their_law():
    # keep probabilities inflated to 1e-3 below j0 and 3e-3 from j1 on, seed
    # 9, 10,000 trials that keep a narrow draw (Ginibre n = 1024, bulk frame,
    # window 10:20, so both groups hold indices).  The first kept index
    # follows its truncated-geometric law (DKW bound on its CDF), every
    # later index of each group is kept with its probability (Bernstein
    # bound on each group's total and on each index), and each kept uniform
    # lies in its group's band.  Family-wise false-alarm rate: 1e-6
    frame = RescaleFrame(GINIBRE, 1024, "singularity")
    band = dataclasses.replace(sampler._window_band(frame, 10.0, 20.0, 5), p_narrow=(1e-3, 3e-3))
    j0, j1, n = band.j0, band.j1, band.n
    assert 0 < j0 < j1 < n
    narrow = np.concatenate([np.arange(j0), np.arange(j1, n)])
    p = np.where(narrow < j0, 1e-3, 3e-3)
    log_none = np.cumsum(np.log1p(-p))  # P(none kept up to and at each one)
    cdf = np.expm1(log_none) / np.expm1(log_none[-1])
    trials, alpha = 10_000, 1e-6 / 4
    first = np.empty(trials, dtype=np.int64)
    later = np.zeros(narrow.size)
    exposed = np.zeros(narrow.size)
    for k in range(trials):
        j, u = sampler._narrow_draws(band, 9, k)
        pos = np.searchsorted(narrow, j)
        assert np.array_equal(narrow[pos], j) and len(set(pos)) == pos.size
        assert np.all(np.where(j < j0, (u >= sampler.Q_BELOW) & (u < 1.0),
                               (u >= 0.0) & (u <= 3e-3)))
        first[k] = pos[0]
        assert np.all(pos[1:] > pos[0])
        later[pos[1:]] += 1
        exposed[pos[0] + 1:] += 1
    ecdf = np.searchsorted(np.sort(first), np.arange(narrow.size), side="right") / trials
    assert np.max(np.abs(ecdf - cdf)) <= math.sqrt(math.log(2.0 / alpha) / (2.0 * trials))
    mean, var = exposed * p, exposed * p * (1.0 - p)
    for group in (narrow < j0, narrow >= j1):
        dev = abs(later[group].sum() - mean[group].sum())
        assert dev <= _bernstein(var[group].sum(), math.log(4.0 / alpha))
    assert np.all(np.abs(later - mean) <= _bernstein(var, math.log(2.0 * narrow.size / alpha)))


def test_band_work_grows_with_the_window_not_n(monkeypatch):
    # n = 2^20, one trial: only the O(sqrt n) indices that can reach the
    # window get a row of the edge table, a uniform, band edges to check and
    # draws to invert, and the counts stay those of the full inversion
    n, window = 2**20, (-3.0, 1.0, 40)
    cfg = SampleConfig(RescaleFrame(GINIBRE, n, "boundary"), 1, seed=6)
    counts = _full_inversion_counts(cfg, *window)[0]
    points, widths = [], []

    def counting(a, q):
        points.append(np.size(a))
        return gammaincinv(a, q)

    real_uniforms = sampler._trial_uniforms
    monkeypatch.setattr(sampler, "gammaincinv", counting)
    monkeypatch.setattr(sampler, "_trial_uniforms", lambda seed, width, start, stop: (
        widths.append(width) or real_uniforms(seed, width, start, stop)))
    hist = radial_profile(cfg, window)
    assert_array_equal(hist.counts, counts)
    assert sum(points) == hist.inverted
    assert sum(points) < 32 * math.sqrt(n)
    assert hist.band_rows < 16 * math.sqrt(n)
    assert widths == [hist.band_rows + 1]


def test_edge_table_counts_match_full_inversion_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pots = {"ginibre": GINIBRE, "hard-edge": Potential.hard_edge(),
            "power:2": Potential.power(2.0)}

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.sampled_from(sorted(pots)),
        st.integers(1, 256),
        st.floats(-6.0, 3.0),
        st.floats(0.01, 8.0),
        st.integers(1, 64),
        st.integers(0, 2**32),
    )
    def check(pot_name, n, lo, width, bins, seed):
        cfg = SampleConfig(_frame(pots[pot_name], n), 4, seed)
        window = (lo, lo + width, bins)
        try:
            hist = radial_profile(cfg, window)
        except ValueError as exc:
            # refused only where no index can reach the window, so where the
            # full inversion counts nothing
            assert "no index can reach the window" in str(exc)
            assert _exact_bin_law(cfg.frame, *window)[0].sum() <= n * BAND_EPS
            return
        counts, counts_sq = _full_inversion_counts(cfg, *window)
        assert_array_equal(hist.counts, counts)
        assert_array_equal(hist.counts_sq, counts_sq)

    check()

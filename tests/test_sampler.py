"""Radial sampling of rotation-invariant ensembles: determinism, coupling,
conservation, and agreement with the limiting profiles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from scipy.special import gammaincinv
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
    _uniforms,
    radial_profile,
    sample_radii,
)
from plasma_kernel.special import plasma_F

rng = np.random.default_rng(11)

GINIBRE = Potential.ginibre()


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
    cfg = SampleConfig(RescaleFrame(GINIBRE, 64, "boundary"), 10, seed=123)
    assert_array_equal(sample_radii(cfg, 3), sample_radii(cfg, 3))
    assert not np.array_equal(sample_radii(cfg, 3), sample_radii(cfg, 4))
    other = SampleConfig(RescaleFrame(GINIBRE, 64, "boundary"), 10, seed=124)
    assert not np.array_equal(sample_radii(cfg, 3), sample_radii(other, 3))


@pytest.mark.parametrize("n,trials,ks", [
    (1024, 200, (0, 63, 64, 199)),
    (2**17, 3, (0, 1, 2)),
], ids=["n1024", "n2^17"])
def test_trial_drawn_alone_equals_its_row_in_a_block(n, trials, ks):
    # trial k is draws k n .. (k+1) n - 1 of the run's one stream: drawn
    # alone it equals its row of the sampler's block, at n = 1024 the first
    # row, a block's last and the next block's first, and the run's last;
    # above BLOCK_POINTS every block is one trial
    cfg = SampleConfig(RescaleFrame(GINIBRE, n, "boundary"), trials, seed=5)
    step = max(1, BLOCK_POINTS // n)
    assert step == (64 if n == 1024 else 1)
    for k in ks:
        start = k - k % step
        block = _uniforms(cfg, start, min(start + step, trials))
        alone = _uniforms(cfg, k, k + 1)[0]
        assert_array_equal(alone, block[k - start])
        assert_array_equal(np.sort(_radii_from_uniforms(GINIBRE, n, alone)),
                           sample_radii(cfg, k))


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
    uniforms = sampler._uniforms
    monkeypatch.setattr(sampler, "_uniforms", lambda cfg, start, stop: (
        sizes.append(stop - start) or uniforms(cfg, start, stop)))
    radial_profile(SampleConfig(RescaleFrame(GINIBRE, 1024, "boundary"), trials=100, seed=1),
                   (-3.0, 1.0, 40))
    assert sizes == [64, 36]
    sizes.clear()
    radial_profile(SampleConfig(RescaleFrame(GINIBRE, 64, "boundary"), trials=3, seed=1),
                   (-3.0, 1.0, 100_000))
    assert sizes == [1, 1, 1]


def test_radii_sorted_positive():
    cfg = SampleConfig(RescaleFrame(GINIBRE, 128, "boundary"), 1, seed=5)
    r = sample_radii(cfg, 0)
    assert r.shape == (128,)
    assert np.all(np.diff(r) >= 0.0)
    assert np.all(r > 0.0)


# --------------------------------------------------------------------------
# the radial laws themselves
# --------------------------------------------------------------------------


def test_ginibre_moduli_are_gamma_quantiles():
    # r_j^2 ~ gamma(j+1, 1/n): pushing the shared uniforms through scipy's
    # quantile function must reproduce the sampler exactly
    n = 16
    u = rng.random(n)
    ours = _radii_from_uniforms(GINIBRE, n, u)
    ref = np.sqrt(gamma_dist.ppf(u, np.arange(1, n + 1)) / n)
    assert_allclose(ours, ref, rtol=1e-10)


def test_power_law_moduli_distribution():
    # Power(2), index j = 3: r^4 ~ gamma(2) / n; Kolmogorov-Smirnov at 1%
    pot = Potential.power(2.0)
    n, draws = 10, 2000
    samples = np.empty(draws)
    for t in range(draws):
        u = rng.random(n)
        samples[t] = _radii_from_uniforms(pot, n, u)[3]
    pulled = n * samples**4
    grid = np.sort(pulled)
    ecdf = np.arange(1, draws + 1) / draws
    dist = np.max(np.abs(ecdf - gamma_dist.cdf(grid, 2.0)))
    assert dist * math.sqrt(draws) <= 1.63


def test_hard_edge_radii_clipped_to_disc():
    pot = Potential.hard_edge()
    cfg = SampleConfig(RescaleFrame(pot, 256, "boundary"), 4, seed=9)
    for trial in range(4):
        assert np.all(sample_radii(cfg, trial) <= 1.0)


def test_monotone_coupling_across_ensembles():
    # one shared uniform array drives every ensemble: the hard-edge radius
    # never exceeds the Ginibre radius truncated at the wall
    n = 64
    for _ in range(5):
        u = rng.random(n)
        r_gin = _radii_from_uniforms(GINIBRE, n, u)
        r_hard = _radii_from_uniforms(Potential.hard_edge(), n, u)
        assert np.all(r_hard <= np.minimum(r_gin, 1.0) + 1e-12)


def test_kostlan_mean_modulus():
    # E r_j^2 = (j+1)/n for Ginibre: check the empirical mean of sum r_j^2,
    # which is n(n+1)/(2n); 200 trials keep the standard error tiny
    cfg = SampleConfig(RescaleFrame(GINIBRE, 64, "boundary"), 200, seed=77)
    total = np.mean([np.sum(sample_radii(cfg, t) ** 2) for t in range(200)])
    assert_allclose(total, 65.0 / 2.0, rtol=0.02)


# --------------------------------------------------------------------------
# histograms
# --------------------------------------------------------------------------


def test_histogram_validation_and_centers(monkeypatch):
    # a bad window is refused before any draw
    monkeypatch.setattr(sampler, "_uniforms", None)
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


def _full_inversion_counts(cfg, lo, hi, bins):
    frame = cfg.frame
    c = np.zeros(bins, dtype=np.int64)
    c2 = np.zeros(bins, dtype=np.int64)
    for t in range(cfg.trials):
        r = _radii_from_uniforms(frame.pot, frame.n, _uniforms(cfg, t, t + 1)[0])
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
    # per trial, three indices get a probability exactly on an inner edge
    # probability and eps/2 either side of one: all three take the inverse,
    # and the counts stay those of the full inversion
    n, trials, window = 64, 6, (-3.0, 1.0, 8)
    frame = RescaleFrame(pot, n, "boundary")
    band = sampler._window_band(frame, *window)
    j0 = int(np.argmax(band.p[:, 8] - band.p[:, 0]))
    offsets = (0.0, BAND_EPS / 2, -BAND_EPS / 2)
    real_uniforms = sampler._uniforms

    def on_edges(cfg, start, stop):
        u = real_uniforms(cfg, start, stop)
        for trial, row in zip(range(start, stop), u):
            for i, off in enumerate(offsets):
                j, k = j0 + i - 1, 1 + (i + trial) % 5  # edges -2.5 .. -0.5
                q = band.p[j, k] + off
                row[j] = q if band.q_scale is None else q / band.q_scale[j]
        return u

    monkeypatch.setattr(sampler, "_uniforms", on_edges)
    monkeypatch.setitem(globals(), "_uniforms", on_edges)  # the reference's
    cfg = SampleConfig(frame, trials, seed=17)
    hist = radial_profile(cfg, window)
    counts, counts_sq = _full_inversion_counts(cfg, *window)
    assert_array_equal(hist.counts, counts)
    assert_array_equal(hist.counts_sq, counts_sq)
    assert hist.inverted == band.checked + len(offsets) * trials


@pytest.mark.parametrize("pot,window,side", [
    (GINIBRE, (-3.0, 1.0, 40), "below"),
    (Potential.hard_edge(), (-3.0, 1.0, 40), "below"),
    (Potential.power(2.0), (0.9, 1.3, 2), "above"),
], ids=["ginibre-below-j0", "hard-edge-below-j0", "power2-above-j1"])
def test_draws_on_shared_thresholds_are_inverted(monkeypatch, pot, window, side):
    # per trial, three narrow indices get a uniform on their shared threshold
    # (1 - 2 eps below j0, 2 eps from j1 on) and eps/2 inside and outside it:
    # the two in the band take the inverse, and the counts stay those of the
    # full inversion
    n, trials = 256, 6
    frame = _frame(pot, n)
    band = sampler._window_band(frame, *window)
    j1 = band.j0 + len(band.p)
    if side == "below":
        js, inside, threshold = range(band.j0 - 3, band.j0), 1.0, band.q_lo
        assert np.all(threshold[js] == 1.0 - 2.0 * BAND_EPS)
    else:
        js, inside, threshold = range(j1, j1 + 3), -1.0, band.q_hi
        assert np.all(threshold[js] == 2.0 * BAND_EPS)
    offsets = (0.0, inside * BAND_EPS / 2, -inside * BAND_EPS / 2)
    real_uniforms = sampler._uniforms

    def on_thresholds(cfg, start, stop):
        u = real_uniforms(cfg, start, stop)
        for trial, row in zip(range(start, stop), u):
            for i, off in enumerate(offsets):
                j = js[(i + trial) % 3]
                row[j] = threshold[j] + off
        return u

    monkeypatch.setattr(sampler, "_uniforms", on_thresholds)
    monkeypatch.setitem(globals(), "_uniforms", on_thresholds)  # the reference's
    cfg = SampleConfig(frame, trials, seed=19)
    hist = radial_profile(cfg, window)
    counts, counts_sq = _full_inversion_counts(cfg, *window)
    assert_array_equal(hist.counts, counts)
    assert_array_equal(hist.counts_sq, counts_sq)
    assert hist.inverted == band.checked + 2 * trials


def test_band_work_grows_with_the_window_not_n(monkeypatch):
    # n = 2^20, one trial: only the O(sqrt n) indices that can reach the
    # window get a row of the edge table, band edges to check and draws to
    # invert, and the counts stay those of the full inversion
    n, window = 2**20, (-3.0, 1.0, 40)
    frame = RescaleFrame(GINIBRE, n, "boundary")
    cfg = SampleConfig(frame, 1, seed=6)
    counts = _histogram_counts(frame.zoom * (sample_radii(cfg, 0) - 1.0), *window)[0]
    points = []

    def counting(a, q):
        points.append(np.size(a))
        return gammaincinv(a, q)

    monkeypatch.setattr(sampler, "gammaincinv", counting)
    hist = radial_profile(cfg, window)
    assert_array_equal(hist.counts, counts)
    assert sum(points) == hist.inverted
    assert sum(points) < 32 * math.sqrt(n)
    assert hist.band_rows < 16 * math.sqrt(n)


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
            assert not _full_inversion_counts(cfg, *window)[0].any()
            return
        counts, counts_sq = _full_inversion_counts(cfg, *window)
        assert_array_equal(hist.counts, counts)
        assert_array_equal(hist.counts_sq, counts_sq)

    check()

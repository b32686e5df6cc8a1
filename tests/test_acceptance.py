"""Acceptance battery: one test per numbered criterion, one printed
PASS/FAIL line per criterion.

Every residual is checked at its stated tolerance.  Two criteria measure
quantities whose true values exceed their stated tolerances (the truncated
Hermite series stalls at N^(-1/2) near the edge, and the exterior tail
ratio F(2x) e^{2x^2} equals 1/2 at x = 0); those tests report the measured
values and fail honestly rather than loosen the check.
"""

import math
import time

import numpy as np

from plasma_kernel.cli import main
from plasma_kernel.finite_n import Potential, RescaleFrame, exp_section, rescaled_kernel
from plasma_kernel.limits import (
    LimitKernelSpec,
    conditional_intensity,
    eighth_formula,
    gram_min_eig,
    hermite_identity_residual,
    inequality_suite,
    mass_one_residual,
    mass_one_series_residual,
    one_point,
    tail_bounds_report,
    telescoping_sum,
    ward_point_residual,
    ward_residual,
)
from plasma_kernel.sampler import SampleConfig, radial_profile
from plasma_kernel.special import hard_edge_H, plasma_F

BULK = LimitKernelSpec.ginibre_bulk()
FB = LimitKernelSpec.free_boundary()
HE = LimitKernelSpec.hard_edge()
ML2 = LimitKernelSpec.mittag_leffler(2.0)

THREADS = 8

# one line per criterion; tests/conftest.py prints them after the run,
# outside pytest's output capture
CRITERION_LINES = []


def _check(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert bool(ok), line


def _f(s: float) -> float:
    return complex(plasma_F(s)).real


def test_criterion_01_hard_edge_normalization():
    dev = abs(complex(hard_edge_H(0.0)).real - math.log(2.0))
    _check(1, dev <= 1e-8, f"H(0) = log 2 within 1e-8 (deviation {dev:.3e})")


def test_criterion_02_eighth_formula():
    val = eighth_formula()
    shifted = eighth_formula(shift=0.5)
    ok = abs(val - 0.125) <= 1e-8 and abs(shifted - 0.125) > 1e-3
    _check(2, ok,
           f"heat integral = 1/8 (got {val:.12f}); wrong center deviates "
           f"by {abs(shifted - 0.125):.3e} > 1e-3")


def test_criterion_03_mass_one():
    sup_fb = max(abs(mass_one_residual(FB, z))
                 for z in (0.0, 1.0, -1.0 + 1.0j, -2.0))
    sup_he = max(abs(mass_one_residual(HE, z)) for z in (-0.5, -1.0 - 1.0j))
    sup_ml = max(abs(mass_one_residual(ML2, z)) for z in (0.0, 0.5, 1.0 + 0.5j))
    const = LimitKernelSpec.constant_profile(0.5)
    dev_const = abs(mass_one_residual(const, 0.3) + 0.5)
    ok = (sup_fb <= 1e-6 and sup_he <= 1e-4 and sup_ml <= 1e-4
          and dev_const <= 1e-9)
    _check(3, ok,
           f"mass-one: fb {sup_fb:.2e} <= 1e-6, he {sup_he:.2e} <= 1e-4, "
           f"ml2 {sup_ml:.2e} <= 1e-4, constant defect -1/2 within "
           f"{dev_const:.2e}")


def test_criterion_04_ward_equation():
    square = -2.0 + 0.5 * np.arange(9)
    grid = square[None, :] + 1j * square[:, None]
    sup_bulk = np.max(ward_residual(BULK, grid))
    sup_fb = np.max(ward_residual(FB, grid))
    he_grid = (-2.0 + 0.3 * np.arange(7))[None, :] + 1j * (-1.0 + 0.3 * np.arange(5))[:, None]
    sup_he = np.max(ward_residual(HE, he_grid))
    axis = np.arange(-1.25, 1.26, 0.5)
    ml_pts = [complex(x, y) for x in axis for y in axis
              if 0.0 < abs(complex(x, y)) <= 1.5]
    sup_ml = max(abs(ward_point_residual(ML2, z)) for z in ml_pts)
    gap = LimitKernelSpec.free_boundary(((-2.0, -1.0), (1.0, 2.0)))
    solid = LimitKernelSpec.free_boundary(((-2.0, 2.0),))
    r_gap = abs(ward_point_residual(gap, 0.0))
    r_solid = abs(ward_point_residual(solid, 0.0))
    ratio = r_gap / max(r_solid, 1e-300)
    ok = (sup_bulk <= 1e-8 and sup_fb <= 5e-4 and sup_he <= 1e-3
          and sup_ml <= 5e-3 and ratio >= 20.0)
    _check(4, ok,
           f"Ward residuals: bulk {sup_bulk:.2e} <= 1e-8, fb {sup_fb:.2e} "
           f"<= 5e-4, he {sup_he:.2e} <= 1e-3, ml2 {sup_ml:.2e} <= 5e-3; "
           f"disconnected union flagged at {ratio:.2e}x the connected floor")


def test_criterion_05_series_truncation():
    xs = np.arange(-4.0, 4.01, 0.5)
    sup_mass = max(abs(mass_one_series_residual(x, 80)) for x in xs)
    sup_churn = max(abs(hermite_identity_residual(2.0 * x, 80)) for x in xs)
    tele_dev = abs(telescoping_sum(1.2, 80) - 1.0)
    ok = sup_mass <= 1e-10 and sup_churn <= 1e-10 and tele_dev <= 1e-10
    _check(5, ok,
           f"N=80 truncations vs 1e-10: mass-one series {sup_mass:.3e}, "
           f"churn identity {sup_churn:.3e}, telescoping defect "
           f"{tele_dev:.3e} (truncation error decays like N^-1/2 near the "
           f"edge, so the stated tolerance is unreachable at N=80)")


def test_criterion_06_boundary_convergence():
    start = time.time()
    pot = Potential.ginibre()
    xs = np.arange(-3.0, 3.01, 0.25)
    sups = {}
    for n in (64, 1024):
        frame = RescaleFrame(pot, n, "boundary")
        sups[n] = max(
            abs(rescaled_kernel(frame, complex(x), complex(x)).real
                - _f(2.0 * x))
            for x in xs
        )
    ratio = sups[64] / sups[1024]
    bulk_dev = abs(
        rescaled_kernel(RescaleFrame(pot, 1024, "bulk"), 0.0, 0.0).real - 1.0
    )
    elapsed = time.time() - start
    ok = (sups[1024] <= 0.03 and 2.5 <= ratio <= 6.5 and bulk_dev <= 1e-3
          and elapsed <= 120.0)
    _check(6, ok,
           f"boundary profile: sup|R_1024 - F(2x)| = {sups[1024]:.4f} <= "
           f"0.03, 64->1024 error ratio {ratio:.2f} in [2.5, 6.5], bulk "
           f"R_1024(0) off by {bulk_dev:.1e}, {elapsed:.0f}s <= 120s")


def test_criterion_07_exponential_sections():
    xs = np.arange(-2.0, 2.01, 0.25)
    dev_f = max(abs(exp_section(4096, x) - _f(x)) for x in xs)
    dev_literal = max(
        abs(exp_section(4096, x) - _f(x) * math.exp(x * x / 4.0)) for x in xs
    )
    ok = dev_f <= 0.02
    _check(7, ok,
           f"sections n=4096: sup|section - F(x)| = {dev_f:.4f} <= 0.02 "
           f"(against F(x) e^(x^2/4) the deviation is {dev_literal:.2f})")


def test_criterion_08_kernel_positivity():
    rng = np.random.default_rng(1234)
    worst = math.inf
    for _ in range(100):
        pts = rng.uniform(-2, 2, 8) + 1j * rng.uniform(-2, 2, 8)
        worst = min(worst, gram_min_eig(FB, pts))
        worst = min(worst, gram_min_eig(FB, pts, complementary=True))
    _check(8, worst >= -1e-9,
           f"100 random 8-point Gram matrices (kernel and complementary) "
           f"have min eigenvalue {worst:.2e} >= -1e-9")


def test_criterion_09_tail_bounds():
    sup_ext = tail_bounds_report(FB, np.arange(0.0, 3.01, 0.05))[1]["sup_exterior"]
    sup_int = tail_bounds_report(FB, np.arange(-3.0, 0.01, 0.05))[1]["sup_interior"]
    ok = sup_ext <= 0.2 and sup_int <= 1.0
    _check(9, ok,
           f"tail ratios: sup F(2x)e^(2x^2) on [0,3] = {sup_ext:.4f} vs "
           f"0.2 (the sup sits at x=0 where the ratio is exactly 1/2; the "
           f"bound holds from x ~ 0.77 on), interior sup "
           f"|F(2x)-1|e^(0.4x^2) = {sup_int:.4f} <= 1")


def test_criterion_10_scalar_inequalities():
    _, params = inequality_suite()
    margin = params["min_margin"]
    sharp_f = params["sharpness_F"]
    sharp_h = params["sharpness_H"]
    ok = margin >= -1e-10 and abs(sharp_f) <= 1e-6 and abs(sharp_h) <= 1e-6
    _check(10, ok,
           f"pointwise inequalities: min margin {margin:.2e} >= -1e-10, "
           f"sharpness gaps {abs(sharp_f):.1e}, {abs(sharp_h):.1e} <= 1e-6")


def test_criterion_11_sampler_profiles(tmp_path):
    start = time.time()
    window = (-3.0, 1.0, 40)
    gin = Potential.ginibre()
    h1 = radial_profile(SampleConfig(RescaleFrame(gin, 1024, "boundary"), 4000, seed=0), window)
    # the thread count exists only at the CLI: its artifact must carry the
    # library's estimates bitwise
    rc = main(["sample", "--n", "1024", "--trials", "4000", "--seed", "0",
               "--window", "-3:1", "--bins", "40", "--threads", str(THREADS),
               "--out", str(tmp_path)])
    deterministic = rc == 0 and np.array_equal(
        np.loadtxt(tmp_path / "sample_ginibre-n1024_boundary.csv",
                   delimiter=",", skiprows=1, usecols=1),
        h1.estimates())

    centers = h1.bin_centers()
    env = 3.0 * h1.stderrs() + 0.02
    dev_gin = np.abs(h1.estimates() - np.array([_f(2 * x) for x in centers]))
    gin_ok = bool(np.all(dev_gin <= env))

    hard = Potential.hard_edge()
    hh = radial_profile(SampleConfig(RescaleFrame(hard, 1024, "boundary"), 4000, seed=0), window)
    target_h = np.array([
        complex(hard_edge_H(2 * x)).real if x < 0.0 else 0.0
        for x in centers
    ])
    dev_h = np.abs(hh.estimates() - target_h)
    outside_empty = bool(np.all(hh.counts[centers > 0.0] == 0))
    hard_ok = bool(np.all(dev_h <= 3.0 * hh.stderrs() + 0.02))

    elapsed = time.time() - start
    ok = (deterministic and gin_ok and hard_ok and outside_empty
          and elapsed <= 300.0)
    _check(11, ok,
           f"sampled profiles (n=1024, 4000 trials): every bin within "
           f"3 SE + 0.02 of F(2x) (worst {dev_gin.max():.4f}) and of H(2x) "
           f"(worst {dev_h.max():.4f}), no mass outside the hard wall, "
           f"thread counts {'identical' if deterministic else 'DIFFER'}, "
           f"{elapsed:.0f}s <= 300s")


def test_criterion_12_conditional_intensities():
    rng = np.random.default_rng(5)
    dev_zero = max(abs(conditional_intensity(spec, 0.0, 0.0))
                   for spec in (BULK, FB))
    pts = rng.uniform(-2, 2, 10) + 1j * rng.uniform(-2, 2, 10)
    dev_prof = max(
        abs(conditional_intensity(BULK, 0.0, complex(z))
            - (1.0 - math.exp(-abs(z) ** 2)))
        for z in pts
    )
    ok = dev_zero <= 1e-12 and dev_prof <= 1e-10
    _check(12, ok,
           f"conditional intensity vanishes at the conditioning point "
           f"({dev_zero:.1e} <= 1e-12) and the conditioned bulk profile is "
           f"1 - e^(-|z|^2) within {dev_prof:.1e}")

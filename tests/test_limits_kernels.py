"""Pointwise limit-kernel functionals: intensities, Berezin densities,
conditional intensities, and analytic log-Laplacians."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plasma_kernel.finite_n import Potential, RescaleFrame, _ml_kernel
from plasma_kernel.limits import (
    LimitKernelSpec,
    ZeroIntensity,
    berezin,
    conditional_intensity,
    laplacian_log_R,
    limit_kernel,
    one_point,
)
from plasma_kernel.special import (
    hard_edge_H,
    mittag_leffler_kernel_eval,
    plasma_F,
)

rng = np.random.default_rng(99)

BULK = LimitKernelSpec.ginibre_bulk()
FB = LimitKernelSpec.free_boundary()
HE = LimitKernelSpec.hard_edge()
ML2 = LimitKernelSpec.mittag_leffler(2.0)
CONST = LimitKernelSpec.constant_profile(0.5)

ALL_SPECS = [BULK, FB, HE, ML2, CONST]


def random_points(count, spec=None):
    z = rng.uniform(-2.0, 2.0, count) + 1j * rng.uniform(-2.0, 2.0, count)
    if spec is not None and spec.kind == "hard_edge":
        z = -np.abs(z.real) - 0.05 + 1j * z.imag
    return z


# --------------------------------------------------------------------------
# spec construction
# --------------------------------------------------------------------------


def test_spec_factories():
    assert BULK.translation_invariant
    assert FB.translation_invariant
    assert HE.translation_invariant
    assert not ML2.translation_invariant
    assert FB.intervals == ((-math.inf, 0.0),)
    two = LimitKernelSpec.free_boundary(((-2.0, -1.0), (1.0, 2.0)))
    assert len(two.intervals) == 2


def test_spec_validation():
    for lam in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite lam >= 1"):
            LimitKernelSpec.mittag_leffler(lam)
    for level in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"positive finite level, got {level}"):
            LimitKernelSpec.constant_profile(level)
    with pytest.raises(ValueError):
        LimitKernelSpec.free_boundary(((1.0, -1.0),))
    with pytest.raises(ValueError):
        LimitKernelSpec.free_boundary(())
    # the pieces of E may touch but not overlap, whatever their order, and
    # keep the order given
    for ivals in (((-5.0, 5.0), (-5.0, 5.0)), ((1.0, 3.0), (0.0, 2.0)),
                  ((-math.inf, 0.0), (-1.0, 1.0))):
        with pytest.raises(ValueError, match="overlap"):
            LimitKernelSpec.free_boundary(ivals)
    touching = ((1.0, 2.0), (-1.0, 1.0), (-math.inf, -1.0))
    assert LimitKernelSpec.free_boundary(touching).intervals == touching


@pytest.mark.parametrize("kwargs,message", [
    ({"kind": "free_boundary", "intervals": ((-5.0, 5.0), (-5.0, 5.0))}, "overlap"),
    ({"kind": "free_boundary", "intervals": ((1.0, -1.0),)}, "is empty"),
    ({"kind": "free_boundary", "intervals": ()}, "at least one interval"),
    ({"kind": "mittag_leffler", "lam": 0.5}, "finite lam >= 1, got 0.5"),
    ({"kind": "constant", "level": -1.0}, "positive finite level, got -1.0"),
    ({"kind": "nonsense"}, "unknown kernel kind 'nonsense'"),
    ({"kind": "bulk", "level": 2.0}, "a bulk kernel has level 1, got 2.0"),
    ({"kind": "hard_edge", "lam": 3.0}, "a hard_edge kernel has lam = 1, got 3.0"),
    ({"kind": "bulk", "intervals": ((-math.inf, 0.0),)}, "a bulk kernel has the intervals"),
    ({"kind": "mittag_leffler", "lam": 2.0, "intervals": ((0.0, 1.0),)},
     "a mittag_leffler kernel has the intervals"),
], ids=["overlap", "empty", "no-interval", "lam", "level", "kind", "bulk-level",
        "hard-edge-lam", "bulk-intervals", "ml-intervals"])
def test_spec_constructor_refuses_what_the_factories_refuse(kwargs, message):
    # the dataclass checks itself, so no spec skips the factories' checks,
    # and it holds no field that its kind does not read
    with pytest.raises(ValueError, match=re.escape(message)):
        LimitKernelSpec(**kwargs)


def test_spec_of_each_kind_holds_its_own_intervals():
    # only the free boundary chooses its pieces: the bulk and the constant
    # profile are the full line, so a spec equals the one its factory builds
    full = ((-math.inf, math.inf),)
    assert LimitKernelSpec("bulk") == LimitKernelSpec.ginibre_bulk() == BULK
    assert LimitKernelSpec("constant", level=0.5) == LimitKernelSpec.constant_profile()
    assert LimitKernelSpec.constant_profile().intervals == full == BULK.intervals
    assert LimitKernelSpec("free_boundary") == FB
    assert LimitKernelSpec("hard_edge") == HE and HE.intervals == ((-math.inf, 0.0),)


def test_spec_of_frame_names_each_frame_limit():
    pots = (Potential.ginibre(), Potential.power(2.0), Potential.power(3.0),
            Potential.hard_edge())
    for pot in pots:
        boundary = LimitKernelSpec.of_frame(RescaleFrame(pot, 256, "boundary"))
        assert boundary == (HE if pot.kind == "hard_edge" else FB)
        bulk_at_zero = LimitKernelSpec.mittag_leffler(pot.lam)
        if pot.kind != "hard_edge":
            singular = LimitKernelSpec.of_frame(RescaleFrame(pot, 256, "singularity"))
            assert singular == bulk_at_zero
        if pot.lam == 1.0:
            assert LimitKernelSpec.of_frame(RescaleFrame(pot, 256, "bulk")) == bulk_at_zero
    # lam = 1 needs no bulk branch: its Mittag-Leffler kernel is the bulk one
    x = np.linspace(-5.0, 5.0, 101)
    plane = x[None, :] + 1j * x[:, None]
    assert np.array_equal(one_point(LimitKernelSpec.mittag_leffler(1.0), plane),
                          one_point(BULK, plane))


# --------------------------------------------------------------------------
# kernel values
# --------------------------------------------------------------------------


def test_bulk_kernel_closed_form():
    for _ in range(20):
        z, w = (complex(v) for v in random_points(2))
        expected = np.exp(
            z * w.conjugate() - abs(z) ** 2 / 2.0 - abs(w) ** 2 / 2.0
        )
        assert_allclose(limit_kernel(BULK, z, w), expected, rtol=1e-13)


def test_free_boundary_kernel_values():
    assert_allclose(limit_kernel(FB, 0.0, 0.0), 0.5, rtol=1e-13)
    z, w = 0.4 + 0.3j, -0.2 + 0.1j
    gauss = np.exp(z * w.conjugate() - abs(z) ** 2 / 2 - abs(w) ** 2 / 2)
    expected = gauss * complex(plasma_F(z + w.conjugate()))
    assert_allclose(limit_kernel(FB, z, w), expected, rtol=1e-12)


def test_hard_edge_kernel_values():
    z, w = -0.5 + 0.2j, -0.8 - 0.4j
    gauss = np.exp(z * w.conjugate() - abs(z) ** 2 / 2 - abs(w) ** 2 / 2)
    expected = gauss * complex(hard_edge_H(z + w.conjugate()))
    assert_allclose(limit_kernel(HE, z, w), expected, rtol=1e-12)
    # exterior points are out of the domain
    assert limit_kernel(HE, 0.5, -0.5) == 0.0
    assert limit_kernel(HE, -0.5, 0.5) == 0.0


def test_mittag_leffler_kernel_values():
    pytest.importorskip("mpmath")
    z = 0.7 + 0.5j
    assert_allclose(limit_kernel(ML2, z, z), _ml2_series(abs(z) ** 2), rtol=1e-12)
    # lam = 1 reduces to the bulk kernel
    ml1 = LimitKernelSpec.mittag_leffler(1.0)
    for _ in range(10):
        z, w = (complex(v) for v in random_points(2))
        assert_allclose(limit_kernel(ml1, z, w), limit_kernel(BULK, z, w),
                        rtol=1e-12)


def _ml2_series(r2):
    """``M_2(r2) e^(-r2^2)`` from the series ``2 sum r2^j / Gamma((j+1)/2)``
    at 60 digits, with the terms from the ratio ``t_(j+2) = t_j r2^2 /
    ((j+1)/2)``."""
    import mpmath

    with mpmath.workdps(60):
        x = mpmath.mpf(r2)
        terms = [1 / mpmath.sqrt(mpmath.pi), x]
        for j in range(2, 4 * int(r2 * r2) + 200):
            terms.append(terms[j - 2] * x * x / (mpmath.mpf(j - 1) / 2))
        return float(2 * mpmath.fsum(terms) * mpmath.exp(-x * x))


def test_one_point_evaluates_each_real_part_once(monkeypatch):
    # eval --limit hard-edge: a 31 x 31 grid has 20 distinct Re z < 0, and
    # each reaches hard_edge_H once; every point gets its own column's value
    axis = -1.998 + 0.1 * np.arange(31)
    z = axis[None, :] + 1j * axis[:, None]
    points = []
    monkeypatch.setattr("plasma_kernel.limits.hard_edge_H",
                        lambda s, **kw: points.append(np.size(s)) or hard_edge_H(s, **kw))
    got = one_point(HE, z)
    assert sum(points) == np.unique(axis[axis < 0.0]).size == 20
    assert np.array_equal(got, np.broadcast_to(got[0], z.shape))
    assert np.array_equal(got[0], [one_point(HE, complex(x)) for x in axis])


def test_mittag_leffler_one_point_is_finite_at_large_modulus():
    # M_2(r^2) overflows and e^(-r^4) underflows from r ~ 5.2 on; the exact
    # (2/sqrt(pi)) e^(-r^4) + 2 r^2 erfc(-r^2) stays finite, and R(5) = 100
    pytest.importorskip("mpmath")
    assert abs(one_point(ML2, 5.0) - 100.0) <= 1e-13 * 100.0
    for r in (5.0, 5.5, 6.0):
        assert_allclose(one_point(ML2, r * np.exp(0.3j)), _ml2_series(r * r), rtol=1e-13)
    assert one_point(LimitKernelSpec.mittag_leffler(1.0), 40.0) == 1.0


def test_mittag_leffler_one_point_keeps_small_modulus_values():
    # against the unscaled form M_2(r^2) e^(-r^4), which is exact enough
    # where e^(r^4) is small
    r = np.linspace(0.0, 1.5, 31)
    z = r * np.exp(0.7j)
    unscaled = np.real(mittag_leffler_kernel_eval(2.0, r**2)) * np.exp(-(r**4))
    assert_allclose(one_point(ML2, z), unscaled, rtol=1e-14)


def test_mittag_leffler_kernel_is_finite_at_large_modulus():
    mpmath = pytest.importorskip("mpmath")
    pairs = [(5.0, 5.1 + 0.3j), (5.0 + 1.0j, 4.8j), (-3.0 + 2.0j, 1.0 - 4.0j), (7.0, 6.5 - 1.0j)]
    with mpmath.workdps(60):
        for z, w in pairs:
            zeta = mpmath.mpc(z) * mpmath.conj(mpmath.mpc(w))
            m2 = 2 / mpmath.sqrt(mpmath.pi) + 2 * zeta * mpmath.exp(zeta**2) * mpmath.erfc(-zeta)
            ref = complex(m2 * mpmath.exp(-(abs(z) ** 4 + abs(w) ** 4) / 2))
            assert_allclose(limit_kernel(ML2, z, w), ref, rtol=1e-12)
    axis = np.linspace(-8.0, 8.0, 17)
    grid = axis[None, :] + 1j * axis[:, None]
    assert np.all(np.isfinite(limit_kernel(ML2, grid, grid.T)))


def _mp_ml3_kernel(mpmath, z, w):
    """``M_3(z conj w) e^(-(|z|^6 + |w|^6)/2)`` at the working precision, the
    series terms from ``t_(j+3) = t_j u^3 / ((j+1)/3)``."""
    u = mpmath.mpc(z) * mpmath.conj(mpmath.mpc(w))
    terms = [3 * u**j / mpmath.gamma(mpmath.mpf(j + 1) / 3) for j in range(3)]
    j = 0
    while abs(terms[-1]) > mpmath.mpf(10) ** -(mpmath.mp.dps + 20) or j < 60:
        terms.append(terms[j] * u**3 / (mpmath.mpf(j + 1) / 3))
        j += 1
    weight = mpmath.exp(-(abs(mpmath.mpc(z)) ** 6 + abs(mpmath.mpc(w)) ** 6) / 2)
    return mpmath.fsum(terms) * weight


def test_mittag_leffler_kernel_lam3_against_mpmath():
    # complex z conj w: the series cancels by up to 26 digits here, so the
    # oracle runs at 400; the error is measured on the kernel's own scale
    # sqrt(R(z) R(w)), as the terms are summed relative to the largest
    mpmath = pytest.importorskip("mpmath")
    ml3 = LimitKernelSpec.mittag_leffler(3.0)
    pairs = [(1.5 + 0.5j, -0.7 + 1.2j), (2.0, 1.9j), (1.2 - 0.8j, 1.3 + 0.4j),
             (0.3 + 0.2j, -1.1 + 0.4j), (-1.6 + 0.9j, 1.7 - 0.6j), (0.0, 1.4 - 0.2j),
             (1.8 + 0.1j, 1.8 + 0.1j)]
    z, w = np.array(pairs).T
    got = limit_kernel(ml3, z, w)
    scale = np.sqrt(one_point(ml3, z) * one_point(ml3, w))
    with mpmath.workdps(400):
        ref = np.array([complex(_mp_ml3_kernel(mpmath, a, b)) for a, b in pairs])
        diag = np.array([float(_mp_ml3_kernel(mpmath, a, a).real) for a in z])
    assert np.max(np.abs(got - ref) / scale) <= 1e-14
    assert np.max(np.abs(one_point(ml3, z) - diag) / diag) <= 1e-14


def test_mittag_leffler_window_kernel_matches_closed_forms():
    # the term window of every lam against the closed forms of lam = 1
    # (the bulk kernel) and lam = 2 (erfcx), on the kernel's scale
    pts = random_points(40)
    z, w = pts[:20], pts[20:]
    for lam, spec in ((1.0, BULK), (2.0, ML2)):
        got, bound = _ml_kernel(lam, z, w)
        scale = np.sqrt(one_point(spec, z) * one_point(spec, w))
        assert np.max(np.abs(got - limit_kernel(spec, z, w)) / scale) <= 1e-14
        assert np.max(bound) <= 1e-17
        diag = _ml_kernel(lam, z, z)[0]
        assert np.all(diag.imag == 0.0)
        assert_allclose(diag.real, one_point(spec, z), rtol=1e-14)


@pytest.mark.parametrize("lam", [1.5, 3.0, 7.0])
def test_mittag_leffler_one_point_near_the_origin(lam):
    # the peak term is taken as lam a^j e^-mu / Gamma((j+1)/lam) below
    # Loader's range, so no two large logs cancel as |z| -> 0
    mpmath = pytest.importorskip("mpmath")
    rs = np.array([1e-100, 1e-12, 1e-8, 1e-4, 1e-2, 0.1, 0.5])
    with mpmath.workdps(40):
        lm = mpmath.mpf(lam)
        ref = np.array([float(mpmath.fsum(lm * mpmath.mpf(r) ** (2 * j) / mpmath.gamma((j + 1) / lm)
                                          for j in range(80)) * mpmath.exp(-mpmath.mpf(r) ** (2 * lm)))
                        for r in rs])
    assert np.max(np.abs(one_point(LimitKernelSpec.mittag_leffler(lam), rs) / ref - 1.0)) <= 1e-15


def test_mittag_leffler_kernel_finite_where_M_overflows():
    # lam = 3 at |z|^6 = 5832: M_3 leaves the double range, R does not
    ml3 = LimitKernelSpec.mittag_leffler(3.0)
    r = np.array([3.0, 3.0 * math.sqrt(2.0), 5.0])
    values = one_point(ml3, r)
    assert np.all(np.isfinite(values))
    # R(r) = 9 r^4 (1 + O(r^-6)) far out: the density of the equilibrium measure
    assert_allclose(values, 9.0 * r**4, rtol=1e-2)


def test_constant_profile_kernel():
    z, w = 0.2 - 0.3j, 0.5 + 0.1j
    gauss = np.exp(z * w.conjugate() - abs(z) ** 2 / 2 - abs(w) ** 2 / 2)
    assert_allclose(limit_kernel(CONST, z, w), 0.5 * gauss, rtol=1e-13)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_kernel_hermitian_symmetry(spec):
    pts = random_points(20, spec)
    for k in range(10):
        z, w = complex(pts[2 * k]), complex(pts[2 * k + 1])
        assert_allclose(limit_kernel(spec, z, w),
                        np.conj(limit_kernel(spec, w, z)), rtol=1e-12,
                        atol=1e-300)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_diagonal_real_nonnegative(spec):
    for z in random_points(25, spec):
        val = limit_kernel(spec, complex(z), complex(z))
        assert abs(val.imag) <= 1e-13 * max(abs(val), 1.0)
        assert val.real >= 0.0


# --------------------------------------------------------------------------
# one-point intensities
# --------------------------------------------------------------------------


def test_one_point_values():
    assert_allclose(one_point(BULK, 1.3 - 0.4j), 1.0, rtol=1e-14)
    for x in (-1.0, 0.0, 0.7):
        assert_allclose(one_point(FB, x + 0.3j),
                        complex(plasma_F(2 * x)).real, rtol=1e-13)
    assert_allclose(one_point(HE, -0.7 + 0.1j),
                    complex(hard_edge_H(-1.4)).real, rtol=1e-12)
    assert one_point(HE, 0.3) == 0.0


def test_one_point_bounded_by_one_in_bulk_and_fb():
    for spec in (BULK, FB):
        for z in random_points(50):
            assert one_point(spec, complex(z)) <= 1.0 + 1e-9


def test_hard_edge_intensity_bounded_by_two():
    xs = rng.uniform(-3.0, -0.01, 50)
    ys = rng.uniform(-3.0, 3.0, 50)
    for x, y in zip(xs, ys):
        assert 0.0 <= one_point(HE, complex(x, y)) <= 2.0


# --------------------------------------------------------------------------
# Berezin densities
# --------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [BULK, FB, HE, ML2], ids=lambda s: s.kind)
def test_berezin_bounded_by_intensity(spec):
    pts = random_points(20, spec)
    for k in range(10):
        z, w = complex(pts[2 * k]), complex(pts[2 * k + 1])
        assert berezin(spec, z, w) <= one_point(spec, w) + 1e-9


def test_berezin_diagonal_is_intensity():
    for spec in (BULK, FB, ML2):
        z = complex(random_points(1, spec)[0])
        assert_allclose(berezin(spec, z, z), one_point(spec, z), rtol=1e-12)


def test_berezin_bulk_closed_form():
    z, w = 0.3 + 0.1j, -0.5 + 0.8j
    assert_allclose(berezin(BULK, z, w), math.exp(-abs(z - w) ** 2), rtol=1e-12)


def test_berezin_zero_intensity_guard():
    with pytest.raises(ZeroIntensity):
        berezin(FB, 40.0, 0.0)


# --------------------------------------------------------------------------
# conditional intensities
# --------------------------------------------------------------------------


def test_conditional_vanishes_at_conditioning_point():
    for spec in (BULK, FB):
        z = complex(random_points(1, spec)[0])
        assert abs(conditional_intensity(spec, z, z)) <= 1e-12


def test_conditional_bulk_profile():
    # conditioning the bulk at the origin leaves 1 - e^{-|z|^2}
    for z in random_points(20):
        z = complex(z)
        assert_allclose(conditional_intensity(BULK, 0.0, z),
                        1.0 - math.exp(-abs(z) ** 2), rtol=0, atol=1e-10)


def test_conditional_free_boundary_value():
    # F(2) - e^{-1} F(1)^2 / F(0), frozen closed form
    assert_allclose(conditional_intensity(FB, 0.0, 1.0),
                    0.00422998489313710909, rtol=1e-11)


# --------------------------------------------------------------------------
# log-Laplacian of the intensity
# --------------------------------------------------------------------------


def test_laplacian_log_bulk_is_zero():
    assert laplacian_log_R(BULK, 0.7 - 0.2j) == pytest.approx(0.0, abs=1e-14)


def test_laplacian_log_fb_at_origin():
    # (log F)''(0) = -2/pi
    assert_allclose(laplacian_log_R(FB, 0.0), -2.0 / math.pi, rtol=1e-12)


@pytest.mark.parametrize("s,expected", [
    (-0.5, -0.5398256549500698),
    (-1.0, -0.3708456373613235),
    (-2.0, -0.0483363204009732),
    (-3.0, 0.03505943773641027),
])
def test_laplacian_log_hard_edge(s, expected):
    # frozen (log H)'' oracle, evaluated at z = s/2
    assert_allclose(laplacian_log_R(HE, s / 2.0), expected, rtol=1e-10)


def test_laplacian_log_ml_matches_finite_differences():
    # semi-analytic cross-check of the FD path: lam = 1 must give zero
    ml1 = LimitKernelSpec.mittag_leffler(1.0)
    assert abs(laplacian_log_R(ml1, 0.6 + 0.2j)) <= 1e-5


def test_laplacian_log_ml2_against_mpmath():
    # (1/4)(f'' + f'/r) with f(r) = log M_2(r^2) - r^4, differentiated by mpmath
    mpmath = pytest.importorskip("mpmath")
    rs = np.array([0.1, 0.5, 1.0, 1.5, 2.0])
    with mpmath.workdps(40):
        def log_r(r):
            x = r * r
            m2 = 2 / mpmath.sqrt(mpmath.pi) + 2 * x * mpmath.exp(x * x) * mpmath.erfc(-x)
            return mpmath.log(m2) - x * x

        ref = np.array([float((mpmath.diff(log_r, r, 2) + mpmath.diff(log_r, r, 1) / r) / 4)
                        for r in (mpmath.mpf(v) for v in rs)])
    assert np.max(np.abs(laplacian_log_R(ML2, rs) - ref)) <= 1e-13
    # the value is radial
    z = -0.6 + 0.8j
    assert laplacian_log_R(ML2, z) == laplacian_log_R(ML2, abs(z))


def test_laplacian_log_ml1_is_exactly_zero():
    ml1 = LimitKernelSpec.mittag_leffler(1.0)
    assert np.all(laplacian_log_R(ml1, np.array([0.0, 0.6 + 0.2j, -3.0j, 7.0])) == 0.0)


def test_laplacian_log_ml2_is_finite_where_erfcx_overflows():
    # erfcx(-r^2) overflows from r ~ 5.2 on; a RuntimeWarning fails the test
    values = laplacian_log_R(ML2, np.array([3.0, 5.0, 6.0, 6.0j]))
    assert np.all(np.isfinite(values)) and np.all(values >= 0.0)


# --------------------------------------------------------------------------
# array calls
# --------------------------------------------------------------------------


def _plane(shape, seed):
    r = np.random.default_rng(seed)
    return r.uniform(-2.0, 2.0, shape) + 1j * r.uniform(-2.0, 2.0, shape)


def _pointwise(fn, spec, *args):
    """``fn`` called on one point at a time, over the broadcast arguments."""
    args = np.broadcast_arrays(*args)
    return np.array([fn(spec, *(complex(a[i]) for a in args))
                     for i in np.ndindex(args[0].shape)]).reshape(args[0].shape)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_array_calls_are_elementwise(spec):
    z, w = _plane((3, 4), 1), _plane((3, 4), 2)
    a = -np.abs(z.real) - 0.05 + 1j * z.imag  # conditioning points, R(a) > 0
    cases = [(limit_kernel, (z, w)), (one_point, (z,)), (berezin, (a, w)),
             (conditional_intensity, (a, w)),
             (limit_kernel, (z[:, :1], w[:1, :])), (berezin, (a[:, :1], w[:1, :])),
             (conditional_intensity, (a[:, :1], w[:1, :]))]
    for fn, args in cases:
        values = fn(spec, *args)
        assert values.shape == (3, 4)
        assert np.array_equal(values, _pointwise(fn, spec, *args)), fn.__name__
    assert type(limit_kernel(spec, -0.3 + 0.1j, -0.5)) is complex
    for fn in (one_point, laplacian_log_R):
        assert type(fn(spec, -0.3 + 0.1j)) is float
    for fn in (berezin, conditional_intensity):
        assert type(fn(spec, -0.3 + 0.1j, -0.5)) is float


def test_hard_edge_arrays_vanish_outside_the_domain():
    z, w = _plane((5, 6), 3), _plane((5, 6), 4)
    a = -np.abs(z.real) - 0.05 + 1j * z.imag
    outside = (z.real >= 0.0) | (w.real >= 0.0)
    assert outside.any() and (~outside).any()
    k = limit_kernel(HE, z, w)
    assert np.all(k[outside] == 0.0) and np.all(k[~outside] != 0.0)
    assert np.all(one_point(HE, z)[z.real >= 0.0] == 0.0)
    assert np.all(berezin(HE, a, w)[w.real >= 0.0] == 0.0)


@pytest.mark.parametrize("spec,points,bad", [
    (FB, [0.0, 40.0 + 1.0j, 50.0], 40.0 + 1.0j),
    (HE, [-0.5, -1.0 + 0.5j, 0.3 - 0.2j, 0.7], 0.3 - 0.2j),
], ids=["free_boundary", "hard_edge"])
def test_zero_intensity_names_the_first_point(spec, points, bad):
    for fn in (berezin, conditional_intensity):
        with pytest.raises(ZeroIntensity, match=re.escape(f"vanishes at {bad}")):
            fn(spec, np.array(points), -1.0)

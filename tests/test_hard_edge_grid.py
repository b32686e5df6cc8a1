"""The tensor-grid path of the hard-edge profile H.

``hard_edge_H_scaled_grid`` evaluates H on a (rows of Re, columns of Im)
grid through one exponential table per row and per column; the plane
quadrature takes it on every non-carved strip.  These tests pin it to the
pointwise function, to itself, and through the integrals and the CLI.
"""

import numpy as np
import pytest

from plasma_kernel import limits
from plasma_kernel.cli import main
from plasma_kernel.limits import (
    LimitKernelSpec,
    cauchy_transform,
    mass_one_residual,
    polarized_mass_one_residual,
)
from plasma_kernel.special import hard_edge_H_scaled, hard_edge_H_scaled_grid

HE = LimitKernelSpec.hard_edge()


def _pointwise(x, y):
    u = x[:, None] + 1j * y[None, :]
    return hard_edge_H_scaled(u.ravel()).reshape(u.shape)


GRIDS = {
    # rule sizes 96 .. 184 and columns on both sides of |Im| = 21
    "rule-sizes": (np.linspace(-12.0, 0.5, 37), np.linspace(-20.9, 20.9, 61)),
    "asymptotic": (np.linspace(-10.5, 0.5, 23), np.array([-40.0, -21.0, -3.3, 0.0, 20.999, 21.0, 60.0])),
    # |Im| >= 21 but Im^2 < Re^2 + 46: quadrature branch through the pointwise path
    "far-quadrature": (np.array([-25.0, -22.0, -1.0]), np.array([21.5, 22.0, 23.0])),
    "one-point": (np.array([-1.3]), np.array([0.7])),
}


@pytest.mark.parametrize("name", GRIDS)
def test_grid_matches_pointwise(name):
    x, y = GRIDS[name]
    grid = hard_edge_H_scaled_grid(x, y)
    assert grid.shape == (x.size, y.size)
    assert np.max(np.abs(grid - _pointwise(x, y))) <= 1e-14


def test_grid_is_deterministic():
    x, y = GRIDS["rule-sizes"]
    first = hard_edge_H_scaled_grid(x, y)
    second = hard_edge_H_scaled_grid(x.copy(), y.copy())
    assert first.tobytes() == second.tobytes()


def test_grid_matches_pointwise_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coord = dict(allow_nan=False, allow_infinity=False)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.lists(st.floats(-14.0, 2.0, **coord), min_size=1, max_size=12),
        st.lists(st.floats(-30.0, 30.0, **coord), min_size=1, max_size=12),
    )
    def check(xs, ys):
        x, y = np.array(xs), np.array(ys)
        assert np.max(np.abs(hard_edge_H_scaled_grid(x, y) - _pointwise(x, y))) <= 1e-14

    check()


@pytest.mark.parametrize("integral,args", [
    (cauchy_transform, (-1.05,)),
    (mass_one_residual, (-0.5,)),
    (mass_one_residual, (-1.0 - 1.0j,)),
    (polarized_mass_one_residual, (-0.7 + 0.3j, -1.2 - 0.4j)),
], ids=["cauchy", "mass-one-real", "mass-one-complex", "polarized"])
def test_integrals_match_pointwise_strips(monkeypatch, integral, args):
    grid_value = integral(HE, *args)
    # the default profile method: the outer sum evaluated point by point
    monkeypatch.setattr(limits._HardEdgeProfile, "scaled_grid",
                        limits._Profile.scaled_grid)
    assert abs(integral(HE, *args) - grid_value) <= 1e-13


@pytest.mark.parametrize("argv", [
    ["verify", "ward", "--spec", "hard-edge", "--grid", "-1.05:0:1.05"],
    ["verify", "mass-one", "--spec", "hard-edge"],
], ids=["ward", "mass-one"])
def test_hard_edge_csv_ignores_threads(tmp_path, argv):
    outs = [tmp_path / name for name in ("t1", "t2", "t1again")]
    for out, threads in zip(outs, ("1", "2", "1")):
        assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
    csv = [next(out.glob("*.csv")).read_bytes() for out in outs]
    assert csv[0] == csv[1] == csv[2]

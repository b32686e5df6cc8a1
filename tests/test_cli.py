"""Command-line interface: parsing, exit codes, artifact layout, and
byte-level reproducibility."""

import argparse
import importlib.util
import json
import math
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from plasma_kernel import cli, sampler
from plasma_kernel.cli import (
    THRESHOLDS,
    build_parser,
    main,
    parse_grid,
    parse_pot,
    parse_quad,
    parse_spec,
    threshold_for,
)


# --------------------------------------------------------------------------
# parsing helpers
# --------------------------------------------------------------------------


def test_parse_grid_inclusive_endpoints():
    assert_allclose(parse_grid("-1:1:0.5"), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert_allclose(parse_grid("0:2:1"), [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        parse_grid("1:0:0.5")
    with pytest.raises(ValueError):
        parse_grid("nonsense")


def test_parse_spec_forms():
    assert parse_spec("bulk").kind == "bulk"
    assert parse_spec("ginibre-bulk").kind == "bulk"
    fb = parse_spec("free-boundary")
    assert fb.intervals == ((-math.inf, 0.0),)
    union = parse_spec("free-boundary:-2,-1,1,2")
    assert union.intervals == ((-2.0, -1.0), (1.0, 2.0))
    assert parse_spec("hard-edge").kind == "hard_edge"
    assert parse_spec("hard_edge").kind == "hard_edge"
    ml = parse_spec("ml:2")
    assert ml.kind == "mittag_leffler" and ml.lam == 2.0
    assert parse_spec("mittag-leffler:1.5").lam == 1.5
    assert parse_spec("constant:0.3").level == 0.3
    with pytest.raises(ValueError):
        parse_spec("free-boundary:-2,-1,1")  # odd endpoint count
    with pytest.raises(ValueError):
        parse_spec("unknown-kernel")


def test_parse_pot_forms():
    assert parse_pot("ginibre").kind == "ginibre"
    assert parse_pot("power:2").lam == 2.0
    assert parse_pot("hard-edge").kind == "hard_edge"
    with pytest.raises(ValueError):
        parse_pot("coulomb")


def test_parse_quad():
    quad = parse_quad("6,48")
    assert (quad.r_max, quad.n_radial) == (6.0, 48)
    for text in ("6", "6,48,64", "6,4.5", "x,48"):
        with pytest.raises(ValueError, match="r_max,nr"):
            parse_quad(text)
    assert parse_quad("8,768").n_radial == 768
    with pytest.raises(ValueError, match="n_radial must be at most 768, got 769"):
        parse_quad("8,769")


def test_threshold_lookup():
    assert threshold_for("ward", "bulk") == 1e-8
    assert threshold_for("ward", "free_boundary") == 5e-4
    assert threshold_for("series", "anything") == 1e-10
    assert threshold_for("mass-one", "constant") == 1e-9
    assert all(v > 0 for v in THRESHOLDS.values())


def test_parser_accepts_negative_grid_values():
    args = build_parser().parse_args(
        ["eval", "--limit", "bulk", "--grid", "-1:1:0.5"]
    )
    assert args.grid == "-1:1:0.5"
    args = build_parser().parse_args(
        ["verify", "mass-one", "--points", "-0.5,-1-1j"]
    )
    assert args.points == "-0.5,-1-1j"


@pytest.mark.parametrize("argv", [
    ["verify", "mass-one", "--spec", "hard-edge", "--points", "-1-1j"],
    ["verify", "mass-one", "--spec", "hard-edge", "--points", "-1+1j"],
    ["verify", "mass-one", "--spec", "hard-edge", "--points", "-2e-1"],
    ["eval", "--limit", "bulk", "--grid", "-1e-1:0:0.1"],
    ["sample", "--n", "64", "--trials", "10", "--window", "-3e0:1"],
], ids=["complex-minus", "complex-plus", "exponent", "grid-exponent", "window-exponent"])
def test_values_starting_with_minus_and_a_digit_are_values(tmp_path, argv):
    # no flag starts with a digit or a dot, so such a value is never a flag
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("*.json"))) == 1


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------


def test_show_thresholds_exits_zero(capsys):
    assert main(["--show-thresholds"]) == 0
    out = capsys.readouterr().out
    assert "ward" in out and "mass-one" in out


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_verify_eighth_passes(tmp_path):
    assert main(["verify", "eighth", "--out", str(tmp_path)]) == 0
    payload = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert payload["results"]["passed"] is True
    # the config records what the equation reads, and eighth reads no option
    assert payload["config"] == {"equation": "eighth", "seed": 0, "spec": "free-boundary"}
    out = tmp_path / "positivity"
    assert main(["verify", "positivity", "--sets", "2", "--out", str(out)]) == 0
    config = json.loads(next(out.glob("*.json")).read_text())["config"]
    assert config["complementary"] is False and config["points"] == "random:8"


def test_verify_series_fails_honestly(tmp_path, capsys):
    # the truncated series stalls at ~1e-2 near the edge; the check must
    # report that failure rather than hide it
    code = main(["verify", "series", "--out", str(tmp_path)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_mass_one_constant_counterexample(tmp_path):
    # the constant profile has a known defect of exactly -1/2, which the
    # verifier measures against; it passes as a counterexample check
    assert main(["verify", "mass-one", "--spec", "constant:0.5",
                 "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv", [
    ["eval", "--limit", "free-boundary:-5,5,-5,5", "--grid", "0:0:1"],
    ["verify", "mass-one", "--spec", "free-boundary:-5,5,-5,5", "--points", "0"],
    ["verify", "polarized", "--spec", "free-boundary:-5,5,-5,5"],
    ["verify", "ward", "--spec", "free-boundary:0,2,1,3", "--grid", "0:0:1"],
], ids=["eval", "mass-one", "polarized", "ward"])
def test_overlapping_free_boundary_intervals_are_usage_errors(tmp_path, capsys, argv):
    # the integrals sum over the pieces of E, so overlapping pieces would count
    # the overlap twice: an intensity near 2, and mass-one checks that pass
    assert main(argv + ["--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "overlap" in captured.err and "PASS" not in captured.out
    assert not list(tmp_path.iterdir())


def test_hard_edge_mass_one_checks_the_points_inside_the_domain(tmp_path):
    # a point with Re z >= 0 lies outside the hard edge's domain: it is left
    # out, as verify ward and converge leave it out, and the rest is checked
    assert main(["verify", "mass-one", "--spec", "hard-edge", "--points", "0.5,-0.5",
                 "--out", str(tmp_path / "both")]) == 0
    assert main(["verify", "mass-one", "--spec", "hard-edge", "--points", "-0.5",
                 "--out", str(tmp_path / "inside")]) == 0
    name = "verify_mass-one_hard-edge.csv"
    assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "inside" / name).read_bytes()


def test_verify_ward_disconnected_fails(tmp_path, capsys):
    code = main(["verify", "ward", "--spec", "free-boundary:-2,-1,1,2",
                 "--grid", "0:0:1", "--out", str(tmp_path)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv,named", [
    (["verify", "ward", "--spec", "hard-edge", "--grid", "0:1:0.5"], "keeps no points"),
    (["verify", "positivity", "--sets", "0"], "--sets >= 1"),
    (["converge", "--pot", "hard-edge", "--grid", "0:1:0.5"], "keeps no points for hard-edge"),
    (["verify", "mass-one", "--points", "random:0"], "keeps no points"),
    (["verify", "mass-one", "--spec", "hard-edge", "--points", "0.5,0,1-1j"],
     "keeps no points for hard-edge"),
], ids=["ward", "positivity", "converge", "mass-one", "mass-one-hard-edge"])
def test_empty_point_set_is_usage_error(tmp_path, capsys, argv, named):
    # a verdict over zero points would be vacuous
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("points,named", [
    ("0,1,-1+1j", "--points must be random:N, got '0,1,-1+1j'"),
    ("random:-1", "1 <= N <= 32, got N = -1"),
    ("random:0", "1 <= N <= 32, got N = 0"),
    ("random:33", "1 <= N <= 32, got N = 33"),
], ids=["list", "negative", "zero", "too-many"])
def test_positivity_points_are_a_random_count(tmp_path, capsys, points, named):
    # positivity draws its own point sets, so an explicit list cannot be used
    argv = ["verify", "positivity", "--points", points, "--sets", "2", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("argv,bad", [
    (["eval", "--finite", "ginibre", "--n", "0"], 0),
    (["eval", "--finite", "ginibre", "--n", "-5"], -5),
    (["eval", "--finite", "ginibre", "--n", "2000000"], 2000000),
    (["converge", "--n-list", "0,64"], 0),
], ids=["eval-zero", "eval-negative", "eval-huge", "converge-zero"])
def test_kernel_n_out_of_range_is_named(tmp_path, capsys, argv, bad):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert f"need 1 <= n <= 1048576, got {bad}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,text", [
    (["eval", "--limit", "bulk", "--grid", "0:inf:1"], "0:inf:1"),
    (["verify", "ward", "--grid=-inf:0:1"], "-inf:0:1"),
    (["converge", "--grid", "-3:inf:0.25"], "-3:inf:0.25"),
    (["converge", "--grid", "-3:3:nan"], "-3:3:nan"),
], ids=["eval", "verify", "converge", "converge-nan-step"])
def test_non_finite_grid_is_usage_error(tmp_path, capsys, argv, text):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert f"grid a, b and step must be finite, got {text!r}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,count", [
    (["eval", "--limit", "bulk", "--grid", "0:1e13:1"], 10**13 + 1),
    (["eval", "--limit", "bulk", "--grid", "0:1e300:1e-300"], math.inf),
    (["eval", "--finite", "ginibre", "--grid", "0:1024:1"], 1025**2),
    (["verify", "ward", "--spec", "bulk", "--grid", "0:1100:1"], 1101**2),
    (["verify", "series", "--grid", "0:1e9:1"], 10**9 + 1),
    (["verify", "positivity", "--spec", "bulk", "--sets", "100000000000000"], 10**14),
    (["verify", "mass-one", "--points", "random:100000000000"], 10**11),
    (["converge", "--n-list", "64,256", "--grid", "0:600000:1"], 2 * 600001),
    (["converge", "--sections", "--n-list", "64,256,1024", "--grid", "0:400000:1"],
     3 * 400001),
], ids=["eval-axis", "eval-overflowing-step", "eval-both-axes", "ward-both-axes", "series",
        "positivity-sets", "mass-one-random", "converge", "converge-sections"])
def test_request_over_row_budget_is_usage_error(tmp_path, capsys, argv, count):
    # refused before anything of that size is built: at once, naming the
    # count and the budget, writing nothing
    t0 = time.perf_counter()
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert f"asks for {count} rows, over the budget of {cli.ROW_BUDGET}" in err
    assert not tmp_path.exists() or not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,named", [
    (["eval", "--limit", "ml:inf", "--grid", "0:1:1"], "finite lam >= 1, got inf"),
    (["eval", "--limit", "ml:nan", "--grid", "0:0:1"], "finite lam >= 1, got nan"),
    (["eval", "--limit", "constant:nan", "--grid", "0:0:1"], "finite level, got nan"),
    (["verify", "mass-one", "--spec", "constant:inf"], "finite level, got inf"),
    (["eval", "--limit", "constant:-1", "--grid", "0:0:1"], "positive finite level, got -1.0"),
    (["verify", "mass-one", "--spec", "constant:0", "--points", "0"],
     "positive finite level, got 0.0"),
    (["eval", "--finite", "power:nan", "--grid", "0:0:1"], "finite lam >= 1, got nan"),
    (["eval", "--finite", "power:inf", "--grid", "0:0:1"], "finite lam >= 1, got inf"),
], ids=["ml-inf", "ml-nan", "constant-nan", "constant-inf", "constant-negative",
        "constant-zero", "power-nan", "power-inf"])
def test_non_finite_shape_is_usage_error(tmp_path, capsys, argv, named):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("spec,quad,named", [
    ("ml:2", "-1,96", "r_max must be finite and positive, got -1.0"),
    ("ml:2", "0,96", "r_max must be finite and positive, got 0.0"),
    ("ml:2", "inf,96", "r_max must be finite and positive, got inf"),
    ("free-boundary", "nan,96", "r_max must be finite and positive, got nan"),
    ("ml:2", "8,0", "n_radial must be at least 1, got 0"),
    ("free-boundary", "8,-3", "n_radial must be at least 1, got -3"),
    ("ml:2", "8,96,1", "quad must be r_max,nr, got '8,96,1'"),
    ("free-boundary", "8,769", "n_radial must be at most 768, got 769"),
], ids=["negative", "zero", "inf", "nan", "no-nodes", "negative-nodes", "three-fields",
        "over-budget"])
def test_bad_quad_is_usage_error(tmp_path, capsys, spec, quad, named):
    # a rule that cannot integrate is a usage error, not a verdict
    argv = ["verify", "mass-one", "--spec", spec, "--quad", quad, "--out", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert named in captured.err and "PASS" not in captured.out
    assert not list(tmp_path.iterdir())


# the options each verify equation reads besides --spec and the common ones,
# and a valid value of each option
_READS = {
    "ward": {"--grid", "--quad"},
    "mass-one": {"--points", "--quad"},
    "series": {"--grid", "--n"},
    "eighth": set(),
    "inequalities": set(),
    "positivity": {"--points", "--sets", "--complementary"},
    "polarized": {"--quad"},
}
_VALUES = {"--grid": ["0:0:1"], "--quad": ["8,96"], "--points": ["0"], "--sets": ["3"],
           "--complementary": [], "--n": ["40"]}
_UNREAD = [(["verify", eq, flag, *_VALUES[flag]], flag)
           for eq, reads in _READS.items() for flag in _VALUES if flag not in reads]
assert len(_UNREAD) == 32


@pytest.mark.parametrize("argv,flag", _UNREAD + [
    (["verify", "ward", "--spec", "ml:2", "--quad", "4,24"], "--quad"),
], ids=[f"{argv[1]}{flag}" for argv, flag in _UNREAD] + ["ward-ml--quad"])
def test_verify_refuses_options_it_does_not_read(tmp_path, capsys, argv, flag):
    # an option the check would ignore is a usage error that names it, not
    # a value recorded in the config and its hash
    try:
        code = main(argv + ["--out", str(tmp_path)])
    except SystemExit as exc:  # argparse's own refusal
        code = exc.code
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_refused_flag_shows_the_equation_usage(tmp_path, capsys):
    # argparse gathers every sub-parser's leftovers at the root; the refusal
    # comes from the equation's parser, whose usage line lists what it reads
    with pytest.raises(SystemExit) as exc:
        main(["verify", "ward", "--spec", "ml:2", "--sets", "3", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: plasma-kernel verify ward [-h] [--spec SPEC]")
    assert "verify ward: error: unrecognized arguments: --sets 3" in err
    assert not list(tmp_path.iterdir())


def test_unknown_spec_is_usage_error(tmp_path):
    assert main(["verify", "mass-one", "--spec", "nonsense",
                 "--out", str(tmp_path)]) == 2


def test_unparseable_flag_exits_two():
    proc = subprocess.run(
        [sys.executable, "-m", "plasma_kernel.cli", "verify", "eighth",
         "--no-such-flag"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_thread_count_below_one_exits_two(tmp_path, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "eighth", "--threads", threads, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"need at least 1 thread, got {threads}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_window_budget_is_numeric_error(tmp_path, capsys):
    # |z| = 70 at lam = 1.5 sums windows of about 15,000 terms; past |z| =
    # 186 they would exceed the budget of 65,536, and the guard trips: exit 3
    assert main(["eval", "--limit", "ml:1.5", "--grid", "49:51:1",
                 "--out", str(tmp_path)]) == 0
    res = json.loads((tmp_path / "eval_ml-1-5.json").read_text())["results"]
    # far out R(z) = lam^2 |z|^(2 lam - 2) = 2.25 |z| up to exponentially small terms
    assert res["min_value"] == pytest.approx(2.25 * 49.0 * math.sqrt(2.0), rel=1e-12)
    assert main(["eval", "--limit", "ml:1.5", "--grid", "200:201:1",
                 "--out", str(tmp_path / "far")]) == 3
    assert "terms (budget 65536)" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "--limit", "free-boundary", "--grid", "-1:1:1"],
    ["sample", "--n", "64", "--trials", "4", "--bins", "4"],
], ids=["eval", "sample"])
def test_non_finite_result_is_numeric_error(tmp_path, capsys, monkeypatch, argv):
    # a NaN anywhere in the rows or the results exits 3 before any artifact
    # is written; the sample CSV itself is finite, only its JSON is not
    monkeypatch.setattr(cli, "one_point", lambda spec, z: np.full(np.shape(z), np.nan))
    assert main(argv + ["--out", str(tmp_path)]) == 3
    assert "a result is nan" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_mittag_leffler_eval_is_finite_at_large_modulus(tmp_path):
    # |z|^4 > 709 on this grid: M_2 alone overflows, R(z) = 4 |z|^2 does not
    assert main(["eval", "--limit", "ml:2", "--grid", "5:6:0.5",
                 "--out", str(tmp_path)]) == 0
    res = json.loads((tmp_path / "eval_ml-2.json").read_text())["results"]
    assert res["min_value"] == pytest.approx(4.0 * 50.0, rel=1e-13)
    assert res["max_value"] == pytest.approx(4.0 * 72.0, rel=1e-13)


# --------------------------------------------------------------------------
# artifacts
# --------------------------------------------------------------------------


def test_eval_grid_artifacts(tmp_path):
    assert main(["eval", "--limit", "free-boundary", "--grid", "-1:1:0.5",
                 "--out", str(tmp_path)]) == 0
    csvs = list(tmp_path.glob("*.csv"))
    jsons = list(tmp_path.glob("*.json"))
    assert len(csvs) == 1 and len(jsons) == 1
    rows = csvs[0].read_text().strip().splitlines()
    assert rows[0] == "re_z,im_z,re_val,im_val"
    assert len(rows) == 1 + 25  # 5 x 5 grid
    payload = json.loads(jsons[0].read_text())
    assert payload["command"] == "eval"
    assert "config_hash" in payload and "thresholds_version" in payload


def test_eval_finite_n(tmp_path):
    assert main(["eval", "--finite", "ginibre", "--n", "64",
                 "--grid", "-1:0:0.5", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv", [
    ["eval", "--finite", "hard-edge", "--n", "4096", "--grid", "-2:1:0.5"],
    ["converge", "--pot", "ginibre", "--n-list", "256,4096", "--grid", "-2:2:1"],
], ids=["eval", "converge"])
def test_finite_n_artifacts_report_tail_bound(tmp_path, argv):
    # the kernel's truncated index range reports its bound, deterministically
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    results = json.loads(next(out1.glob("*.json")).read_text())["results"]
    assert 0.0 < results["tail_bound"] <= 1e-17


def test_ginibre_singularity_frame_is_the_bulk_frame(tmp_path):
    # at lam = 1 both frames sit at 0 with zoom sqrt(n) = 32
    argv = ["eval", "--finite", "ginibre", "--n", "1024", "--grid", "-2:1:0.25"]
    for frame in ("bulk", "singularity"):
        assert main(argv + ["--frame", frame, "--out", str(tmp_path)]) == 0
    assert ((tmp_path / "eval_ginibre-n1024-singularity.csv").read_bytes()
            == (tmp_path / "eval_ginibre-n1024-bulk.csv").read_bytes())
    assert main(["converge", "--pot", "ginibre", "--frame", "singularity",
                 "--out", str(tmp_path)]) == 0


def test_ginibre_and_power_one_sample_one_singularity_profile(tmp_path):
    # power:1 is Ginibre's potential: the same radii in the same frame
    for pot in ("ginibre", "power:1"):
        assert main(["sample", "--pot", pot, "--frame", "singularity", "--n", "256",
                     "--trials", "20", "--bins", "8", "--out", str(tmp_path)]) == 0
    assert ((tmp_path / "sample_ginibre-n256_singularity.csv").read_bytes()
            == (tmp_path / "sample_power-1-n256_singularity.csv").read_bytes())


@pytest.mark.parametrize("argv", [
    ["eval", "--finite", "hard-edge", "--frame", "singularity"],
    ["converge", "--pot", "hard-edge", "--frame", "singularity"],
    ["sample", "--pot", "hard-edge", "--frame", "singularity", "--trials", "4"],
], ids=["eval", "converge", "sample"])
def test_hard_edge_has_no_singularity_frame(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "singularity frame needs a potential" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_artifacts_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["verify", "mass-one", "--spec", "ml:2", "--points", "0,0.5"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"spec": "ml:2", "points": "0,0.5"}))
    out = tmp_path / "o"
    assert main(["verify", "mass-one", "--config", str(cfg),
                 "--out", str(out)]) == 0
    payload = json.loads(next(out.glob("*.json")).read_text())
    assert payload["config"]["spec"] == "ml:2"
    # an explicit non-default flag beats the config file
    out2 = tmp_path / "o2"
    assert main(["verify", "mass-one", "--config", str(cfg), "--spec",
                 "hard-edge", "--points", "-0.5", "--out", str(out2)]) == 0
    payload2 = json.loads(next(out2.glob("*.json")).read_text())
    assert payload2["config"]["spec"] == "hard-edge"
    # a flag of eval's mode group beats a config value for the other mode
    for key, value, flags, mode in (("limit", "bulk", ["--finite", "ginibre"], "finite"),
                                    ("finite", "ginibre", ["--limit", "bulk"], "limit")):
        cfg.write_text(json.dumps({key: value}))
        out3 = tmp_path / f"o-{mode}"
        assert main(["eval", *flags, "--n", "64", "--grid", "0:0:1", "--config", str(cfg),
                     "--out", str(out3)]) == 0
        [payload3] = [json.loads(p.read_text()) for p in out3.glob("*.json")]
        assert payload3["config"]["mode"] == mode


def test_eval_takes_its_mode_from_the_config_file(tmp_path, capsys):
    # --limit and --finite are one mutually exclusive group that a config
    # file may set; with neither, eval is a usage error that writes nothing
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"finite": "ginibre"}))
    out = tmp_path / "o"
    argv = ["eval", "--n", "64", "--grid", "0:0:1", "--out", str(out)]
    assert main(argv + ["--config", str(cfg)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["eval_ginibre-n64-boundary.csv",
                                                      "eval_ginibre-n64-boundary.json"]
    empty = tmp_path / "empty"
    assert main(argv[:-1] + [str(empty)]) == 2
    assert "one of the arguments --limit --finite is required" in capsys.readouterr().err
    cfg.write_text(json.dumps({"finite": "ginibre", "limit": "bulk"}))
    assert main(argv[:-1] + [str(empty), "--config", str(cfg)]) == 2
    assert "config keys 'limit', 'finite' exclude each other" in capsys.readouterr().err
    assert not empty.exists()


def test_config_file_loses_to_flag_equal_to_default(tmp_path):
    # an explicit flag wins even when its value equals the parser default
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 7}))
    out = tmp_path / "o"
    assert main(["verify", "inequalities", "--seed", "0", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert json.loads(next(out.glob("*.json")).read_text())["seed"] == 0
    out2 = tmp_path / "o2"
    assert main(["verify", "inequalities", "--config", str(cfg),
                 "--out", str(out2)]) == 0
    assert json.loads(next(out2.glob("*.json")).read_text())["seed"] == 7


def test_config_file_values_go_through_the_flag_type(tmp_path, capsys):
    # a JSON number is checked as the flag's string would be
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"threads": 0}))
    argv = ["verify", "ward", "--spec", "bulk", "--grid", "0:0:1", "--out", str(tmp_path)]
    assert main(argv + ["--config", str(cfg)]) == 2
    assert "config key 'threads': need at least 1 thread, got 0" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # the flag itself, for comparison
        main(argv + ["--threads", "0"])
    assert exc.value.code == 2
    assert not list(tmp_path.glob("*.csv"))
    cfg.write_text(json.dumps({"frame": "nope"}))
    assert main(["eval", "--limit", "bulk", "--grid", "0:0:1", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    assert "config key 'frame': invalid choice 'nope'" in capsys.readouterr().err
    # null leaves a flag unset, which only a flag without a default can be
    for equation, key in (("positivity", "sets"), ("series", "n"), ("series", "grid")):
        cfg.write_text(json.dumps({key: None}))
        assert main(["verify", equation, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"config key {key!r}: null" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    cfg.write_text(json.dumps({"points": None, "seed": 1}))
    assert main(["verify", "mass-one", "--spec", "bulk", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0


def test_config_file_numeric_value_applies(tmp_path):
    cfg = tmp_path / "c.json"
    for equation, key, value, code in (("series", "n", 40, 1), ("positivity", "sets", 3, 0)):
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / equation
        assert main(["verify", equation, "--config", str(cfg), "--out", str(out)]) == code
        assert json.loads(next(out.glob("*.json")).read_text())["config"][key] == value


def test_config_file_unknown_key(tmp_path, capsys):
    # the finite-difference step is a constant, so fd_step is no option, and
    # eighth and ward read neither quad nor sets
    cfg = tmp_path / "run.json"
    for equation, key in (("eighth", "no_such_option"), ("eighth", "fd_step"),
                          ("eighth", "quad"), ("ward", "sets")):
        cfg.write_text(json.dumps({key: 1}))
        assert main(["verify", equation, "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_shared_parser_is_never_changed_by_a_request(tmp_path, capsys):
    # one parser serves every main call in a process; a --config file, a
    # mutually exclusive group and a usage error must leave it as it was
    assert build_parser() is build_parser()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 7}))
    for extra, seed in ((["--config", str(cfg)], 7), ([], 0)):
        out = tmp_path / f"seed{seed}"
        assert main(["verify", "inequalities", *extra, "--out", str(out)]) == 0
        assert json.loads(next(out.glob("*.json")).read_text())["seed"] == seed
    for mode in (["--limit", "bulk"], ["--finite", "ginibre"]):
        assert main(["eval", *mode, "--grid", "0:0:1", "--out", str(tmp_path / "e")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--limit", "bulk", "--finite", "ginibre"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert main(["verify", "eighth", "--out", str(tmp_path / "eighth")]) == 0


def test_sample_artifacts(tmp_path):
    assert main(["sample", "--pot", "ginibre", "--n", "64", "--trials", "40",
                 "--bins", "20", "--window", "-3:1", "--out",
                 str(tmp_path)]) == 0
    payload = json.loads(next(tmp_path.glob("*.json")).read_text())
    res = payload["results"]
    assert res["total_counts"] > 0
    assert "max_deviation_over_3se" in res
    rows = next(tmp_path.glob("*.csv")).read_text().strip().splitlines()
    assert rows[0] == "bin_center,estimate,stderr"
    assert len(rows) == 1 + 20


def test_sample_artifact_names_carry_n(tmp_path):
    # requests that differ only in --n must not overwrite each other
    for n in ("64", "128"):
        assert main(["sample", "--n", n, "--trials", "10", "--bins", "5",
                     "--out", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["sample_ginibre-n128_boundary.csv", "sample_ginibre-n128_boundary.json",
                     "sample_ginibre-n64_boundary.csv", "sample_ginibre-n64_boundary.json"]


@pytest.mark.parametrize("flags,named", [
    (["--bins", "0"], "at least one bin"),
    (["--window", "0:nan"], "finite lo < hi"),
    (["--window", "1:2:3"], "window must be lo:hi, got '1:2:3'"),
    (["--window", "1"], "window must be lo:hi, got '1'"),
    (["--window", "a:b"], "window must be lo:hi, got 'a:b'"),
    (["--window", "100:200", "--bins", "4"], "no index can reach the window 100:200 at n=64"),
], ids=["no-bins", "nan-window", "three-values", "one-value", "not-numbers", "unreachable"])
def test_bad_histogram_window_is_usage_error(tmp_path, capsys, monkeypatch,
                                             flags, named):
    # refused before the first trial is drawn, with a named error
    def no_sampling(*args):
        raise AssertionError("sampled before the window was checked")

    monkeypatch.setattr(sampler, "_uniforms", no_sampling)
    assert main(["sample", "--n", "64", "--trials", "10", "--out",
                 str(tmp_path)] + flags) == 2
    assert named in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_sample_over_budget_is_usage_error(tmp_path, capsys, monkeypatch):
    # a request beyond the n*trials budget is refused before any trial is
    # drawn: a usage error, not a numeric one
    def no_sampling(*args):
        raise AssertionError("sampled before the budget was checked")

    monkeypatch.setattr(sampler, "_uniforms", no_sampling)
    assert main(["sample", "--n", "4096", "--trials", "400000", "--out",
                 str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "n*trials = 1638400000 exceeds the sampling budget of 1000000000" in err
    assert "numeric" not in err
    assert not list(tmp_path.iterdir())


def test_sample_over_table_budget_is_usage_error(tmp_path, capsys, monkeypatch):
    # 1e6 bins would need a 381 x 2^20 edge table at n = 1024, 3.2 GB of
    # float64: refused after the bisection, before the table or any trial
    def no_sampling(*args):
        raise AssertionError("sampled before the table budget was checked")

    monkeypatch.setattr(sampler, "_uniforms", no_sampling)
    assert main(["sample", "--n", "1024", "--trials", "10", "--bins", "1000000",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert ("1000000 bins need an edge table of 381 x 1048576 = 399507456 entries, "
            f"over the budget of {sampler.TABLE_BUDGET}") in err
    assert not list(tmp_path.iterdir())


def test_sample_over_edge_budget_is_refused_at_once(tmp_path, capsys):
    # 1e9 bins: the edges alone would take 8 GB, refused before they are built
    t0 = time.perf_counter()
    assert main(["sample", "--n", "64", "--trials", "10", "--bins", "1000000000",
                 "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert (f"1000000000 bins need 1000000001 edges, over the table budget of "
            f"{sampler.TABLE_BUDGET}") in capsys.readouterr().err
    assert not tmp_path.exists() or not list(tmp_path.iterdir())


def test_sample_reports_inversion_shortcut(tmp_path):
    # the shortcut's work and check are reported, identically at every
    # thread count
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        assert main(["sample", "--n", "1024", "--trials", "20", "--window",
                     "-3:1", "--threads", threads, "--out", str(out)]) == 0
        texts.append(next(out.glob("*.json")).read_text())
    assert texts[0] == texts[1]
    res = json.loads(texts[0])["results"]
    assert 0 < res["inverted"] < 1024 * 20 // 4
    assert 0.0 <= res["band_backward_error"] < 1e-12
    assert 0 < res["band_rows"] < 1024


@pytest.mark.parametrize("spec,count,complementary", [
    ("bulk", 32, False), ("free-boundary", 16, True), ("ml:2", 32, False)])
def test_positivity_blocks_write_the_per_set_loop(tmp_path, spec, count, complementary):
    # the sets are drawn and checked a block at a time; a count that crosses
    # two block boundaries gives the rows and results of one set at a time
    sets = 5 * (cli._GRAM_BLOCK // count**2) // 2
    flags = ["--complementary"] if complementary else []
    assert main(["verify", "positivity", "--spec", spec, "--points", f"random:{count}",
                 "--sets", str(sets), "--seed", "11", "--out", str(tmp_path)] + flags) == 0
    rng = np.random.default_rng(11)
    kernel = parse_spec(spec)
    eigs = []
    for _ in range(sets):
        xy = rng.uniform(-2.0, 2.0, size=(count, 2))
        eigs.append(cli.gram_min_eig(kernel, [complex(x, y) for x, y in xy],
                                     complementary=complementary))
    stem = tmp_path / f"verify_positivity_{cli._slug(spec)}"
    lines = (stem.with_suffix(".csv")).read_text().splitlines()
    assert lines[0] == "x,y,residual" and len(lines) == sets + 1
    assert lines[1:] == [f"{k:.17g},0,{e:.17g}" for k, e in enumerate(eigs)]
    res = json.loads(stem.with_suffix(".json").read_text())["results"]
    worst = min(eigs)
    assert res["min_eigenvalue"] == worst and res["sup_norm"] == max(0.0, -worst)
    assert (res["sets"], res["points_per_set"]) == (sets, count)


def test_converge_sections(tmp_path):
    assert main(["converge", "--sections", "--n-list", "256",
                 "--grid", "-2:2:0.5", "--out", str(tmp_path)]) == 0
    payload = json.loads(next(tmp_path.glob("*.json")).read_text())
    res = payload["results"]["256"]
    assert res["sup_dev_vs_F"] <= 0.02


def test_converge_sections_checks_every_n_first(tmp_path, capsys):
    # n = 64 is in range, but nothing is computed or printed before the
    # out-of-range n is refused
    assert main(["converge", "--sections", "--n-list", "64,2000000",
                 "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "need 1 <= n <= 1000000, got 2000000" in err
    assert not list(tmp_path.iterdir())


def test_converge_kernels(tmp_path):
    assert main(["converge", "--pot", "ginibre", "--frame", "boundary",
                 "--n-list", "64,256", "--grid", "-2:1:0.5",
                 "--out", str(tmp_path)]) == 0
    payload = json.loads(next(tmp_path.glob("*.json")).read_text())
    ratios = payload["results"]["ratios"]
    assert "64->256" in ratios
    assert 1.4 <= ratios["64->256"] <= 3.0  # ~sqrt(4) for a sqrt(n) law


@pytest.mark.parametrize("n_list,repeated", [
    ("64,64", 64), ("256,64,1024,64", 64)], ids=["neighbours", "apart"])
@pytest.mark.parametrize("sections", [False, True], ids=["kernels", "sections"])
def test_converge_repeated_n_is_usage_error(tmp_path, capsys, n_list, repeated, sections):
    # a ratio of an n with itself compares nothing; the order stays free
    argv = ["converge", "--n-list", n_list, "--grid", "0:0:1", "--out", str(tmp_path)]
    assert main(argv + ["--sections"] * sections) == 2
    assert f"--n-list repeats n = {repeated}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_converge_ratio_over_zero_error_is_null(tmp_path):
    # the bulk intensity at 0 is exact at n = 1024, so its ratio has no value
    argv = ["converge", "--pot", "ginibre", "--frame", "bulk",
            "--n-list", "64,1024", "--grid", "0:0:1"]
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main([*argv, "--out", str(out)]) == 0
    results = json.loads(next(outs[0].glob("*.json")).read_text())["results"]
    assert results["sup_errors"]["1024"] == 0.0
    assert results["ratios"]["64->1024"] is None
    for name in ("converge_ginibre_bulk.csv", "converge_ginibre_bulk.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("argv,last", [
    (["--pot", "hard-edge"], 3e-3),
    (["--pot", "ginibre", "--frame", "bulk"], 1e-12),
    (["--pot", "hard-edge", "--frame", "bulk"], 1e-12),
    (["--pot", "power:2", "--frame", "singularity"], 1e-12),
], ids=["hard-edge", "ginibre-bulk", "hard-edge-bulk", "power-2-singularity"])
def test_converge_compares_with_the_frame_limit(tmp_path, argv, last):
    # the limit follows from --pot and --frame: H(2x) at the hard edge, the
    # bulk kernel 1 at 0 for lam = 1 and Mittag-Leffler at the singularity,
    # so the sup errors fall with n or stay at rounding level
    assert main(["converge", *argv, "--n-list", "256,1024,4096", "--out", str(tmp_path)]) == 0
    payload = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert "spec" not in payload["config"]
    errors = [payload["results"]["sup_errors"][n] for n in ("256", "1024", "4096")]
    assert all(b <= max(a, 1e-12) for a, b in zip(errors, errors[1:])) and errors[-1] <= last


def test_converge_takes_no_spec(tmp_path, capsys):
    # --pot and --frame name the limit: a --spec flag or config key is refused
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--spec", "free-boundary", "--out", str(out)])
    assert exc.value.code == 2
    assert "--spec" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"spec": "free-boundary"}))
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown config key 'spec'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,named", [
    (["verify", "positivity", "--points", "random:abc"],
     "--points must be random:N, got 'random:abc'"),
    (["verify", "mass-one", "--points", "random:-5"],
     "--points random:N needs 0 <= N <= 1048576, got N = -5"),
], ids=["positivity-not-an-integer", "mass-one-negative"])
def test_random_point_count_is_refused_naming_points(tmp_path, capsys, argv, named):
    # one parser reads random:N for both equations, naming the flag
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _readme_commands():
    """The ``plasma-kernel`` lines of the README's command-line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("plasma-kernel")]


def _parsers(parser):
    """``parser`` and every subcommand parser below it, the verify equations' too."""
    yield parser
    for action in parser._actions:  # noqa: SLF001
        if isinstance(action, argparse._SubParsersAction):  # noqa: SLF001
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_readme_flags_are_parser_options():
    # every backticked --flag in the README is an option the CLI accepts
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = set(re.findall(r"--[a-z][a-z-]*", " ".join(re.findall(r"`([^`\n]+)`", text))))
    options = {opt for p in _parsers(build_parser()) for action in p._actions  # noqa: SLF001
               for opt in action.option_strings}
    assert len(documented) >= 10
    assert documented <= options, sorted(documented - options)


def test_readme_command_block_runs_as_documented(tmp_path):
    commands = _readme_commands()
    assert len(commands) >= 10
    for i, line in enumerate(commands):
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path / str(i))
        expected = 1 if "exits 1" in comment else 0
        assert main(argv) == expected, line


def test_every_benchmark_request_parses(monkeypatch):
    # perfbench/workloads.py builds the benchmark's command lines and its
    # worker appends --threads and --out: the parser must take every one
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    requests = [req for name in workloads.NAMES for smoke in (False, True)
                for seed in (1, 2) for req in workloads.build(name, seed, smoke)]
    assert len(requests) == 2 * 37
    for req in requests:
        build_parser().parse_args([*req.argv, "--threads", "2", "--out", "x"])

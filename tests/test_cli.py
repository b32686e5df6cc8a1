"""Command-line interface: parsing, exit codes, artifact layout, and
byte-level reproducibility."""

import argparse
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
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


def test_verify_ward_disconnected_fails(tmp_path, capsys):
    code = main(["verify", "ward", "--spec", "free-boundary:-2,-1,1,2",
                 "--grid", "0:0:1", "--out", str(tmp_path)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv,named", [
    (["verify", "ward", "--spec", "hard-edge", "--grid", "0:1:0.5"], "keeps no points"),
    (["verify", "positivity", "--sets", "0"], "--sets >= 1"),
    (["converge", "--pot", "hard-edge", "--spec", "hard-edge", "--grid", "0:1:0.5"],
     "keeps no points"),
    (["verify", "mass-one", "--points", "random:0"], "keeps no points"),
], ids=["ward", "positivity", "converge", "mass-one"])
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
], ids=["negative", "zero", "inf", "nan", "no-nodes", "negative-nodes", "three-fields"])
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


def test_bad_thread_environment_exits_two(tmp_path):
    # the environment default is parsed like the flag: a usage error that
    # names the value, not a traceback
    env = {**os.environ, "PLASMA_KERNEL_THREADS": "two"}
    proc = subprocess.run(
        [sys.executable, "-m", "plasma_kernel.cli", "verify", "eighth",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "'two'" in proc.stderr and "Traceback" not in proc.stderr
    assert not list(tmp_path.iterdir())


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
], ids=["no-bins", "nan-window"])
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


def test_converge_sections(tmp_path):
    assert main(["converge", "--sections", "--n-list", "256",
                 "--grid", "-2:2:0.5", "--out", str(tmp_path)]) == 0
    payload = json.loads(next(tmp_path.glob("*.json")).read_text())
    res = payload["results"]["256"]
    assert res["sup_dev_vs_F"] <= 0.02


def test_converge_kernels(tmp_path):
    assert main(["converge", "--pot", "ginibre", "--frame", "boundary",
                 "--n-list", "64,256", "--grid", "-2:1:0.5",
                 "--out", str(tmp_path)]) == 0
    payload = json.loads(next(tmp_path.glob("*.json")).read_text())
    ratios = payload["results"]["ratios"]
    assert "64->256" in ratios
    assert 1.4 <= ratios["64->256"] <= 3.0  # ~sqrt(4) for a sqrt(n) law


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

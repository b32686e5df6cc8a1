"""Batch command-line front door.

Four subcommands, all emitting diff-able CSV + JSON artifacts.  Each, and
each ``verify`` equation or ``eval``/``converge`` mode, takes ``--out``,
``--threads``, ``--config`` and only the flags it reads:

* ``eval``      — one-point values of a finite-n or limiting kernel on a grid;
* ``verify``    — residual checks (ward, mass-one, series, eighth,
                  inequalities, positivity, polarized) against the versioned
                  thresholds table; exit 0 iff below threshold;
* ``converge``  — finite-n to limit convergence tables (or edge sections);
* ``sample``    — Monte Carlo radial profiles with deviation stats.

Exit codes: 0 pass, 1 verification fail, 2 usage error, 3 numeric
non-convergence or a non-finite result (then nothing is written).
Identical resolved configs produce byte-identical JSON (no timestamps; CSV
floats use 17 significant digits).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .finite_n import (
    KERNEL_MAX_N,
    Potential,
    RescaleFrame,
    SECTION_MAX_N,
    _check_n,
    exp_section,
    rescaled_kernel,
)
from .limits import (
    LimitKernelSpec,
    QuadratureConfig,
    eighth_formula,
    gram_min_eig,
    hermite_identity_residual,
    inequality_suite,
    mass_one_residual,
    mass_one_series_residual,
    one_point,
    polarized_mass_one_residual,
    telescoping_sum,
    ward_residual,
)
from .sampler import SampleConfig, radial_profile
from .special import NumericError, plasma_F

THRESHOLDS_VERSION = 1

# Single source of truth for every pass/fail decision `verify` makes.
THRESHOLDS = {
    ("ward", "bulk"): 1e-8,
    ("ward", "free_boundary"): 5e-4,
    ("ward", "hard_edge"): 1e-3,
    ("ward", "mittag_leffler"): 5e-3,
    ("ward", "constant"): 1e-8,
    ("mass-one", "bulk"): 1e-6,
    ("mass-one", "free_boundary"): 1e-6,
    ("mass-one", "hard_edge"): 1e-4,
    ("mass-one", "mittag_leffler"): 1e-4,
    ("mass-one", "constant"): 1e-9,
    ("series", "*"): 1e-10,
    ("eighth", "*"): 1e-8,
    ("inequalities", "*"): 1e-10,
    ("positivity", "*"): 1e-9,
    ("polarized", "free_boundary"): 1e-6,
    ("polarized", "hard_edge"): 1e-6,
}

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# Rows a request may ask for, checked before anything of that size is built:
# grid points (the product of both axes for eval and ward), --sets, random:N
# and converge's n-list times its grid.  A 1024 x 1024 eval grid fits.
ROW_BUDGET = 1 << 20


class NonFiniteResult(NumericError):
    """A result to be written is NaN or infinite."""


def threshold_for(equation: str, spec_kind: str) -> float:
    if (equation, spec_kind) in THRESHOLDS:
        return THRESHOLDS[(equation, spec_kind)]
    return THRESHOLDS[(equation, "*")]


def _show_thresholds() -> None:
    print(f"thresholds table v{THRESHOLDS_VERSION} (plasma-kernel {__version__})")
    print(f"{'equation':<14}{'spec':<18}{'sup threshold':>14}")
    for (eq, kind), tol in THRESHOLDS.items():
        print(f"{eq:<14}{kind:<18}{tol:>14g}")


# --------------------------------------------------------------------------
# argument parsing helpers
# --------------------------------------------------------------------------


def _rows(count):
    """``count``, refused when more than ``ROW_BUDGET`` rows."""
    if count > ROW_BUDGET:
        raise ValueError(f"the request asks for {count} rows, over the budget of {ROW_BUDGET}")
    return count


def parse_grid(text: str) -> np.ndarray:
    try:
        a, b, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValueError(f"grid must be a:b:step, got {text!r}")
    if not all(map(math.isfinite, (a, b, step))):
        raise ValueError(f"grid a, b and step must be finite, got {text!r}")
    if step <= 0 or b < a:
        raise ValueError(f"need a <= b and step > 0 in {text!r}")
    span = (b - a) / step  # inf where a tiny step overflows it
    count = int(round(span)) + 1 if math.isfinite(span) else math.inf
    return a + step * np.arange(_rows(count))


def _plane(re: str, im: str) -> np.ndarray:
    """The points ``x + iy`` of grids ``re`` and ``im``, one row per ``y``."""
    x, y = parse_grid(re), parse_grid(im)
    _rows(x.size * y.size)
    return x[None, :] + 1j * y[:, None]


def parse_window(text: str) -> tuple:
    try:
        lo, hi = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValueError(f"window must be lo:hi, got {text!r}")
    return lo, hi


def parse_spec(text: str) -> LimitKernelSpec:
    name, _, arg = text.partition(":")
    name = name.replace("_", "-")
    if name in ("bulk", "ginibre-bulk"):
        return LimitKernelSpec.ginibre_bulk()
    if name == "free-boundary":
        ends = [float(p) for p in arg.split(",")] if arg else [-math.inf, 0.0]
        if len(ends) % 2:
            raise ValueError("free-boundary endpoints must come in pairs")
        return LimitKernelSpec.free_boundary(zip(ends[::2], ends[1::2]))
    if name == "hard-edge":
        return LimitKernelSpec.hard_edge()
    if name in ("ml", "mittag-leffler"):
        return LimitKernelSpec.mittag_leffler(float(arg or 2.0))
    if name == "constant":
        return LimitKernelSpec.constant_profile(float(arg or 0.5))
    raise ValueError(f"unknown kernel spec {text!r}")


def parse_pot(text: str) -> Potential:
    name, _, arg = text.partition(":")
    name = name.replace("_", "-")
    if name == "ginibre":
        return Potential.ginibre()
    if name == "power":
        return Potential.power(float(arg or 2.0))
    if name == "hard-edge":
        return Potential.hard_edge()
    raise ValueError(f"unknown potential {text!r}")


def _quad(args) -> QuadratureConfig:
    return QuadratureConfig() if args.quad is None else QuadratureConfig(args.quad)


def _mode_flags(args, request: str, reads: bool, **defaults) -> None:
    """Flags that one mode of a command reads: if ``request``'s mode reads them,
    each one left unset takes its default; if not, each one set is refused."""
    for flag, default in defaults.items():
        value = getattr(args, flag)
        if value is not None and not reads:
            raise ValueError(f"{request} reads no --{flag}, got {value!r}")
        if value is None and reads:
            setattr(args, flag, default)


def _random_points(rng, shape) -> np.ndarray:
    """Points of ``shape`` with parts uniform on [-2, 2), drawn point by point
    in C order: a stack of sets draws what its sets drawn one by one do."""
    return rng.uniform(-2.0, 2.0, size=(*shape, 2)).view(complex)[..., 0]


def _random_count(text: str, lo: int, hi: int) -> int:
    """The N of ``--points random:N``: an integer from ``lo`` to ``hi``, within ``ROW_BUDGET``."""
    kind, _, arg = text.partition(":")
    if kind != "random" or not arg.removeprefix("-").isdecimal():
        raise ValueError(f"--points must be random:N, got {text!r} (N an integer)")
    if not lo <= _rows(int(arg)) <= hi:
        raise ValueError(f"--points random:N needs {lo} <= N <= {hi}, got N = {arg}")
    return int(arg)


def _parse_points(text: str, seed: int) -> np.ndarray:
    if text.startswith("random:"):
        count = _random_count(text, 0, ROW_BUDGET)
        return _random_points(np.random.default_rng(seed), (count,))
    return np.array([complex(p) for p in text.split(",")])


def _in_domain(spec, pts, what: str) -> np.ndarray:
    """The points of ``pts`` where ``spec``'s kernel lives (``Re z < 0`` at
    the hard edge), refusing a request that keeps none."""
    if spec.kind == "hard_edge":
        pts = pts[pts.real < 0.0]
    if not pts.size:
        raise ValueError(f"{what} keeps no points for {spec.kind.replace('_', '-')}")
    return pts


# --------------------------------------------------------------------------
# artifact output
# --------------------------------------------------------------------------


def _write_csv(path: str, header, table) -> None:
    """``header``, then the rows of the float array ``table`` in one format call."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n" + line * len(table) % tuple(table.ravel().tolist()))


def _canonical(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.tolist()]
    return obj


def _floats(obj) -> list:
    """Every float in ``obj``: a number, or nested lists, tuples and dicts."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [x for v in obj for x in _floats(v)]
    return [obj] if isinstance(obj, float) else []


def _write_artifacts(args, stem: str, header, rows, command: str,
                     config: dict, results: dict) -> None:
    """Write ``stem.csv`` and ``stem.json`` into ``--out``, or nothing if a
    number in the rows or the results is not finite."""
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    results = _canonical(results)
    values = np.concatenate([table.ravel(), _floats(results)])
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise NonFiniteResult(f"{stem}: a result is {bad[0]}; nothing written")
    _write_csv(_out_path(args, f"{stem}.csv"), header, table)
    config = _canonical(config)
    payload = {
        "version": __version__,
        "thresholds_version": THRESHOLDS_VERSION,
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest(),
        "results": results,
    }
    with open(_out_path(args, f"{stem}.json"), "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in text).strip("-")


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------


def cmd_eval(args) -> int:
    # the group is not argparse-required, so that --config can name the mode
    if not (args.limit or args.finite):
        raise ValueError("one of the arguments --limit --finite is required")
    _mode_flags(args, f"eval --limit {args.limit}", not args.limit, n=64, frame="boundary")
    zs = _plane(args.grid, args.grid)
    extra = {}
    if args.limit:
        spec = parse_spec(args.limit)
        values = one_point(spec, zs).astype(complex)
        tag = _slug(args.limit)
        config = {"mode": "limit", "spec": args.limit, "grid": args.grid}
    else:
        _check_n(args.n)
        pot = parse_pot(args.finite)
        frame = RescaleFrame(pot, args.n, args.frame)
        values, tails = rescaled_kernel(frame, zs, zs, return_bound=True)
        extra["tail_bound"] = float(tails.max())
        tag = f"{_slug(args.finite)}-n{args.n}-{args.frame}"
        config = {"mode": "finite", "pot": args.finite, "n": args.n,
                  "frame": args.frame, "grid": args.grid}

    rows = np.stack([zs.real, zs.imag, values.real, values.imag], axis=-1)
    real_vals = values.real
    results = {
        "points": int(values.size),
        "min_value": float(real_vals.min()),
        "max_value": float(real_vals.max()),
        "mean_value": float(real_vals.mean()),
        "csv": f"eval_{tag}.csv",
        **extra,
    }
    _write_artifacts(args, f"eval_{tag}", ("re_z", "im_z", "re_val", "im_val"), rows,
                     "eval", config, results)
    return EXIT_PASS


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def _verify_ward(args, spec) -> tuple:
    # the Mittag-Leffler c comes from an exact angular sum (finite_n._ml_cauchy)
    _mode_flags(args, f"verify ward --spec {args.spec}", spec.kind != "mittag_leffler", quad=None)
    # --grid on both axes, or the spec's default real and imaginary axes;
    # the points go row by row of imaginary part, inside the spec's domain
    re, im = (args.grid,) * 2 if args.grid else {
        "hard_edge": ("-2:-0.2:0.3", "-1:1:0.5"),
        "mittag_leffler": ("-1.25:1.25:0.5",) * 2}.get(spec.kind, ("-2:2:0.5",) * 2)
    pts = _plane(re, im).ravel()
    if spec.kind == "mittag_leffler":
        pts = pts[(np.abs(pts) <= 1.5 + 1e-12) & (np.abs(pts) > 1e-12)]
    pts = _in_domain(spec, pts, f"ward grid {args.grid!r}")
    vals = ward_residual(spec, pts, _quad(args))
    sup = float(vals.max())
    return pts, vals, {"sup_norm": sup, "points": pts.size}, sup


def _verify_mass_one(args, spec) -> tuple:
    defaults = {
        "bulk": "0,1+1j",
        "free_boundary": "0,1,-1+1j,-2",
        "hard_edge": "-0.5,-1-1j",
        "mittag_leffler": "0,0.5,1+0.5j",
        "constant": "0.3",
    }
    pts = _in_domain(spec, _parse_points(args.points or defaults[spec.kind], args.seed),
                     f"mass-one point set {args.points!r}")
    vals = mass_one_residual(spec, pts, _quad(args))
    res = np.abs(vals)
    sup = float(res.max())
    results = {"sup_norm": sup, "residuals": vals}
    if spec.kind == "constant":
        # counterexample: the profile is not a boundary profile, and the
        # mass-one equation must miss by exactly level - 1
        sup = float(np.max(np.abs(vals - (spec.level - 1.0))))
        results["expected_defect"] = spec.level - 1.0
    return pts, res, results, sup


def _verify_series(args, spec) -> tuple:
    xs = parse_grid(args.grid)
    n_terms = args.n
    res = np.maximum(np.abs(mass_one_series_residual(xs, n_terms)),
                     np.abs(hermite_identity_residual(2.0 * xs, n_terms)))
    tele = telescoping_sum(1.2, n_terms)
    sup = max(float(np.max(res, initial=0.0)), abs(tele - 1.0))
    return xs + 0j, res, {"sup_norm": float(sup), "telescoping": float(tele),
                          "n_terms": n_terms}, float(sup)


def _verify_eighth(args, spec) -> tuple:
    val = eighth_formula()
    shifted = eighth_formula(shift=0.5)
    dev = abs(val - 0.125)
    print(f"eighth formula: {val:.12f} (target 0.125), shifted a=0.5: {shifted:.12f}")
    return np.array([0.0, 0.5 + 0j]), np.array([dev, abs(shifted - 0.125)]), {
        "sup_norm": float(dev),
        "value": float(val),
        "shifted_value": float(shifted),
        "shifted_deviation_exceeds_1e-3": bool(abs(shifted - 0.125) > 1e-3),
    }, float(dev)


def _verify_inequalities(args, spec) -> tuple:
    margins, results = inequality_suite(seed=args.seed)
    violation = max(0.0, -results["min_margin"])
    results["sup_norm"] = float(violation)
    return np.arange(margins.size) + 0j, margins, results, float(violation)


# Gram matrix entries per block of positivity sets: 64 KB of complex128 per
# temporary, so the peak memory of a request does not grow with --sets
_GRAM_BLOCK = 1 << 12


def _verify_positivity(args, spec) -> tuple:
    if args.sets < 1:
        raise ValueError(f"positivity needs --sets >= 1, got {args.sets}")
    _rows(args.sets)
    count = _random_count(args.points, 1, 32)  # positivity draws its own points
    rng = np.random.default_rng(args.seed)
    # the stream gives each set of a block the points it would get drawn alone
    step = max(1, _GRAM_BLOCK // (count * count))
    eigs = np.concatenate([
        gram_min_eig(spec, _random_points(rng, (min(step, args.sets - k), count)),
                     complementary=args.complementary)
        for k in range(0, args.sets, step)])
    worst = float(eigs.min())
    violation = max(0.0, -worst)
    return np.arange(args.sets) + 0j, eigs, {
        "sup_norm": violation, "min_eigenvalue": worst, "sets": args.sets,
        "points_per_set": count, "complementary": bool(args.complementary)}, violation


def _verify_polarized(args, spec) -> tuple:
    pairs = {
        "free_boundary": [(0.5 + 0.0j, -0.3 + 0.4j), (0.0j, 1.0 + 0.0j)],
        "hard_edge": [(-0.5 + 0.0j, -1.0 - 0.5j), (-0.3 + 0.2j, -1.5 + 0.0j)],
    }.get(spec.kind)
    if pairs is None:
        raise ValueError("polarized verification needs free-boundary or hard-edge spec")
    zs, ws = np.array(pairs).T
    res = np.abs(polarized_mass_one_residual(spec, zs, ws, _quad(args)))
    sup = float(res.max())
    return zs, res, {"sup_norm": sup, "pairs": len(pairs)}, sup


_SPEC = {"default": "free-boundary"}
_SEED = {"type": int, "default": 0}
_QUAD = {"type": int, "help": "radial nodes of the plane quadrature (default 96)"}

# Each verify equation's check and the options it reads besides the common
# ones.  Its parser takes these and no others, and its JSON config records
# them.  An equation without --spec has the threshold row "*".
_EQUATIONS = {
    "ward": (_verify_ward, {
        "spec": _SPEC,
        "grid": {"help": "a:b:step of the real and imaginary parts (default per spec)"},
        "quad": _QUAD}),
    "mass-one": (_verify_mass_one, {
        "spec": _SPEC,
        "points": {"help": "comma-separated complex points or random:N"},
        "quad": _QUAD, "seed": _SEED}),
    "series": (_verify_series, {
        "grid": {"default": "-4:4:0.5", "help": "a:b:step of real points"},
        "n": {"type": int, "default": 80, "help": "series truncation order"}}),
    "eighth": (_verify_eighth, {}),
    "inequalities": (_verify_inequalities, {"seed": _SEED}),
    "positivity": (_verify_positivity, {
        "spec": _SPEC,
        "points": {"default": "random:8", "help": "random:N, 1 <= N <= 32"},
        "sets": {"type": int, "default": 100},
        "complementary": {"action": "store_true"}, "seed": _SEED}),
    "polarized": (_verify_polarized, {"spec": _SPEC, "quad": _QUAD}),
}


def cmd_verify(args) -> int:
    equation = args.equation
    check, options = _EQUATIONS[equation]
    spec = parse_spec(args.spec) if "spec" in options else None
    # points (an abscissa or an index is x + 0j) and residuals as arrays
    pts, residual, results, sup = check(args, spec)

    tol = threshold_for(equation, spec.kind if spec else "*")
    passed = sup <= tol
    config = {"equation": equation, **{name: getattr(args, name) for name in options}}
    results = {**results, "threshold": tol, "passed": bool(passed)}
    stem, label = f"verify_{equation}", equation
    if spec:
        stem, label = f"{stem}_{_slug(args.spec)}", f"{equation} [{args.spec}]"
    _write_artifacts(args, stem, ("x", "y", "residual"),
                     np.column_stack([pts.real, pts.imag, residual]), "verify", config, results)
    print(f"verify {label}: sup residual {sup:.6e} "
          f"{'<=' if passed else '>'} threshold {tol:g} -> "
          f"{'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_FAIL


# --------------------------------------------------------------------------
# converge
# --------------------------------------------------------------------------


def cmd_converge(args) -> int:
    _mode_flags(args, "converge --sections", not args.sections, pot="ginibre", frame="boundary")
    try:
        n_list = [int(p) for p in args.n_list.split(",")]
    except ValueError:
        raise ValueError(f"--n-list must be comma-separated integers, got {args.n_list!r}")
    for k, n in enumerate(n_list):
        if n in n_list[:k]:
            raise ValueError(f"--n-list repeats n = {n}")
        _check_n(n, SECTION_MAX_N if args.sections else KERNEL_MAX_N)
    xs = parse_grid(args.grid or ("-2:2:0.25" if args.sections else "-3:3:0.25"))
    _rows(len(n_list) * xs.size)
    if args.sections:
        f = plasma_F(xs).real
        f_wopp = f * np.exp(xs * xs / 4.0)
        rows, table = [], {}
        for n in n_list:
            s = exp_section(n, xs)
            dev_f = float(np.max(np.abs(s - f)))
            dev_wopp = float(np.max(np.abs(s - f_wopp)))
            rows.append(np.column_stack([np.full(xs.size, n), xs, s]))
            table[str(n)] = {"sup_dev_vs_F": dev_f,
                             "sup_dev_vs_F_exp_quarter": dev_wopp}
            print(f"sections n={n}: sup |section - F(x)| = {dev_f:.6f}, "
                  f"sup |section - e^(x^2/4)F(x)| = {dev_wopp:.6f}")
        _write_artifacts(args, "converge_sections", ("n", "x", "section"), rows, "converge",
                         {"mode": "sections", "n_list": args.n_list, "grid": args.grid},
                         table)
        return EXIT_PASS

    pot = parse_pot(args.pot)
    frames = [RescaleFrame(pot, n, args.frame) for n in n_list]
    spec = LimitKernelSpec.of_frame(frames[0])
    xs = _in_domain(spec, xs, f"converge grid {args.grid!r}")
    zs = xs.astype(complex)
    limit = one_point(spec, zs)
    rows, sups, tail = [], {}, 0.0
    for n, frame in zip(n_list, frames):
        r_n, tails = rescaled_kernel(frame, zs, zs, return_bound=True)
        sup = float(np.max(np.abs(r_n.real - limit)))
        rows.append(np.column_stack([np.full(xs.size, n), xs, r_n.real]))
        tail = max(tail, float(tails.max()))
        sups[str(n)] = sup
        print(f"converge {args.pot} {args.frame} n={n}: sup |R_n - R| = {sup:.6f}")
    # a sup error of 0 divides nothing: its ratio is null
    ratios = {
        f"{a}->{b}": sups[str(a)] / sups[str(b)] if sups[str(b)] else None
        for a, b in zip(n_list, n_list[1:])
    }
    _write_artifacts(args, f"converge_{_slug(args.pot)}_{args.frame}", ("n", "x", "R_n"),
                     rows, "converge",
                     {"pot": args.pot, "frame": args.frame, "n_list": args.n_list,
                      "grid": args.grid},
                     {"sup_errors": sups, "ratios": ratios, "tail_bound": tail})
    return EXIT_PASS


# --------------------------------------------------------------------------
# sample
# --------------------------------------------------------------------------


def cmd_sample(args) -> int:
    frame = RescaleFrame(parse_pot(args.pot), args.n, args.frame)
    spec = LimitKernelSpec.of_frame(frame)
    window = args.window or ("-3:1" if frame.p else "0:4")
    hist = radial_profile(SampleConfig(frame, args.trials, args.seed),
                          (*parse_window(window), args.bins))

    est, se = hist.estimates(), hist.stderrs()
    rows = np.column_stack([hist.bin_centers(), est, se])
    dev = np.abs(est - one_point(spec, hist.bin_centers()))
    config = {"pot": args.pot, "n": args.n, "trials": args.trials,
              "seed": args.seed, "frame": args.frame, "bins": args.bins,
              "window": args.window}
    results = {
        "total_counts": int(hist.counts.sum()),
        "max_abs_deviation": float(dev.max()),
        "max_deviation_over_3se": float(np.max(dev - 3.0 * se)),
        "bins_within_3se_plus_bias": int(np.sum(dev <= 3.0 * se + 0.02)),
        "bins": int(hist.bins),
        "inverted": int(hist.inverted),
        "band_backward_error": float(hist.band_backward_error),
        "band_rows": int(hist.band_rows),
    }
    _write_artifacts(args, f"sample_{_slug(args.pot)}-n{args.n}_{args.frame}",
                     ("bin_center", "estimate", "stderr"), rows, "sample", config, results)
    print(f"sample {args.pot} {args.frame}: {hist.counts.sum()} counts, "
          f"max |est - target| = {dev.max():.4f}")
    return EXIT_PASS


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _thread_count(text: str) -> int:
    """A ``--threads`` value: an integer of at least 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"need an integer thread count, got {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 thread, got {count}")
    return count


def _add_common(sub):
    sub.add_argument("--out", default=".", help="output directory for CSV/JSON")
    sub.add_argument("--threads", type=_thread_count, default=1,
                     help="accepted and validated; nothing runs threads")
    sub.add_argument("--config", default=None,
                     help="JSON file of defaults; explicit flags win")


class _Parser(argparse.ArgumentParser):
    """argparse only recognizes bare negative numbers as option values.  No
    flag starts with a digit or a dot, so anything that does is a value: grids
    and windows like -3:3:0.1, exponents like -2e-1 and complex points like
    -1-1j.  Subcommand parsers take the class of their parent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use and shared by every later
    ``main`` call, so nothing may change it; ``--config`` builds its own."""
    parser = _Parser(
        prog="plasma-kernel",
        description="Correlation-kernel evaluation and verification toolkit",
    )
    parser.add_argument("--show-thresholds", action="store_true",
                        help="print the versioned thresholds table and exit")
    sub = parser.add_subparsers(dest="command")

    p_eval = sub.add_parser("eval", help="kernel one-point values on a grid")
    group = p_eval.add_mutually_exclusive_group()
    group.add_argument("--limit", help="limit spec, e.g. free-boundary, ml:2")
    group.add_argument("--finite", help="potential, e.g. ginibre, power:2")
    p_eval.add_argument("--grid", default="-3:3:0.1")
    p_eval.add_argument("--n", type=int)
    p_eval.add_argument("--frame", choices=("bulk", "boundary", "singularity"))
    _add_common(p_eval)

    p_ver = sub.add_parser("verify", help="residual checks vs thresholds")
    equations = p_ver.add_subparsers(dest="equation", required=True)
    for equation, (_, options) in _EQUATIONS.items():
        p_eq = equations.add_parser(equation)
        for name, kwargs in options.items():
            p_eq.add_argument(f"--{name}", **kwargs)
        _add_common(p_eq)

    p_con = sub.add_parser("converge", help="finite-n convergence tables")
    p_con.add_argument("--pot")
    p_con.add_argument("--frame", choices=("bulk", "boundary", "singularity"))
    p_con.add_argument("--n-list", default="64,256,1024")
    p_con.add_argument("--grid", default=None)
    p_con.add_argument("--sections", action="store_true",
                       help="compare edge sections of e^(nzw) instead")
    _add_common(p_con)

    p_sam = sub.add_parser("sample", help="Monte Carlo radial profiles")
    p_sam.add_argument("--pot", default="ginibre")
    p_sam.add_argument("--n", type=int, default=1024)
    p_sam.add_argument("--trials", type=int, default=4000)
    p_sam.add_argument("--frame", default="boundary",
                       choices=("boundary", "singularity"))
    p_sam.add_argument("--bins", type=int, default=40)
    p_sam.add_argument("--window", default=None, help="lo:hi histogram window")
    p_sam.add_argument("--seed", **_SEED)
    _add_common(p_sam)
    return parser


def _config_value(action, key, value):
    """A ``--config`` value as the flag would parse it: through the action's
    ``type`` and ``choices``.  argparse checks neither on defaults that are
    not strings, so a JSON number would skip them.  A null stands for an
    unset flag, so only a flag without a default value takes it."""
    if value is None and action.default is not None:
        raise ValueError(f"config key {key!r}: null, but the flag needs a value")
    try:
        if action.type is not None and value is not None:
            value = action.type(value if isinstance(value, str) else json.dumps(value))
    except (argparse.ArgumentTypeError, TypeError, ValueError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None
    if action.choices is not None and value is not None and value not in action.choices:
        raise ValueError(f"config key {key!r}: invalid choice {value!r} "
                         f"(choose from {', '.join(map(str, action.choices))})")
    return value


def _subparser(parser, name):
    # argparse has no public accessor for a subcommand's parser
    return next(a for a in parser._actions  # noqa: SLF001
                if isinstance(a, argparse._SubParsersAction)).choices[name]  # noqa: SLF001


def _command_parser(parser, args):
    """The parser of the parsed command: the root's, the subcommand's or, for
    ``verify``, the equation's."""
    if args.command is None:
        return parser
    sub = _subparser(parser, args.command)
    return _subparser(sub, args.equation) if args.command == "verify" else sub


def _apply_config_file(args, argv):
    """Re-parse ``argv`` with the ``--config`` JSON as the subcommand's
    defaults, so every flag given on the command line wins.  The defaults go
    to a fresh parser, never to the shared one."""
    if not getattr(args, "config", None):
        return args
    parser = build_parser.__wrapped__()
    sub = _command_parser(parser, args)
    actions = {a.dest: a for a in sub._actions}  # noqa: SLF001
    with open(args.config) as fh:
        flags = json.load(fh)
    if not isinstance(flags, dict):
        raise ValueError(f"--config {args.config}: the file must hold a JSON object of flags")
    overrides = {}
    for key, value in flags.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest) or dest not in actions:
            raise ValueError(f"unknown config key {key!r}")
        overrides[dest] = _config_value(actions[dest], key, value)
    # a member of a mutually exclusive group on the command line sets the
    # group: a config value for another member would survive the re-parse.
    # Without one, the config may set one member, as the command line may
    for group in sub._mutually_exclusive_groups:  # noqa: SLF001
        dests = [a.dest for a in group._group_actions]  # noqa: SLF001
        if any(getattr(args, dest) != actions[dest].default for dest in dests):
            for dest in dests:
                overrides.pop(dest, None)
        elif len(overrides.keys() & set(dests)) > 1:
            raise ValueError(f"config keys {', '.join(map(repr, dests))} exclude each other")
    sub.set_defaults(**overrides)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    parser = build_parser()
    # argparse reports every sub-parser's leftovers from the root; refuse them
    # from the parser that would have read them, so its usage line is shown
    args, extra = parser.parse_known_args(argv)
    if extra:
        _command_parser(parser, args).error(f"unrecognized arguments: {' '.join(extra)}")
    if args.show_thresholds:
        _show_thresholds()
        return EXIT_PASS
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        args = _apply_config_file(args, argv)
        return {"eval": cmd_eval, "verify": cmd_verify, "converge": cmd_converge,
                "sample": cmd_sample}[args.command](args)
    except (NumericError, OverflowError) as exc:
        print(f"numeric non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

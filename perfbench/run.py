"""plasma-kernel benchmark: one command, three workloads of CLI requests.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quadrature --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced: set-up time
(median of fresh interpreters importing ``plasma_kernel.cli``, half of them
before the workload and half after it), the wall time of the workload's
request list at ``--threads 1`` and at ``--threads nproc`` (medians over
repeated passes), the share of requests whose checks passed, the worst
residual margin and the peak RSS of the workload's fresh process.  ``--trace 1`` prints the per-layer metrics of a
separate traced pass and writes its spans under ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the checks that ran, the samples behind each median and the machine
facts.  This script uses the standard library only; the workload itself runs
in ``worker.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3  # before the workload and again after it
DEADLINE_S = 170.0  # every run must end within 180 s
PINNED = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                           "VECLIB_MAXIMUM_THREADS")}
READY = "import plasma_kernel.cli as c; c.build_parser(); print('ready', flush=True)"


def child_env(root: str) -> dict:
    env = dict(os.environ, **PINNED)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PLASMA_KERNEL_THREADS", None)
    return env


def setup_seconds(env: dict) -> list:
    """Seconds from starting a fresh interpreter until ``plasma_kernel.cli``
    is imported and its parser built, once per repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", READY], env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("importing plasma_kernel.cli failed")
    return times


def machine_facts(root: str, seed: int, versions: dict, nproc: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "plasma_kernel")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": nproc, "cpu": cpu, **versions,
            "blas_threads": int(PINNED["OPENBLAS_NUM_THREADS"]),
            "seed": seed, "commit": commit, "src_sha256": digest.hexdigest()}


def end_to_end(res: dict, setup: list) -> dict:
    ratio = res["resid_ratio"]
    attempted = res["attempted"]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(res["wall_s"]),
        "wall_s_par": statistics.median(res["wall_s_par"]),
        "ok_frac": (attempted - len(res["failures"])) / attempted,
        "resid_margin_log10": -math.log10(ratio) if ratio else 0.0,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest request lists (self-test)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "plasma_kernel", "cli.py")):
        print("perfbench: run from a checkout root holding src/plasma_kernel", file=sys.stderr)
        return 2
    started = time.perf_counter()
    os.environ.update(PINNED)
    env = child_env(root)
    out_root = os.path.join(root, ".perfbench_out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(out_root, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup = [] if args.trace else setup_seconds(env)
        result_path = os.path.join(workdir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--result", result_path,
               "--trace-file", os.path.join(out_root, f"spans-{tag}.json")]
        if args.smoke:
            cmd.append("--smoke")
        budget = DEADLINE_S - (time.perf_counter() - started)
        proc = subprocess.run(cmd, env=env, cwd=root, timeout=budget)
        if proc.returncode != 0:
            print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(result_path) as fh:
            res = json.load(fh)
        if not args.trace:
            setup += setup_seconds(env)
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in res["failures"]:
        print("perfbench: FAILED", json.dumps(failure), file=sys.stderr)
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"]
                 for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    values = res["layers"] if args.trace else end_to_end(res, setup)
    if set(values) != set(units):
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}",
              file=sys.stderr)
        return 1
    print("perfbench: checks", json.dumps(res["checks"], sort_keys=True))
    if not args.trace:
        print("perfbench: samples", json.dumps(
            {"setup_s": setup, "wall_s": res["wall_s"], "wall_s_par": res["wall_s_par"]}))
    print("perfbench: machine",
          json.dumps(machine_facts(root, args.seed, res["versions"], res["nproc"]), sort_keys=True))
    print(json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

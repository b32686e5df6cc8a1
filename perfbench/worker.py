"""Runs one workload in a fresh interpreter and writes its raw results.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and the BLAS/OpenMP
pools pinned to one thread.  Requests go in-process through
``plasma_kernel.cli.main(argv)``, one after another (a closed loop with one
client).  Every request is checked; see :func:`check_request`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import workloads
from spans import NAME, Tracer, layer_metrics

# bins pass when |estimate - target| <= 3 se + SAMPLE_BIAS (cmd_sample)
SAMPLE_BIAS = 0.02


class Run:
    """Executes passes over a request list and records timings and checks."""

    def __init__(self, cli, requests, workdir):
        self.cli = cli
        self.requests = requests
        self.workdir = workdir
        self.passes = 0
        self.attempted = 0
        self.failures = []
        self.checks = dict.fromkeys(
            ("exit_code", "passed_field", "csv_finite", "sample_bins",
             "thread_identity", "seed_identity"), 0)
        self.first = {}  # request index -> (threads, csv digest)
        self.ratios = []  # sup_norm / threshold of passing verify requests
        self.bin_ratios = []  # |estimate - target| / (3 se + bias) of sample bins
        self.artifact_bytes = 0
        self.tracer = None  # when set, spans are recorded around cli.main

    def run_pass(self, threads: int) -> float:
        """Run every request once; return the seconds spent in ``cli.main``."""
        total = 0.0
        for i, req in enumerate(self.requests):
            out = os.path.join(self.workdir, f"p{self.passes}r{i}")
            argv = list(req.argv) + ["--threads", str(threads), "--out", out]
            sink = io.StringIO()
            rc, error = None, None
            if self.tracer:
                self.tracer.request = i
                self.tracer.enabled = True
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                try:
                    rc = self.cli.main(argv)
                except Exception:  # a crashing request is a failed request
                    error = traceback.format_exc()
                dt = time.perf_counter() - t0
            if self.tracer:
                self.tracer.enabled = False
            total += dt
            self.attempted += 1
            problems = [error] if error else self.check_request(i, req, rc, threads, out)
            if problems:
                self.failures.append({"request": " ".join(req.argv), "threads": threads,
                                      "problems": problems, "output": sink.getvalue()[-2000:]})
            shutil.rmtree(out, ignore_errors=True)
        self.passes += 1
        return total

    def resid_ratio(self):
        """The worst residual over its threshold: the largest verify ratio,
        or the mean bin ratio of the sample requests if that is larger."""
        worst = [max(self.ratios)] if self.ratios else []
        if self.bin_ratios:
            worst.append(statistics.fmean(self.bin_ratios))
        return max(worst) if worst else None

    def check_request(self, i, req, rc, threads, out) -> list:
        problems = []
        self.checks["exit_code"] += 1
        if rc != req.expect:
            problems.append(f"exit code {rc}, expected {req.expect}")
        files = sorted(os.listdir(out)) if os.path.isdir(out) else []
        csvs = [f for f in files if f.endswith(".csv")]
        jsons = [f for f in files if f.endswith(".json")]
        if len(csvs) != 1 or len(jsons) != 1:
            return problems + [f"expected one CSV and one JSON artifact, got {files}"]
        with open(os.path.join(out, csvs[0]), "rb") as fh:
            csv_bytes = fh.read()
        self.artifact_bytes += len(csv_bytes) + os.path.getsize(os.path.join(out, jsons[0]))
        try:
            with open(os.path.join(out, jsons[0])) as fh:
                results = json.load(fh)["results"]
            rows = [[float(v) for v in line.split(",")]
                    for line in csv_bytes.decode().splitlines()[1:]]
        except (ValueError, KeyError) as exc:
            return problems + [f"malformed artifact: {exc!r}"]

        if "passed" in results:
            self.checks["passed_field"] += 1
            if results["passed"] != (req.expect == 0):
                problems.append(f"JSON passed={results['passed']} with expected exit {req.expect}")
        self.checks["csv_finite"] += 1
        if not rows or not all(math.isfinite(v) for row in rows for v in row):
            problems.append("CSV is empty or holds a non-finite value")
        if req.command == "sample":
            self.checks["sample_bins"] += 1
            if results["bins_within_3se_plus_bias"] != results["bins"]:
                problems.append(f"{results['bins_within_3se_plus_bias']} of "
                                f"{results['bins']} bins within 3 se + bias")

        digest = hashlib.sha256(csv_bytes).hexdigest()
        if i not in self.first:
            self.first[i] = (threads, digest)
            if not problems and req.expect == 0:
                if req.command == "verify" and results["sup_norm"] > 0:
                    self.ratios.append(results["sup_norm"] / results["threshold"])
                if req.command == "sample":
                    self.bin_ratios.extend(bin_ratios(req.argv, rows))
        else:
            first_threads, first_digest = self.first[i]
            kind = "seed_identity" if threads == first_threads else "thread_identity"
            self.checks[kind] += 1
            if digest != first_digest:
                problems.append(f"CSV differs from the first run ({kind})")
        return problems


def bin_ratios(argv, rows) -> list:
    """``|estimate - target| / (3 se + bias)`` per bin of a ``sample`` CSV,
    the quantity its bin check bounds by 1."""
    centers, est, se = np.array(rows).T
    dev = np.abs(est - sample_target(argv, centers))
    return (dev / (3.0 * se + SAMPLE_BIAS)).tolist()


def sample_target(argv, centers) -> np.ndarray:
    """The limiting profile a ``sample`` request is compared against."""
    from plasma_kernel.special import hard_edge_H, mittag_leffler_kernel_eval, plasma_F

    opts = dict(zip(argv[1::2], argv[2::2]))
    pot = opts.get("--pot", "ginibre")
    if opts.get("--frame") == "singularity":
        lam = float(pot.partition(":")[2] or 2.0) if pot.startswith("power") else 1.0
        return np.array([float(mittag_leffler_kernel_eval(lam, s * s).real)
                         * math.exp(-abs(s) ** (2 * lam)) for s in centers])
    if pot == "hard-edge":
        return np.array([float(hard_edge_H(complex(2.0 * x)).real) if x < 0 else 0.0
                         for x in centers])
    return np.array([float(plasma_F(2.0 * x).real) for x in centers])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-file", required=True)
    args = ap.parse_args()

    import scipy

    import plasma_kernel
    from plasma_kernel import cli, finite_n, limits, sampler, special

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(plasma_kernel.__file__).startswith(src + os.sep):
        print(f"plasma_kernel imported from {plasma_kernel.__file__}, not {src}",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    run = Run(cli, workloads.build(args.workload, args.seed, args.smoke), args.workdir)
    result = {"versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                           "scipy": scipy.__version__}}
    if args.trace:
        plain = run.run_pass(1)
        tracer = Tracer()
        tracer.install({"cli": cli, "limits": limits, "special": special,
                        "finite_n": finite_n, "sampler": sampler},
                       extra=[(sampler, "gammaincinv", "invert")])
        run.artifact_bytes, run.tracer = 0, tracer
        try:
            traced = run.run_pass(1)
        finally:
            run.tracer = None
            tracer.restore()
        layers = layer_metrics(tracer.spans)
        layers["cli.requests"] = sum(1 for rec in tracer.spans if rec[NAME] == "cli.main")
        layers["cli.artifact_bytes"] = run.artifact_bytes
        layers["trace.wall_s"] = traced
        layers["trace.overhead_frac"] = traced / plain - 1.0
        result["layers"] = layers
        tracer.dump(args.trace_file, {"workload": args.workload, "seed": args.seed,
                                      "untraced_wall_s": plain, "traced_wall_s": traced})
    else:
        wall, par = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            wall.append(run.run_pass(1))
            if len(wall) == 1:
                # peak of the first 1-thread pass: the nproc passes would add
                # however much their threads happen to overlap
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            par.append(run.run_pass(nproc))
            now = time.perf_counter()
            # stop within half a pair of --seconds; the median of three or
            # more pairs also drops the cold first pass
            if now - start + 0.5 * (now - t0) >= args.seconds:
                break
        result.update(wall_s=wall, wall_s_par=par)
    result.update(attempted=run.attempted, failures=run.failures, checks=run.checks,
                  resid_ratio=run.resid_ratio(), nproc=nproc)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload once at its smallest size (``--smoke``), untraced and
traced, and checks that the last line is the result object, that every
metric BENCHMARK.json names prints with its unit, that every request check
ran, and that the benchmark refuses a directory holding no program.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
# checks each workload must run at least once over its two smoke runs
CHECKS = {
    "quadrature": ("exit_code", "passed_field", "csv_finite", "thread_identity", "seed_identity"),
    "pointwise": ("exit_code", "passed_field", "csv_finite", "thread_identity", "seed_identity"),
    "sample": ("exit_code", "csv_finite", "sample_bins", "thread_identity", "seed_identity"),
}


def run(workload: str, trace: int, cwd: str):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for workload in CHECKS:
        ran = dict.fromkeys(CHECKS[workload], 0)
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            rc, lines, err = run(workload, trace, root)
            where = f"{workload} --trace {trace}"
            if rc != 0 or not lines:
                problems.append(f"{where}: exit {rc}: {err[-500:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}: {err[-500:]}")
            want = {m["name"]: m["unit"] for m in specs}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics/units differ: {sorted(set(got.items()) ^ set(want.items()))}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{where}: {name} = {m['value']!r}")
            checks = json.loads(next(ln for ln in lines if ln.startswith("perfbench: checks"))
                                .split(" ", 2)[2])
            for kind in ran:
                ran[kind] += checks[kind]
            machine = json.loads(next(ln for ln in lines if ln.startswith("perfbench: machine"))
                                 .split(" ", 2)[2])
            for key in ("nproc", "cpu", "python", "numpy", "scipy", "blas_threads", "seed",
                        "commit", "src_sha256"):
                if key not in machine:
                    problems.append(f"{where}: machine facts lack {key}")
            print(f"ok {where}: {len(got)} metrics, checks {checks}")
        problems += [f"{workload}: check {kind} never ran" for kind, n in ran.items() if n == 0]

    # a directory with only the benchmark must be refused without a result
    bare = os.path.join(root, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sample", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a directory without the program was not refused")
        else:
            print(f"ok bare directory refused with exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

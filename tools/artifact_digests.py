"""Digests of the outputs of a fixed set of requests, for checking byte identity.

Runs each ``perfbench/workloads.py`` request in process through
``plasma_kernel.cli.main``, for seeds 1 and 2, full and smoke lists, then
each request of ``FAMILIES``, and prints one line per request: the seed and
list (or ``families``), the argv, the exit code, the SHA-256 of its standard
output and the SHA-256 of each artifact it wrote.
Two runs on one tree must print the same text (the determinism contract);
two trees whose outputs are byte-identical print the same text too::

    python3 tools/artifact_digests.py > digests.txt

Needs only the standard library and the package; it imports both the
package and the request lists from the checkout it lives in, and reads
nothing else of ``perfbench/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from plasma_kernel import cli  # noqa: E402

SEEDS = (1, 2)

# Requests that reach the kernel families the benchmark leaves out: every limit
# spec through each verify equation and eval, finite-n kernels of power
# potentials, the hard edge's bulk frame and the smallest n, and converge and
# sample off Ginibre.  The refusals among them (exit 2) are behaviour too.
SPECS = ("bulk", "free-boundary", "free-boundary:-2,-1,1,2", "hard-edge", "constant",
         "constant:0.7", "ml:1.5", "ml:2", "ml:3")
FAMILIES = [
    *(f"{request} --spec {spec}" for spec in SPECS for request in (
        "verify ward", "verify mass-one", "verify polarized", "verify positivity --sets 5")),
    *(f"eval --limit {spec} --grid -2:1:0.25" for spec in SPECS),
    "eval --finite power:1.5 --n 1024 --grid -2:1:0.25",
    "eval --finite power:3 --n 1024 --frame singularity --grid -2:1:0.25",
    "eval --finite hard-edge --n 1024 --frame bulk --grid -2:1:0.25",
    "eval --finite ginibre --n 1 --grid -2:1:0.25",
    "eval --finite hard-edge --n 3 --grid -2:1:0.25",
    "converge --pot power:2",
    "sample --pot power:2 --n 1024 --trials 100 --bins 10",
    "sample --pot power:3 --frame singularity --n 1024 --trials 100 --bins 10",
    "sample --pot hard-edge --n 16384 --trials 10 --bins 10",
    # usage fixed since: the mode from a config file, a repeated n, values
    # that start with a minus and a digit, a window no index can reach
    'eval --n 64 --grid 0:0:1 --config {"finite":"ginibre"}',
    "eval --n 64 --grid 0:0:1",
    "converge --n-list 64,64 --grid 0:0:1",
    "verify mass-one --spec hard-edge --points -1-1j",
    "verify mass-one --spec hard-edge --points -1+1j",
    "verify mass-one --spec hard-edge --points -2e-1",
    "eval --limit bulk --grid -1e-1:0:0.1",
    "sample --window -3e0:1",
    "sample --n 64 --trials 4 --window 100:200 --bins 4",
    # the singularity frame at lam = 1 is the bulk frame, and the hard edge
    # has none; converge --sections checks every n before it prints
    "eval --finite ginibre --n 1024 --frame singularity --grid -2:1:0.25",
    "converge --pot ginibre --frame singularity",
    "sample --pot ginibre --frame singularity --n 1024 --trials 100 --bins 10",
    "sample --pot hard-edge --frame singularity",
    "converge --sections --n-list 64,2000000",
    # overlapping free-boundary intervals are refused; verify mass-one keeps
    # the hard-edge points inside the domain
    "verify mass-one --spec free-boundary:-5,5,-5,5 --points 0",
    "verify ward --spec free-boundary:0,2,1,3 --grid 0:0:1",
    "verify mass-one --spec hard-edge --points 0.5,-0.5",
    # converge compares the hard edge with the limit its frame names
    "converge --pot hard-edge --n-list 64,256",
    "converge --pot hard-edge --frame bulk --n-list 64,256",
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_line(argv) -> str:
    """``argv``'s exit code and the digests of its stdout and artifacts.  A
    ``--config`` in ``argv`` is followed by the file's JSON text, which goes
    to a file outside ``--out``."""
    with tempfile.TemporaryDirectory() as out, tempfile.TemporaryDirectory() as tmp:
        run = list(argv)
        if "--config" in run:
            k = run.index("--config") + 1
            run[k] = os.path.join(tmp, "config.json")
            with open(run[k], "w") as fh:
                fh.write(argv[k])
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main([*run, "--out", out])
            except SystemExit as exc:  # argparse refuses the argv
                rc = exc.code
        files = []
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files.append(f"{name}={_sha(fh.read())}")
    return " | ".join([" ".join(argv), f"exit {rc}", f"stdout={_sha(sink.getvalue().encode())}",
                       *files])


def main() -> int:
    for smoke in (False, True):
        for seed in SEEDS:
            for name in workloads.NAMES:
                for req in workloads.build(name, seed, smoke):
                    tag = f"{name} seed {seed} {'smoke' if smoke else 'full'}"
                    print(f"{tag} | {digest_line(req.argv)}", flush=True)
    for request in FAMILIES:
        print(f"families | {digest_line(request.split())}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

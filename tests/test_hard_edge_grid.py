"""Hard-edge artifacts on a grid of points do not depend on the thread count.

``verify ward`` and ``verify mass-one`` at the hard edge must write the same
CSV bytes at one and at two threads, and again on a rerun.
"""

import pytest

from plasma_kernel.cli import main


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

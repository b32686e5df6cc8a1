"""Request lists of the three benchmark workloads.

Each workload is a fixed list of ``plasma-kernel`` command lines built from
the workload seed: the seed picks grid offsets, positivity points, sample
seeds and the like inside a fixed structure, so every seed does the same
amount of work of the same kind.  The program only ever sees the generated
argv.  ``smoke`` lists keep the structure at the smallest size and serve the
self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NAMES = ("quadrature", "pointwise", "sample")


@dataclass(frozen=True)
class Request:
    argv: tuple
    expect: int = 0  # exit code: 0 pass, 1 honest verification failure

    @property
    def command(self) -> str:
        return self.argv[0]


def _r(argv: str, expect: int = 0) -> Request:
    return Request(tuple(argv.split()), expect)


def _num(x: float) -> str:
    return f"{x:.3f}"


def quadrature(rng: random.Random, smoke: bool) -> list:
    """Plane quadrature of the mass-one and Ward identities (criterion 4).

    The free-boundary and hard-edge Ward grids have two imaginary parts per
    real part, which is the redundancy a y-symmetry collapse removes; the
    Mittag-Leffler points take the path for kernels that are not
    translation-invariant.  The gapped free-boundary point is the honest
    Ward failure (exit 1).
    """
    # offsets move within a tenth so that every seed costs the same
    a = rng.uniform(-0.55, -0.45)
    b = rng.uniform(1.0, 1.1)
    c = rng.uniform(0.7, 0.8)
    if smoke:
        return [
            _r(f"verify ward --spec free-boundary --grid {_num(a)}:{_num(a)}:1"),
            _r(f"verify ward --spec ml:2 --grid {_num(c)}:{_num(c)}:1"),
            _r("verify mass-one --spec free-boundary --points 0"),
            _r("verify polarized --spec free-boundary"),
        ]
    return [
        # 2 real parts x 2 imaginary parts
        _r(f"verify ward --spec free-boundary --grid {_num(a)}:{_num(a + 1)}:1"),
        # -b and -b-ib: one real part, |Im z| in {0, b >= 1}
        _r(f"verify ward --spec hard-edge --grid {_num(-b)}:0:{_num(b)}"),
        _r(f"verify ward --spec ml:2 --grid {_num(-c)}:{_num(c)}:{_num(2 * c)}"),
        _r("verify ward --spec free-boundary:-2,-1,1,2 --grid 0:0:1", expect=1),
        _r("verify mass-one --spec free-boundary --points 0,1,-1+1j,-2"),
        _r("verify mass-one --spec hard-edge --points -0.5,-1-1j"),
        _r("verify mass-one --spec ml:2 --points 0,0.5,1+0.5j"),
        _r("verify polarized --spec free-boundary"),
    ]


def pointwise(rng: random.Random, smoke: bool) -> list:
    """Thousands of single-point kernel values: the per-call cost of
    ``special`` and ``limits``, the O(n) term sum of ``finite_n`` and the
    CLI's own per-point loops.  No plane quadrature and no sampling.
    """
    def grid(lo, width, step):
        # the origin moves by less than one step: the cost of a point depends
        # on where it lies (series branch, hard-edge domain), so every seed
        # keeps the same mix of points
        x0 = lo + rng.uniform(0.0, step)
        return f"{_num(x0)}:{_num(x0 + width)}:{step}"

    g_fb, g_he, g_ml = grid(-2, 4, 0.1), grid(-2, 3, 0.1), grid(-1, 2, 0.1)
    g_64k, g_1m, g_hard = grid(-1.5, 3, 0.25), grid(-1, 1, 0.5), grid(-2.5, 2, 0.25)
    pos_seed, ineq_seed = rng.randrange(1 << 30), rng.randrange(1 << 30)
    if smoke:
        return [
            _r(f"eval --limit free-boundary --grid {grid(-2, 0.2, 0.1)}"),
            _r(f"eval --finite ginibre --n 1024 --grid {grid(-1.5, 0.25, 0.25)}"),
            _r("converge --pot ginibre --n-list 64,256"),
            _r("converge --sections --n-list 256 --grid -1:1:1"),
            _r(f"verify positivity --complementary --points random:8 --sets 2 --seed {pos_seed}"),
            _r("verify eighth"),
            _r("verify series", expect=1),
        ]
    return [
        _r(f"eval --limit free-boundary --grid {g_fb}"),
        _r(f"eval --limit hard-edge --grid {g_he}"),
        _r(f"eval --limit ml:2 --grid {g_ml}"),
        _r(f"eval --finite ginibre --n 65536 --grid {g_64k}"),
        _r(f"eval --finite ginibre --n 1048576 --grid {g_1m}"),
        _r(f"eval --finite hard-edge --n 16384 --grid {g_hard}"),
        _r("converge --pot ginibre --n-list 256,1024,4096,16384"),
        _r("converge --sections --n-list 1024,4096,16384"),
        _r(f"verify positivity --complementary --points random:8 --sets 40 --seed {pos_seed}"),
        _r(f"verify inequalities --seed {ineq_seed}"),
        _r("verify eighth"),
        _r("verify series", expect=1),
    ]


def sample(rng: random.Random, smoke: bool) -> list:
    """Monte Carlo sampling of the radial process: ``sampler`` and its
    inverse-gamma calls do the work.  n = 1024 with many trials against
    n = 16384 with few separates per-trial cost growing like n from cost
    growing like sqrt(n).  Bin counts and windows keep the false-failure
    rate of the per-bin check (deviation within 3 se + 0.02) negligible: the
    few-trial runs use 10 bins, the singularity run two narrow ones.
    """
    s = [rng.randrange(1 << 30) for _ in range(4)]
    if smoke:
        return [
            _r(f"sample --pot ginibre --n 1024 --trials 40 --bins 10 --seed {s[0]}"),
            _r(f"sample --pot power:2 --frame singularity --n 1024 --trials 20 "
               f"--window 0.9:1.3 --bins 2 --seed {s[3]}"),
        ]
    return [
        _r(f"sample --pot ginibre --n 1024 --trials 1000 --seed {s[0]}"),
        _r(f"sample --pot hard-edge --n 1024 --trials 1000 --seed {s[1]}"),
        _r(f"sample --pot ginibre --n 16384 --trials 40 --bins 10 --seed {s[2]}"),
        _r(f"sample --pot power:2 --frame singularity --n 1024 --trials 300 "
           f"--window 0.9:1.3 --bins 2 --seed {s[3]}"),
    ]


def build(name: str, seed: int, smoke: bool = False) -> list:
    """The request list of workload ``name`` for ``seed``."""
    lists = {"quadrature": quadrature, "pointwise": pointwise, "sample": sample}
    return lists[name](random.Random(f"{name}:{seed}"), smoke)

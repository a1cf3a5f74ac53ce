"""The benchmark's workloads: one cycle of `hrg` command lines per seed.

A run repeats its cycle whole, so every run has the same mix of commands.
The seed picks only values that leave the work per command nearly unchanged
(g seeds and Monte Carlo stream seeds); the parameter points and sample
counts are fixed, so runs with different seeds do the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from checks import gbar_closed


@dataclass(frozen=True)
class Op:
    """One `hrg` invocation plus what its checks need to know about it."""

    argv: tuple
    point: tuple  # (p, l, eps)
    group: str | None = None  # ops whose outputs are compared with each other
    steps: int = 0  # flow rows requested
    r: int = 0  # Monte Carlo cut-off index

    @property
    def command(self) -> str:
        return self.argv[0]


def _point_args(point) -> tuple:
    p, l, eps = point
    return ("--p", str(p), "--l", str(l), "--eps", repr(eps))


def _g_rel(rng: random.Random) -> float:
    """A g seed 2 % to 8 % away from the calibrated coupling, either side."""
    return round(1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.02, 0.08), 6)


# Box counts 8, 8, 27 and 64.  Two g seeds at the first point feed the
# g-independence check.
OBSERVABLE_POINTS = ((2, 1, 0.1), (2, 1, 0.1), (3, 1, 0.1), (2, 2, 0.1))


def observables_cycle(seed: int) -> list:
    rng = random.Random(f"observables:{seed}")
    ops = []
    for point in OBSERVABLE_POINTS:
        group = "g-seeds at (2,1,0.1)" if point == (2, 1, 0.1) else None
        argv = ("observables",) + _point_args(point) + ("--g-rel", repr(_g_rel(rng)))
        ops.append(Op(argv=argv, point=point, group=group))
    return ops


# eps from 0.5 down to 0.01; box counts 8, 27, 125, 729 and 1331.
DYN_A = (2, 1, 0.1)
DYN_B = (3, 1, 0.01)
DYN_C = (11, 1, 0.5)
DYN_D = (3, 2, 0.3)
DYN_E = (5, 1, 0.05)
FLOW_STEPS = 20
KOENIGS_Z = "0.0001"


def dynamics_cycle(seed: int) -> list:
    rng = random.Random(f"dynamics:{seed}")
    ops = []
    for point in (DYN_A, DYN_B, DYN_C, DYN_D, DYN_E):
        ops.append(Op(argv=("coeffs",) + _point_args(point), point=point))
    for point in (DYN_A, DYN_B, DYN_D, DYN_E):
        ops.append(Op(argv=("fixed-point",) + _point_args(point), point=point))
        ops.append(Op(argv=("linearize",) + _point_args(point), point=point))
        argv = ("critical-mass",) + _point_args(point) + ("--g-rel", repr(_g_rel(rng)))
        ops.append(Op(argv=argv, point=point))
    # Three equal Koenigs calls sit in the middle of the cycle's sorted op
    # times, with the nine cheap calls below them and the eleven dearer ones
    # above, so op_p50_s reads one kind of op rather than the edge between
    # two.  Their cost varies with z, so z is fixed rather than seeded.
    for _ in range(3):
        ops.append(Op(argv=("koenigs",) + _point_args(DYN_A) + ("--z", KOENIGS_Z), point=DYN_A))
    for point in (DYN_A, DYN_B, DYN_E):
        g = _g_rel(rng) * gbar_closed(*point)
        argv = ("flow",) + _point_args(point) + ("--g", repr(g), "--steps", str(FLOW_STEPS))
        ops.append(Op(argv=argv, point=point, steps=FLOW_STEPS))
    return ops


def _mc_cycle(name: str, seed: int, r: int, samples: int, method: str) -> list:
    """Two calls with one stream seed; their outputs must be byte-identical."""
    rng = random.Random(f"{name}:{seed}")
    point = (2, 1, 0.1)
    argv = ("mc",) + _point_args(point) + (
        "--r", str(r), "--s", "2", "--samples", str(samples),
        "--seed", str(rng.randrange(2**31)), "--method", method,
    )
    op = Op(argv=argv, point=point, group="same-seed calls", r=r)
    return [op, op]


def mc_cycle(seed: int) -> list:
    # 4096 boxes: the volume of the 200k-sample acceptance check
    return _mc_cycle("mc", seed, r=-2, samples=20_000, method="hierarchical")


def mc_matrix_cycle(seed: int) -> list:
    # 512 boxes: small enough for the empirical-matrix branch (<= 1024 boxes)
    return _mc_cycle("mc-matrix", seed, r=-1, samples=50_000, method="cholesky")


WORKLOADS = {
    "observables": observables_cycle,
    "dynamics": dynamics_cycle,
    "mc": mc_cycle,
    "mc-matrix": mc_matrix_cycle,
}

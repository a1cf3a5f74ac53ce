"""Model parameters and the ultrametric geometry of unit boxes in an L-block.

A block of side L = p^l holds L^3 unit boxes, addressed by l levels of
base-p digit triples (coarsest level first).  Two distinct boxes that first
disagree at level t sit at tree distance p^(l-t), which is the p-adic
distance between any pair of their points.  Every spatial integral used in
this package is constant on these distance classes, so the whole geometry
reduces to the functions below.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BoxBudgetError, BoxIndexError, EpsRangeError, NonPrimeError

DEFAULT_BOX_BUDGET = 4096


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class ModelParams:
    """Base p, depth l, L = p^l, eps, and the field dimension (3-eps)/4."""

    p: int
    l: int
    eps: float
    L: int
    phi_dim: float

    @property
    def n_boxes(self) -> int:
        return self.L**3

    @property
    def l_eps(self) -> float:
        return float(self.L) ** self.eps

    @property
    def lam_mu_free(self) -> float:
        """Free mass multiplier L^((3+eps)/2)."""
        return float(self.L) ** ((3.0 + self.eps) / 2.0)


def make_params(p: int, l: int, eps: float, box_budget: int | None = DEFAULT_BOX_BUDGET) -> ModelParams:
    """Validate and build ModelParams; L and the field dimension are derived.
    A box_budget of None puts no cap on the box count p^(3l), which must
    still be a finite float: the covariance moments weigh class sizes."""
    if not is_prime(p):
        raise NonPrimeError(f"p={p} is not prime")
    if l < 1:
        raise BoxIndexError(f"l={l} must be >= 1")
    if not (0.0 < eps <= 1.0):
        raise EpsRangeError(f"eps={eps} outside (0, 1]")
    if 3 * l * math.log2(p) >= 1024 or p ** (3 * l) > sys.float_info.max:
        raise BoxBudgetError(f"p^(3l)={p}^{3 * l} boxes exceed the float range")
    if box_budget is not None and p ** (3 * l) > box_budget:
        raise BoxBudgetError(f"p^(3l)={p**(3*l)} exceeds box budget {box_budget}")
    L = p**l
    return ModelParams(p=p, l=l, eps=float(eps), L=L, phi_dim=(3.0 - eps) / 4.0)


@dataclass(frozen=True)
class BoxIndex:
    """Address of one unit box: l triples of base-p digits, coarsest first."""

    coords: tuple


def all_boxes(params: ModelParams):
    """All L^3 box addresses in lexicographic order (coarsest digits first).

    With this ordering the first p^(3j) boxes are exactly the sub-ball of
    radius p^j around the origin box, for every j <= l.
    """
    digits = range(params.p)
    out = []
    for flat in product(digits, repeat=3 * params.l):
        out.append(BoxIndex(coords=flat))
    return out


def _check_box(b: BoxIndex, params: ModelParams):
    if len(b.coords) != 3 * params.l or any(not (0 <= d < params.p) for d in b.coords):
        raise BoxIndexError(f"bad box address {b.coords} for p={params.p}, l={params.l}")


def block_distance(i: BoxIndex, j: BoxIndex, params: ModelParams) -> float:
    """Tree distance between two unit boxes: p^k with k = l - (common levels)."""
    _check_box(i, params)
    _check_box(j, params)
    for level in range(params.l):
        a = i.coords[3 * level : 3 * level + 3]
        b = j.coords[3 * level : 3 * level + 3]
        if a != b:
            return float(params.p ** (params.l - level))
    return 0.0


def distance_exponents(p: int, levels: int) -> np.ndarray:
    """Matrix K with K[i,j] = k for box distance p^k (K=0 on the diagonal).

    Boxes are numbered 0..p^(3*levels)-1 in the all_boxes order.  Distinct
    boxes always have k >= 1, so K=0 unambiguously marks identical boxes.
    """
    base = p**3
    n = base**levels
    codes = np.arange(n)
    lcp = np.zeros((n, n), dtype=np.int64)
    for depth in range(1, levels + 1):
        pref = codes // (base ** (levels - depth))
        lcp += pref[:, None] == pref[None, :]
    return levels - lcp


def distance_class_sizes(params: ModelParams):
    """Number of boxes at distance p^k (k=1..l) from any fixed box."""
    p = params.p
    return [p ** (3 * k) - p ** (3 * (k - 1)) for k in range(1, params.l + 1)]

"""Monte Carlo validation of the covariance layer.

Samples the hierarchical Gaussian field on the rescaled lattice (unit
boxes filling the ball of radius p^(s-r)) and compares empirical box
covariances and the free pairing against the exact shell sums.  Streams
are counter-based: batch b of BATCH_SIZE samples draws from the Philox
stream keyed by (seed, b), so identical inputs give bit-identical output.
The batch size is fixed because the fields depend on it: the same seed cut
into other batch sizes draws other fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import c_r_value
from .errors import NotPSDError, SampleCountError, VolumeError
from .geometry import ModelParams, distance_exponents

DEFAULT_VOLUME_BUDGET = 4096
MATRIX_BOXES = 1024  # validate forms the full empirical matrix up to this box count
BATCH_SIZE = 4096
MATERIALIZE_CAP = 1 << 24  # samples times boxes


@dataclass(frozen=True)
class FieldEnsemble:
    """Deterministic batched sampler for the box field.

    The boxes are numbered in tree order, so the first p^(-3r) of them are
    exactly the rescaled unit ball used by the free-pairing estimator.
    """

    params: ModelParams
    r: int
    s: int
    n_samples: int
    seed: int
    method: str

    @property
    def levels(self) -> int:
        return self.s - self.r

    @property
    def n_boxes(self) -> int:
        return self.params.p ** (3 * self.levels)

    def batches(self):
        done = 0
        idx = 0
        chol = None
        if self.method == "cholesky":
            chol = _cholesky_factor(self.params, self.levels)
        while done < self.n_samples:
            b = min(BATCH_SIZE, self.n_samples - done)
            rng = np.random.Generator(np.random.Philox(key=(int(self.seed) << 32) + idx))
            if self.method == "hierarchical":
                yield _hierarchical_batch(self.params, self.levels, b, rng)
            elif self.method == "cholesky":
                yield rng.standard_normal((b, self.n_boxes)) @ chol.T
            elif self.method == "zero":
                yield np.zeros((b, self.n_boxes))
            else:
                raise ValueError(f"unknown sampling method {self.method!r}")
            done += b
            idx += 1

    def materialize(self) -> np.ndarray:
        if self.n_samples * self.n_boxes > MATERIALIZE_CAP:
            raise VolumeError("ensemble too large to materialize; iterate batches instead")
        return np.concatenate(list(self.batches()), axis=0)


def sample_hierarchical_field(
    params: ModelParams,
    r: int,
    s: int,
    n_samples: int,
    seed: int,
    method: str = "hierarchical",
    volume_budget: int = DEFAULT_VOLUME_BUDGET,
) -> FieldEnsemble:
    """Configure a sampler for the field with UV cut-off index r on the
    volume of index s (r <= 0 <= s), in rescaled units."""
    if not (r <= 0 <= s):
        raise VolumeError(f"need r <= 0 <= s, got r={r}, s={s}")
    if params.p ** (3 * (s - r)) > volume_budget:
        raise VolumeError(f"p^(3(s-r)) = {params.p**(3*(s-r))} exceeds budget {volume_budget}")
    if n_samples < 1:
        raise SampleCountError("need at least one sample")
    if method not in ("hierarchical", "cholesky", "zero"):
        raise ValueError(f"unknown sampling method {method!r}")
    return FieldEnsemble(params=params, r=r, s=s, n_samples=n_samples, seed=int(seed), method=method)


def _hierarchical_batch(params: ModelParams, levels: int, b: int, rng) -> np.ndarray:
    """Scale-by-scale construction: independent centered block increments
    scaled by p^(-n*[phi]), plus the common coarse offset."""
    p = params.p
    phi = params.phi_dim
    n = p ** (3 * levels)
    base = p**3
    if levels == 0:
        x = np.zeros((b, 1))
    else:
        # finest scale fills the array; coarser scales add via broadcast views
        xi = rng.standard_normal((b, n)).reshape(b, n // base, base)
        xi -= xi.mean(axis=2, keepdims=True)
        x = np.ascontiguousarray(xi.reshape(b, n))
    for scale in range(1, levels):
        parents = n // base ** (scale + 1)
        xi = rng.standard_normal((b, parents, base))
        xi -= xi.mean(axis=2, keepdims=True)
        vals = float(p) ** (-scale * phi) * xi.reshape(b, parents * base)
        x.reshape(b, parents * base, base**scale)[...] += vals[:, :, None]
    v_tail = (1.0 - float(p) ** -3) * float(p) ** (-2 * levels * phi) / (1.0 - float(p) ** (-2 * phi))
    x += np.sqrt(v_tail) * rng.standard_normal((b, 1))
    return x


def _exact_box_covariance(params: ModelParams, levels: int) -> np.ndarray:
    k = distance_exponents(params.p, levels)
    shells = np.array([c_r_value(params, 0, j) for j in range(levels + 1)])
    return shells[k]


def _cholesky_factor(params: ModelParams, levels: int) -> np.ndarray:
    cov = _exact_box_covariance(params, levels)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPSDError(f"box covariance failed Cholesky: {exc}") from exc


@dataclass(frozen=True)
class EmpiricalCovariance:
    matrix: np.ndarray | None
    class_means: np.ndarray
    class_exact: np.ndarray
    class_se: np.ndarray
    max_z_score: float


def _class_aggregates(x: np.ndarray, p: int, levels: int) -> np.ndarray:
    """Per-sample sums of x_i * x_j over ordered pairs in each distance class.

    Column k holds the class at distance p^k (k=0 is the diagonal), computed
    by telescoping block sums down the tree.
    """
    b, n = x.shape
    base = p**3
    out = np.empty((b, levels + 1))
    out[:, 0] = np.sum(x * x, axis=1)
    sq_prev = out[:, 0]
    sums = x
    for d in range(1, levels + 1):
        sums = sums.reshape(b, n // base**d, base).sum(axis=2)
        sq = np.sum(sums**2, axis=1)
        out[:, d] = sq - sq_prev
        sq_prev = sq
    return out


def validate(ens: FieldEnsemble) -> tuple:
    """One pass over the ensemble: (EmpiricalCovariance, PairingEstimate).

    Class statistics pool every ordered box pair at the same tree distance,
    which is the resolution at which the exact covariance actually varies;
    the max z-score is taken over these pooled classes.  The full empirical
    matrix is also formed when the box count is small enough to afford it.
    The pairing estimate is the squared weighted sum over the unit box,
    which in rescaled units is the leading p^(-3r) sub-ball of the lattice.
    """
    if ens.n_samples < 1000:
        raise SampleCountError(f"{ens.n_samples} samples; need at least 1000")
    p = ens.params.p
    levels = ens.levels
    n_boxes = ens.n_boxes
    n = ens.n_samples

    agg = np.zeros(levels + 1)
    agg2 = np.zeros(levels + 1)
    want_matrix = n_boxes <= MATRIX_BOXES
    xtx = np.zeros((n_boxes, n_boxes)) if want_matrix else None
    xsum = np.zeros(n_boxes) if want_matrix else None
    n_sub = int(float(p) ** (-3 * ens.r))
    weight = float(p) ** ((3 - ens.params.phi_dim) * ens.r)
    pair_sum = 0.0
    pair_sum2 = 0.0
    for batch in ens.batches():
        a = _class_aggregates(batch, p, levels)
        agg += a.sum(axis=0)
        agg2 += (a**2).sum(axis=0)
        if want_matrix:
            xtx += batch.T @ batch
            xsum += batch.sum(axis=0)
        t = (weight * batch[:, :n_sub].sum(axis=1)) ** 2
        pair_sum += t.sum()
        pair_sum2 += (t**2).sum()

    counts = np.empty(levels + 1)
    counts[0] = n_boxes
    for k in range(1, levels + 1):
        counts[k] = n_boxes * (p ** (3 * k) - p ** (3 * (k - 1)))
    mean_agg = agg / n
    var_agg = np.maximum(agg2 / n - mean_agg**2, 0.0)
    class_means = mean_agg / counts
    class_se = np.sqrt(var_agg / n) / counts
    class_exact = np.array([c_r_value(ens.params, 0, k) for k in range(levels + 1)])
    diffs = class_means - class_exact
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(class_se > 0, np.abs(diffs) / class_se, np.where(diffs == 0.0, 0.0, np.inf))
    matrix = None
    if want_matrix:
        mean_vec = xsum / n
        matrix = (xtx - n * np.outer(mean_vec, mean_vec)) / (n - 1)
    emp = EmpiricalCovariance(
        matrix=matrix,
        class_means=class_means,
        class_exact=class_exact,
        class_se=class_se,
        max_z_score=float(np.max(z)),
    )
    mean = pair_sum / n
    var = max(pair_sum2 / n - mean**2, 0.0)
    return emp, PairingEstimate(mean=mean, stderr=float(np.sqrt(var / n)), exact=exact_pairing(ens.params, ens.r))


@dataclass(frozen=True)
class PairingEstimate:
    mean: float
    stderr: float
    exact: float


def exact_pairing(params: ModelParams, r: int) -> float:
    """Pairing of the unit-box indicator with itself at UV cut-off index r,
    by exact shell sums (no sampling)."""
    p = float(params.p)
    phi = params.phi_dim
    n_sub = p ** (-3 * r)
    row = c_r_value(params, 0, 0)
    for k in range(1, -r + 1):
        row += (p ** (3 * k) - p ** (3 * (k - 1))) * c_r_value(params, 0, k)
    return p ** ((6 - 2 * phi) * r) * n_sub * row

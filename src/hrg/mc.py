"""Monte Carlo validation of the covariance layer.

Samples the Gaussian field on the rescaled lattice (unit boxes filling the
ball of radius p^(s-r)), hierarchically or by a Cholesky factor, and checks
its covariance per ultrametric distance class, on which it is constant, and
its free pairing against the exact shell sums.  Streams are counter-based:
batch b of BATCH_SIZE samples draws from the Philox stream keyed by
(seed, b), so identical inputs give bit-identical output.  The batch size
is fixed because the fields depend on it: the same seed cut into other
batch sizes draws other fields.

`validate` draws and sums the batches concurrently, on a pool of threads
as large as the usable cores (and no larger than the batch count).  Each
batch yields a few small partial sums, which are added in batch order, so
the output is bit-identical for any worker count.  Peak memory is about
one batch, 8 * BATCH_SIZE * boxes bytes, per worker.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .covariance import c_r_value
from .errors import NotPSDError, SampleCountError, VolumeError
from .geometry import ModelParams, distance_exponents

DEFAULT_VOLUME_BUDGET = 4096
BATCH_SIZE = 4096
CHUNK_VALUES = 1 << 16  # a batch is finished and summed this many values (512 KiB) at a time


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

    @property
    def n_batches(self) -> int:
        return -(-self.n_samples // BATCH_SIZE)

    @cached_property
    def cholesky_factor(self) -> np.ndarray:
        """Lower Cholesky factor of the exact box covariance, computed on first use."""
        return _cholesky_factor(self.params, self.levels)

    def batch(self, idx: int) -> np.ndarray:
        """Batch idx, shape (min(BATCH_SIZE, samples left), boxes), drawn
        from the Philox stream keyed by (seed, idx)."""
        if not 0 <= idx < self.n_batches:
            raise IndexError(f"batch {idx} outside 0..{self.n_batches - 1}")
        b = min(BATCH_SIZE, self.n_samples - idx * BATCH_SIZE)
        rng = np.random.Generator(np.random.Philox(key=(int(self.seed) << 32) + idx))
        if self.method == "hierarchical":
            return _hierarchical_batch(self.params, self.levels, b, rng)
        if self.method == "cholesky":
            return _cholesky_batch(self.cholesky_factor, b, rng)
        raise ValueError(f"unknown sampling method {self.method!r}")

    def batches(self):
        for idx in range(self.n_batches):
            yield self.batch(idx)


def sample_hierarchical_field(
    params: ModelParams,
    r: int,
    s: int,
    n_samples: int,
    seed: int,
    method: str = "hierarchical",
) -> FieldEnsemble:
    """Configure a sampler for the field with UV cut-off index r on the
    volume of index s (r <= 0 <= s), in rescaled units."""
    if not (r <= 0 <= s):
        raise VolumeError(f"need r <= 0 <= s, got r={r}, s={s}")
    if params.p ** (3 * (s - r)) > DEFAULT_VOLUME_BUDGET:
        raise VolumeError(f"p^(3(s-r)) = {params.p**(3*(s-r))} exceeds budget {DEFAULT_VOLUME_BUDGET}")
    if n_samples < 1:
        raise SampleCountError("need at least one sample")
    if method not in ("hierarchical", "cholesky"):
        raise ValueError(f"unknown sampling method {method!r}")
    return FieldEnsemble(params=params, r=r, s=s, n_samples=n_samples, seed=int(seed), method=method)


def _row_chunks(b: int, n_boxes: int) -> list:
    """Row slices of a (b, n_boxes) batch of about CHUNK_VALUES values each.

    A short remainder joins the last slice, so no slice is shorter than
    the others unless it is the whole batch: a product over one row goes
    to a matrix-vector kernel, which rounds unlike the same row of a
    batch-wide product.
    """
    step = max(1, CHUNK_VALUES // n_boxes)
    edges = [i * step for i in range(max(1, b // step))] + [b]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _hierarchical_batch(params: ModelParams, levels: int, b: int, rng) -> np.ndarray:
    """Scale-by-scale construction: independent centered block increments
    scaled by p^(-n*[phi]), plus the common coarse offset.

    The stream is drawn finest scale first, then each coarser scale, then
    the tail.  The finest normals land in the output itself; centering and
    the coarser and tail offsets are then applied one row chunk at a time.
    """
    p = params.p
    phi = params.phi_dim
    n = p ** (3 * levels)
    base = p**3
    x = np.empty((b, n))
    if levels == 0:
        x.fill(0.0)
    else:
        rng.standard_normal(out=x)
    coarse = []  # (block width in boxes, one scaled increment per block)
    for scale in range(1, levels):
        xi = rng.standard_normal((b, n // base ** (scale + 1), base))
        xi -= xi.mean(axis=2, keepdims=True)
        xi *= float(p) ** (-scale * phi)
        coarse.append((base**scale, xi.reshape(b, -1, 1)))
    v_tail = (1.0 - float(p) ** -3) * float(p) ** (-2 * levels * phi) / (1.0 - float(p) ** (-2 * phi))
    tail = np.sqrt(v_tail) * rng.standard_normal((b, 1))
    for chunk in _row_chunks(b, n):
        rows = x[chunk]
        if levels:
            fine = rows.reshape(len(rows), -1, base)
            fine -= fine.mean(axis=2, keepdims=True)
        for width, vals in coarse:
            rows.reshape(len(rows), -1, width)[...] += vals[chunk]
        rows += tail[chunk]
    return x


def _cholesky_batch(chol: np.ndarray, b: int, rng) -> np.ndarray:
    """b fields chol @ z from standard normals z, overwritten one row chunk at a time."""
    x = rng.standard_normal((b, chol.shape[0]))
    for chunk in _row_chunks(b, chol.shape[0]):
        x[chunk] = x[chunk] @ chol.T
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
    class_means: np.ndarray
    class_exact: np.ndarray
    class_se: np.ndarray
    max_z_score: float


def _class_aggregates(x: np.ndarray, p: int, levels: int, out: np.ndarray) -> None:
    """Per-sample sums of x_i * x_j over ordered pairs in each distance class.

    Column k of out holds the class at distance p^k (k=0 is the diagonal),
    computed by telescoping block sums down the tree.
    """
    b, n = x.shape
    base = p**3
    out[:, 0] = np.sum(x * x, axis=1)
    sq_prev = out[:, 0]
    sums = x
    for d in range(1, levels + 1):
        sums = sums.reshape(b, n // base**d, base).sum(axis=2)
        sq = np.sum(sums**2, axis=1)
        out[:, d] = sq - sq_prev
        sq_prev = sq


def _batch_partials(ens: FieldEnsemble, idx: int, n_sub: int, weight: float) -> tuple:
    """Sums over batch idx that validate adds up in batch order: the class
    aggregates and their squares, and the pairing terms and their squares."""
    x = ens.batch(idx)
    b, n = x.shape
    agg = np.empty((b, ens.levels + 1))
    box_sums = np.empty(b)
    for chunk in _row_chunks(b, n):
        rows = x[chunk]
        _class_aggregates(rows, ens.params.p, ens.levels, agg[chunk])
        box_sums[chunk] = rows[:, :n_sub].sum(axis=1)
    t = (weight * box_sums) ** 2
    return agg.sum(axis=0), (agg**2).sum(axis=0), t.sum(), (t**2).sum()


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def validate(ens: FieldEnsemble) -> tuple:
    """One pass over the ensemble: (EmpiricalCovariance, PairingEstimate).

    Class statistics pool every ordered box pair at the same tree distance,
    which is the resolution at which the exact covariance actually varies;
    the max z-score is taken over these pooled classes.  The pairing
    estimate is the squared weighted sum over the unit box, which in
    rescaled units is the leading p^(-3r) sub-ball of the lattice.
    Batches are drawn and summed on a thread pool and their partial sums
    added in batch order, so any worker count gives the same bits.
    """
    if ens.n_samples < 1000:
        raise SampleCountError(f"{ens.n_samples} samples; need at least 1000")
    p = ens.params.p
    levels = ens.levels
    n_boxes = ens.n_boxes
    n = ens.n_samples

    agg = np.zeros(levels + 1)
    agg2 = np.zeros(levels + 1)
    n_sub = int(float(p) ** (-3 * ens.r))
    weight = float(p) ** ((3 - ens.params.phi_dim) * ens.r)
    pair_sum = 0.0
    pair_sum2 = 0.0
    if ens.method == "cholesky":
        ens.cholesky_factor  # factored here, so NotPSDError is raised before any worker starts
    from concurrent.futures import ThreadPoolExecutor  # here, so other commands skip its import cost

    def partials(idx):
        return _batch_partials(ens, idx, n_sub, weight)

    # map yields in batch order, drops each result once read, and cancels
    # the batches not yet started when one raises
    with ThreadPoolExecutor(max_workers=min(_usable_cores(), ens.n_batches)) as pool:
        for a_sum, a_sq, t_sum, t_sq in pool.map(partials, range(ens.n_batches)):
            agg += a_sum
            agg2 += a_sq
            pair_sum += t_sum
            pair_sum2 += t_sq

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
    emp = EmpiricalCovariance(
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

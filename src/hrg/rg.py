"""Renormalization-group maps at second order.

The bulk flow acts on spatially uniform couplings (delta_g, mu) with the
remainder coordinate pinned to ZERO (second-order truncation mode).  The
block engine evaluates the inhomogeneous second-order counterterms for one
L-block with arbitrary per-box couplings; all spatial integrals are exact
sums over box tuples weighted by powers of the fluctuation covariance,
which is forced by local constancy on ultrametric distance classes.  Two
independent oracles (a Wick-contraction cumulant expansion and a Monte
Carlo block integral) validate the explicit coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .covariance import CovarianceTable
from .errors import (
    BlowUpError,
    DomainError,
    NonPositiveInputError,
    QuadratureBudgetError,
    RemainderError,
)
from .geometry import ModelParams
from .wick import WickPoly, connection_coeff, evaluate, scale_argument, wick_product

BLOWUP_GUARD = 1e6


@dataclass(frozen=True)
class FlowCoefficients:
    """Quadratic flow coefficients, the calibrator, and the two multipliers."""

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    gbar: float
    lam_g: float
    lam_mu_free: float


@dataclass(frozen=True)
class BulkVector:
    """A point (delta_g, mu) of the bulk phase space; remainder pinned to ZERO."""

    delta_g: float
    mu: float
    r_rep: str = "ZERO"


@dataclass(frozen=True)
class DeviationVector:
    """Point-supported perturbation living on the origin box."""

    beta4_dot: float = 0.0
    beta3_dot: float = 0.0
    beta2_dot: float = 0.0
    beta1_dot: float = 0.0
    w5_dot: float = 0.0
    w6_dot: float = 0.0
    f_dot: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.beta4_dot,
                self.beta3_dot,
                self.beta2_dot,
                self.beta1_dot,
                self.w5_dot,
                self.w6_dot,
                self.f_dot,
            ]
        )


def _require_zero_remainder(v: BulkVector):
    if v.r_rep != "ZERO":
        raise RemainderError(f"remainder representation {v.r_rep!r} not supported")


def flow_coefficients(table: CovarianceTable, params: ModelParams) -> FlowCoefficients:
    """Closed-form coefficients from the covariance moments."""
    L = float(params.L)
    phi = params.phi_dim
    s = table.s_moments
    c0 = table.c0_zero
    a1 = 36.0 * L ** (3 - 4 * phi) * s[2]
    a2 = 48.0 * L ** (3 - 2 * phi) * s[3] + 144.0 * L ** (3 - 4 * phi) * c0 * s[2]
    a3 = 12.0 * L ** (3 - 2 * phi) * s[2]
    a4 = (
        12.0 * L**3 * s[4]
        + 48.0 * L ** (3 - 2 * phi) * c0 * s[3]
        + 72.0 * L ** (3 - 4 * phi) * c0**2 * s[2]
    )
    a5 = L**3 * s[2]
    return FlowCoefficients(
        a1=a1,
        a2=a2,
        a3=a3,
        a4=a4,
        a5=a5,
        gbar=(params.l_eps - 1.0) / a1,
        lam_g=2.0 - params.l_eps,
        lam_mu_free=params.lam_mu_free,
    )


def bulk_step(v: BulkVector, fc: FlowCoefficients, params: ModelParams, guard: float = BLOWUP_GUARD):
    """One bulk RG step; returns the new vector and the vacuum term delta_b."""
    _require_zero_remainder(v)
    if abs(v.delta_g) > guard or abs(v.mu) > guard:
        raise BlowUpError(f"couplings {v.delta_g}, {v.mu} outside guard {guard}")
    g = fc.gbar + v.delta_g
    delta_g_new = fc.lam_g * v.delta_g - fc.a1 * v.delta_g**2
    mu_new = fc.lam_mu_free * v.mu - fc.a2 * g * g - fc.a3 * g * v.mu
    delta_b = fc.a4 * g * g + fc.a5 * v.mu**2
    return BulkVector(delta_g_new, mu_new), delta_b


def iterate_bulk(v: BulkVector, fc: FlowCoefficients, params: ModelParams, n: int):
    """Orbit [(v_0, db_0), ..., (v_{n-1}, db_{n-1}), (v_n, None)]."""
    out = [v]
    dbs = []
    for _ in range(n):
        v, db = bulk_step(v, fc, params)
        out.append(v)
        dbs.append(db)
    return out, dbs


@dataclass
class BlockCouplings:
    """Per-box couplings over the L^3 unit boxes of one L-block."""

    beta4: np.ndarray
    beta3: np.ndarray
    beta2: np.ndarray
    beta1: np.ndarray
    w5: np.ndarray
    w6: np.ndarray
    f: np.ndarray

    @classmethod
    def homogeneous(cls, params: ModelParams, g: float, mu: float) -> "BlockCouplings":
        n = params.n_boxes
        z = np.zeros(n)
        return cls(
            beta4=np.full(n, g),
            beta3=z.copy(),
            beta2=np.full(n, mu),
            beta1=z.copy(),
            w5=z.copy(),
            w6=z.copy(),
            f=z.copy(),
        )

    def with_deviation(self, dv: DeviationVector) -> "BlockCouplings":
        """Copy with a point deviation added on the origin box (index 0)."""
        out = BlockCouplings(
            beta4=self.beta4.copy(),
            beta3=self.beta3.copy(),
            beta2=self.beta2.copy(),
            beta1=self.beta1.copy(),
            w5=self.w5.copy(),
            w6=self.w6.copy(),
            f=self.f.copy(),
        )
        out.beta4[0] += dv.beta4_dot
        out.beta3[0] += dv.beta3_dot
        out.beta2[0] += dv.beta2_dot
        out.beta1[0] += dv.beta1_dot
        out.w5[0] += dv.w5_dot
        out.w6[0] += dv.w6_dot
        out.f[0] += dv.f_dot
        return out

    def beta(self, degree: int) -> np.ndarray:
        return {4: self.beta4, 3: self.beta3, 2: self.beta2, 1: self.beta1}[degree]

    def w(self, degree: int) -> np.ndarray:
        return {5: self.w5, 6: self.w6}[degree]


@dataclass(frozen=True)
class BlockOutput:
    """Coarse-box couplings and vacuum term produced by one block step."""

    beta4: float
    beta3: float
    beta2: float
    beta1: float
    w5: float
    w6: float
    f: float
    delta_b: float

    def as_array(self) -> np.ndarray:
        return np.array([self.beta4, self.beta3, self.beta2, self.beta1, self.w5, self.w6, self.f])


def _require_matrix(table: CovarianceTable):
    if table.block_matrix is None:
        raise DomainError("block engine needs the covariance matrix; rebuild the table with build_matrix=True")


def second_order_counterterms(bc: BlockCouplings, table: CovarianceTable, params: ModelParams):
    """Order-1 and order-2 counterterms plus the W and f outputs for one block.

    Returns (dbeta1, dbeta2, w5_out, w6_out, f_out) where the dicts map
    k=0..4 to the counterterm values; the k=0 entries are the vacuum
    contributions.  Graph sums run over box tuples weighted by powers of
    the fluctuation covariance at the pair distance.
    """
    _require_matrix(table)
    G = table.block_matrix
    L = float(params.L)
    phi = params.phi_dim
    c0 = table.c0_zero
    gf = G @ bc.f
    gpow = {m: G**m for m in range(1, 5)}

    dbeta1 = {k: 0.0 for k in range(5)}
    for k in range(5):
        for b in range(1, 5):
            if k + b > 4:
                continue
            vertex = bc.beta(k + b)
            graph = float(np.sum(vertex * gf**b))
            if graph == 0.0:
                continue
            coef = factorial(k + b) / (factorial(k) * factorial(b))
            dbeta1[k] -= coef * L ** (-k * phi) * graph

    dbeta2 = {k: 0.0 for k in range(5)}
    pairs = [(a, b) for b in range(1, 5) for a in range(0, 5 - b)]
    for a1, b1 in pairs:
        v1 = bc.beta(a1 + b1)
        for a2, b2 in pairs:
            v2 = bc.beta(a2 + b2)
            for m in range(1, min(b1, b2) + 1):
                left = v1 * gf ** (b1 - m)
                right = v2 * gf ** (b2 - m)
                graph = float(left @ gpow[m] @ right)
                if graph == 0.0:
                    continue
                base = (
                    factorial(a1 + b1)
                    * factorial(a2 + b2)
                    / (
                        factorial(a1)
                        * factorial(a2)
                        * factorial(m)
                        * factorial(b1 - m)
                        * factorial(b2 - m)
                    )
                )
                for k in range(5):
                    cc = connection_coeff(a1, a2, k)
                    if cc == 0:
                        continue
                    dbeta2[k] += (
                        0.5
                        * base
                        * cc
                        * L ** (-(a1 + a2) * phi)
                        * c0 ** ((a1 + a2 - k) // 2)
                        * graph
                    )
    # legs hanging off the W couplings
    for k in range(5):
        for b in range(1, 7):
            if k + b not in (5, 6):
                continue
            graph = float(np.sum(bc.w(k + b) * gf**b))
            if graph == 0.0:
                continue
            coef = factorial(k + b) / (factorial(k) * factorial(b))
            dbeta2[k] += coef * L ** (-k * phi) * graph

    w6_out = L ** (3 - 6 * phi) * float(np.mean(bc.w6)) + 8.0 * L ** (-6 * phi) * float(
        bc.beta4 @ G @ bc.beta4
    )
    w5_out = (
        L ** (3 - 5 * phi) * float(np.mean(bc.w5))
        + 6.0 * L ** (-5 * phi) * float(bc.w6 @ gf)
        + 12.0 * L ** (-5 * phi) * float(bc.beta4 @ G @ bc.beta3)
        + 48.0 * L ** (-5 * phi) * float(np.sum(bc.beta4 * (G @ bc.beta4) * gf))
    )
    f_out = L ** (3 - phi) * float(np.mean(bc.f))
    return dbeta1, dbeta2, w5_out, w6_out, f_out


def block_step(bc: BlockCouplings, table: CovarianceTable, params: ModelParams) -> BlockOutput:
    """Full extended step for one L-block with per-box couplings."""
    L = float(params.L)
    phi = params.phi_dim
    dbeta1, dbeta2, w5_out, w6_out, f_out = second_order_counterterms(bc, table, params)
    betas = {}
    for k in range(1, 5):
        betas[k] = L ** (3 - k * phi) * float(np.mean(bc.beta(k))) - dbeta1[k] - dbeta2[k]
    return BlockOutput(
        beta4=betas[4],
        beta3=betas[3],
        beta2=betas[2],
        beta1=betas[1],
        w5=w5_out,
        w6=w6_out,
        f=f_out,
        delta_b=dbeta1[0] + dbeta2[0],
    )


def _deviated_and_bulk(v_bk: BulkVector, vd: DeviationVector, fc, table, params):
    """Block outputs of (bulk + point deviation) and of the bulk alone."""
    _require_zero_remainder(v_bk)
    hom = BlockCouplings.homogeneous(params, fc.gbar + v_bk.delta_g, v_bk.mu)
    return block_step(hom.with_deviation(vd), table, params), block_step(hom, table, params)


def deviation_step(
    v_bk: BulkVector,
    vd: DeviationVector,
    fc: FlowCoefficients,
    table: CovarianceTable,
    params: ModelParams,
) -> DeviationVector:
    """One step of the deviation flow: extended step of (bulk + point) minus bulk."""
    out_dev, out_hom = _deviated_and_bulk(v_bk, vd, fc, table, params)
    return DeviationVector(*(out_dev.as_array() - out_hom.as_array()))


def deviation_vacuum(
    v_bk: BulkVector,
    vd: DeviationVector,
    fc: FlowCoefficients,
    table: CovarianceTable,
    params: ModelParams,
) -> float:
    """Vacuum term of the deviated block minus the homogeneous one."""
    out_dev, out_hom = _deviated_and_bulk(v_bk, vd, fc, table, params)
    return out_dev.delta_b - out_hom.delta_b


@dataclass(frozen=True)
class DeviationQuadratic:
    """Deviation step and vacuum at one bulk point on the f = 0 deviations.

    With f = 0 every leg G f of the block step vanishes, so the step is
    exactly linear plus bilinear in the six other point couplings (beta4,
    beta3, beta2, beta1, w5, w6): step(x) = M x + Q(x, x) and
    vac(x) = c.x + R(x, x).  f itself only rescales, f_out = L^-phi f_dot,
    so M is one diagonal block of the full linearization.
    """

    m: np.ndarray  # (6, 6)
    q: np.ndarray  # (6, 6, 6), symmetric in the last two indices
    c: np.ndarray  # (6,)
    r: np.ndarray  # (6, 6), symmetric
    lam_f: float
    block_steps: int

    def step(self, x: np.ndarray) -> np.ndarray:
        return self.m @ x + np.einsum("kij,i,j->k", self.q, x, x)

    def spectral_radius(self) -> float:
        """Spectral radius of the full linearized deviation flow, f included."""
        return max(float(np.max(np.abs(np.linalg.eigvals(self.m)))), self.lam_f)


def deviation_quadratic(
    v_bk: BulkVector,
    fc: FlowCoefficients,
    table: CovarianceTable,
    params: ModelParams,
) -> DeviationQuadratic:
    """Polarize the deviation step at v_bk exactly from 28 block steps: the
    bulk block, +-e_i for the linear and diagonal terms and e_i + e_j for
    the cross terms."""
    _require_zero_remainder(v_bk)
    hom = BlockCouplings.homogeneous(params, fc.gbar + v_bk.delta_g, v_bk.mu)

    def outputs(bc: BlockCouplings) -> np.ndarray:
        out = block_step(bc, table, params)
        return np.append(out.as_array()[:6], out.delta_b)

    base = outputs(hom)
    n = 6
    eye = np.eye(n)
    plus = [outputs(hom.with_deviation(DeviationVector(*e))) - base for e in eye]
    minus = [outputs(hom.with_deviation(DeviationVector(*-e))) - base for e in eye]
    lin = (np.stack(plus, axis=1) - np.stack(minus, axis=1)) / 2.0
    quad = np.zeros((n + 1, n, n))
    for i in range(n):
        quad[:, i, i] = (plus[i] + minus[i]) / 2.0
        for j in range(i):
            # step(e_i + e_j) - step(e_i) - step(e_j) = 2 Q(e_i, e_j)
            both = outputs(hom.with_deviation(DeviationVector(*(eye[i] + eye[j])))) - base
            quad[:, i, j] = quad[:, j, i] = (both - plus[i] - plus[j]) / 2.0
    return DeviationQuadratic(
        m=lin[:n],
        q=quad[:n],
        c=lin[n],
        r=quad[n],
        lam_f=float(params.L) ** -params.phi_dim,
        block_steps=1 + n * (n + 3) // 2,
    )


def uv_explicit_series(
    params: ModelParams,
    table: CovarianceTable,
    g_star: float,
    q: int,
    z: float,
    mu_star: float = 0.0,
):
    """Closed-form q-th explicit couplings and vacuum term for the test
    function z * (unit box indicator).

    Returns (beta_exp, db_exp) with beta_exp mapping k=1..4; the quartic and
    cubic entries vanish identically.  The vacuum term carries a mass
    contribution proportional to mu_star.
    """
    if q < 0:
        raise DomainError("q must be nonnegative")
    L = float(params.L)
    phi = params.phi_dim
    s2 = table.s_moments[2]
    s3 = table.s_moments[3]
    s4 = table.s_moments[4]
    g0 = table.gamma_ball
    x = L ** (-2 * phi)
    inner = sum(n * x**n for n in range(q))
    geom = (1.0 - x**q) / (1.0 - x)
    beta_exp = {
        4: 0.0,
        3: 0.0,
        2: 6.0 * q * x**q * z**2 * g_star * s2,
        1: z**3 * g_star * L ** (-q * phi) * (4.0 * geom * s3 + 12.0 * inner * s2 * g0),
    }
    db_exp = (
        -(z**4)
        * g_star
        * (x ** (2 * q) * s4 + 6.0 * x ** (2 * q) * q * s2 * g0**2 + 12.0 * x**q * inner * s2 * g0**2 + 4.0 * x**q * geom * g0 * s3)
        - z**2 * mu_star * x**q * s2
    )
    return beta_exp, db_exp


def _pair_power_sums(table: CovarianceTable, params: ModelParams, m_max: int):
    """sum over ordered box pairs of Gamma(distance)^m, m = 1..m_max."""
    out = {}
    if table.block_matrix is not None:
        G = table.block_matrix
        for m in range(1, m_max + 1):
            out[m] = float(np.sum(G**m))
        return out
    # beyond the matrix budget: exact distance-class counts
    from .geometry import distance_class_sizes

    sizes = distance_class_sizes(params)
    n = params.n_boxes
    for m in range(1, m_max + 1):
        row = table.gamma_ball**m + sum(
            table.gamma_shell[i] ** m * sizes[i] for i in range(params.l)
        )
        out[m] = n * row
    return out


def cumulant_oracle(table: CovarianceTable, params: ModelParams) -> FlowCoefficients:
    """Independent derivation of the flow coefficients.

    Expands the one-block Gaussian integral to second order in the
    couplings: each box contributes Wick monomials split between the
    rescaled background and the fluctuation, cross-box fluctuation moments
    are exact pairings b! Gamma^b, and the background polynomials multiply
    through the Wick product.  The quadratic forms in (g, mu) are then read
    off by evaluation at basis points.
    """
    L = float(params.L)
    phi = params.phi_dim
    lam = L**-phi
    c0 = table.c0_zero
    c1 = c0 * lam**2
    pair_sums = _pair_power_sums(table, params, 4)

    def counterterms(g: float, mu: float) -> dict:
        beta = {4: g, 2: mu}
        acc: dict = {}
        for b in range(1, 5):
            poly_b = {}
            for deg, val in beta.items():
                a = deg - b
                if a >= 0 and val != 0.0:
                    poly_b[a] = poly_b.get(a, 0.0) + val * comb(deg, a)
            if not poly_b:
                continue
            wp = WickPoly(c=c1, coeffs=poly_b)
            prod = wick_product(wp, wp)
            weight = factorial(b) * pair_sums[b]
            scaled = scale_argument(prod, lam)
            for k, v in scaled.coeffs.items():
                acc[k] = acc.get(k, 0.0) + 0.5 * weight * v
        return acc

    c_g = counterterms(1.0, 0.0)
    c_mu = counterterms(0.0, 1.0)
    c_both = counterterms(1.0, 1.0)
    a1 = c_g.get(4, 0.0)
    a2 = c_g.get(2, 0.0)
    a3 = c_both.get(2, 0.0) - c_g.get(2, 0.0) - c_mu.get(2, 0.0)
    a4 = c_g.get(0, 0.0)
    a5 = c_mu.get(0, 0.0)
    return FlowCoefficients(
        a1=a1,
        a2=a2,
        a3=a3,
        a4=a4,
        a5=a5,
        gbar=(params.l_eps - 1.0) / a1,
        lam_g=2.0 - params.l_eps,
        lam_mu_free=params.lam_mu_free,
    )


@dataclass(frozen=True)
class QuadratureConfig:
    """Monte Carlo settings for the functional block oracle."""

    n_samples: int = 100_000
    seed: int = 0
    budget: int = 10_000_000
    batch: int = 20_000


@dataclass(frozen=True)
class FunctionalStepResult:
    phi_grid: np.ndarray
    z_out: np.ndarray
    log_norm: float
    stderr: np.ndarray


def sample_block_fluctuation(params: ModelParams, table: CovarianceTable, n: int, seed: int) -> np.ndarray:
    """n draws of the mean-zero block fluctuation over the L^3 boxes.

    For one level the draw is sigma * (xi - mean(xi)) with iid standard
    normals, which reproduces the covariance matrix exactly; deeper blocks
    use its eigenfactorization.
    """
    return _batch_fluctuation(params, table, n, int(seed))


def functional_block_step(
    z_fn,
    phi_grid: np.ndarray,
    params: ModelParams,
    table: CovarianceTable,
    quad: QuadratureConfig,
) -> FunctionalStepResult:
    """Nonperturbative single-block step: averages the product of per-box
    integrand factors over the block fluctuation, with common random
    numbers across the background grid.

    z_out is normalized to 1 at phi = 0 (log_norm holds the removed log).
    Validation oracle only; never on the main computation path.
    """
    if quad.n_samples > quad.budget:
        raise QuadratureBudgetError(f"{quad.n_samples} samples exceed budget {quad.budget}")
    phi_grid = np.asarray(phi_grid, dtype=float)
    zero_idx = int(np.argmin(np.abs(phi_grid)))
    if abs(phi_grid[zero_idx]) > 1e-14:
        raise DomainError("phi grid must contain 0 for the normalization convention")
    lam = float(params.L) ** -params.phi_dim

    npts = phi_grid.size
    acc = np.zeros(npts)
    acc2 = np.zeros(npts)
    done = 0
    batch_idx = 0
    while done < quad.n_samples:
        b = min(quad.batch, quad.n_samples - done)
        rng_key = (int(quad.seed) << 32) + batch_idx
        zeta = _batch_fluctuation(params, table, b, rng_key)
        for j, phi0 in enumerate(phi_grid):
            vals = z_fn(lam * phi0 + zeta)
            if np.any(vals <= 0.0):
                raise NonPositiveInputError("integrand factor must be positive on the sampled range")
            prod = np.prod(vals, axis=1)
            acc[j] += prod.sum()
            acc2[j] += (prod**2).sum()
        done += b
        batch_idx += 1
    n = float(quad.n_samples)
    mean = acc / n
    var = np.maximum(acc2 / n - mean**2, 0.0)
    se = np.sqrt(var / n)
    if np.any(mean <= 0.0):
        raise NonPositiveInputError("estimated block integral not positive")
    z0 = mean[zero_idx]
    return FunctionalStepResult(
        phi_grid=phi_grid,
        z_out=mean / z0,
        log_norm=float(np.log(z0)),
        stderr=se / z0,
    )


def _batch_fluctuation(params: ModelParams, table: CovarianceTable, n: int, key: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=key))
    nb = params.n_boxes
    if params.l == 1:
        sigma = np.sqrt(table.gamma_ball - table.gamma_shell[0])
        xi = rng.standard_normal((n, nb))
        return sigma * (xi - xi.mean(axis=1, keepdims=True))
    _require_matrix(table)
    vals, vecs = np.linalg.eigh(table.block_matrix)
    vals = np.clip(vals, 0.0, None)
    xi = rng.standard_normal((n, nb))
    return xi @ (vecs * np.sqrt(vals)).T


def extract_couplings(phi_grid: np.ndarray, minus_log_z: np.ndarray, c0: float, kmax: int = 4) -> dict:
    """Least-squares projection of -log(z) onto the Wick basis at c0.

    The vacuum split is a convention: the k=0 entry absorbs whatever
    constant the normalization left behind.
    """
    cols = []
    for k in range(kmax + 1):
        cols.append(evaluate(WickPoly(c=c0, coeffs={k: 1.0}), phi_grid))
    design = np.stack(cols, axis=1)
    sol, *_ = np.linalg.lstsq(design, minus_log_z, rcond=None)
    return {k: float(sol[k]) for k in range(kmax + 1)}

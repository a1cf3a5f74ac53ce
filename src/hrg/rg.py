"""Renormalization-group maps at second order.

The bulk flow acts on spatially uniform couplings (delta_g, mu) with the
remainder coordinate pinned to ZERO (second-order truncation mode).  The
block engine evaluates the inhomogeneous second-order counterterms for one
L-block with arbitrary per-box couplings.  Every graph is a sum over box
pairs weighted by a power of the fluctuation covariance, which is constant
on ultrametric distance classes, so it telescopes into sums over the
blocks of each level: the cost grows linearly with the box count and no
box-by-box matrix is formed.  The deviation flow at f = 0 needs even less:
its linear and bilinear parts are closed forms in the covariance moments.
The tests derive the explicit flow coefficients a second way, by a
Wick-contraction cumulant expansion, and check them against the exact
one-block integral at l = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import comb, factorial

import numpy as np

from .covariance import CovarianceTable
from .errors import BlowUpError
from .geometry import ModelParams
from .wick import connection_coeff

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
    """A point (delta_g, mu) of the bulk phase space; the remainder is zero."""

    delta_g: float
    mu: float


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


def bulk_step(v: BulkVector, fc: FlowCoefficients, params: ModelParams):
    """One bulk RG step; returns the new vector and the vacuum term delta_b."""
    if not (abs(v.delta_g) <= BLOWUP_GUARD and abs(v.mu) <= BLOWUP_GUARD):  # NaN fails too
        raise BlowUpError(f"couplings {v.delta_g}, {v.mu} outside guard {BLOWUP_GUARD}")
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
        arrays = [getattr(self, f.name).copy() for f in fields(self)]
        for values, dot in zip(arrays, dv.as_array()):  # both in the order beta4, ..., w6, f
            values[0] += dot
        return BlockCouplings(*arrays)

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


def _level_weights(table: CovarianceTable) -> np.ndarray:
    """w[i, m] = gamma_i^m - gamma_{i+1}^m for levels i = 0..l and powers
    m = 0..4, with gamma_0 the ball value, gamma_i (i >= 1) the shell values
    and gamma_{l+1} = 0; the m = 0 column vanishes."""
    gam = np.array([table.gamma_ball, *table.gamma_shell, 0.0])[:, None] ** np.arange(5)
    return gam[:-1] - gam[1:]


def _level_sums(v: np.ndarray, params: ModelParams):
    """v summed (along its last axis) over the blocks of level i = 0..l;
    in tree order a level-i block is p^(3i) consecutive boxes."""
    base = params.p**3
    for i in range(params.l + 1):
        if i:
            v = v.reshape(*v.shape[:-1], -1, base).sum(axis=-1)
        yield v


def _class_grams(rows: np.ndarray, table: CovarianceTable, params: ModelParams) -> np.ndarray:
    """g[m, r, s] = rows[r]^T G^m rows[s] for m = 0..4 (g[0] = 0).

    Two boxes at distance class k share exactly the blocks of levels
    i >= k, so u^T G^m v = sum_i (gamma_i^m - gamma_{i+1}^m) <B_i u, B_i v>
    with B_i the level-i block sums.
    """
    w = _level_weights(table)
    return sum(w[i][:, None, None] * (s @ s.T) for i, s in enumerate(_level_sums(rows, params)))


def _gamma_apply(f: np.ndarray, table: CovarianceTable, params: ModelParams) -> np.ndarray:
    """G f by the same identity: each level adds its weight times the block
    sum to every box of the block."""
    w = _level_weights(table)[:, 1]
    out = np.zeros(f.size)
    for i, s in enumerate(_level_sums(f, params)):
        out.reshape(s.size, -1)[...] += w[i] * s[:, None]
    return out


def _leg_row(degree: int, free_legs: int) -> int:
    """Row of beta_degree * (G f)^free_legs among the 16 graph vertices."""
    return 4 * (degree - 1) + free_legs


def _pair_graph_table():
    """Parameter-free parts of the order-2 graphs, as (coef, order).

    For vertices beta_(a1+b1) and beta_(a2+b2) (rows r, s as in _leg_row)
    joined by m lines, coef[k, r, s, m] = base * connection_coeff(a1, a2, k) / 2,
    base counting the ways to pick and pair the legs, and
    order[r, s, m] = a1 + a2 gives the graph's powers of L^-phi and c0.
    """
    coef = np.zeros((5, 16, 16, 5))
    order = np.zeros((16, 16, 5), dtype=int)
    pairs = [(a, b) for b in range(1, 5) for a in range(0, 5 - b)]
    for a1, b1 in pairs:
        for a2, b2 in pairs:
            for m in range(1, min(b1, b2) + 1):
                base = (
                    factorial(a1 + b1)
                    * factorial(a2 + b2)
                    / (factorial(a1) * factorial(a2) * factorial(m) * factorial(b1 - m) * factorial(b2 - m))
                )
                r, s = _leg_row(a1 + b1, b1 - m), _leg_row(a2 + b2, b2 - m)
                order[r, s, m] = a1 + a2
                for k in range(5):
                    coef[k, r, s, m] = 0.5 * base * connection_coeff(a1, a2, k)
    return coef, order


_PAIR_COEF, _PAIR_ORDER = _pair_graph_table()
# the rows beta4, beta3, beta2, beta1 with no leg on G f: all that survives at f = 0
_VERTEX = [_leg_row(d, 0) for d in (4, 3, 2, 1)]
_VERTEX_COEF, _VERTEX_ORDER = _PAIR_COEF[:, _VERTEX][:, :, _VERTEX], _PAIR_ORDER[_VERTEX][:, _VERTEX]


def _deviation_graphs():
    """The nonzero graphs u^T G^m v of deviation_quadratic, one entry per
    ordered (u, v): the vertex graphs, negated into the outputs beta4..beta1,
    12 beta4^T G beta3 -> w5 split over both orders and 8 beta4^T G beta4 -> w6.
    Per entry: u, m, coefficient, powers of L^-phi and c0, flat (out, u, v), (out, v)."""
    k, u, v, m = np.nonzero(_VERTEX_COEF)
    order = _VERTEX_ORDER[u, v, m]
    out = np.append(np.where(k > 0, 4 - k, 6), (4, 4, 5))
    coef = np.append(np.where(k > 0, -1.0, 1.0) * _VERTEX_COEF[k, u, v, m], (6.0, 6.0, 8.0))
    lpow, cpow = np.append(order, (5, 5, 6)), np.append((order - k) // 2, (0, 0, 0))
    u, v, m = np.append(u, (0, 1, 0)), np.append(v, (1, 0, 0)), np.append(m, (1, 1, 1))
    return u, m, coef, lpow, cpow, (out * 6 + u) * 6 + v, out * 6 + v


_DEVIATION_GRAPHS = _deviation_graphs()


def _graph_weights(params: ModelParams, c0: float) -> np.ndarray:
    """W[k, r, s, m]: coefficient in dbeta2[k] of the order-2 graph
    row_r^T G^m row_s, where the vertices beta_(a+b) meet through m of
    their b legs and hang the others on G f (rows as in _leg_row)."""
    k = np.arange(5)[:, None, None, None]
    return _PAIR_COEF * float(params.L) ** (-params.phi_dim * _PAIR_ORDER) * c0 ** ((_PAIR_ORDER - k) // 2)


def second_order_counterterms(bc: BlockCouplings, table: CovarianceTable, params: ModelParams):
    """Order-1 and order-2 counterterms plus the W and f outputs for one block.

    Returns (dbeta1, dbeta2, w5_out, w6_out, f_out) where the dicts map
    k=0..4 to the counterterm values; the k=0 entries are the vacuum
    contributions.  Graph sums run over box tuples weighted by powers of
    the fluctuation covariance at the pair distance, evaluated level by
    level (_class_grams, _gamma_apply).
    """
    L = float(params.L)
    phi = params.phi_dim
    gf = _gamma_apply(bc.f, table, params)
    rows = np.stack([bc.beta(d) * gf**e for d in range(1, 5) for e in range(4)])
    grams = _class_grams(rows, table, params)
    pair = np.einsum("krsm,mrs->k", _graph_weights(params, table.c0_zero), grams)
    dbeta1 = {k: 0.0 for k in range(5)}
    dbeta2 = {k: float(pair[k]) for k in range(5)}
    # one vertex with all its other legs on G f: order 1 for beta, order 2 for W
    for k in range(5):
        for d in range(k + 1, 7):
            vertex = bc.beta(d) if d <= 4 else bc.w(d)
            graph = comb(d, k) * L ** (-k * phi) * float(np.sum(vertex * gf ** (d - k)))
            if d <= 4:
                dbeta1[k] -= graph
            else:
                dbeta2[k] += graph

    g1 = grams[1]
    b4, b3, b4_leg = _leg_row(4, 0), _leg_row(3, 0), _leg_row(4, 1)
    w6_out = L ** (3 - 6 * phi) * float(np.mean(bc.w6)) + 8.0 * L ** (-6 * phi) * float(g1[b4, b4])
    w5_out = (
        L ** (3 - 5 * phi) * float(np.mean(bc.w5))
        + 6.0 * L ** (-5 * phi) * float(bc.w6 @ gf)
        + 12.0 * L ** (-5 * phi) * float(g1[b4, b3])
        + 48.0 * L ** (-5 * phi) * float(g1[b4_leg, b4])
    )
    f_out = L ** (3 - phi) * float(np.mean(bc.f))
    return dbeta1, dbeta2, w5_out, w6_out, f_out


def block_step(bc: BlockCouplings, table: CovarianceTable, params: ModelParams) -> BlockOutput:
    """Full extended step for one L-block with per-box couplings."""
    L = float(params.L)
    phi = params.phi_dim
    dbeta1, dbeta2, w5_out, w6_out, f_out = second_order_counterterms(bc, table, params)
    betas = [L ** (3 - k * phi) * float(np.mean(bc.beta(k))) - dbeta1[k] - dbeta2[k] for k in (4, 3, 2, 1)]
    return BlockOutput(*betas, w5=w5_out, w6=w6_out, f=f_out, delta_b=dbeta1[0] + dbeta2[0])


def _deviated_and_bulk(v_bk: BulkVector, vd: DeviationVector, fc, table, params):
    """Block outputs of (bulk + point deviation) and of the bulk alone."""
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

    def spectral_radius(self) -> float:
        """Spectral radius of the linearized flow, f included; M is lower triangular."""
        return max(*map(abs, self.m.diagonal().tolist()), self.lam_f)


def deviation_quadratic(
    v_bk: BulkVector,
    fc: FlowCoefficients,
    table: CovarianceTable,
    params: ModelParams,
) -> DeviationQuadratic:
    """M, Q, c and R at v_bk in closed form from the covariance moments.

    At f = 0 only the graphs u^T G^m v with all m legs paired survive, plus
    the W graphs 8 beta4^T G beta4 and 12 beta4^T G beta3.  For couplings
    h 1 + d e_0 (the bulk value on every box plus the deviation on the
    origin box) each is n S_m h_u h_v + S_m (h_u d_v + d_u h_v) +
    gamma_ball^m d_u d_v, with S_m the row sum of G^m, and the block means
    are h + d/n.  Nothing depends on per-box arrays, so the cost does not
    grow with the box count: each graph of _deviation_graphs is binned in.

    Gamma integrates to zero, so the table's S_1 is 0 exactly; with the odd
    slots of h at 0, M is exactly lower triangular.
    """
    L, phi = float(params.L), params.phi_dim
    u, m, coef, lpow, cpow, quad_at, lin_at = _DEVIATION_GRAPHS
    w = coef * L ** (-phi * lpow) * table.c0_zero ** cpow
    h = np.array([fc.gbar + v_bk.delta_g, 0.0, v_bk.mu, 0.0, 0.0, 0.0])
    s_m = np.array([0.0] + [table.s_moments[j] for j in range(1, 5)])
    lin = 2.0 * np.bincount(lin_at, w * s_m[m] * h[u], minlength=42).reshape(7, 6)
    lin[:6] += np.diag(L ** (3 - phi * np.array([4.0, 3.0, 2.0, 1.0, 5.0, 6.0])) / params.n_boxes)
    quad = np.bincount(quad_at, w * table.gamma_ball**m, minlength=252).reshape(7, 6, 6)
    return DeviationQuadratic(m=lin[:6], q=quad[:6], c=lin[6], r=quad[6], lam_f=L**-phi)

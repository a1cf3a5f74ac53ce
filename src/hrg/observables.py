"""Correlator values and normalization constants assembled from the dynamics.

The composite-field two-point value splits into an ultraviolet geometric
series driven by the unstable eigenvalue and an infrared series over
contracting deviation iterates; the anomalous dimension is read off the
eigenvalue.  In the truncation the conjugating map is exactly linear along
e_u = (0, 1), so the ultraviolet piece is the closed form
2 a5 / (alpha_u^2 - L^3) and the infrared seed has no second jet.  The
deviation step at the fixed point is exactly linear plus bilinear, with
closed-form coefficients, and its linear map M keeps the mass line,
M e_2 = m22 e_2, so the infrared and one-point series over the orbit's
z-jets are scalar sums along it plus one triangular (I - M) solve at any
box count, whose residual the report carries.  The Stein, finite-difference
and block-step routes that check these closed forms live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# covariance_table and flow_coefficients are not called here: bench/test_bench.py imports them from this module
from .covariance import CovarianceTable, covariance_table, free_pairing_c_inf
from .dynamics import ManifoldOrbit, find_fixed_point, mass_products, stable_orbit, unstable_eigenvalue
from .errors import ContractionError, SeriesDivergenceError
from .geometry import ModelParams
from .rg import BulkVector, DeviationQuadratic, FlowCoefficients, deviation_quadratic, flow_coefficients


@dataclass(frozen=True)
class NormalizationSet:
    """Constants fixing the composite-field normalization."""

    z2: float
    z0: float
    upsilon: float
    y0: float
    kappa: float
    y2: float


@dataclass(frozen=True)
class IRSeriesResult:
    value: float
    solve_residual: float  # relative, of the (I - M) solve
    n_terms: int  # linear solves run: the one (I - M) solve


@dataclass(frozen=True)
class ObservableReport:
    eta_phi2: float
    u2: float
    u4: float
    uv_reduced: float
    ir_reduced: float
    two_point_normalized: float
    one_point_residual: float
    alpha_u: float
    mu_star: float
    gbar: float
    norms: NormalizationSet
    error_bands: dict = field(default_factory=dict)


def eta_phi2(alpha_u: float, params: ModelParams) -> float:
    """Anomalous dimension of the squared field from the unstable eigenvalue."""
    L = float(params.L)
    return (3.0 + params.eps) - 2.0 * np.log(alpha_u) / np.log(L)


def u_values(params: ModelParams, table: CovarianceTable, fc: FlowCoefficients, v_star: BulkVector):
    """Connected two- and four-point values of the elementary field on the
    unit box.  The u4 scale series is geometric in x = L^(-2 phi) and
    y = x^2, and is summed in closed form."""
    L = float(params.L)
    x = L ** (-2.0 * params.phi_dim)
    s2, s3, s4 = table.s_moments[2], table.s_moments[3], table.s_moments[4]
    g0 = table.gamma_ball
    g_star = fc.gbar + v_star.delta_g
    mu_star = v_star.mu

    u2 = free_pairing_c_inf(params) - 2.0 * s2 * mu_star / (1.0 - x)

    y = x * x
    total = (
        s4 / (1.0 - y)
        + 6.0 * s2 * g0**2 * y / (1.0 - y) ** 2
        + 12.0 * s2 * g0**2 * x * y / ((1.0 - x) * (1.0 - y) ** 2)
        + 4.0 * g0 * s3 * x / ((1.0 - x) * (1.0 - y))
    )
    u4 = -24.0 * g_star * total
    return u2, u4


def phi2_uv_reduced(fc: FlowCoefficients, alpha_u: float, params: ModelParams) -> float:
    """Ultraviolet piece of the reduced composite two-point value.

    The vacuum term a4 g^2 + a5 mu^2 has second derivative 2 a5 along the
    conjugated unstable line, which is the straight line v* + z (0, 1) in
    the truncation; the geometric series over scales divides it by
    alpha_u^2 - L^3.
    """
    L3 = float(params.L) ** 3
    if alpha_u**2 <= L3:
        raise SeriesDivergenceError("alpha_u^2 <= L^3: ultraviolet series diverges")
    return 2.0 * fc.a5 / (alpha_u**2 - L3)


MASS = 2  # slot of beta2 among the point couplings: e_u = (0, 1) seeds the deviation orbit there


def phi2_ir_reduced(dq: DeviationQuadratic) -> IRSeriesResult:
    """Infrared piece: second z-derivatives of the vacuum output along the
    deviation orbit seeded with the point restriction of the conjugated
    unstable line, summed over all iterations in closed form.

    The seed is z a_0 + z^2 b_0 + O(z^3) with a_0 = e_u = e_2, and b_0 = 0
    because the conjugating map is linear along e_u.  With
    step(x) = M x + Q(x, x) the orbit's jets are a_{q+1} = M a_q and
    b_{q+1} = M b_q + Q(a_q, a_q), and term q is 2 (c.b_q + R(a_q, a_q)).
    M e_2 = m22 e_2, so a_q = m22^q e_2 and A = sum a_q a_q^T is
    e_2 e_2^T / (1 - m22^2); then sum b_q = (I - M)^-1 Q(A).
    """
    radius = dq.spectral_radius()
    if radius >= 1.0:
        raise ContractionError(f"deviation flow not contracting: spectral radius {radius}")
    a = 1.0 / (1.0 - float(dq.m[MASS, MASS]) ** 2)
    rhs, b, residual = (dq.q[:, MASS, MASS] * a).tolist(), [], 0.0
    for i, row in enumerate(dq.m.tolist()):  # M is lower triangular: forward substitution
        known = rhs[i] + sum(map(float.__mul__, row, b))
        b.append(known / (1.0 - row[i]))
        residual = max(residual, abs((1.0 - row[i]) * b[i] - known))
    value = 2.0 * (sum(map(float.__mul__, dq.c.tolist(), b)) + float(dq.r[MASS, MASS]) * a)
    return IRSeriesResult(value=value, solve_residual=residual / max(map(abs, rhs)), n_terms=1)


def xi_sequence_limit(orbit: ManifoldOrbit, fc: FlowCoefficients, products: np.ndarray, kappa: float):
    """Xi_n, the vacuum gradient at the n-th orbit point paired with
    alpha_u^-n DF^n E_PHI2 = (0, P_n), so 2 a5 mu_n P_n with P from
    `mass_products`, for n up to the stored depth, and its limit
    xi_inf = 2 a5 mu* kappa.  Returns (xis, xi_inf)."""
    return 2.0 * fc.a5 * orbit.mu * products, 2.0 * fc.a5 * orbit.v_star.mu * kappa


def normalization_constants(
    alpha_u: float,
    params: ModelParams,
    xis: np.ndarray,
    xi_inf: float,
    kappa: float,
    reduced_sum: float,
) -> NormalizationSet:
    """Z-type constants from the Xi sequence of the seed orbit: upsilon sums
    z0^n Xi_n below the stored depth M and closes with the xi_inf tail
    z0^M xi_inf / (1 - z0), which differs from the exact tail by less than
    z0^M, below 1e-17 of Xi.  The two-point normalization fixes y2 and then
    y0."""
    L = float(params.L)
    z2 = alpha_u * L ** (-(3.0 - 2.0 * params.phi_dim))
    z0 = alpha_u / L**3
    if z0 >= 1.0:
        raise SeriesDivergenceError("L^-3 alpha_u >= 1: the one-point series diverges")
    if reduced_sum <= 0.0:
        raise SeriesDivergenceError("reduced two-point sum must be positive")
    m = len(xis) - 1
    upsilon = float(z0 ** np.arange(m) @ xis[:m]) + z0**m * xi_inf / (1.0 - z0)
    y2 = 1.0 / (abs(kappa) * np.sqrt(reduced_sum))
    y0 = -(L**-3) * y2 * upsilon
    return NormalizationSet(z2=z2, z0=z0, upsilon=upsilon, y0=y0, kappa=kappa, y2=y2)


def one_point_residual(
    dq: DeviationQuadratic,
    params: ModelParams,
    xi_inf: float,
    norms: NormalizationSet,
) -> float:
    """First z-derivative of the assembled log-moment generator of the
    composite field at the unit box; vanishes identically in the limit.

    The ultraviolet part is evaluated in its stable tail form (the
    cancellation against the y0 counter-normalization is algebraically
    built in); xi_inf is the Xi limit along the physical seed orbit, so it
    carries the seed's kappa.  The infrared part follows the deviation
    orbit seeded with the conjugating map at the seed point along
    -y2 z e_phi2, whose first jet is a_0 = -y2 kappa e_2: the jets
    a_q = m22^q a_0 sum to a_0 / (1 - m22).
    """
    uv = norms.y2 * (float(params.L) ** -3) * xi_inf / (1.0 - norms.z0)
    return uv + float(-norms.y2 * norms.kappa * dq.c[MASS] / (1.0 - dq.m[MASS, MASS]))


def full_report(
    params: ModelParams, table: CovarianceTable, fc: FlowCoefficients, g_seed: float | None = None
) -> ObservableReport:
    """Assemble every observable for one parameter point from its
    covariance table and flow coefficients.

    g_seed picks the bare coupling whose critical orbit seeds the
    normalization constants; physical outputs must not depend on it.
    """
    v_star = find_fixed_point(fc, params)
    alpha_u = unstable_eigenvalue(fc)

    g = fc.gbar if g_seed is None else g_seed
    orbit = stable_orbit(g, fc, params)

    eta = eta_phi2(alpha_u, params)
    u2, u4 = u_values(params, table, fc, v_star)
    uv = phi2_uv_reduced(fc, alpha_u, params)
    dq = deviation_quadratic(v_star, fc, table, params)
    ir = phi2_ir_reduced(dq)
    reduced_sum = uv + ir.value
    products, kappa = mass_products(orbit, fc, alpha_u)
    if kappa == 0.0:
        raise SeriesDivergenceError("kappa vanished; composite normalization undefined")
    xis, xi_inf = xi_sequence_limit(orbit, fc, products, kappa)
    norms = normalization_constants(alpha_u, params, xis, xi_inf, kappa, reduced_sum)
    two_point = norms.y2**2 * kappa**2 * reduced_sum
    residual = one_point_residual(dq, params, xi_inf, norms)

    gbar = fc.gbar
    bands = {
        "implicit_order": float(params.L) ** 8 * gbar**2,
        "ir_tail": ir.solve_residual,
    }
    return ObservableReport(
        eta_phi2=eta,
        u2=u2,
        u4=u4,
        uv_reduced=uv,
        ir_reduced=ir.value,
        two_point_normalized=two_point,
        one_point_residual=residual,
        alpha_u=alpha_u,
        mu_star=v_star.mu,
        gbar=gbar,
        norms=norms,
        error_bands=bands,
    )

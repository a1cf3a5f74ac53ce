import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrg.covariance import covariance_table, free_pairing_c_inf
from hrg.errors import DomainError, SeriesDivergenceError
from hrg.geometry import make_params
from hrg.observables import (
    IRSeriesResult,
    NormalizationSet,
    eta_phi2,
    full_report,
    normalization_constants,
    one_point_residual,
    phi2_ir_reduced,
    phi2_uv_reduced,
    u_values,
    xi_sequence_limit,
)
from hrg.rg import (
    BulkVector,
    DeviationVector,
    deviation_quadratic,
    deviation_step,
    deviation_vacuum,
    flow_coefficients,
)
from hrg.dynamics import (
    E_PHI2,
    find_fixed_point,
    mass_products,
    psi_fixed_seed,
    stable_orbit,
    t_infinity,
    unstable_eigenvalue,
)
from oracles import (
    SelfCheckError,
    delta_b_value,
    jacobian_at,
    mp_ir_reduced,
    psi_vacuum_second_derivative,
    quadratic_step,
    resolvent_one_point_ir,
    stein_ir_reduced,
    theta_vector,
    uv_reduced_oracle,
)


@pytest.fixture(scope="module")
def m21():
    params = make_params(2, 1, 0.1)
    table = covariance_table(params)
    fc = flow_coefficients(table, params)
    v_star = find_fixed_point(fc, params)
    return params, table, fc, v_star, unstable_eigenvalue(fc)


@pytest.fixture(scope="module")
def report21(m21):
    params, table, fc = m21[:3]
    return full_report(params, table, fc)


def test_eta_examples(m21):
    params, table, fc, v_star, alpha_u = m21
    eta = eta_phi2(alpha_u, params)
    assert eta == pytest.approx(0.06514, abs=1e-5)
    assert eta / params.eps == pytest.approx(0.651, abs=1e-3)
    # free multiplier gives zero anomaly
    assert eta_phi2(params.lam_mu_free, params) == pytest.approx(0.0, abs=1e-14)


def test_eta_trend_toward_two_thirds():
    vals = []
    for eps in (0.1, 0.05, 0.02, 0.01):
        params = make_params(2, 1, eps)
        table = covariance_table(params)
        fc = flow_coefficients(table, params)
        vals.append(eta_phi2(unstable_eigenvalue(fc), params) / eps)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1] - 2.0 / 3.0) < 0.02


def _u4_closed_form(params, table, g_star):
    x = float(params.L) ** (-2 * params.phi_dim)
    s2, s3, s4 = table.s_moments[2], table.s_moments[3], table.s_moments[4]
    g0 = table.gamma_ball
    bracket = (
        s4 / (1 - x**2)
        + 6 * s2 * g0**2 * x**2 / (1 - x**2) ** 2
        + 12 * s2 * g0**2 * x**3 / ((1 - x) * (1 - x**2) ** 2)
        + 4 * g0 * s3 * (1 / (1 - x) - 1 / (1 - x**2)) / (1 - x)
    )
    return -24.0 * g_star * bracket


def test_u_values(m21):
    params, table, fc, v_star, alpha_u = m21
    u2, u4 = u_values(params, table, fc, v_star)
    assert u4 == pytest.approx(_u4_closed_form(params, table, fc.gbar + v_star.delta_g), rel=1e-12)
    assert u4 < 0.0
    assert u4 <= -fc.gbar / 3.0
    # first term alone bounds the series from above in magnitude
    assert u4 <= -24.0 * (fc.gbar + v_star.delta_g) * table.s_moments[4]
    x = float(params.L) ** (-2 * params.phi_dim)
    expect_u2 = free_pairing_c_inf(params) - 2 * table.s_moments[2] * v_star.mu / (1 - x)
    assert u2 == pytest.approx(expect_u2, rel=1e-12)
    # with a massless fixed point the free pairing is exact
    u2_free, _ = u_values(params, table, fc, BulkVector(v_star.delta_g, 0.0))
    assert u2_free == pytest.approx(free_pairing_c_inf(params), rel=1e-14)


def test_u4_bound_p3():
    params = make_params(3, 1, 0.1)
    table = covariance_table(params)
    fc = flow_coefficients(table, params)
    v_star = find_fixed_point(fc, params)
    _, u4 = u_values(params, table, fc, v_star)
    assert u4 <= -fc.gbar / 3.0


def test_uv_reduced(m21):
    params, table, fc, v_star, alpha_u = m21
    uv = phi2_uv_reduced(fc, alpha_u, params)
    denom = alpha_u**2 - params.L**3
    assert 1.0 / denom == pytest.approx(5.110, rel=1e-3)
    assert uv == pytest.approx(2.0 * fc.a5 / denom, rel=1e-9)
    assert uv > 0.0


def test_uv_reduced_blowup_constant():
    params = make_params(2, 1, 0.01)
    table = covariance_table(params)
    fc = flow_coefficients(table, params)
    uv = phi2_uv_reduced(fc, unstable_eigenvalue(fc), params)
    target = 6.0 * (1 - 2.0**-3) / np.log(2.0)
    assert abs(0.01 * uv - target) / target < 0.05


def test_uv_reduced_divergence_guard(m21):
    params, table, fc, v_star, alpha_u = m21
    with pytest.raises(SeriesDivergenceError):
        phi2_uv_reduced(fc, 1.5, params)


def _richardson_ir_oracle(fc, alpha_u, table, params, v_star, h=1e-3, rtol=1e-12, q_block=40):
    """The infrared piece by finite differences along literal deviation
    orbits: per-q central second differences in z at steps h/2 and h/4,
    Richardson-extrapolated, summed until the terms fall below rtol or the
    difference noise.  Returns (value, tail_bound)."""

    def vacuum_series(z):
        w = BulkVector(z * E_PHI2.delta_g, z * E_PHI2.mu)
        psi, _, _ = psi_fixed_seed(w, fc, params, v_star, alpha_u)
        dv = DeviationVector(beta4_dot=psi.delta_g - v_star.delta_g, beta2_dot=psi.mu - v_star.mu)
        out = []
        for _ in range(q_block):
            out.append(deviation_vacuum(v_star, dv, fc, table, params))
            dv = deviation_step(v_star, dv, fc, table, params)
        return out

    fs = {z: vacuum_series(z) for z in (h / 2, -h / 2, h / 4, -h / 4)}
    # rounding of the base vacuum value dominates the difference noise
    noise = 64.0 * np.finfo(float).eps * abs(delta_b_value(v_star, fc)) / (h / 4.0) ** 2
    total = 0.0
    for q in range(q_block):
        # the z = 0 series vanishes identically
        d_h2 = (fs[h / 2][q] + fs[-h / 2][q]) / (h / 2) ** 2
        d_h4 = (fs[h / 4][q] + fs[-h / 4][q]) / (h / 4) ** 2
        term = (4.0 * d_h4 - d_h2) / 3.0
        total += term
        if q > 2 and abs(term) < max(rtol * max(abs(total), 1.0), 4.0 * noise):
            return total, (abs(term) + noise)  # geometric tail at ratio 1/2
    raise AssertionError(f"oracle series not settled after {q_block} terms")


@pytest.mark.parametrize("point", [(2, 1, 0.1), (3, 1, 0.1), (2, 1, 0.02)], ids=lambda p: "-".join(map(str, p)))
def test_ir_reduced_matches_richardson_oracle(point):
    params = make_params(*point)
    table = covariance_table(params)
    fc = flow_coefficients(table, params)
    v_star = find_fixed_point(fc, params)
    ir = phi2_ir_reduced(deviation_quadratic(v_star, fc, table, params))
    assert isinstance(ir, IRSeriesResult)
    assert ir.solve_residual < 1e-13
    assert ir.n_terms == 1
    oracle, tail = _richardson_ir_oracle(fc, unstable_eigenvalue(fc), table, params, v_star)
    assert tail < 1e-6
    assert abs(ir.value - oracle) <= tail
    # leading term is the same-box pair graph of the mass direction
    q0 = 2.0 * (table.gamma_ball**2 + 2.0 * float(params.L) ** (-2 * params.phi_dim) * table.c0_zero * table.gamma_ball)
    if point == (2, 1, 0.1):
        assert ir.value == pytest.approx(q0 / (1 - 0.1276), rel=0.2)


STEIN_POINTS = [(p, l, eps) for p in (2, 3, 5, 7, 11) for l in (1, 2, 3) for eps in (0.01, 0.1, 0.5, 1.0)]


def test_ir_closed_forms_match_stein_route():
    # the mass-line closed forms against the general route that uses no
    # structure of M: the 36 x 36 Kronecker Stein solve and the dense
    # (I - M) solve, at every point of the grid (the IR pieces exist even
    # where eps is too large for the stable orbit of a report)
    unit = NormalizationSet(z2=0.0, z0=0.0, upsilon=0.0, y0=0.0, kappa=1.0, y2=1.0)
    for point in STEIN_POINTS:
        params = make_params(*point)
        table = covariance_table(params)
        fc = flow_coefficients(table, params)
        v_star = find_fixed_point(fc, params)
        dq = deviation_quadratic(v_star, fc, table, params)
        ir = phi2_ir_reduced(dq).value
        stein = stein_ir_reduced(dq, E_PHI2)
        assert abs(ir - stein) <= 4e-16 * abs(stein), point
        ir_part = one_point_residual(dq, params, 0.0, unit)  # xi_inf = 0 drops the UV part
        want = resolvent_one_point_ir(dq, E_PHI2, -1.0)
        assert abs(ir_part - want) <= 4e-16 * abs(want), point


ULP_POINTS = [(2, 1, 0.1), (3, 1, 0.01), (2, 2, 0.5), (5, 2, 0.1), (7, 3, 1.0), (11, 1, 0.3)]
ULP_POINTS += [(p, l, eps) for p in (2, 3, 5, 7, 11) for l in (1, 2, 3) for eps in (1e-3, 0.01, 0.1, 0.5, 1.0)]


@pytest.mark.parametrize("point", list(dict.fromkeys(ULP_POINTS)), ids=str)
def test_ir_reduced_within_2_ulp_of_50_digit_value(point):
    # the forward substitution through the triangular (I - M) against the
    # 50-digit LU solve of the closed form from the same float M, q, c and r
    params = make_params(*point)
    table = covariance_table(params)
    fc = flow_coefficients(table, params)
    v_star = find_fixed_point(fc, params)
    dq = deviation_quadratic(v_star, fc, table, params)
    ir = phi2_ir_reduced(dq)
    exact = mp_ir_reduced(dq)
    assert abs(ir.value - exact) <= 2.0 * np.spacing(abs(float(exact)))
    assert ir.solve_residual < 1e-15


def test_report_runs_without_einsum_or_dense_solves(monkeypatch):
    # the report path bins the deviation graphs and solves (I - M) by
    # forward substitution: it calls neither np.einsum nor np.linalg.solve
    def refuse(*args, **kwargs):
        raise AssertionError("dense route on the report path")

    monkeypatch.setattr(np, "einsum", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for point in [(2, 1, 0.1), (3, 2, 0.01), (5, 1, 0.5)]:
        params = make_params(*point)
        table = covariance_table(params)
        report = full_report(params, table, flow_coefficients(table, params))
        assert abs(report.two_point_normalized - 1.0) <= 1e-10


@settings(max_examples=60)
@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(1, 4),
    st.floats(-6.0, 0.0).map(lambda u: 10.0**u),  # eps in [1e-6, 1], spread over its decades
    st.floats(0.9, 1.1),
)
def test_full_report_properties(p, l, eps, g_rel):
    # every draw is either refused with DomainError or gives a normalized
    # report with a vanishing one-point residual, the closed-form eta, and
    # seed-independent physical outputs
    params = make_params(p, l, eps)
    table = covariance_table(params)
    fc = flow_coefficients(table, params)
    try:
        base = full_report(params, table, fc)
        r = full_report(params, table, fc, g_seed=g_rel * base.gbar)
    except DomainError:
        return
    assert abs(r.two_point_normalized - 1.0) <= 1e-12
    assert abs(r.one_point_residual) <= 1e-15
    L = float(params.L)
    assert abs(r.eta_phi2 + 2.0 * np.log((2.0 + L**-eps) / 3.0) / np.log(L)) <= 1e-12
    physical = ("eta_phi2", "uv_reduced", "ir_reduced", "u2", "u4")
    assert [getattr(r, k) for k in physical] == [getattr(base, k) for k in physical]


def test_ir_reduced_bounded_in_eps():
    vals = {}
    for eps in (0.02, 0.1):
        params = make_params(2, 1, eps)
        table = covariance_table(params)
        fc = flow_coefficients(table, params)
        v_star = find_fixed_point(fc, params)
        vals[eps] = phi2_ir_reduced(deviation_quadratic(v_star, fc, table, params)).value
    ratio = vals[0.02] / vals[0.1]
    assert 0.5 < ratio < 2.0


def test_xi_sequence_and_upsilon(m21):
    params, table, fc, v_star, alpha_u = m21
    orbit = stable_orbit(fc.gbar, fc, params)
    xis, xi_inf = xi_sequence_limit(orbit, fc, *mass_products(orbit, fc, alpha_u))
    # at the calibrator seed the sequence is constant at the analytic limit
    assert xi_inf == pytest.approx(2.0 * fc.a5 * v_star.mu, rel=1e-10)
    orbit2 = stable_orbit(1.05 * fc.gbar, fc, params)
    _, kappa, _ = t_infinity(orbit2, E_PHI2, fc, alpha_u)
    _, xi_inf2 = xi_sequence_limit(orbit2, fc, *mass_products(orbit2, fc, alpha_u))
    assert xi_inf2 == pytest.approx(kappa * 2.0 * fc.a5 * v_star.mu, rel=1e-9)


def test_normalization_identities(report21, m21):
    params, table, fc, v_star, alpha_u = m21
    r = report21
    L = float(params.L)
    assert r.norms.z2 * L ** (3 - 2 * params.phi_dim) == pytest.approx(r.alpha_u, rel=1e-13)
    assert r.norms.z2 == pytest.approx(L ** (-r.eta_phi2 / 2.0), rel=1e-12)
    assert r.norms.z0 == pytest.approx(r.alpha_u / L**3, rel=1e-14)
    assert r.norms.z0 == pytest.approx(0.3579, abs=1e-3)
    assert r.norms.y0 == pytest.approx(-(L**-3.0) * r.norms.y2 * r.norms.upsilon, rel=1e-13)


def test_two_point_normalized_and_one_point(report21):
    r = report21
    assert r.two_point_normalized == pytest.approx(1.0, abs=1e-10)
    assert abs(r.one_point_residual) <= 1e-8
    assert abs(r.norms.kappa) > 1e-3


def test_mini_universality(m21, report21):
    params, table, fc = m21[:3]
    r0 = report21
    for g_rel in (0.95, 1.05):
        r = full_report(params, table, fc, g_seed=g_rel * fc.gbar)
        assert abs(r.eta_phi2 - r0.eta_phi2) <= 1e-8
        assert abs(r.u2 - r0.u2) <= 1e-8
        assert abs(r.u4 - r0.u4) <= 1e-8
        assert abs(r.uv_reduced - r0.uv_reduced) <= 1e-8
        assert abs(r.ir_reduced - r0.ir_reduced) <= 1e-8
        assert abs(r.two_point_normalized - r0.two_point_normalized) <= 1e-8
        assert abs(r.one_point_residual) <= 1e-8
        assert abs(r.norms.kappa) > 1e-3


def test_one_point_tail_form_matches_naive_at_moderate_depth(m21, report21):
    # the y0 cancellation bookkeeping: naive partial sums with the explicit
    # counter-normalization equal the algebraically collapsed tail form
    params, table, fc, v_star, alpha_u = m21
    r = report21
    orbit = stable_orbit(fc.gbar, fc, params)
    xis, xi_inf = xi_sequence_limit(orbit, fc, *mass_products(orbit, fc, alpha_u))
    z0, y0, y2 = r.norms.z0, r.norms.y0, r.norms.y2
    depth = 10
    # naive: -y0 z0^r - y2 L^-3 z0^r sum_{n<-r} z0^n Xi_n, at r = -depth
    partial = sum(z0**n * (xis[n] if n < len(xis) else xis[-1]) for n in range(depth))
    naive = (-y0 - y2 * float(params.L) ** -3 * partial) * z0**-depth
    # collapsed: y2 L^-3 sum_k z0^k Xi_{k+depth}
    tailsum = sum(
        z0**k * (xis[k + depth] if k + depth < len(xis) else xis[-1]) for k in range(200)
    )
    collapsed = y2 * float(params.L) ** -3 * tailsum
    assert naive == pytest.approx(collapsed, rel=1e-6)
    # and the r -> -infty limit of the tail form is the uv piece used in the
    # one-point assembly
    limit = y2 * float(params.L) ** -3 * xi_inf / (1 - z0)
    assert collapsed == pytest.approx(limit, rel=1e-6)


def test_report_error_bands(report21):
    r = report21
    assert set(r.error_bands) == {"implicit_order", "ir_tail"}
    assert r.error_bands["implicit_order"] > 0


def test_uv_reduced_self_check_guards_bad_theta(m21):
    # the finite-difference oracle of the UV piece rejects a wrong curvature
    params, table, fc, v_star, alpha_u = m21
    bad_theta = BulkVector(0.0, 0.5)
    with pytest.raises(SelfCheckError):
        uv_reduced_oracle(fc, alpha_u, bad_theta, v_star, params)
    # and the honest theta passes it, at the closed form's value
    theta = theta_vector(fc, alpha_u, E_PHI2, jacobian_at(v_star, fc))
    uv = uv_reduced_oracle(fc, alpha_u, theta, v_star, params)
    assert uv == phi2_uv_reduced(fc, alpha_u, params)


UV_GRID = [(p, l, eps) for p in (2, 3, 5, 7) for l in (1, 2) for eps in (0.01, 0.1, 0.5)]


def _bulk_point(p, l, eps):
    params = make_params(p, l, eps)
    fc = flow_coefficients(covariance_table(params), params)
    v_star = find_fixed_point(fc, params)
    return params, fc, v_star, unstable_eigenvalue(fc)


@pytest.mark.parametrize("point", UV_GRID, ids=lambda p: "-".join(map(str, p)))
def test_uv_reduced_matches_fd_oracle(point):
    # 2 a5 / (alpha_u^2 - L^3) against the Richardson second difference of
    # the vacuum term along the double iteration psi(v*, z e_u)
    params, fc, v_star, alpha_u = _bulk_point(*point)
    uv = phi2_uv_reduced(fc, alpha_u, params)
    oracle = psi_vacuum_second_derivative(fc, alpha_u, v_star, params) / (alpha_u**2 - float(params.L) ** 3)
    assert abs(uv - oracle) <= 1e-6 * abs(uv)
    # the conjugating map has no quadratic term along e_u = (0, 1): that is
    # why the UV piece is this closed form and the IR seed has b_0 = 0
    theta = theta_vector(fc, alpha_u, E_PHI2, jacobian_at(v_star, fc))
    assert (theta.delta_g, theta.mu) == (0.0, 0.0)


STEP_POINTS = [(2, l) for l in range(1, 6)] + [(3, l) for l in (1, 2, 3)] + [(5, 1), (5, 2), (7, 1), (7, 2)]


@pytest.mark.parametrize("point", STEP_POINTS, ids=lambda p: "-".join(map(str, p)))
def test_closed_form_step_matches_deviation_step(point):
    # the closed-form step M x + Q(x, x) against one direct deviation step,
    # the deviated and the bulk block over per-box arrays, at every box
    # count p^(3l) <= 117649 with p <= 7
    p, l = point
    probe = np.linspace(1.0, -0.5, 6)
    for eps in (0.05, 0.1, 0.3):
        params = make_params(p, l, eps)
        table = covariance_table(params)
        fc = flow_coefficients(table, params)
        v_star = find_fixed_point(fc, params)
        dq = deviation_quadratic(v_star, fc, table, params)
        direct = deviation_step(v_star, DeviationVector(*probe), fc, table, params).as_array()[:6]
        assert np.max(np.abs(quadratic_step(dq, probe) - direct)) <= 1e-13 * np.max(np.abs(direct)), eps


def test_full_report_second_eps():
    params = make_params(2, 1, 0.05)
    table = covariance_table(params)
    r = full_report(params, table, flow_coefficients(table, params))
    assert abs(r.two_point_normalized - 1.0) <= 1e-10
    assert abs(r.one_point_residual) <= 1e-8
    assert r.u4 <= -r.gbar / 3.0
    assert r.eta_phi2 / 0.05 == pytest.approx(0.659, abs=1e-3)


def test_uv_series_assembly_matches_direct_sum(m21):
    # the closed 1/(alpha^2 - L^3) assembly against a literal partial sum of
    # the ultraviolet scale series, term by term through the conjugated line
    params, table, fc, v_star, alpha_u = m21
    uv = phi2_uv_reduced(fc, alpha_u, params)
    h = 1e-3
    total = 0.0
    m_max = 8  # deeper scales fall below difference rounding at fixed stencil
    for m in range(1, m_max + 1):
        scale = alpha_u**-m

        def f(z):
            w = BulkVector(scale * z * E_PHI2.delta_g, scale * z * E_PHI2.mu)
            val, _, _ = psi_fixed_seed(w, fc, params, v_star, alpha_u)
            return delta_b_value(val, fc)

        d2 = (f(h) - 2.0 * f(0.0) + f(-h)) / h**2
        total += float(params.L) ** (3 * (m - 1)) * d2
    partial = uv * (1.0 - (params.L**3 / alpha_u**2) ** m_max)
    assert total == pytest.approx(partial, rel=1e-6)


@pytest.mark.parametrize(
    "point", [(7, 1, 0.1), (3, 2, 0.1), (11, 3, 0.1), (101, 3, 0.01)], ids=lambda p: "-".join(map(str, p))
)
def test_full_report_needs_no_block_matrix(point, monkeypatch):
    # the report is closed forms and two small solves: with its scalar
    # covariance table it never runs the block engine and allocates nothing
    # per box, up to about 1.8e9 and 1.1e18 boxes at (11, 3) and (101, 3)
    import tracemalloc

    import hrg.rg

    steps = []
    block_step = hrg.rg.block_step

    def counting_step(*args, **kwargs):
        steps.append(1)
        return block_step(*args, **kwargs)

    monkeypatch.setattr(hrg.rg, "block_step", counting_step)
    params = make_params(*point)
    tracemalloc.start()
    try:
        table = covariance_table(params)
        report = full_report(params, table, flow_coefficients(table, params))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(steps) == 0
    assert peak < 2**20
    assert report.two_point_normalized == pytest.approx(1.0, abs=1e-10)


def test_ir_reduced_contraction_guard(m21):
    from hrg.errors import ContractionError

    params, table, fc, v_star, alpha_u = m21
    # a strongly coupled background is not a contraction point of the
    # deviation flow; the guard must refuse rather than sum a divergent series
    far = BulkVector(1.0, 0.0)
    with pytest.raises(ContractionError):
        phi2_ir_reduced(deviation_quadratic(far, fc, table, params))

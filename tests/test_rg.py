from math import factorial

import numpy as np
import pytest

from hrg.covariance import covariance_table
from hrg.errors import BlowUpError
from hrg.geometry import make_params
from hrg.rg import (
    BlockCouplings,
    BulkVector,
    DeviationVector,
    block_step,
    bulk_step,
    cumulant_oracle,
    deviation_quadratic,
    deviation_step,
    deviation_vacuum,
    flow_coefficients,
    second_order_counterterms,
    uv_explicit_series,
)
from hrg.wick import connection_coeff
import exact_block
from oracles import (
    block_matrix,
    dense_block_outputs,
    dense_counterterms,
    dense_deviation_quadratic,
    dense_graph_tensor_quadratic,
    dense_powers,
)


@pytest.fixture(scope="module")
def m21():
    params = make_params(2, 1, 0.1)
    table = covariance_table(params)
    fc = flow_coefficients(table, params)
    return params, table, fc


def test_flow_coefficients_frozen_values(m21):
    params, table, fc = m21
    assert fc.a1 == pytest.approx(33.760864, rel=1e-6)
    assert fc.a2 == pytest.approx(278.620707, rel=1e-6)
    assert fc.a3 == pytest.approx(30.745800, rel=1e-6)
    assert fc.a4 == pytest.approx(312.361639, rel=1e-6)
    assert fc.a5 == pytest.approx(7.0, abs=1e-12)
    assert fc.gbar == pytest.approx(2.1259368e-3, rel=1e-6)
    # calibrator identities
    assert fc.gbar * fc.a1 == pytest.approx(params.l_eps - 1.0, rel=1e-12)
    pf = float(params.p)
    closed = (pf**params.eps - 1.0) / (36.0 * params.l_eps * (1.0 - pf**-3))
    assert fc.gbar == pytest.approx(closed, rel=1e-12)
    assert fc.a3 == pytest.approx(12.0 * params.lam_mu_free * table.s_moments[2], rel=1e-12)
    assert fc.a5 == pytest.approx(params.L**3 * table.s_moments[2], rel=1e-12)


def test_bulk_step_examples(m21):
    params, table, fc = m21
    mu_star = fc.a2 * fc.gbar**2 / (params.lam_mu_free - 1.0 - fc.a3 * fc.gbar)
    assert mu_star == pytest.approx(6.76e-4, rel=1e-2)
    out, db = bulk_step(BulkVector(0.0, mu_star), fc, params)
    assert out.delta_g == pytest.approx(0.0, abs=1e-12)
    assert out.mu == pytest.approx(mu_star, abs=1e-12)
    out, db = bulk_step(BulkVector(0.0, 0.0), fc, params)
    assert out.delta_g == 0.0
    assert out.mu == pytest.approx(-fc.a2 * fc.gbar**2, rel=1e-14)
    assert db == pytest.approx(fc.a4 * fc.gbar**2, rel=1e-14)


def test_bulk_step_guards(m21):
    params, table, fc = m21
    with pytest.raises(BlowUpError):
        bulk_step(BulkVector(2e6, 0.0), fc, params)


# ---------------------------------------------------------------------------
# brute-force graph oracle (independent loop implementation of the
# counterterm formulas; legs factorize because they attach independently)


def _brute_counterterms(bc, table, params):
    n = params.n_boxes
    G = block_matrix(table)
    L = float(params.L)
    phi = params.phi_dim
    c0 = table.c0_zero
    beta = {1: bc.beta1, 2: bc.beta2, 3: bc.beta3, 4: bc.beta4}
    w = {5: bc.w5, 6: bc.w6}
    leg = [sum(G[x, y] * bc.f[y] for y in range(n)) for x in range(n)]

    dbeta1 = {k: 0.0 for k in range(5)}
    for k in range(5):
        for b in range(1, 5 - k):
            coef = factorial(k + b) / (factorial(k) * factorial(b))
            graph = sum(beta[k + b][x] * leg[x] ** b for x in range(n))
            dbeta1[k] -= coef * L ** (-k * phi) * graph

    dbeta2 = {k: 0.0 for k in range(5)}
    for b1 in range(1, 5):
        for a1 in range(0, 5 - b1):
            for b2 in range(1, 5):
                for a2 in range(0, 5 - b2):
                    for m in range(1, min(b1, b2) + 1):
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
                        graph = 0.0
                        for x1 in range(n):
                            for x2 in range(n):
                                graph += (
                                    beta[a1 + b1][x1]
                                    * beta[a2 + b2][x2]
                                    * G[x1, x2] ** m
                                    * leg[x1] ** (b1 - m)
                                    * leg[x2] ** (b2 - m)
                                )
                        for k in range(5):
                            cc = connection_coeff(a1, a2, k)
                            if cc:
                                dbeta2[k] += (
                                    0.5
                                    * base
                                    * cc
                                    * L ** (-(a1 + a2) * phi)
                                    * c0 ** ((a1 + a2 - k) // 2)
                                    * graph
                                )
    for k in range(5):
        for b in range(1, 7):
            if k + b in (5, 6):
                coef = factorial(k + b) / (factorial(k) * factorial(b))
                graph = sum(w[k + b][x] * leg[x] ** b for x in range(n))
                dbeta2[k] += coef * L ** (-k * phi) * graph

    w6_out = L ** (3 - 6 * phi) * float(np.mean(bc.w6)) + 8.0 * L ** (-6 * phi) * sum(
        bc.beta4[x] * G[x, y] * bc.beta4[y] for x in range(n) for y in range(n)
    )
    w5_out = (
        L ** (3 - 5 * phi) * float(np.mean(bc.w5))
        + 6.0 * L ** (-5 * phi) * sum(bc.w6[x] * leg[x] for x in range(n))
        + 12.0 * L ** (-5 * phi)
        * sum(bc.beta4[x] * G[x, y] * bc.beta3[y] for x in range(n) for y in range(n))
        + 48.0 * L ** (-5 * phi)
        * sum(
            bc.beta4[x] * G[x, y] * bc.beta4[y] * G[y, z] * bc.f[z]
            for x in range(n)
            for y in range(n)
            for z in range(n)
        )
    )
    f_out = L ** (3 - phi) * float(np.mean(bc.f))
    return dbeta1, dbeta2, w5_out, w6_out, f_out


def _random_block(params, rng, scale=0.5):
    n = params.n_boxes
    return BlockCouplings(
        beta4=scale * rng.standard_normal(n),
        beta3=scale * rng.standard_normal(n),
        beta2=scale * rng.standard_normal(n),
        beta1=scale * rng.standard_normal(n),
        w5=scale * rng.standard_normal(n),
        w6=scale * rng.standard_normal(n),
        f=scale * rng.standard_normal(n),
    )


@pytest.mark.parametrize("p,seed", [(2, 5), (2, 6), (3, 5)])
def test_counterterms_match_brute_force(p, seed):
    params = make_params(p, 1, 0.17)
    table = covariance_table(params)
    rng = np.random.default_rng(seed)
    bc = _random_block(params, rng)
    got = second_order_counterterms(bc, table, params)
    want = _brute_counterterms(bc, table, params)
    for k in range(5):
        assert got[0][k] == pytest.approx(want[0][k], rel=1e-11, abs=1e-12)
        assert got[1][k] == pytest.approx(want[1][k], rel=1e-11, abs=1e-12)
    assert got[2] == pytest.approx(want[2], rel=1e-11, abs=1e-12)
    assert got[3] == pytest.approx(want[3], rel=1e-11, abs=1e-12)
    assert got[4] == pytest.approx(want[4], rel=1e-12, abs=1e-14)


def test_leg_factorization_is_exact_tuple_sum(m21):
    # two-leg order-1 graph versus a literal sum over leg tuples
    params, table, fc = m21
    rng = np.random.default_rng(9)
    bc = _random_block(params, rng)
    n = params.n_boxes
    G = block_matrix(table)
    literal = 0.0
    for x in range(n):
        for y1 in range(n):
            for y2 in range(n):
                literal += bc.beta4[x] * G[x, y1] * bc.f[y1] * G[x, y2] * bc.f[y2]
    leg = G @ bc.f
    assert float(np.sum(bc.beta4 * leg**2)) == pytest.approx(literal, rel=1e-12)


def test_homogeneous_block_equals_bulk(m21):
    params, table, fc = m21
    for (g, mu) in [(fc.gbar, 0.0), (0.004, 0.001), (0.5, -0.2)]:
        bc = BlockCouplings.homogeneous(params, g, mu)
        out = block_step(bc, table, params)
        v2, db2 = bulk_step(BulkVector(g - fc.gbar, mu), fc, params)
        assert out.beta4 == pytest.approx(fc.gbar + v2.delta_g, rel=1e-12, abs=1e-15)
        assert out.beta2 == pytest.approx(v2.mu, rel=1e-12, abs=1e-15)
        assert out.delta_b == pytest.approx(db2, rel=1e-12, abs=1e-15)
        assert abs(out.beta3) < 1e-12 and abs(out.beta1) < 1e-12
        assert abs(out.w5) < 1e-12 and abs(out.w6) < 1e-12
        assert out.f == 0.0


def test_bulk_deviation_consistency(m21):
    # a block-constant shift processed by the per-box engine agrees with the
    # bulk step of the shifted couplings; at small amplitude the shift acts
    # linearly on the bulk flow
    from hrg.dynamics import find_fixed_point, jacobian_at

    params, table, fc = m21
    v = find_fixed_point(fc, params)
    amp = 1e-6
    w = (amp, amp)
    shifted = BulkVector(v.delta_g + w[0], v.mu + w[1])
    bc = BlockCouplings.homogeneous(params, fc.gbar + shifted.delta_g, shifted.mu)
    out = block_step(bc, table, params)
    direct, db = bulk_step(shifted, fc, params)
    assert out.beta4 - fc.gbar == pytest.approx(direct.delta_g, abs=1e-12)
    assert out.beta2 == pytest.approx(direct.mu, abs=1e-12)
    assert out.delta_b == pytest.approx(db, abs=1e-12)
    base, _ = bulk_step(v, fc, params)
    lin = jacobian_at(v, fc) @ np.array(w)
    assert abs(direct.delta_g - base.delta_g - lin[0]) <= 1e-8
    assert abs(direct.mu - base.mu - lin[1]) <= 1e-8


def test_constant_f_decouples(m21):
    params, table, fc = m21
    g, mu, fval = 0.3, -0.1, 0.7
    bc0 = BlockCouplings.homogeneous(params, g, mu)
    bc1 = BlockCouplings.homogeneous(params, g, mu)
    bc1.f[:] = fval
    d1_0, d2_0, w5_0, w6_0, _ = second_order_counterterms(bc0, table, params)
    d1_1, d2_1, w5_1, w6_1, f_out = second_order_counterterms(bc1, table, params)
    for k in range(5):
        assert d1_1[k] == pytest.approx(0.0, abs=1e-12)
        assert d2_1[k] == pytest.approx(d2_0[k], rel=1e-12, abs=1e-12)
    assert w5_1 == pytest.approx(w5_0, abs=1e-12)
    assert f_out == pytest.approx(float(params.L) ** (3 - params.phi_dim) * fval, rel=1e-14)


def _even_z_coeff(fn, z1=0.5, z2=0.25):
    # exact z^2 coefficient of an even polynomial with powers z^2 and z^4
    e1 = 0.5 * (fn(z1) + fn(-z1))
    e2 = 0.5 * (fn(z2) + fn(-z2))
    m = np.array([[z1**2, z1**4], [z2**2, z2**4]])
    return float(np.linalg.solve(m, np.array([e1, e2]))[0])


def test_point_f_seed_generates_uv_mass_term(m21):
    # k=2 output of the counterterm engine for a single deviated box with a
    # source value carries the closed-form seed 6 z^2 g L^(-2 phi) S2,
    # as the part linear in the background coupling
    params, table, fc = m21

    def c2_at(g):
        def f(z):
            vb = BulkVector(g - fc.gbar, 0.0)
            return deviation_step(vb, DeviationVector(f_dot=z), fc, table, params).beta2_dot

        return _even_z_coeff(f)

    linear = (c2_at(1.0) - c2_at(-1.0)) / 2.0
    expected = 6.0 * float(params.L) ** (-2 * params.phi_dim) * table.s_moments[2]
    assert linear == pytest.approx(expected, rel=1e-11)
    beta_exp, _ = uv_explicit_series(params, table, 1.0, 1, 1.0)
    assert beta_exp[2] == pytest.approx(expected, rel=1e-14)


def test_deviation_zero_maps_to_zero(m21):
    params, table, fc = m21
    out = deviation_step(BulkVector(0.001, 0.0005), DeviationVector(), fc, table, params)
    assert np.max(np.abs(out.as_array())) == 0.0
    assert deviation_vacuum(BulkVector(0.001, 0.0005), DeviationVector(), fc, table, params) == 0.0


def test_deviation_linearization_is_scaled_bulk_jacobian(m21):
    # linearized deviation flow on the quartic/mass pair equals L^-3 times
    # the bulk Jacobian at the same background
    from hrg.dynamics import find_fixed_point, jacobian_at

    params, table, fc = m21
    v_star = find_fixed_point(fc, params)
    j_bulk = jacobian_at(v_star, fc)
    amp = 1e-5
    cols = []
    for i in (0, 2):
        up = [0.0] * 7
        up[i] = amp
        dn = [0.0] * 7
        dn[i] = -amp
        out_u = deviation_step(v_star, DeviationVector(*up), fc, table, params)
        out_d = deviation_step(v_star, DeviationVector(*dn), fc, table, params)
        cols.append(
            np.array(
                [out_u.beta4_dot - out_d.beta4_dot, out_u.beta2_dot - out_d.beta2_dot]
            )
            / (2 * amp)
        )
    j_dev = np.stack(cols, axis=1)
    assert np.allclose(j_dev, j_bulk / params.L**3, atol=1e-9 * max(1.0, np.max(np.abs(j_bulk))))


def test_deviation_linear_map_contracts(m21):
    params, table, fc = m21
    from hrg.dynamics import find_fixed_point

    v_star = find_fixed_point(fc, params)
    amp = 1e-7
    cols = []
    for i in range(7):
        comps = [0.0] * 7
        comps[i] = amp
        out = deviation_step(v_star, DeviationVector(*comps), fc, table, params)
        cols.append(out.as_array() / amp)
    m = np.stack(cols, axis=1)
    radius = np.max(np.abs(np.linalg.eigvals(m)))
    assert radius < 15.0 / 16.0
    # the polarized map's radius, with f's own multiplier L^-phi, is the same
    dq = deviation_quadratic(v_star, fc, table, params)
    assert dq.spectral_radius() == pytest.approx(radius, rel=1e-6)


@pytest.mark.parametrize(
    "point", [(2, 1, 0.1), (3, 1, 0.1), (2, 2, 0.1), (5, 1, 0.05)], ids=lambda p: "-".join(map(str, p))
)
def test_deviation_quadratic_reproduces_dense_step(point):
    from hrg.dynamics import find_fixed_point

    params = make_params(*point)
    table = covariance_table(params)
    fc = flow_coefficients(table, params)
    v_star = find_fixed_point(fc, params)
    dq = deviation_quadratic(v_star, fc, table, params)
    for got, want in zip((dq.m, dq.q, dq.c, dq.r), dense_deviation_quadratic(v_star, fc, table, params)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    rng = np.random.default_rng(7)
    # below scale 0.1 the oracle's own difference of two block vacua
    # (rounding about eps * |delta_b| ~ 1e-18) exceeds 1e-12 of the result
    for scale in (0.1, 1.0, 10.0):
        for _ in range(3):
            x = scale * rng.standard_normal(6)
            dv = DeviationVector(*x)
            direct = deviation_step(v_star, dv, fc, table, params).as_array()
            assert direct[6] == 0.0  # f stays 0
            assert np.max(np.abs(dq.step(x) - direct[:6])) <= 1e-12 * np.max(np.abs(direct))
            vac = deviation_vacuum(v_star, dv, fc, table, params)
            assert abs(dq.c @ x + x @ dq.r @ x - vac) <= 1e-12 * abs(vac)


PRIMES_TO_101 = [p for p in range(2, 102) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_deviation_linear_map_is_lower_triangular_on_the_mass_line(p):
    # Gamma integrates to zero (S_1 = 0) and parity keeps the odd couplings
    # at zero, so M has exact zeros above its diagonal and in its beta2
    # column off the diagonal, M e_2 = m22 e_2, at the fixed point and off it;
    # its spectral radius is then read off the diagonal
    from hrg.dynamics import find_fixed_point

    for l in (1, 2, 3, 4):
        for eps in (0.01, 0.3, 1.0):
            params = make_params(p, l, eps, box_budget=None)
            table = covariance_table(params)
            fc = flow_coefficients(table, params)
            v_star = find_fixed_point(fc, params)
            dg, mu = 0.05 * fc.gbar, 0.5 * v_star.mu
            for dv in ((0.0, 0.0), (dg, 0.0), (-dg, 0.0), (0.0, mu), (0.0, -mu)):
                v = BulkVector(v_star.delta_g + dv[0], v_star.mu + dv[1])
                m = deviation_quadratic(v, fc, table, params).m
                off_mass = np.delete(m[:, 2], 2)
                assert np.all(np.triu(m, 1) == 0.0) and np.all(off_mass == 0.0), (l, eps, dv)
            dq = deviation_quadratic(v_star, fc, table, params)
            radius = max(float(np.max(np.abs(np.linalg.eigvals(dq.m)))), dq.lam_f)
            assert dq.spectral_radius() == pytest.approx(radius, rel=1e-14), (l, eps)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_graph_list_matches_dense_graph_tensor(p):
    # the nonzero graphs binned one by one against the dense symmetrized
    # graph tensor contracted by einsum and matmul, at the fixed point and
    # off it: the same exact zeros, and each map within 4 ulp of its largest
    # entry (the two routes sum the graphs in different orders)
    from hrg.dynamics import find_fixed_point

    for l in (1, 2, 3):
        for eps in (1e-3, 0.01, 0.1, 0.5, 1.0):
            params = make_params(p, l, eps, box_budget=None)
            table = covariance_table(params)
            fc = flow_coefficients(table, params)
            v_star = find_fixed_point(fc, params)
            for v in (v_star, BulkVector(0.3 * fc.gbar, -2.0 * v_star.mu), BulkVector(-0.05 * fc.gbar, 0.5 * v_star.mu)):
                dq = deviation_quadratic(v, fc, table, params)
                for got, want in zip((dq.m, dq.q, dq.c, dq.r), dense_graph_tensor_quadratic(v, fc, table, params)):
                    assert np.array_equal(got != 0.0, want != 0.0), (l, eps, v)
                    assert np.max(np.abs(got - want)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(want)), (l, eps, v)


# every (p, l) whose dense block matrix has at most 729 x 729 entries
DENSE_PL = [(p, l) for p in (2, 3, 5, 7) for l in (1, 2, 3) if p ** (3 * l) <= 729]


@pytest.mark.parametrize("p,l", DENSE_PL, ids=lambda v: str(v))
def test_deviation_quadratic_matches_dense_polarization(p, l):
    # the closed-form M, Q, c and R against 28 dense block steps, at the
    # fixed point and off it, for a small and a large eps
    from hrg.dynamics import find_fixed_point

    for eps in (0.05, 0.5):
        params = make_params(p, l, eps)
        table = covariance_table(params)
        fc = flow_coefficients(table, params)
        v_star = find_fixed_point(fc, params)
        for v in (v_star, BulkVector(0.3 * fc.gbar, -2.0 * v_star.mu)):
            dq = deviation_quadratic(v, fc, table, params)
            for got, want in zip((dq.m, dq.q, dq.c, dq.r), dense_deviation_quadratic(v, fc, table, params)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (eps, v)


@pytest.mark.parametrize("p,l", DENSE_PL, ids=lambda v: str(v))
def test_block_step_matches_dense_counterterms(p, l):
    # level-by-level graph sums against products through the dense matrix,
    # at random per-box couplings with f, w5 and w6 nonzero so the G f and
    # W legs all contribute
    params = make_params(p, l, 0.17)
    table = covariance_table(params)
    bc = _random_block(params, np.random.default_rng(11))
    gpow = dense_powers(table)
    d1, d2, w5, w6, f = second_order_counterterms(bc, table, params)
    o1, o2, ow5, ow6, of = dense_counterterms(bc, gpow, table, params)
    got = np.array([d1[k] for k in range(5)] + [d2[k] for k in range(5)] + [w5, w6, f])
    want = np.array([o1[k] for k in range(5)] + [o2[k] for k in range(5)] + [ow5, ow6, of])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    out = block_step(bc, table, params)
    want_out = dense_block_outputs(bc, gpow, table, params)
    assert np.max(np.abs(np.append(out.as_array(), out.delta_b) - want_out)) <= 1e-12 * np.max(np.abs(want_out))


def test_mass_deviation_cross_terms(m21):
    # beta2' for a pure mass deviation: linear part L^(-2 phi) - A3 g / L^3,
    # quadratic part carries the same-box pair graphs
    params, table, fc = m21
    from hrg.dynamics import find_fixed_point

    v_star = find_fixed_point(fc, params)

    def f(z):
        return deviation_step(v_star, DeviationVector(beta2_dot=z), fc, table, params).beta2_dot

    h = 1e-6
    lin = (f(h) - f(-h)) / (2 * h)
    expected = (
        float(params.L) ** (-2 * params.phi_dim)
        - fc.a3 * (fc.gbar + v_star.delta_g) / params.L**3
    )
    assert lin == pytest.approx(expected, rel=1e-7)


# ---------------------------------------------------------------------------
# explicit ultraviolet series


def _uv_recursion_oracle(params, table, g_star, mu_star, z, q_max):
    """Per-step recursion for the explicit couplings with the point source."""
    L = float(params.L)
    phi = params.phi_dim
    n = params.n_boxes
    G = block_matrix(table)
    from math import comb

    def F(k, l, beta_vec, f_vec):
        leg = G @ f_vec
        return comb(l, k) * float(np.sum(beta_vec * leg ** (l - k)))

    beta_star = {4: g_star, 3: 0.0, 2: mu_star, 1: 0.0}
    exp_part = {k: 0.0 for k in range(1, 5)}
    out = []
    for q in range(q_max + 1):
        f_vec = np.zeros(n)
        f_vec[0] = z * L ** (-q * phi)
        db = 0.0
        for l in range(1, 5):
            beta_vec = np.full(n, beta_star[l])
            beta_vec[0] += exp_part[l]
            db -= F(0, l, beta_vec, f_vec)
        out.append((dict(exp_part), db))
        new_exp = {}
        for k in range(1, 5):
            acc = L ** (-k * phi) * exp_part[k]
            for l in range(k + 1, 5):
                beta_vec = np.full(n, beta_star[l])
                beta_vec[0] += exp_part[l]
                acc += L ** (-k * phi) * F(k, l, beta_vec, f_vec)
            new_exp[k] = acc
        exp_part = new_exp
    return out


def test_uv_series_against_recursion(m21):
    params, table, fc = m21
    g_star, mu_star, z = 0.0021, 6.76e-4, 0.8
    orc = _uv_recursion_oracle(params, table, g_star, mu_star, z, 8)
    for q in range(9):
        beta_exp, db_exp = uv_explicit_series(params, table, g_star, q, z, mu_star=mu_star)
        for k in range(1, 5):
            assert beta_exp[k] == pytest.approx(orc[q][0][k], rel=1e-12, abs=1e-15), (q, k)
        assert db_exp == pytest.approx(orc[q][1], rel=1e-12, abs=1e-15), q


def test_uv_series_examples(m21):
    params, table, fc = m21
    beta0, db0 = uv_explicit_series(params, table, 0.002, 0, 1.0, mu_star=6.7e-4)
    assert all(v == 0.0 for v in beta0.values())
    # the couplings start at zero; the vacuum term already carries the
    # first source graphs
    assert db0 == pytest.approx(-0.002 * table.s_moments[4] - 6.7e-4 * table.s_moments[2], rel=1e-13)
    b1, _ = uv_explicit_series(params, table, 0.002, 1, 1.0)
    x = float(params.L) ** (-2 * params.phi_dim)
    assert b1[2] == pytest.approx(6.0 * x * 0.002 * table.s_moments[2], rel=1e-14)
    b2, _ = uv_explicit_series(params, table, 0.002, 2, 1.0)
    assert b2[2] / b1[2] == pytest.approx(2.0 * x, rel=1e-12)
    assert b1[4] == 0.0 and b1[3] == 0.0


def test_uv_series_mass_term_in_vacuum(m21):
    params, table, fc = m21
    x = float(params.L) ** (-2 * params.phi_dim)
    _, db_a = uv_explicit_series(params, table, 0.0, 3, 0.5, mu_star=0.0)
    _, db_b = uv_explicit_series(params, table, 0.0, 3, 0.5, mu_star=2.0)
    assert db_b - db_a == pytest.approx(-(0.5**2) * 2.0 * x**3 * table.s_moments[2], rel=1e-13)


def test_deviation_orbit_reproduces_uv_series_linear_part(m21):
    # two deviation steps from a source-only seed; the part linear in the
    # background coupling is the closed-form explicit series at q=2
    params, table, fc = m21

    def c2_two_steps(g):
        def f(z):
            vb = BulkVector(g - fc.gbar, 0.0)
            dv = DeviationVector(f_dot=z)
            dv = deviation_step(vb, dv, fc, table, params)
            dv = deviation_step(vb, dv, fc, table, params)
            return dv.beta2_dot

        return _even_z_coeff(f)

    # beta2 z^2-coefficient after two steps is polynomial in g of degree <= 3
    gs = [1.0, -1.0, 0.5, -0.5]
    vals = [c2_two_steps(g) for g in gs]
    design = np.array([[g, g**2, g**3] for g in gs])
    sol, *_ = np.linalg.lstsq(design, np.array(vals), rcond=None)
    beta_exp, _ = uv_explicit_series(params, table, 1.0, 2, 1.0)
    assert sol[0] == pytest.approx(beta_exp[2], rel=1e-9)


# ---------------------------------------------------------------------------
# cumulant oracle


GRID = [(p, l, e) for p in (2, 3) for l in (1, 2) for e in (0.05, 0.1, 0.5)]


@pytest.mark.parametrize("p,l,eps", GRID)
def test_cumulant_oracle_equivalence(p, l, eps):
    params = make_params(p, l, eps)
    table = covariance_table(params)
    fc = flow_coefficients(table, params)
    oc = cumulant_oracle(table, params)
    for name in ("a1", "a2", "a3", "a4", "a5"):
        assert getattr(oc, name) == pytest.approx(getattr(fc, name), rel=1e-10), name


def test_cumulant_oracle_vacuum_mass_channel():
    params = make_params(2, 1, 0.1)
    table = covariance_table(params)
    oc = cumulant_oracle(table, params)
    assert oc.a5 == pytest.approx(7.0, rel=1e-12)


# ---------------------------------------------------------------------------
# exact one-block integral (l = 1)


EXACT_POINTS = [(2, 1, 0.1), (3, 1, 0.3), (5, 1, 0.1), (7, 1, 0.03)]


def test_exact_block_free_theory_is_exact():
    # z = 1 on every box integrates to 1 at every background
    for p in (2, 7):
        assert np.max(np.abs(exact_block.block_integral(np.ones_like(exact_block.U), p, 0.1) - 1.0)) < 1e-10
    with pytest.raises(ValueError):
        exact_block.c0_zero(2, 2, 0.1)


def test_exact_block_c0_matches_table():
    for p, l, eps in EXACT_POINTS:
        table = covariance_table(make_params(p, l, eps))
        assert exact_block.c0_zero(p, l, eps) == pytest.approx(table.c0_zero, rel=1e-14)


@pytest.mark.parametrize("p,l,eps", EXACT_POINTS)
def test_exact_block_reproduces_flow_coefficients(p, l, eps):
    params = make_params(p, l, eps)
    fc = flow_coefficients(covariance_table(params), params)
    L, phi = float(params.L), params.phi_dim
    want = {"a1": fc.a1, "a2": fc.a2, "a3": fc.a3, "a4": fc.a4, "a5": fc.a5,
            "L^(3-4phi)": L ** (3 - 4 * phi), "L^(3-2phi)": L ** (3 - 2 * phi)}
    got = exact_block.flow_coefficients(p, l, eps)
    for name, value in want.items():
        assert got[name] == pytest.approx(value, rel=1e-5), name

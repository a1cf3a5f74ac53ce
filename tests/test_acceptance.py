"""Acceptance suite: one test per numbered criterion, each printing a
PASS line with the checked quantities.  Tolerances are pinned here and
nowhere else."""

from fractions import Fraction

import numpy as np
import pytest

from hrg.covariance import covariance_table, gamma_value
from hrg.errors import DomainError
from hrg.geometry import distance_class_sizes, make_params
from hrg.mc import sample_hierarchical_field, validate
from hrg.observables import eta_phi2, full_report, phi2_ir_reduced, phi2_uv_reduced, u_values
from hrg.rg import BulkVector, cumulant_oracle, flow_coefficients
from hrg.wick import WickPoly, connection_coeff, monomial_to_wick, wick_product, wick_to_monomial
from hrg.dynamics import (
    critical_mass,
    find_fixed_point,
    jacobian_at,
    koenigs_psi,
    psi_fixed_seed,
    stable_orbit,
    unstable_eigenpair,
)
from oracles import delta_b_value, gamma_series_value, measure_contraction, newton_fixed_point, theta_vector

GRID = [
    (p, l, eps)
    for p in (2, 3, 5)
    for l in (1, 2)
    for eps in (0.01, 0.1, 0.5, 1.0)
]


def _params(p, l, eps):
    return make_params(p, l, eps, box_budget=20000)


@pytest.fixture(scope="module")
def standard_point():
    params = make_params(2, 1, 0.1)
    table = covariance_table(params)
    fc = flow_coefficients(table, params)
    v_star = find_fixed_point(fc, params)
    eig = unstable_eigenpair(jacobian_at(v_star, fc))
    return params, table, fc, v_star, eig


def test_criterion_01_covariance_exactness():
    worst_s1, worst_s2, worst_eq = 0.0, 0.0, 0.0
    for p, l, eps in GRID:
        mp = _params(p, l, eps)
        t = covariance_table(mp)
        assert t.s_moments[1] == 0.0
        s1 = gamma_value(mp, 0) + sum(gamma_value(mp, i) * n for i, n in enumerate(distance_class_sizes(mp), start=1))
        worst_s1 = max(worst_s1, abs(s1))
        pf = float(p)
        s2_closed = (1 - pf**-3) * (float(mp.L) ** eps - 1) / (pf**eps - 1)
        worst_s2 = max(worst_s2, abs(t.s_moments[2] - s2_closed) / s2_closed)
        for shell in range(0, l + 2):
            worst_eq = max(worst_eq, abs(gamma_value(mp, shell) - gamma_series_value(mp, shell)))
    assert worst_s1 <= 1e-12
    assert worst_s2 <= 1e-12
    assert worst_eq <= 1e-12
    print(
        f"criterion 01 PASS: S1<= {worst_s1:.2e}, S2 rel err <= {worst_s2:.2e}, "
        f"evaluator gap <= {worst_eq:.2e} over {len(GRID)} grid points"
    )


def test_criterion_02_c0_zero_window():
    lo, hi = 2.0, 1.0
    for p, l, eps in GRID:
        t = covariance_table(_params(p, l, eps))
        lo = min(lo, t.c0_zero)
        hi = max(hi, t.c0_zero)
        assert 1.0 < t.c0_zero < 2.0
    print(f"criterion 02 PASS: C0(0) in ({lo:.6f}, {hi:.6f}) subset (1, 2)")


def test_criterion_03_oracle_equivalence():
    worst = 0.0
    for p, l, eps in GRID:
        mp = _params(p, l, eps)
        t = covariance_table(mp)
        fc = flow_coefficients(t, mp)
        oc = cumulant_oracle(t, mp)
        for name in ("a1", "a2", "a3", "a4", "a5"):
            rel = abs(getattr(oc, name) - getattr(fc, name)) / abs(getattr(fc, name))
            worst = max(worst, rel)
    assert worst <= 1e-10
    print(f"criterion 03 PASS: cumulant oracle matches A1..A5, worst rel err {worst:.2e}")


def test_criterion_04_wick_algebra():
    c = Fraction(13, 10)
    for a1 in range(7):
        for a2 in range(7):
            got = wick_product(WickPoly(c=c, coeffs={a1: 1}), WickPoly(c=c, coeffs={a2: 1}))
            m1 = wick_to_monomial(WickPoly(c=c, coeffs={a1: 1}))
            m2 = wick_to_monomial(WickPoly(c=c, coeffs={a2: 1}))
            prod = {}
            for i, u in m1.items():
                for j, v in m2.items():
                    prod[i + j] = prod.get(i + j, 0) + u * v
            want = monomial_to_wick(prod, c)
            assert got.coeffs == want.coeffs
    zeros = 0
    for a1 in range(9):
        for a2 in range(9):
            for k in range(9):
                cc = connection_coeff(a1, a2, k)
                if (a1 + a2 + k) % 2 == 1 or k > a1 + a2 or k < abs(a1 - a2):
                    assert cc == 0
                    zeros += 1
    print(f"criterion 04 PASS: products exact to a1,a2<=6; {zeros} parity/triangle zeros verified")


def test_criterion_05_fixed_point_and_eigenvalue(standard_point):
    params, table, fc, v_star, eig = standard_point
    newton = newton_fixed_point(fc, params)
    assert abs(v_star.delta_g) <= 1e-10 and abs(newton.delta_g) <= 1e-10
    assert abs(v_star.mu - newton.mu) <= 1e-10 * abs(newton.mu)
    analytic = params.lam_mu_free - fc.a3 * fc.gbar
    assert abs(eig.alpha_u - analytic) <= 1e-8
    assert abs(eig.alpha_u - 2.862812) <= 1e-5
    print(
        f"criterion 05 PASS: mu* = {v_star.mu:.6e} matches the Newton oracle; "
        f"alpha_u = {eig.alpha_u:.6f} = 2.862812 +- 1e-5"
    )


def test_criterion_06_anomalous_dimension_trend():
    ratios = []
    for eps in (0.1, 0.05, 0.02, 0.01):
        params = make_params(2, 1, eps)
        table = covariance_table(params)
        fc = flow_coefficients(table, params)
        v = find_fixed_point(fc, params)
        eig = unstable_eigenpair(jacobian_at(v, fc))
        ratios.append(eta_phi2(eig, params) / eps)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert abs(ratios[-1] - 2.0 / 3.0) < 0.02
    # series denominator scaling at the smallest tabulated eps
    slopes = []
    for eps in (0.1, 0.05, 0.02):
        params = make_params(2, 1, eps)
        table = covariance_table(params)
        fc = flow_coefficients(table, params)
        v = find_fixed_point(fc, params)
        eig = unstable_eigenpair(jacobian_at(v, fc))
        slopes.append((1.0 - params.L**3 / eig.alpha_u**2) / eps)
    target = np.log(2.0) / 3.0
    assert abs(slopes[-1] - target) / target < 0.05
    assert all(abs(b - target) < abs(a - target) for a, b in zip(slopes, slopes[1:]))
    shown = [round(float(r), 5) for r in ratios]
    print(
        f"criterion 06 PASS: eta/eps = {shown} monotone to 2/3 "
        f"(gap {abs(ratios[-1]-2/3):.4f} < 0.02); (1-L^3/a^2)/eps -> log(L)/3 within "
        f"{abs(slopes[-1]-target)/target:.2%}"
    )


def test_eta_closed_form():
    # eta_phi2 = -2 log_L((2 + L^-eps)/3): the lower triangular Jacobian
    # gives alpha_u = L^((3+eps)/2) (2 + L^-eps)/3 exactly; checked through
    # the bulk route and through the full report at every point, up to
    # 117649 boxes at (7, 2)
    worst, reports, no_orbit = 0.0, 0, []
    for p in (2, 3, 5, 7):
        for l in (1, 2):
            for eps in (0.01, 0.1, 0.5):
                params = make_params(p, l, eps, box_budget=200_000)
                L = float(params.L)
                closed = -2.0 * np.log((2.0 + L**-eps) / 3.0) / np.log(L)
                fc = flow_coefficients(covariance_table(params), params)
                eig = unstable_eigenpair(jacobian_at(find_fixed_point(fc, params), fc))
                etas = [eta_phi2(eig, params)]
                if abs(fc.lam_g) >= 1.0:
                    # no stable manifold: the report must refuse the point
                    with pytest.raises(DomainError):
                        full_report(params)
                    no_orbit.append((p, l, eps))
                else:
                    etas.append(full_report(params).eta_phi2)
                    reports += 1
                for eta in etas:
                    worst = max(worst, abs(eta - closed))
    assert worst <= 1e-12
    print(
        f"eta closed form PASS: |eta - closed| <= {worst:.2e} over 24 points, {reports} full reports; "
        f"no stable manifold {no_orbit}"
    )


def test_criterion_07_koenigs_properties(standard_point):
    params, table, fc, v_star, eig = standard_point
    z = 1e-4
    w = BulkVector(z * eig.e_u.delta_g, z * eig.e_u.mu)
    res = koenigsres = koenigs_psi(v_star, w, fc, params)
    assert res.intertwine_residual <= 1e-10
    # identity differential: remainder obeys the quadratic envelope at every
    # scale (in truncation mode it collapses to the rounding floor)
    for zz in np.logspace(-4, -2.5, 4):
        ww = BulkVector(zz * eig.e_u.delta_g, zz * eig.e_u.mu)
        val, _, _ = psi_fixed_seed(ww, fc, params, v_star=v_star)
        rem = max(abs(val.delta_g - v_star.delta_g - ww.delta_g), abs(val.mu - v_star.mu - ww.mu))
        assert rem <= 17.0 / 8.0 * zz**2 + 1e-12
    # slope 2 carried by the vacuum composition, whose quadratic term is
    # nonzero in truncation
    e = np.array([eig.e_u.delta_g, eig.e_u.mu])
    grad = np.array([2 * fc.a4 * (fc.gbar + v_star.delta_g), 2 * fc.a5 * v_star.mu])
    lin = float(grad @ e)
    zs = np.logspace(-4, -3, 5)
    rems = []
    for zz in zs:
        val, _, _ = psi_fixed_seed(BulkVector(zz * e[0], zz * e[1]), fc, params, v_star=v_star)
        rems.append(abs(delta_b_value(val, fc) - delta_b_value(v_star, fc) - zz * lin))
    slope = float(np.polyfit(np.log(zs), np.log(rems), 1)[0])
    assert abs(slope - 2.0) <= 0.05
    semis = res.semigroup_residuals
    semis += koenigs_psi(stable_orbit(1.05 * fc.gbar, fc, params).point(0), w, fc, params).semigroup_residuals
    assert max(semis) <= 1e-9
    print(
        f"criterion 07 PASS: intertwining {res.intertwine_residual:.2e} <= 1e-10; "
        f"vacuum-composition slope {slope:.4f} = 2 +- 0.05; semigroup residuals <= {max(semis):.2e}"
    )


def test_criterion_08_critical_mass(standard_point):
    params, table, fc, v_star, eig = standard_point
    worst = 0.0
    for g_rel in (0.95, 1.0, 1.05):
        g = g_rel * fc.gbar
        mu_seq = critical_mass(g, fc, params, method="sequence")
        mu_bis = critical_mass(g, fc, params, method="bisection")
        worst = max(worst, abs(mu_seq - mu_bis))
    assert worst <= 1e-8
    rate = measure_contraction(stable_orbit(0.95 * fc.gbar, fc, params))
    assert abs(rate - abs(fc.lam_g)) / abs(fc.lam_g) <= 0.05
    print(
        f"criterion 08 PASS: sequence/bisection gap <= {worst:.2e}; "
        f"orbit rate {rate:.5f} within 5% of |2-L^eps| = {abs(fc.lam_g):.5f}"
    )


def test_criterion_09_two_point_blowup():
    params = make_params(2, 1, 0.01)
    table = covariance_table(params)
    fc = flow_coefficients(table, params)
    v_star = find_fixed_point(fc, params)
    eig = unstable_eigenpair(jacobian_at(v_star, fc))
    theta = theta_vector(fc, eig)
    assert (theta.delta_g, theta.mu) == (0.0, 0.0)
    uv = phi2_uv_reduced(fc, eig, params)
    target = 6.0 * (1 - 2.0**-3) / np.log(2.0)
    rel = abs(0.01 * uv - target) / target
    assert rel <= 0.05
    irs = {}
    for eps in (0.02, 0.1):
        mp = make_params(2, 1, eps)
        t = covariance_table(mp)
        f = flow_coefficients(t, mp)
        v = find_fixed_point(f, mp)
        irs[eps] = phi2_ir_reduced(f, t, mp, v).value
    ratio = irs[0.02] / irs[0.1]
    assert 0.5 <= ratio <= 2.0
    print(
        f"criterion 09 PASS: eps*uv = {0.01*uv:.4f} vs 6(1-p^-3)/log p = {target:.4f} "
        f"({rel:.2%} off); ir ratio {ratio:.3f} in [1/2, 2]"
    )


def test_criterion_10_nontriviality():
    msgs = []
    for p in (2, 3):
        for eps in (0.05, 0.1):
            params = make_params(p, 1, eps)
            table = covariance_table(params)
            fc = flow_coefficients(table, params)
            v_star = find_fixed_point(fc, params)
            _, u4 = u_values(params, table, fc, v_star)
            assert u4 < 0.0
            assert u4 <= -fc.gbar / 3.0
            msgs.append(f"p={p},eps={eps}: u4/gbar={u4/fc.gbar:.1f}")
    print("criterion 10 PASS: u4 < 0 and u4 <= -gbar/3 (" + "; ".join(msgs) + ")")


def test_criterion_11_normalizations(standard_point):
    params, table, fc, v_star, eig = standard_point
    reports = {}
    for g_rel in (0.95, 1.05):
        r = full_report(params, g_seed=g_rel * fc.gbar)
        assert abs(r.one_point_residual) <= 1e-8
        assert abs(r.two_point_normalized - 1.0) <= 1e-10
        assert abs(r.norms.kappa) > 1e-3
        reports[g_rel] = r
    a, b = reports[0.95], reports[1.05]
    for field in ("eta_phi2", "u2", "u4", "uv_reduced", "ir_reduced", "two_point_normalized"):
        assert abs(getattr(a, field) - getattr(b, field)) <= 1e-8
    print(
        f"criterion 11 PASS: one-point <= {max(abs(a.one_point_residual), abs(b.one_point_residual)):.2e}; "
        f"two-point = 1 +- {max(abs(a.two_point_normalized-1), abs(b.two_point_normalized-1)):.2e}; "
        f"kappa = {a.norms.kappa:.4f}/{b.norms.kappa:.4f}; seeds agree to 1e-8"
    )


def test_criterion_12_mc_validation():
    params = make_params(2, 1, 0.1)
    ens = sample_hierarchical_field(params, -2, 2, 200_000, seed=2024)
    emp, pairing = validate(ens)
    assert emp.max_z_score <= 5.0
    assert abs(pairing.mean - pairing.exact) <= 3.0 * pairing.stderr
    ens2 = sample_hierarchical_field(params, -2, 2, 200_000, seed=2024)
    emp2, pairing2 = validate(ens2)
    assert np.array_equal(emp.class_means, emp2.class_means)
    assert pairing.mean == pairing2.mean
    print(
        f"criterion 12 PASS: max z = {emp.max_z_score:.2f} <= 5; pairing "
        f"{pairing.mean:.5f} vs exact {pairing.exact:.5f} within "
        f"{abs(pairing.mean-pairing.exact)/pairing.stderr:.2f} s.e.; bit-reproducible"
    )

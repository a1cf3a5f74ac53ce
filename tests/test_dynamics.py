import io
from collections import Counter
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrg.dynamics
from hrg.cli import run_command
from hrg.covariance import covariance_table
from hrg.errors import (
    BlowUpError,
    DomainError,
    EscapeAmbiguousError,
    ManifoldRadiusError,
    OffManifoldError,
)
from hrg.geometry import make_params
from hrg.rg import BLOWUP_GUARD, BulkVector, FlowCoefficients, bulk_step, flow_coefficients
from hrg.dynamics import (
    E_PHI2,
    _critical_mass_bisection,
    critical_mass,
    find_fixed_point,
    koenigs_psi,
    koenigs_value,
    psi_fixed_seed,
    stable_orbit,
    t_infinity,
    transport_along,
    unstable_eigenvalue,
)
from oracles import (
    ResonanceError,
    bulk_step_bisection,
    deep_orbit,
    delta_b_value,
    jacobian_at,
    measure_contraction,
    newton_fixed_point,
    theta_vector,
)


@pytest.fixture(scope="module")
def m21():
    params = make_params(2, 1, 0.1)
    table = covariance_table(params)
    fc = flow_coefficients(table, params)
    v_star = find_fixed_point(fc, params)
    return params, table, fc, v_star, unstable_eigenvalue(fc)


def test_fixed_point_matches_closed_form(m21):
    params, table, fc, v_star, alpha_u = m21
    newton = newton_fixed_point(fc, params)
    assert v_star.delta_g == 0.0
    assert abs(newton.delta_g) <= 1e-10
    assert v_star.mu == pytest.approx(newton.mu, rel=1e-10)
    assert v_star.mu == pytest.approx(6.76e-4, rel=2e-3)
    image, _ = bulk_step(v_star, fc, params)
    assert max(abs(image.delta_g - v_star.delta_g), abs(image.mu - v_star.mu)) <= 1e-12


@settings(max_examples=100)
@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.sampled_from([1, 2, 3]),
    st.floats(0.01, 1.0),
    st.floats(0.9, 1.1),
)
def test_closed_forms_across_parameter_space(p, l, eps, g_rel):
    # each closed form against a route that shares none of its code: Newton
    # for the fixed point, LAPACK for the eigenpair of the 2x2 Jacobian, the
    # exact eigenvalue in L and eps, and bisection on the escape side for the
    # critical mass
    params = make_params(p, l, eps)
    fc = flow_coefficients(covariance_table(params), params)
    v_star = find_fixed_point(fc, params)
    newton = newton_fixed_point(fc, params)
    assert v_star.delta_g == 0.0 and abs(newton.delta_g) <= 1e-14 * abs(newton.mu)
    assert abs(v_star.mu - newton.mu) <= 1e-14 * abs(newton.mu)
    image, _ = bulk_step(v_star, fc, params)
    assert image.delta_g == 0.0
    assert abs(image.mu - v_star.mu) <= 1e-14 * fc.lam_mu_free * abs(v_star.mu)

    alpha_u = unstable_eigenvalue(fc)
    j = jacobian_at(v_star, fc)
    assert j[0, 1] == 0.0 and alpha_u == j[1, 1]
    vals, vecs = np.linalg.eig(j)
    i_u = int(np.argmax(np.abs(vals)))
    assert alpha_u == pytest.approx(vals[i_u], rel=1e-14)
    assert fc.lam_g == pytest.approx(vals[1 - i_u], rel=1e-14)
    assert abs(vecs[0, i_u]) <= 1e-14 * abs(vecs[1, i_u])
    L = float(params.L)
    closed = L ** ((3.0 + eps) / 2.0) * (2.0 + L**-eps) / 3.0
    assert abs(alpha_u - closed) <= 1e-12 * closed

    g = g_rel * fc.gbar
    if abs(2.0 - L**eps) >= 1.0:
        # the coupling does not contract: no stable manifold to solve for
        with pytest.raises(DomainError):
            critical_mass(g, fc, params)
        return
    mu_seq = critical_mass(g, fc, params, method="sequence")
    mu_bis = critical_mass(g, fc, params, method="bisection")
    assert abs(mu_seq - mu_bis) <= 1e-14 * abs(mu_bis)


def test_fixed_point_synthetic_a2_zero(m21):
    params, table, fc, v_star, alpha_u = m21
    fc0 = FlowCoefficients(
        a1=fc.a1, a2=0.0, a3=fc.a3, a4=fc.a4, a5=fc.a5,
        gbar=fc.gbar, lam_g=fc.lam_g, lam_mu_free=fc.lam_mu_free,
    )
    v = find_fixed_point(fc0, params)
    assert v.mu == pytest.approx(0.0, abs=1e-14)
    assert v.delta_g == pytest.approx(0.0, abs=1e-14)


def test_jacobian_closed_form_and_fd(m21):
    params, table, fc, v_star, alpha_u = m21
    j = jacobian_at(v_star, fc)
    assert j[0, 1] == 0.0
    assert j[0, 0] == pytest.approx(0.928227, rel=1e-6)
    assert j[1, 1] == pytest.approx(2.862812, abs=1e-5)
    assert j[1, 0] == pytest.approx(-2 * fc.a2 * fc.gbar - fc.a3 * v_star.mu, rel=1e-12)
    # central finite differences at a random interior point
    rng = np.random.default_rng(3)
    v = BulkVector(1e-3 * rng.standard_normal(), 1e-3 * rng.standard_normal())
    ja = jacobian_at(v, fc)
    h = 1e-6
    for col, dv in enumerate([(h, 0.0), (0.0, h)]):
        up, _ = bulk_step(BulkVector(v.delta_g + dv[0], v.mu + dv[1]), fc, params)
        dn, _ = bulk_step(BulkVector(v.delta_g - dv[0], v.mu - dv[1]), fc, params)
        fd = np.array([up.delta_g - dn.delta_g, up.mu - dn.mu]) / (2 * h)
        assert np.allclose(fd, ja[:, col], atol=1e-8)


def test_unstable_eigenpair_synthetic(m21):
    params, table, fc, v_star, alpha_u = m21
    # lam_g = 0.3 and alpha_u = 2.5 - 0.5 * 1.0 = 2.0, both exact in binary
    fc0 = FlowCoefficients(
        a1=0.2, a2=0.1, a3=0.5, a4=0.0, a5=0.0,
        gbar=1.0, lam_g=0.3, lam_mu_free=2.5,
    )
    alpha0 = unstable_eigenvalue(fc0)
    assert alpha0 == 2.0
    v0 = find_fixed_point(fc0, params)
    j = jacobian_at(v0, fc0)
    assert j[0, 1] == 0.0 and j[0, 0] == 0.3 and j[1, 1] == alpha0
    vals, vecs = np.linalg.eig(j)
    i_u = int(np.argmax(np.abs(vals)))
    assert vals[i_u] == pytest.approx(2.0, abs=1e-12)
    assert vecs[0, i_u] == pytest.approx(0.0, abs=1e-12)
    assert (j @ np.array([E_PHI2.delta_g, E_PHI2.mu])).tolist() == [0.0, alpha0]


def test_no_gap_matrix(m21):
    params, table, fc, v_star, alpha_u = m21
    # alpha_u = 1.5 - 0.5 = 1: no gap above 1, so the fixed point is undefined
    fc0 = FlowCoefficients(
        a1=0.2, a2=0.1, a3=0.5, a4=0.0, a5=0.0,
        gbar=1.0, lam_g=0.3, lam_mu_free=1.5,
    )
    assert unstable_eigenvalue(fc0) == 1.0
    with pytest.raises(DomainError):
        find_fixed_point(fc0, params)


def test_unstable_eigenpair(m21):
    params, table, fc, v_star, alpha_u = m21
    assert alpha_u == pytest.approx(params.lam_mu_free - fc.a3 * fc.gbar, rel=1e-12)
    assert alpha_u == pytest.approx(2.862812, abs=1e-5)
    # E_PHI2 = (0, 1) is its eigenvector, to the bit
    j = jacobian_at(v_star, fc)
    assert (j @ np.array([E_PHI2.delta_g, E_PHI2.mu])).tolist() == [0.0, alpha_u]
    # truncated-flow asymptotic relation for the eigenvalue
    ratio = alpha_u / params.lam_mu_free
    le = params.l_eps
    assert ratio == pytest.approx(1.0 - (le - 1.0) / (3.0 * le), rel=1e-10)


@pytest.mark.parametrize("g_rel", [0.95, 1.0, 1.05])
def test_critical_mass_cross_method(m21, g_rel):
    params, table, fc, v_star, alpha_u = m21
    g = g_rel * fc.gbar
    mu_seq = critical_mass(g, fc, params, method="sequence")
    mu_bis = critical_mass(g, fc, params, method="bisection")
    assert abs(mu_seq - mu_bis) <= 1e-8
    if g_rel == 1.0:
        assert mu_seq == pytest.approx(v_star.mu, abs=1e-13)


def test_critical_mass_radius_guard(m21):
    params, table, fc, v_star, alpha_u = m21
    with pytest.raises(ManifoldRadiusError):
        critical_mass(2.0 * fc.gbar, fc, params)


def test_critical_orbit_contraction_rate(m21):
    params, table, fc, v_star, alpha_u = m21
    orbit = stable_orbit(0.95 * fc.gbar, fc, params)
    rate = measure_contraction(orbit)
    assert rate < 1.0
    assert rate == pytest.approx(abs(fc.lam_g), rel=0.05)


def test_orbit_stores_its_depth_and_no_further(m21):
    params, table, fc, v_star, alpha_u = m21
    orbit = stable_orbit(1.05 * fc.gbar, fc, params)
    m = orbit.settle_index
    assert 0 < m <= 80 and len(orbit.dg) == len(orbit.mu) == m + 1
    assert not orbit.settled
    with pytest.raises(IndexError):
        orbit.point(m + 1)
    # a seed at the fixed point is the settled orbit of depth 0, which stays there
    at_fixed = stable_orbit(fc.gbar, fc, params)
    assert at_fixed.settle_index == 0 and at_fixed.settled
    assert at_fixed.point(0) == at_fixed.point(5) == v_star


def test_contraction_window_stays_inside_the_stored_orbit():
    # at (11,3,0.1) the orbit stores 8 steps, short of CONTRACTION_WINDOW
    params = make_params(11, 3, 0.1)
    fc = flow_coefficients(covariance_table(params), params)
    orbit = stable_orbit(1.05 * fc.gbar, fc, params)
    assert orbit.settle_index == 8
    with pytest.raises(DomainError):
        measure_contraction(orbit)


def test_stable_orbit_takes_no_more_than_80_steps():
    # M = N + D: z0^N <= 1e-17 and alpha_u^-D <= 2^-60, for p <= 11, l <= 3
    depths = []
    for p in (2, 3, 5, 7, 11):
        for l in (1, 2, 3):
            for eps in (1e-6, 1e-3, 0.1, 0.5, 1.0):
                params = make_params(p, l, eps)
                fc = flow_coefficients(covariance_table(params), params)
                if abs(fc.lam_g) < 1.0:
                    depths.append(stable_orbit(1.05 * fc.gbar, fc, params).settle_index)
    assert max(depths) == 80 and min(depths) == 8


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_sequence_mass_is_bit_identical_to_the_deep_orbit(p):
    # the sweeps stop at M = N + D; the frozen-tail start the uncapped orbit
    # pushes thousands of steps further off leaves mu_0 on the same float
    compared = 0
    for l in (1, 2, 3):
        for eps in (1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 1.0):
            params = make_params(p, l, eps)
            fc = flow_coefficients(covariance_table(params), params)
            if abs(fc.lam_g) >= 1.0:
                continue
            for k in range(11):
                g = (0.5 + 0.1 * k) * fc.gbar
                try:
                    mu0 = critical_mass(g, fc, params, method="sequence")
                except ManifoldRadiusError:
                    continue
                assert mu0 == deep_orbit(g, fc, params).mu0, (p, l, eps, k)
                compared += 1
    assert compared > 0


def test_dichotomy_diagnostic(m21):
    # mass-dominated separations expand, manifold separations contract
    params, table, fc, v_star, alpha_u = m21
    delta = 1e-5
    up, _ = bulk_step(BulkVector(v_star.delta_g, v_star.mu + delta), fc, params)
    dn, _ = bulk_step(BulkVector(v_star.delta_g, v_star.mu - delta), fc, params)
    growth = abs(up.mu - dn.mu) / (2 * delta)
    assert growth > 1.0
    assert growth == pytest.approx(alpha_u, rel=1e-4)
    orbit = stable_orbit(1.05 * fc.gbar, fc, params)
    d0 = max(abs(orbit.point(0).delta_g - v_star.delta_g), abs(orbit.point(0).mu - v_star.mu))
    d1 = max(abs(orbit.point(1).delta_g - v_star.delta_g), abs(orbit.point(1).mu - v_star.mu))
    assert d1 < d0


def test_koenigs_basics(m21):
    params, table, fc, v_star, alpha_u = m21
    # zero argument reproduces the orbit limit
    val, _ = koenigs_value(stable_orbit(fc.gbar, fc, params), BulkVector(0.0, 0.0), fc, alpha_u)
    assert max(abs(val.delta_g - v_star.delta_g), abs(val.mu - v_star.mu)) <= 1e-13
    orbit = stable_orbit(1.05 * fc.gbar, fc, params)
    val, _ = koenigs_value(orbit, BulkVector(0.0, 0.0), fc, alpha_u)
    assert max(abs(val.delta_g - v_star.delta_g), abs(val.mu - v_star.mu)) <= 1e-12


def test_koenigs_intertwining_and_affinity(m21):
    params, table, fc, v_star, alpha_u = m21
    z = 1e-4
    w = BulkVector(z * E_PHI2.delta_g, z * E_PHI2.mu)
    res = koenigs_psi(v_star, w, fc, params)
    assert res.intertwine_residual <= 1e-10
    # along the unstable line the map is exactly affine in truncation mode
    assert abs(res.value.delta_g - v_star.delta_g - w.delta_g) <= 1e-14
    assert abs(res.value.mu - v_star.mu - w.mu) <= 1e-14


def test_koenigs_quadratic_envelope(m21):
    params, table, fc, v_star, alpha_u = m21
    at_star = stable_orbit(fc.gbar, fc, params)
    for z in np.logspace(-4, -2.5, 4):
        w = BulkVector(z * E_PHI2.delta_g, z * E_PHI2.mu)
        val, _ = koenigs_value(at_star, w, fc, alpha_u)
        rem = max(abs(val.delta_g - v_star.delta_g - w.delta_g), abs(val.mu - v_star.mu - w.mu))
        assert rem <= 17.0 / 8.0 * z**2 + 1e-12


def test_koenigs_identity_differential_general_direction(m21):
    # differential with respect to the argument is the spectral projection;
    # remainder after removing it is quadratically small
    params, table, fc, v_star, alpha_u = m21
    vals, vecs = np.linalg.eig(jacobian_at(v_star, fc))
    i_u = int(np.argmax(np.abs(vals)))
    basis = np.stack([vecs[:, 1 - i_u], vecs[:, i_u]], axis=1)
    proj = np.real(np.outer(basis[:, 1], np.linalg.inv(basis)[1, :]))
    assert np.allclose(proj @ proj, proj, atol=1e-12)
    assert np.allclose(proj @ np.array([E_PHI2.delta_g, E_PHI2.mu]), [0.0, 1.0], atol=1e-12)
    wdir = np.array([1.0, 0.7])
    pw = proj @ wdir
    at_star = stable_orbit(fc.gbar, fc, params)
    for z in (1e-3, 1e-4):
        val, _ = koenigs_value(at_star, BulkVector(z * wdir[0], z * wdir[1]), fc, alpha_u)
        rem = max(abs(val.delta_g - v_star.delta_g - z * pw[0]), abs(val.mu - v_star.mu - z * pw[1]))
        assert rem <= 17.0 / 8.0 * (z * np.max(np.abs(wdir))) ** 2 + 1e-10


def test_vacuum_composition_slope_two(m21):
    # the vacuum term along the conjugated line has a genuine quadratic
    # remainder; its log-log slope against z is 2
    params, table, fc, v_star, alpha_u = m21
    e = np.array([E_PHI2.delta_g, E_PHI2.mu])
    grad = np.array([2 * fc.a4 * (fc.gbar + v_star.delta_g), 2 * fc.a5 * v_star.mu])
    lin = float(grad @ e)
    zs = np.logspace(-4, -3, 5)
    rems = []
    for z in zs:
        val, _, _ = psi_fixed_seed(BulkVector(z * e[0], z * e[1]), fc, params, v_star, alpha_u)
        rems.append(abs(delta_b_value(val, fc) - delta_b_value(v_star, fc) - z * lin))
    slope = np.polyfit(np.log(zs), np.log(rems), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)
    assert rems[-1] == pytest.approx(fc.a5 * zs[-1] ** 2, rel=1e-6)


def test_koenigs_intertwining_manifold_seed(m21):
    params, table, fc, v_star, alpha_u = m21
    orbit = stable_orbit(0.95 * fc.gbar, fc, params)
    w = BulkVector(1e-4 * E_PHI2.delta_g, 1e-4)
    res = koenigs_psi(orbit.point(0), w, fc, params)
    assert res.intertwine_residual <= 1e-10


def test_koenigs_semigroup(m21):
    params, table, fc, v_star, alpha_u = m21
    w = BulkVector(1e-4 * E_PHI2.delta_g, 1e-4)
    for res in koenigs_psi(v_star, w, fc, params).semigroup_residuals:
        assert res <= 1e-9
    orbit = stable_orbit(1.05 * fc.gbar, fc, params)
    for res in koenigs_psi(orbit.point(0), w, fc, params).semigroup_residuals:
        assert res <= 1e-9
    # mixed direction at the fixed point
    for res in koenigs_psi(v_star, BulkVector(5e-4, 1e-4), fc, params).semigroup_residuals:
        assert res <= 1e-9


def test_koenigs_via_t_infinity(m21):
    params, table, fc, v_star, alpha_u = m21
    orbit = stable_orbit(1.05 * fc.gbar, fc, params)
    v = orbit.point(0)
    w = BulkVector(2e-4, 1e-4)
    lhs, _ = koenigs_value(orbit, w, fc, alpha_u)
    tv, _, _ = t_infinity(orbit, w, fc, alpha_u)
    rhs, _, _ = psi_fixed_seed(tv, fc, params, v_star, alpha_u)
    assert max(abs(lhs.delta_g - rhs.delta_g), abs(lhs.mu - rhs.mu)) <= 1e-8


def test_koenigs_builds_each_orbit_quantity_once(m21, monkeypatch):
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("stable_orbit", "mass_products", "psi_fixed_seed", "unstable_eigenvalue", "semigroup_residuals"):
        monkeypatch.setattr(hrg.dynamics, name, counted(name, getattr(hrg.dynamics, name)))
    with redirect_stdout(io.StringIO()):
        assert run_command(["koenigs"]) == 0
    # the settled orbit at the fixed point: one row serves every shift
    assert calls["stable_orbit"] == calls["mass_products"] == calls["psi_fixed_seed"] == 1
    assert calls["unstable_eigenvalue"] <= 2
    # off the fixed point: one row at the seed and one at each of the three shifts
    params, table, fc, v_star, alpha_u = m21
    seed = stable_orbit(1.05 * fc.gbar, fc, params).point(0)
    calls.clear()
    res = koenigs_psi(seed, BulkVector(2e-4, 1e-4), fc, params)
    assert calls["semigroup_residuals"] == calls["stable_orbit"] == 1
    assert calls["mass_products"] <= 4
    assert max(res.semigroup_residuals) <= 1e-15


def test_koenigs_rejects_off_manifold(m21):
    params, table, fc, v_star, alpha_u = m21
    with pytest.raises(OffManifoldError):
        koenigs_psi(BulkVector(0.0, v_star.mu + 1e-4), BulkVector(0.0, 1e-4), fc, params)


def test_t_infinity_at_fixed_point(m21):
    params, table, fc, v_star, alpha_u = m21
    at_star = stable_orbit(fc.gbar, fc, params)
    tv, kappa, _ = t_infinity(at_star, BulkVector(E_PHI2.delta_g, E_PHI2.mu), fc, alpha_u)
    assert kappa == pytest.approx(1.0, rel=1e-12)
    assert tv.delta_g == pytest.approx(E_PHI2.delta_g, abs=1e-12)
    # the stable eigendirection is annihilated; the bare coupling axis is
    # not an eigendirection here and keeps its unstable component
    j = jacobian_at(v_star, fc)
    y_s = j[1, 0] / (fc.lam_g - alpha_u)
    tv, kappa, _ = t_infinity(at_star, BulkVector(1.0, float(y_s)), fc, alpha_u)
    assert abs(kappa) <= 1e-10
    assert abs(tv.delta_g) <= 1e-10
    tv, kappa, _ = t_infinity(at_star, BulkVector(1.0, 0.0), fc, alpha_u)
    assert kappa == pytest.approx(-y_s, rel=1e-9)


def test_t_infinity_kappa_near_one(m21):
    params, table, fc, v_star, alpha_u = m21
    for g_rel in (0.95, 1.05):
        orbit = stable_orbit(g_rel * fc.gbar, fc, params)
        _, kappa, _ = t_infinity(orbit, BulkVector(0.0, 1.0), fc, alpha_u)
        assert kappa != 0.0
        assert abs(kappa - 1.0) < 0.1


def test_transport_matches_jacobian_chain(m21):
    params, table, fc, v_star, alpha_u = m21
    orbit = stable_orbit(0.95 * fc.gbar, fc, params)
    w = BulkVector(0.3, -0.2)
    got = transport_along(orbit, w, fc, alpha_u, 3)
    y = np.array([0.3, -0.2])
    for n in range(3):
        y = jacobian_at(orbit.point(n), fc) @ y / alpha_u
    assert got.delta_g == pytest.approx(y[0], rel=1e-14)
    assert got.mu == pytest.approx(y[1], rel=1e-14)


def test_theta_vanishes_in_truncation(m21):
    params, table, fc, v_star, alpha_u = m21
    th = theta_vector(fc, alpha_u, E_PHI2, jacobian_at(v_star, fc))
    assert abs(th.delta_g) <= 1e-12
    assert abs(th.mu) <= 1e-12
    # second difference of the conjugating map along the unstable line
    h = 1e-3
    up, _, _ = psi_fixed_seed(BulkVector(h * E_PHI2.delta_g, h), fc, params, v_star, alpha_u)
    dn, _, _ = psi_fixed_seed(BulkVector(-h * E_PHI2.delta_g, -h), fc, params, v_star, alpha_u)
    fd = np.array(
        [up.delta_g - 2 * v_star.delta_g + dn.delta_g, up.mu - 2 * v_star.mu + dn.mu]
    ) / (2 * h**2)
    assert np.max(np.abs(fd - np.array([th.delta_g, th.mu]))) <= 1e-6


def test_theta_synthetic_nonzero():
    # synthetic coefficients with a coupling component in the eigenvector
    fc = FlowCoefficients(a1=1.0, a2=2.0, a3=0.5, a4=3.0, a5=4.0, gbar=0.1, lam_g=0.5, lam_mu_free=2.0)
    j = np.array([[0.5, 0.1], [-0.4, 2.0]])  # not lower triangular
    vals, vecs = np.linalg.eig(j)
    i_u = int(np.argmax(np.abs(vals)))
    e_u = vecs[:, i_u] / vecs[1, i_u]
    alpha = float(vals[i_u])
    th = theta_vector(fc, alpha, BulkVector(float(e_u[0]), 1.0), j)
    e = np.array([float(e_u[0]), 1.0])
    rhs = 0.5 * np.array([-2 * fc.a1 * e[0] ** 2, -2 * fc.a2 * e[0] ** 2 - 2 * fc.a3 * e[0] * e[1]])
    lhs = (alpha**2 * np.eye(2) - j) @ np.array([th.delta_g, th.mu])
    assert np.allclose(lhs, rhs, atol=1e-13)
    assert abs(th.mu) > 0


def test_theta_resonance_guard():
    fc = FlowCoefficients(a1=1.0, a2=1.0, a3=1.0, a4=1.0, a5=1.0, gbar=0.1, lam_g=0.5, lam_mu_free=2.0)
    j = np.diag([0.5, 1.0])  # alpha = 1 resonates with alpha^2
    with pytest.raises(ResonanceError):
        theta_vector(fc, 1.0, BulkVector(0.1, 1.0), j)


def test_orbit_monotone_decay(m21):
    params, table, fc, v_star, alpha_u = m21
    orbit = stable_orbit(1.05 * fc.gbar, fc, params)
    dists = [
        max(abs(orbit.point(n).delta_g - v_star.delta_g), abs(orbit.point(n).mu - v_star.mu))
        for n in range(40)
    ]
    for a, b in zip(dists, dists[1:]):
        assert b < a or b == 0.0


def test_escape_bracket_guard(m21):
    params, table, fc, v_star, alpha_u = m21

    with pytest.raises(EscapeAmbiguousError):
        # manifold far outside the bracket: both endpoints escape downward
        _critical_mass_bisection(0.0, FlowCoefficients(
            a1=fc.a1, a2=1e5, a3=fc.a3, a4=fc.a4, a5=fc.a5,
            gbar=fc.gbar, lam_g=fc.lam_g, lam_mu_free=fc.lam_mu_free,
        ), params)


@pytest.mark.parametrize("flip", [1.0, -1.0])
def test_escape_bracket_guard_refuses_one_undecided_end(m21, monkeypatch, flip):
    # two escape tests, and a guard between the two bracket ends' first
    # images: one end escapes, the other is still undecided (side 0)
    import hrg.dynamics

    params, table, fc, v_star, alpha_u = m21
    fc = _synthetic(fc, a2=flip * fc.a2)  # a2 -> -a2 mirrors the mass map
    lo_img, hi_img = (bulk_step(BulkVector(0.0, mu), fc, params)[0].mu for mu in (-10.0 * fc.gbar, 10.0 * fc.gbar))
    factor = 0.5 * (abs(lo_img) + abs(hi_img)) / fc.gbar
    assert factor >= 10.0 and abs(abs(lo_img) - abs(hi_img)) > 1e-6 * factor * fc.gbar
    monkeypatch.setattr(hrg.dynamics, "ESCAPE_MAX_STEPS", 2)
    monkeypatch.setattr(hrg.dynamics, "ESCAPE_GUARD_FACTOR", factor)
    with pytest.raises(EscapeAmbiguousError):
        _critical_mass_bisection(0.0, fc, params)


def _bisect_both(delta_g0, fc, params):
    """Both bisections at one point: the float result, or the exception type."""
    out = []
    for bisect in (_critical_mass_bisection, bulk_step_bisection):
        try:
            out.append(bisect(delta_g0, fc, params))
        except Exception as exc:  # the type is compared
            out.append(type(exc))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_mass_only_bisection_is_bit_identical_to_bulk_steps(p):
    # the coupling orbit is swept once and the mass iterated alone, with the
    # float operations of bulk_step in its order: the same float at every
    # point, or the same exception where the bulk-step loop raises
    raised = 0
    for l in (1, 2, 3):
        for eps in (1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 1.0):
            params = make_params(p, l, eps)
            fc = flow_coefficients(covariance_table(params), params)
            for k in range(11):
                delta_g0 = (0.5 + 0.1 * k) * fc.gbar - fc.gbar
                new, old = _bisect_both(delta_g0, fc, params)
                assert new == old, (p, l, eps, k)
                raised += isinstance(new, type)
    assert raised < 3 * 7 * 11


def _synthetic(fc, **changes):
    fields = dict(vars(fc))
    fields.update(changes)
    return FlowCoefficients(**fields)


def test_mass_only_bisection_keeps_the_bulk_step_guards(m21):
    params, table, fc, v_star, alpha_u = m21
    cases = [
        # a coupling that jumps past BLOWUP_GUARD before any trial mass escapes
        (0.1 * fc.gbar, _synthetic(fc, lam_g=1e12), BlowUpError),
        # an escape guard of 1e3 gbar above BLOWUP_GUARD: the mass blows up first
        (0.0, _synthetic(fc, gbar=1e4, a2=0.0, a3=0.0), BlowUpError),
        (float("nan"), fc, BlowUpError),
        # the first midpoint, mass 0, stays put while the coupling still grows
        # for 230 steps: not a frozen point, so the coupling blows up
        (-0.1 * fc.gbar, _synthetic(fc, lam_g=1.1, a1=1e-12, a2=0.0, a3=0.0), BlowUpError),
        # both bracket ends escape downward
        (0.0, _synthetic(fc, a2=1e5), EscapeAmbiguousError),
    ]
    for delta_g0, coeffs, error in cases:
        assert _bisect_both(delta_g0, coeffs, params) == [error, error]


def test_mass_only_bisection_ignores_a_blow_up_that_no_trial_reaches(m21):
    # the coupling grows as dg -> dg + dg^2 / (20 dg_0) and fails the
    # BLOWUP_GUARD test at step 28, while every trial escapes by step 26:
    # the lazy sweep passes that step without raising, as bulk steps never
    # get there
    params, table, fc, v_star, alpha_u = m21
    delta_g0 = 0.1 * fc.gbar
    coeffs = _synthetic(fc, lam_g=1.0, a1=-1.0 / (20.0 * delta_g0))
    dg, crossing = delta_g0, 0
    while abs(dg) <= BLOWUP_GUARD:
        dg, crossing = dg - coeffs.a1 * dg**2, crossing + 1
    assert crossing == 28
    new, old = _bisect_both(delta_g0, coeffs, params)
    assert isinstance(new, float) and new == old


def test_bisection_never_steps_the_bulk_map(m21, monkeypatch):
    # one coupling sweep per call: no bulk_step per escape test or step
    import hrg.dynamics
    import hrg.rg

    params, table, fc, v_star, alpha_u = m21
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return bulk_step(*args, **kwargs)

    monkeypatch.setattr(hrg.rg, "bulk_step", counted)
    monkeypatch.setattr(hrg.dynamics, "bulk_step", counted)
    critical_mass(1.05 * fc.gbar, fc, params, method="bisection")
    assert len(calls) == 0

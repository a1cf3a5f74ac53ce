"""The chained-Jacobian closed forms (kappa, Xi, xi_inf, upsilon, the
t_infinity limit and the conjugating map built on it) against the
term-by-term walks along the uncapped `oracles.deep_orbit` and a deep
product of kappa, over many (p, l, eps) and g seeds; and the Koenigs tail
of kappa against both and against itself."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hrg.covariance import covariance_table
from hrg.dynamics import (
    E_PHI2,
    PSI_TOL,
    find_fixed_point,
    jacobian_at,
    kappa_tail_log,
    koenigs_value,
    mass_products,
    psi_fixed_seed,
    stable_orbit,
    t_infinity,
    unstable_eigenpair,
)
from hrg.errors import DomainError
from hrg.geometry import make_params
from hrg.observables import normalization_constants, xi_sequence_limit
from hrg.rg import BulkVector, flow_coefficients
from oracles import chained_jacobian_walk, deep_kappa, deep_orbit, upsilon_sum, xi_walk

G_RELS = (0.9, 0.95, 1.0, 1.05, 1.1)
RTOL = 1e-13


def _walk_rtol(orbit):
    """The walks build each factor lam_mu_free - a3 g_n in float64, about
    one ulp of alpha_u off, and those errors add up over the S steps of the
    deep orbit (2.3e-13 at (2,1,0.01), S = 4026); the closed forms sum
    log1p(-a3 dg_n / alpha_u) instead and stay within RTOL of the deep
    product."""
    return max(RTOL, orbit.settle_index * np.finfo(float).eps)


def _point(p, l, eps):
    params = make_params(p, l, eps, box_budget=None)
    fc = flow_coefficients(covariance_table(params), params)
    eig = unstable_eigenpair(jacobian_at(find_fixed_point(fc, params), fc))
    return params, fc, eig


def _rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("eps", (0.01, 0.1, 0.5))
@pytest.mark.parametrize("l", (1, 2))
@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_products_match_chained_jacobian_walks(p, l, eps):
    params, fc, eig = _point(p, l, eps)
    if abs(fc.lam_g) >= 1.0:
        # no stable coupling direction: there is no orbit to walk
        with pytest.raises(DomainError):
            stable_orbit(fc.gbar, fc, params)
        return
    alpha = eig.alpha_u
    z0 = alpha / float(params.L) ** 3
    w = BulkVector(0.3, -0.2)
    for g_rel in G_RELS:
        g = g_rel * fc.gbar
        orbit = stable_orbit(g, fc, params)
        m = orbit.settle_index
        products, kappa = mass_products(orbit, fc, alpha)
        if m:
            assert _rel(kappa, deep_kappa(orbit.dg[0], fc, alpha)) <= RTOL
        else:
            assert kappa == 1.0
        deep = deep_orbit(g, fc, params)
        tol = _walk_rtol(deep)
        _, kappa_walk = chained_jacobian_walk(deep, E_PHI2, fc, alpha)
        assert _rel(kappa, kappa_walk) <= tol
        assert t_infinity(orbit.point(0), E_PHI2, fc, params, orbit=orbit)[1] == kappa

        xis, xi_inf = xi_sequence_limit(orbit, fc, products, kappa)
        xis_walk, xi_inf_walk = xi_walk(deep, fc, alpha)
        assert len(xis) == m + 1
        # the mass sweep starts from a frozen tail at depth m, so Xi_n is
        # exact where z0^n still weighs it in upsilon
        scale = abs(xi_inf)
        for n, xi in enumerate(xis):
            walk = xis_walk[n] if n < len(xis_walk) else xi_inf_walk
            assert z0**n * abs(xi - walk) <= tol * scale
        assert _rel(xi_inf, xi_inf_walk) <= tol
        upsilon = normalization_constants(eig, params, xis, xi_inf, kappa, 1.0).upsilon
        assert _rel(upsilon, upsilon_sum(xis_walk, z0)) <= RTOL

        # a direction with a coupling part: the cross sum and its tail
        limit, kappa_w, _ = t_infinity(orbit.point(0), w, fc, params, orbit=orbit)
        limit_walk, kappa_w_walk = chained_jacobian_walk(deep, w, fc, alpha)
        assert _rel(kappa_w, kappa_w_walk) <= tol
        assert limit.delta_g == 0.0
        assert abs(limit_walk.delta_g) <= RTOL


@pytest.mark.parametrize("eps", (0.01, 0.1, 0.5))
@pytest.mark.parametrize("l", (1, 2))
@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_closed_form_conjugating_map_matches_walks_and_double_iteration(p, l, eps):
    params, fc, eig = _point(p, l, eps)
    v_star = find_fixed_point(fc, params)
    if abs(fc.lam_g) >= 1.0:
        with pytest.raises(DomainError):
            koenigs_value(v_star, E_PHI2, fc, params)
        return
    alpha = eig.alpha_u
    for g_rel in G_RELS[1:4]:
        orbit = stable_orbit(g_rel * fc.gbar, fc, params)
        deep = deep_orbit(g_rel * fc.gbar, fc, params)
        # the walk settles on an absolute 1e-13, so it walks the unit
        # vectors, and their row is applied to each small w
        e_walk = chained_jacobian_walk(deep, BulkVector(1.0, 0.0), fc, alpha)[1]
        k_walk = chained_jacobian_walk(deep, E_PHI2, fc, alpha)[1]
        for w in (BulkVector(0.0, 1e-4), BulkVector(2e-4, 1e-4)):
            value, _ = koenigs_value(orbit.point(0), w, fc, params, orbit=orbit)
            assert value.delta_g == v_star.delta_g
            # K w_mu + E w_g cancels for the second w, so the rounding
            # scales with its terms rather than with their sum
            scale = abs(k_walk * w.mu) + abs(e_walk * w.delta_g)
            assert abs(value.mu - v_star.mu - (k_walk * w.mu + e_walk * w.delta_g)) <= _walk_rtol(deep) * scale
            if g_rel == 1.0:
                # stage n of the double iteration grows the rounding of
                # v* + alpha_u^-n w by alpha_u^n
                psi, n, _ = psi_fixed_seed(w, fc, params, v_star=v_star)
                bound = PSI_TOL + 4.0 * alpha**n * math.ulp(v_star.mu)
                assert max(abs(psi.delta_g - value.delta_g), abs(psi.mu - value.mu)) <= bound


@pytest.mark.parametrize("eps", (1e-2, 1e-3, 3e-4, 1e-4))
@pytest.mark.parametrize("p", (2, 3))
def test_kappa_matches_deep_product(p, eps):
    # from eps 3e-4 down the coupling has not decayed within 50 000 steps:
    # there kappa comes from the Koenigs tail of an orbit of under 80 steps
    params, fc, eig = _point(p, 1, eps)
    for g_rel in (0.95, 1.05):
        orbit = stable_orbit(g_rel * fc.gbar, fc, params)
        assert orbit.settle_index <= 80
        _, kappa = mass_products(orbit, fc, eig.alpha_u)
        assert _rel(kappa, deep_kappa(orbit.dg[0], fc, eig.alpha_u)) <= RTOL


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 7, 11)),
    l=st.integers(1, 3),
    eps=st.floats(1e-3, 1.0),
    g_rel=st.floats(0.5, 1.4999999),  # 1.5 gbar - gbar may round past the radius
)
def test_kappa_matches_deep_product_everywhere(p, l, eps, g_rel):
    params, fc, eig = _point(p, l, eps)
    assume(abs(fc.lam_g) < 1.0)
    orbit = stable_orbit(g_rel * fc.gbar, fc, params)
    _, kappa = mass_products(orbit, fc, eig.alpha_u)
    assert _rel(kappa, deep_kappa(orbit.dg[0], fc, eig.alpha_u)) <= 1e-14


@pytest.mark.parametrize(
    "p, l, eps",
    [
        (2, 2, 0.5),  # lam_g = 0: no Koenigs coordinate, the coupling dies in a few steps
        (2, 1, 1.0),  # lam_g = 0 at the deepest sweep, 80 steps
        (5, 1, 0.5),  # lam_g = -0.24
        (7, 1, 0.5),  # lam_g = -0.65
        (3, 3, 0.3),  # lam_g = -0.69
        (11, 3, 0.1),  # lam_g = -0.05 at the shallowest sweep, 8 steps
    ],
)
def test_kappa_tail_at_zero_and_negative_multipliers(p, l, eps):
    params, fc, eig = _point(p, l, eps)
    alpha = eig.alpha_u
    for g_rel in (0.5, 0.9, 1.1, 1.49):
        orbit = stable_orbit(g_rel * fc.gbar, fc, params)
        _, kappa = mass_products(orbit, fc, alpha)
        assert _rel(kappa, deep_kappa(orbit.dg[0], fc, alpha)) <= 1e-14
        # the tail alone, from the seed, against the same product
        x0 = orbit.dg[0] / fc.gbar
        assert abs(kappa_tail_log(x0, fc, alpha) - math.log(deep_kappa(orbit.dg[0], fc, alpha))) <= 1e-15


def _split_kappa(orbit, fc, alpha, k):
    """kappa with the split between exact factors and the Koenigs tail moved
    k coupling steps past the stored depth."""
    dg = float(orbit.dg[-1])
    logs = [math.log1p(-fc.a3 * x / alpha) for x in orbit.dg[:-1]]
    for _ in range(k):
        logs.append(math.log1p(-fc.a3 * dg / alpha))
        dg = fc.lam_g * dg - fc.a1 * dg * dg
    return math.exp(math.fsum(logs) + kappa_tail_log(dg / fc.gbar, fc, alpha))


@pytest.mark.parametrize("eps", (1e-5, 1e-6))
@pytest.mark.parametrize("p, l", ((2, 1), (3, 1), (2, 2)))
def test_kappa_does_not_depend_on_where_the_tail_starts(p, l, eps):
    # far below the old depth cap no deep product is affordable; moving the
    # split between exact steps and the series must leave kappa in place
    params, fc, eig = _point(p, l, eps)
    alpha = eig.alpha_u
    for g_rel in (0.5, 0.95, 1.05, 1.49):
        orbit = stable_orbit(g_rel * fc.gbar, fc, params)
        _, kappa = mass_products(orbit, fc, alpha)
        assert abs(_split_kappa(orbit, fc, alpha, 0) - kappa) <= 1e-15
        for k in (1, 7, 100):
            assert abs(_split_kappa(orbit, fc, alpha, k) - kappa) <= 1e-15

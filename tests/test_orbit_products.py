"""The chained-Jacobian closed forms (kappa, Xi, xi_inf, upsilon and the
t_infinity limit) against the term-by-term walks and a deep product of
kappa in `oracles`, over many (p, l, eps) and g seeds."""

import numpy as np
import pytest

from hrg.covariance import covariance_table
from hrg.dynamics import (
    E_PHI2,
    KAPPA_TAIL_RTOL,
    find_fixed_point,
    jacobian_at,
    kappa_tail_bound,
    mass_products,
    stable_orbit,
    t_infinity,
    unstable_eigenpair,
)
from hrg.errors import DomainError
from hrg.geometry import make_params
from hrg.observables import normalization_constants, xi_sequence_limit
from hrg.rg import BulkVector, flow_coefficients
from oracles import chained_jacobian_walk, deep_kappa, upsilon_sum, xi_walk

G_RELS = (0.9, 0.95, 1.0, 1.05, 1.1)
RTOL = 1e-13


def _walk_rtol(orbit):
    """The walks build each factor lam_mu_free - a3 g_n in float64, about
    one ulp of alpha_u off, and those errors add up over the S steps (2.3e-13
    at (2,1,0.01), S = 4026); the closed forms sum log1p(-a3 dg_n / alpha_u)
    instead and stay within RTOL of the deep product."""
    return max(RTOL, orbit.settle_index * np.finfo(float).eps)


def _point(p, l, eps):
    params = make_params(p, l, eps, box_budget=p ** (3 * l))
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
        orbit = stable_orbit(g_rel * fc.gbar, fc, params)
        s = orbit.settle_index
        products = mass_products(orbit, fc, alpha)
        kappa = float(products[-1])
        if s:
            assert _rel(kappa, deep_kappa(orbit.dg[0], fc, alpha)) <= RTOL
        else:
            assert kappa == 1.0
        tol = _walk_rtol(orbit)
        _, kappa_walk = chained_jacobian_walk(orbit, E_PHI2, fc, alpha)
        assert _rel(kappa, kappa_walk) <= tol
        assert t_infinity(orbit.point(0), E_PHI2, fc, params, orbit=orbit)[1] == kappa

        xis, xi_inf = xi_sequence_limit(orbit, fc, products)
        xis_walk, xi_inf_walk = xi_walk(orbit, fc, alpha)
        assert len(xis) == s + 1 <= len(xis_walk)
        assert max(_rel(a, b) for a, b in zip(xis, xis_walk)) <= tol
        assert max(_rel(xi_inf, b) for b in xis_walk[s:]) <= tol
        assert _rel(xi_inf, xi_inf_walk) <= tol
        upsilon = normalization_constants(eig, params, xis, kappa, 1.0).upsilon
        assert _rel(upsilon, upsilon_sum(xis_walk, z0)) <= RTOL

        # a direction with a coupling part: the cross sum and its tail
        limit, kappa_w = t_infinity(orbit.point(0), w, fc, params, orbit=orbit)
        limit_walk, kappa_w_walk = chained_jacobian_walk(orbit, w, fc, alpha)
        assert _rel(kappa_w, kappa_w_walk) <= tol
        assert limit.delta_g == 0.0
        assert abs(limit_walk.delta_g) <= RTOL


@pytest.mark.parametrize("eps", (1e-2, 1e-3))
@pytest.mark.parametrize("p", (2, 3))
def test_kappa_matches_deep_product(p, eps):
    params, fc, eig = _point(p, 1, eps)
    for g_rel in (0.95, 1.05):
        orbit = stable_orbit(g_rel * fc.gbar, fc, params)
        kappa = float(mass_products(orbit, fc, eig.alpha_u)[-1])
        assert _rel(kappa, deep_kappa(orbit.dg[0], fc, eig.alpha_u)) <= RTOL


@pytest.mark.parametrize("eps", (3e-4, 1e-4))
def test_cut_orbit_is_flagged_and_bound_holds(eps):
    # at these eps the seed 1.05 gbar has not settled at the depth cap
    params, fc, eig = _point(2, 1, eps)
    orbit = stable_orbit(1.05 * fc.gbar, fc, params)
    bound = kappa_tail_bound(orbit, fc, eig.alpha_u)
    assert bound > KAPPA_TAIL_RTOL
    with pytest.raises(DomainError):
        mass_products(orbit, fc, eig.alpha_u)
    with pytest.raises(DomainError):
        t_infinity(orbit.point(0), E_PHI2, fc, params, orbit=orbit)
    truncated = float(np.prod(1.0 - fc.a3 * orbit.dg / eig.alpha_u))
    deep = deep_kappa(orbit.dg[0], fc, eig.alpha_u)
    # first-order bound: it holds to within its own square
    assert 0.5 * bound <= _rel(truncated, deep) <= bound * (1.0 + bound) + 1e-13


def test_tail_bound_on_settled_orbits():
    for p, l, eps in ((2, 1, 0.1), (2, 2, 0.5), (3, 1, 0.01)):
        params, fc, eig = _point(p, l, eps)
        for g_rel in G_RELS:
            orbit = stable_orbit(g_rel * fc.gbar, fc, params)
            assert kappa_tail_bound(orbit, fc, eig.alpha_u) <= 1e-13
    assert kappa_tail_bound(stable_orbit(fc.gbar, fc, params), fc, eig.alpha_u) == 0.0

import itertools
import math

import mpmath
import numpy as np
import pytest

from hrg.covariance import c_infinity_value, c_r_value, covariance_table, free_pairing_c_inf, gamma_value
from hrg.dynamics import find_fixed_point
from hrg.geometry import distance_class_sizes, make_params
from hrg.observables import u_values
from hrg.rg import flow_coefficients
from oracles import (
    C_R_SERIES_RTOL,
    PAIRING_SERIES_RTOL,
    U4_SERIES_RTOL,
    block_matrix,
    c_r_series,
    fluct_spectrum,
    free_pairing_series,
    gamma_series_value,
    mp_c_r,
    mp_free_pairing,
    mp_u4_total,
    shell_measure,
    u4_scale_series,
)

GRID = [
    (p, l, eps)
    for p in (2, 3, 5)
    for l in (1, 2)
    for eps in (0.01, 0.1, 0.5, 1.0)
]


def _params(p, l, eps):
    return make_params(p, l, eps)


def test_gamma_examples():
    for eps in (0.05, 0.1, 0.9):
        p = make_params(2, 1, eps)
        assert gamma_value(p, 0) == pytest.approx(0.875, abs=1e-15)
        assert gamma_value(p, 1) == pytest.approx(-0.125, abs=1e-15)
        assert gamma_value(p, 2) == 0.0


@pytest.mark.parametrize("p,l,eps", GRID)
def test_gamma_evaluators_agree_on_all_shells(p, l, eps):
    mp = _params(p, l, eps)
    for shell in range(0, l + 2):
        assert gamma_value(mp, shell) == pytest.approx(
            gamma_series_value(mp, shell), abs=1e-12
        )


@pytest.mark.parametrize("p,l,eps", GRID)
def test_signed_moments(p, l, eps):
    mp = _params(p, l, eps)
    t = covariance_table(mp)
    # Gamma integrates to zero: the table holds S_1 = 0, and the class sum agrees
    assert t.s_moments[1] == 0.0
    s1 = gamma_value(mp, 0) + sum(gamma_value(mp, i) * n for i, n in enumerate(distance_class_sizes(mp), start=1))
    assert abs(s1) <= 1e-12
    pf = float(p)
    s2_closed = (1 - pf**-3) * (float(mp.L) ** eps - 1) / (pf**eps - 1)
    assert t.s_moments[2] == pytest.approx(s2_closed, rel=1e-12)


def test_moment_values_p2_l1():
    t = covariance_table(make_params(2, 1, 0.37))
    assert t.s_moments[2] == pytest.approx(0.875, rel=1e-14)
    assert t.s_moments[3] == pytest.approx(21.0 / 32.0, rel=1e-14)
    assert t.s_moments[4] == pytest.approx(301.0 / 512.0, rel=1e-14)


@pytest.mark.parametrize("p,l,eps", GRID)
def test_c0_zero_bounds(p, l, eps):
    mp = _params(p, l, eps)
    t = covariance_table(mp)
    assert 1.0 < t.c0_zero < 2.0


def test_c0_zero_examples():
    p = make_params(2, 1, 1e-9)
    assert c_r_value(p, 0, 0) == pytest.approx(1.0 + 2.0**-1.5, abs=1e-8)
    p = make_params(2, 1, 0.1)
    assert c_r_value(p, 0, 0) == pytest.approx(0.875 / (1 - 2.0**-1.45), rel=1e-12)


def test_sign_structure_and_linf_bound():
    for (p, l, eps) in GRID:
        mp = _params(p, l, eps)
        assert gamma_value(mp, 0) > 0.0
        assert gamma_value(mp, l) < 0.0
        for i in range(1, l):
            assert gamma_value(mp, i) > 0.0
        assert gamma_value(mp, l + 1) == 0.0
        for shell in range(0, l + 1):
            assert abs(gamma_value(mp, shell)) <= 2.0


def test_l1_bound():
    for (p, l, eps) in GRID:
        mp = _params(p, l, eps)
        total = abs(gamma_value(mp, 0)) * 1.0
        for i in range(1, l + 1):
            cls = float(p) ** (3 * i) - float(p) ** (3 * (i - 1))
            total += abs(gamma_value(mp, i)) * cls
        assert total < 2.0**-0.5 * float(mp.L) ** (3 - 2 * mp.phi_dim)


def test_block_matrix_row_sums_and_spectrum():
    for (p, l, eps) in [(2, 1, 0.1), (3, 1, 0.5), (2, 2, 0.1)]:
        mp = make_params(p, l, eps)
        t = covariance_table(mp)
        rows = block_matrix(t).sum(axis=1)
        assert np.max(np.abs(rows)) <= 1e-12
        assert fluct_spectrum(t).min() >= -1e-10


def test_fluct_spectrum_single_level_analytic():
    mp = make_params(2, 1, 0.1)
    t = covariance_table(mp)
    gap = t.gamma_ball - t.gamma_shell[0]
    assert gap == pytest.approx(1.0, abs=1e-14)
    eigs = np.sort(fluct_spectrum(t))
    assert eigs[0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(eigs[1:], gap, atol=1e-12)


def test_c_r_scaling_and_shells():
    mp = make_params(2, 1, 0.1)
    scale = float(mp.L) ** (-2 * 1 * mp.phi_dim)
    assert c_r_value(mp, 1, 1) == pytest.approx(scale * c_r_value(mp, 0, 0), rel=1e-12)
    # constant inside the cut-off ball
    assert c_r_value(mp, 0, -3) == c_r_value(mp, 0, 0)
    # closed shell form for the cut-off-free covariance
    mp3 = make_params(3, 2, 0.4)
    for shell in (-2, 0, 3):
        pf = float(mp3.p)
        tp = 2 * mp3.phi_dim
        closed = ((1 - pf**-3) / (1 - pf**-tp) - pf ** (tp - 3)) * pf ** (-tp * shell)
        assert c_infinity_value(mp3, shell) == pytest.approx(closed, rel=1e-14)


def test_c_r_telescoping_to_gamma():
    # Gamma = C_0 - C_1 on every shell
    for (p, l, eps) in [(2, 1, 0.1), (3, 2, 0.5)]:
        mp = _params(p, l, eps)
        for shell in range(0, l + 2):
            diff = c_r_value(mp, 0, shell) - c_r_value(mp, 1, shell)
            assert diff == pytest.approx(gamma_value(mp, shell), abs=1e-12)


def _free_pairing_oracle(params, ball_shell=0):
    # independent route: double sum over shells of the defining series
    pf = float(params.p)
    tp = 2 * params.phi_dim
    amp = (1 - pf**-3) / (1 - pf**-tp) - pf ** (tp - 3.0)
    total = 0.0
    for k in range(ball_shell, ball_shell - 220, -1):
        total += shell_measure(params, k) * amp * pf ** (-tp * k)
    return pf ** (3 * ball_shell) * total


def test_free_pairing_positive_and_closed_form():
    for (p, l, eps) in [(2, 1, 0.1), (3, 1, 0.5), (2, 2, 0.01)]:
        mp = _params(p, l, eps)
        val = free_pairing_c_inf(mp)
        assert val > 0.0
        assert val == pytest.approx(_free_pairing_oracle(mp), rel=1e-12)


def test_free_pairing_doubling_relation():
    mp = make_params(2, 1, 0.1)
    inner = free_pairing_c_inf(mp, ball_shell=-1)
    outer = free_pairing_c_inf(mp, ball_shell=0)
    factor = float(mp.p) ** -(6 - 2 * mp.phi_dim)
    assert inner == pytest.approx(factor * outer, rel=1e-12)


# the closed forms are checked at p in {2, 3, 5, 7, 11, 101}, l = 1..4, these
# eps, cut-off indices r = -2..1, shells -2..3l+1 and balls of radius
# p^-2..p^1; at (11, 3, 0.1) shell 10, r = 0, the summed series, which stops
# on an absolute 1e-16, is off by 9.8e-4 relative
CLOSED_FORM_EPS = (1e-3, 0.01, 0.1, 0.5, 1.0)


def _ulps(got, want):
    return float(abs(mpmath.mpf(got) - want)) / math.ulp(float(want))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101])
def test_closed_forms_within_4_ulp_of_50_digit_series(p):
    for l, eps in itertools.product((1, 2, 3, 4), CLOSED_FORM_EPS):
        params = make_params(p, l, eps)
        shells = list(range(-2, 3 * l + 2))
        for r in (-2, -1, 0, 1):
            for shell, want in zip(shells, mp_c_r(params, r, shells)):
                assert _ulps(c_r_value(params, r, shell), want) <= 4.0, (l, eps, r, shell)
        for ball in (-2, -1, 0, 1):
            assert _ulps(free_pairing_c_inf(params, ball), mp_free_pairing(params, ball)) <= 4.0, (l, eps, ball)
        table = covariance_table(params)
        fc = flow_coefficients(table, params)
        v_star = find_fixed_point(fc, params)
        x = float(params.L) ** (-2.0 * params.phi_dim)
        total = mp_u4_total(x, table.s_moments[2], table.s_moments[3], table.s_moments[4], table.gamma_ball)
        want = -24 * mpmath.mpf(fc.gbar + v_star.delta_g) * total
        assert _ulps(u_values(params, table, fc, v_star)[1], want) <= 4.0, (l, eps)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101])
def test_closed_forms_match_the_summed_series_within_their_stop_rules(p):
    # each series stops on a tolerance; its truncated tail is bounded by the
    # stop rule, and its rounding by 8 ulp of the value
    for l, eps in itertools.product((1, 2, 3, 4), CLOSED_FORM_EPS):
        params = make_params(p, l, eps)
        x = float(p) ** (-2.0 * params.phi_dim)
        for r in (-2, -1, 0, 1):
            for shell in range(-2, 3 * l + 2):
                c = c_r_value(params, r, shell)
                tail = C_R_SERIES_RTOL * max(abs(c), 1.0) / (1.0 - x)
                assert abs(c_r_series(params, r, shell) - c) <= tail + 8 * math.ulp(c), (l, eps, r, shell)
        b = float(p) ** (3.0 - 2.0 * params.phi_dim)
        for ball in (-2, -1, 0, 1):
            c = free_pairing_c_inf(params, ball)
            assert abs(free_pairing_series(params, ball) - c) <= PAIRING_SERIES_RTOL * c / (b - 1.0) + 8 * math.ulp(c)
        table = covariance_table(params)
        fc = flow_coefficients(table, params)
        v_star = find_fixed_point(fc, params)
        x_l = float(params.L) ** (-2.0 * params.phi_dim)
        total = u4_scale_series(x_l, table.s_moments[2], table.s_moments[3], table.s_moments[4], table.gamma_ball)
        u4 = u_values(params, table, fc, v_star)[1]
        assert abs(-24.0 * (fc.gbar + v_star.delta_g) * total - u4) <= U4_SERIES_RTOL * abs(u4), (l, eps)

import numpy as np
import pytest

from hrg.covariance import (
    c_infinity_value,
    c_r_value,
    covariance_table,
    free_pairing_c_inf,
    gamma_series_value,
    gamma_value,
)
from hrg.errors import BoxBudgetError
from hrg.geometry import make_params, shell_measure

GRID = [
    (p, l, eps)
    for p in (2, 3, 5)
    for l in (1, 2)
    for eps in (0.01, 0.1, 0.5, 1.0)
]


def _params(p, l, eps):
    return make_params(p, l, eps, box_budget=20000)


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
    t = covariance_table(mp, build_matrix=False)
    assert abs(t.s_moments[1]) <= 1e-12
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
    t = covariance_table(mp, build_matrix=False)
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
        t = covariance_table(mp, build_matrix=True)
        rows = t.block_matrix.sum(axis=1)
        assert np.max(np.abs(rows)) <= 1e-12
        assert t.fluct_spectrum.min() >= -1e-10


def test_fluct_spectrum_single_level_analytic():
    mp = make_params(2, 1, 0.1)
    t = covariance_table(mp, build_matrix=True)
    gap = t.gamma_ball - t.gamma_shell[0]
    assert gap == pytest.approx(1.0, abs=1e-14)
    eigs = np.sort(t.fluct_spectrum)
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


def test_table_immutable_matrix():
    t = covariance_table(make_params(2, 1, 0.1), build_matrix=True)
    with pytest.raises(ValueError):
        t.block_matrix[0, 0] = 5.0


def test_large_l_skips_matrix():
    mp = make_params(5, 2, 0.1, box_budget=20000)
    t = covariance_table(mp)
    assert t.block_matrix is None and t.fluct_spectrum is None
    assert abs(t.s_moments[1]) <= 1e-12
    with pytest.raises(BoxBudgetError):
        covariance_table(mp, build_matrix=True)


def test_gamma_zero_field_aliases_ball_value():
    t = covariance_table(make_params(3, 2, 0.3))
    assert t.gamma_zero == t.gamma_ball

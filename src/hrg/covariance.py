"""Covariances of the hierarchical massless field.

Gamma is the single-scale fluctuation covariance (unit cut-off minus the
L-blocked cut-off): positive inside the block, a negative outer shell at
distance L that makes it integrate to zero, and exactly zero beyond.  C_r
is the field covariance with ultraviolet cut-off L^r.  All of them are
constant on ultrametric distance classes, so integrals become finite sums
over shells weighted by class measures, and sums over scales are geometric
series taken in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import ModelParams, distance_class_sizes


def gamma_value(params: ModelParams, shell: int) -> float:
    """Closed-form value of Gamma on a shell (0 means |x| <= 1, i means |x| = p^i)."""
    p = float(params.p)
    l = params.l
    two_phi = 2.0 * params.phi_dim
    if shell > l:
        return 0.0
    if shell <= 0:
        return (1.0 - p**-3) / (1.0 - p**-two_phi) * (1.0 - float(params.L) ** -two_phi)
    i = shell
    return -(p ** (-3.0 + two_phi)) * p ** (-two_phi * l) + (1.0 - p ** (-3.0 + two_phi)) / (
        1.0 - p**-two_phi
    ) * (p ** (-two_phi * i) - p ** (-two_phi * l))


def c_r_value(params: ModelParams, r: int, shell: int) -> float:
    """Covariance with cut-off L^r on the shell |x| = p^shell.

    The defining series sum_{n >= l r} a^n (1[s <= n] - p^-3 1[s <= n+1]),
    with a = p^(-2 phi) and s = max(shell, l r), is two geometric tails.
    For shell <= l r the value is constant (the cut-off ball value, e.g.
    C_0(0) for r = 0).  a^k is taken as (p^-k)^(2 phi), so the rounding of
    a is not raised to the k-th power.
    """
    p = float(params.p)
    two_phi = 2.0 * params.phi_dim
    s = max(shell, params.l * r)
    tail = (p**-s) ** two_phi - p**-3 * (p ** -max(s - 1, params.l * r)) ** two_phi
    return tail / (1.0 - p**-two_phi)


def c_infinity_value(params: ModelParams, shell: int) -> float:
    """Massless covariance without cut-offs at |x| = p^shell (power-law shell form)."""
    p = float(params.p)
    two_phi = 2.0 * params.phi_dim
    amp = (1.0 - p**-3) / (1.0 - p**-two_phi) - p ** (two_phi - 3.0)
    return amp * p ** (-two_phi * shell)


def free_pairing_c_inf(params: ModelParams, ball_shell: int = 0) -> float:
    """Pairing of the indicator of the ball |x| <= p^ball_shell with itself
    under the cut-off-free covariance.

    By ultrametric shift invariance this is vol(ball) * sum over shells
    k <= ball_shell of shell measure times the covariance shell value, a
    geometric series in b = p^(3 - 2 phi) > 1 since the field dimension is
    below 3/2.
    """
    p = float(params.p)
    b = p ** (3.0 - 2.0 * params.phi_dim)
    amp = c_infinity_value(params, 0)
    return p ** (3 * ball_shell) * (1.0 - p**-3) * amp * b**ball_shell / (1.0 - 1.0 / b)


@dataclass(frozen=True)
class CovarianceTable:
    """Gamma shell values, C_0(0) and the signed moments S_1..S_4."""

    params: ModelParams
    gamma_ball: float
    gamma_shell: tuple
    c0_zero: float
    s_moments: dict


def covariance_table(params: ModelParams) -> CovarianceTable:
    """Evaluate Gamma on all shells plus its signed moments S_m = int Gamma^m.

    Gamma integrates to zero, so S_1 is 0 exactly; S_2..S_4 are finite sums
    over distance classes.
    """
    g_ball = gamma_value(params, 0)
    g_shell = tuple(gamma_value(params, i) for i in range(1, params.l + 1))
    sizes = distance_class_sizes(params)
    s_moments = {1: 0.0}
    for m in range(2, 5):
        s_moments[m] = g_ball**m + sum(g_shell[i] ** m * sizes[i] for i in range(params.l))
    c0 = (1.0 - float(params.p) ** -3) / (1.0 - float(params.p) ** (-2.0 * params.phi_dim))
    return CovarianceTable(params=params, gamma_ball=g_ball, gamma_shell=g_shell, c0_zero=c0, s_moments=s_moments)

"""Covariances of the hierarchical massless field.

Gamma is the single-scale fluctuation covariance (unit cut-off minus the
L-blocked cut-off): positive inside the block, a negative outer shell at
distance L that makes it integrate to zero, and exactly zero beyond.  C_r
is the field covariance with ultraviolet cut-off L^r.  All of them are
constant on ultrametric distance classes, so integrals become finite sums
over shells weighted by class measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoxBudgetError
from .geometry import ModelParams, distance_class_sizes, distance_exponents, shell_measure

SERIES_RTOL = 1e-16
PAIRING_RTOL = 1e-12  # the free-pairing shell sum stops once a term falls below this share
DEFAULT_MATRIX_BUDGET = 4096


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


def gamma_series_value(params: ModelParams, shell: int) -> float:
    """Gamma from its defining shell series; independent of gamma_value."""
    p = float(params.p)
    two_phi = 2.0 * params.phi_dim
    s = max(shell, 0)
    total = 0.0
    for n in range(params.l):
        inner = 1.0 if s <= n else 0.0
        outer = 1.0 if s <= n + 1 else 0.0
        total += p ** (-two_phi * n) * (inner - p**-3 * outer)
    return total


def c_r_value(params: ModelParams, r: int, shell: int) -> float:
    """Covariance with cut-off L^r on the shell |x| = p^shell.

    For shell <= l*r the value is constant (the cut-off ball value, e.g.
    C_0(0) for r=0).  Evaluated by summing the defining series until terms
    fall below SERIES_RTOL relative.
    """
    p = float(params.p)
    two_phi = 2.0 * params.phi_dim
    s = max(shell, params.l * r)
    total = 0.0
    n = params.l * r
    while True:
        term = p ** (-two_phi * n) * ((1.0 if s <= n else 0.0) - p**-3 * (1.0 if s <= n + 1 else 0.0))
        total += term
        n += 1
        if n > s + 1 and p ** (-two_phi * n) < SERIES_RTOL * max(abs(total), 1.0):
            break
    return total


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
    k <= ball_shell of shell measure times the covariance shell value.
    Convergent since the field dimension is below 3/2.
    """
    p = float(params.p)
    vol = p ** (3 * ball_shell)
    total = 0.0
    k = ball_shell
    while True:
        term = shell_measure(params, k) * c_infinity_value(params, k)
        total += term
        k -= 1
        if abs(term) < PAIRING_RTOL * abs(total) and ball_shell - k > 8:
            break
    return vol * total


@dataclass(frozen=True)
class CovarianceTable:
    """Gamma shell values, moments, and the block covariance matrix.

    block_matrix and fluct_spectrum are None unless the caller asks for
    them; every scalar field is always populated.  No computation in the
    package reads the matrix: it is the dense reference for the class-sum
    routes.
    """

    params: ModelParams
    gamma_ball: float
    gamma_shell: tuple
    c0_zero: float
    gamma_zero: float
    s_moments: dict
    block_matrix: np.ndarray | None
    fluct_spectrum: np.ndarray | None


def covariance_table(params: ModelParams, build_matrix: bool = False) -> CovarianceTable:
    """Evaluate Gamma on all shells plus its signed moments S_m = int Gamma^m.

    The moments are exact finite sums over distance classes.  With
    build_matrix, the L^3 x L^3 block matrix (entries Gamma at the pair
    distance) and its spectrum are built too, within the matrix budget.
    """
    n = params.n_boxes
    if build_matrix and n > DEFAULT_MATRIX_BUDGET:
        raise BoxBudgetError(f"block matrix for {n} boxes exceeds budget {DEFAULT_MATRIX_BUDGET}")

    g_ball = gamma_value(params, 0)
    g_shell = tuple(gamma_value(params, i) for i in range(1, params.l + 1))
    sizes = distance_class_sizes(params)
    s_moments = {}
    for m in range(1, 5):
        s_moments[m] = g_ball**m + sum(g_shell[i] ** m * sizes[i] for i in range(params.l))
    c0 = (1.0 - float(params.p) ** -3) / (1.0 - float(params.p) ** (-2.0 * params.phi_dim))

    matrix = None
    spectrum = None
    if build_matrix:
        k = distance_exponents(params.p, params.l)
        values = np.array([g_ball] + list(g_shell))
        matrix = values[k]
        matrix.flags.writeable = False
        spectrum = np.linalg.eigvalsh(matrix)
        spectrum.flags.writeable = False

    return CovarianceTable(
        params=params,
        gamma_ball=g_ball,
        gamma_shell=g_shell,
        c0_zero=c0,
        gamma_zero=g_ball,
        s_moments=s_moments,
        block_matrix=matrix,
        fluct_spectrum=spectrum,
    )

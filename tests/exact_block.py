"""The one-block integral at l = 1 by deterministic quadrature.

At l = 1 the block fluctuation is zeta_i = xi_i - mean(xi) over the
N = p^3 boxes, with xi_i iid unit normals.  It is independent of mean(xi),
so E[prod_i z(lam phi + zeta_i)] = E[prod_i z(lam phi + xi_i) | sum xi = 0],
and writing the delta function of the sum as a Fourier integral,

    E[prod_i z(lam phi + zeta_i)] = sqrt(2 pi N) / (2 pi) int dk G_phi(k)^N,
    G_phi(k) = int z(lam phi + xi) varphi(xi) e^(i k xi) dxi,

with varphi the unit normal density and lam = p^-phi_dim.  G for every
background phi at once is one matrix product over a u grid.  Minus the log
of the result, projected on the even Wick polynomials :phi^n:_c0 (n <= 10)
over phi in [-3, 3], is the potential after one block step; symmetric
differences in the seed's couplings read off the seven coefficients of
the second-order flow.  This module depends on numpy alone and shares no
code with the package it checks.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import hermite_e

U = np.arange(-400, 401) * 0.03  # field values u on [-12, 12]
N_K = 201  # k nodes on [-8, 8] / sqrt(N)
PHI = np.linspace(-3.0, 3.0, 25)  # backgrounds of the projection
DEGREE = 10  # highest Wick degree of the projection
STEPS = (4e-4, 2e-4)  # seed sizes of the differences, combined by Richardson


def c0_zero(p: int, l: int, eps: float) -> float:
    """Wick constant of the block step, c0 = gamma_ball / (1 - lam^2) at l = 1."""
    if l != 1:
        raise ValueError("the exact block integral is implemented for l = 1 only")
    phi_dim = (3.0 - eps) / 4.0
    return (1.0 - p**-3.0) / (1.0 - p ** (-2.0 * phi_dim))


def wick_basis(phi, c: float, degree: int) -> np.ndarray:
    """Columns :phi^n:_c = c^(n/2) He_n(phi / sqrt(c)) for n = 0..degree."""
    phi = np.asarray(phi, dtype=float)
    return hermite_e.hermevander(phi / np.sqrt(c), degree) * np.sqrt(c) ** np.arange(degree + 1)


def block_integral(z_values: np.ndarray, p: int, eps: float) -> np.ndarray:
    """E[prod_i z(lam phi + zeta_i)] over one block at l = 1, at every phi
    of PHI, for z given on U."""
    n = p**3
    lam = p ** -((3.0 - eps) / 4.0)
    k = np.linspace(-8.0, 8.0, N_K) / np.sqrt(n)
    shift = lam * PHI[:, None]
    density = np.exp(-0.5 * (U - shift) ** 2) / np.sqrt(2.0 * np.pi)
    g = ((density * z_values) @ np.exp(1j * np.outer(U, k))) * np.exp(-1j * shift * k) * (U[1] - U[0])
    return np.sqrt(2.0 * np.pi * n) / (2.0 * np.pi) * (g**n).sum(axis=1).real * (k[1] - k[0])


def block_potential(g: float, mu: float, p: int, l: int, eps: float) -> np.ndarray:
    """Even Wick coefficients (n = 0, 2, ..., 10) at c0 of -log of the block
    integral of z = exp(-(g :u^4: + mu :u^2:)), seed Wick-ordered at c0."""
    c0 = c0_zero(p, l, eps)
    seed = wick_basis(U, c0, 4) @ np.array([0.0, 0.0, mu, 0.0, g])
    basis = wick_basis(PHI, c0, DEGREE)[:, ::2]
    coef, *_ = np.linalg.lstsq(basis, -np.log(block_integral(np.exp(-seed), p, eps)), rcond=None)
    return coef


def flow_coefficients(p: int, l: int, eps: float) -> dict:
    """a1..a5 and the two linear multipliers from the block integral.

    With V = g :u^4: + mu :u^2: one step gives, to second order,
    g' = L^(3-4 phi) g - a1 g^2, mu' = L^(3-2 phi) mu - a2 g^2 - a3 g mu and
    the vacuum -(a4 g^2 + a5 mu^2).  Each entry is a symmetric difference
    at seed size s, and the s^2 error cancels between the two STEPS.
    """

    def at(s):
        v = {(i, j): block_potential(i * s, j * s, p, l, eps) for i in (-1, 0, 1) for j in (-1, 0, 1)}
        d_g = (v[1, 0] - v[-1, 0]) / (2 * s)
        d_mu = (v[0, 1] - v[0, -1]) / (2 * s)
        dd_g = (v[1, 0] + v[-1, 0] - 2 * v[0, 0]) / s**2
        dd_mu = (v[0, 1] + v[0, -1] - 2 * v[0, 0]) / s**2
        dd_g_mu = (v[1, 1] - v[1, -1] - v[-1, 1] + v[-1, -1]) / (4 * s**2)
        return np.array([-dd_g[2] / 2, -dd_g[1] / 2, -dd_g_mu[1], -dd_g[0] / 2, -dd_mu[0] / 2, d_g[2], d_mu[1]])

    coarse, fine = (at(s) for s in STEPS)
    names = ("a1", "a2", "a3", "a4", "a5", "L^(3-4phi)", "L^(3-2phi)")
    return dict(zip(names, (4 * fine - coarse) / 3))

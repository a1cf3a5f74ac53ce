"""Wick (Hermite) polynomial algebra at a fixed variance, and the cumulant
expansion of the one-block integral that derives the flow coefficients
with it: a second route to `hrg.rg.flow_coefficients` that shares only the
connection coefficients with the package.

:phi^n:_c is the Hermite polynomial He_n(phi; c), mean zero under N(0, c).
Coefficients stay exact (int / Fraction) whenever the inputs are exact; the
structure constants of the product are always exact integers.
"""

from dataclasses import dataclass, field
from math import comb, factorial

from hrg.errors import HRGError
from hrg.rg import FlowCoefficients
from hrg.wick import connection_coeff

DEGREE_CAP = 16


class DegreeError(HRGError):
    """Polynomial degree exceeds the supported cap."""


class WickConstantMismatchError(HRGError):
    """Binary operation on Wick polynomials with different constants."""


def double_factorial_odd(j: int):
    """(2j-1)!! = number of pairings of 2j objects."""
    return factorial(2 * j) // (2**j * factorial(j))


@dataclass(frozen=True)
class WickPoly:
    """Finitely supported coefficients on the basis :phi^k:_c."""

    c: object
    coeffs: dict = field(default_factory=dict)

    @property
    def degree(self) -> int:
        live = [k for k, v in self.coeffs.items() if v != 0]
        return max(live) if live else 0

    def coeff(self, k: int):
        return self.coeffs.get(k, 0)


def _clean(coeffs: dict) -> dict:
    return {k: v for k, v in coeffs.items() if v != 0}


def _check_degree(coeffs: dict):
    if any(k > DEGREE_CAP for k in coeffs):
        raise DegreeError(f"degree {max(coeffs)} exceeds cap {DEGREE_CAP}")


def monomial_to_wick(poly: dict, c) -> WickPoly:
    """Rewrite sum_n a_n phi^n in the Wick basis at constant c.

    phi^n = sum_j binom(n, 2j) (2j-1)!! c^j :phi^(n-2j):_c.
    """
    _check_degree(poly)
    out: dict = {}
    for n, a in poly.items():
        if a == 0:
            continue
        for j in range(n // 2 + 1):
            w = comb(n, 2 * j) * double_factorial_odd(j)
            out[n - 2 * j] = out.get(n - 2 * j, 0) + a * w * c**j
    return WickPoly(c=c, coeffs=_clean(out))


def wick_to_monomial(wp: WickPoly) -> dict:
    """Expand a Wick polynomial into plain monomial coefficients."""
    _check_degree(wp.coeffs)
    out: dict = {}
    for n, a in wp.coeffs.items():
        if a == 0:
            continue
        for j in range(n // 2 + 1):
            w = comb(n, 2 * j) * double_factorial_odd(j)
            out[n - 2 * j] = out.get(n - 2 * j, 0) + a * w * (-wp.c) ** j
    return _clean(out)


def wick_product(x: WickPoly, y: WickPoly) -> WickPoly:
    """Product re-expanded in the same Wick basis via connection coefficients."""
    if x.c != y.c:
        raise WickConstantMismatchError(f"constants differ: {x.c} vs {y.c}")
    out: dict = {}
    for a1, u in x.coeffs.items():
        if u == 0:
            continue
        for a2, v in y.coeffs.items():
            if v == 0:
                continue
            if a1 + a2 > DEGREE_CAP:
                raise DegreeError(f"product degree {a1+a2} exceeds cap {DEGREE_CAP}")
            for k in range(abs(a1 - a2), a1 + a2 + 1, 2):
                cc = connection_coeff(a1, a2, k)
                if cc:
                    out[k] = out.get(k, 0) + u * v * cc * x.c ** ((a1 + a2 - k) // 2)
    return WickPoly(c=x.c, coeffs=_clean(out))


def scale_argument(wp: WickPoly, lam) -> WickPoly:
    """The function phi -> wp(lam*phi), in the Wick basis at c/lam^2.

    Uses Hermite homogeneity He_k(lam*x; lam^2 c) = lam^k He_k(x; c).
    """
    return WickPoly(c=wp.c / lam**2, coeffs=_clean({k: v * lam**k for k, v in wp.coeffs.items()}))


def cumulant_oracle(table, params) -> FlowCoefficients:
    """Independent derivation of the flow coefficients.

    Expands the one-block Gaussian integral to second order in the
    couplings: each box contributes Wick monomials split between the
    rescaled background and the fluctuation, cross-box fluctuation moments
    are exact pairings b! Gamma^b, and the background polynomials multiply
    through the Wick product.  The quadratic forms in (g, mu) are then read
    off by evaluation at basis points.
    """
    L = float(params.L)
    phi = params.phi_dim
    lam = L**-phi
    c0 = table.c0_zero
    c1 = c0 * lam**2
    pair_sums = {m: params.n_boxes * table.s_moments[m] for m in range(1, 5)}  # sums of Gamma^m over box pairs

    def counterterms(g: float, mu: float) -> dict:
        beta = {4: g, 2: mu}
        acc: dict = {}
        for b in range(1, 5):
            poly_b = {}
            for deg, val in beta.items():
                a = deg - b
                if a >= 0 and val != 0.0:
                    poly_b[a] = poly_b.get(a, 0.0) + val * comb(deg, a)
            if not poly_b:
                continue
            wp = WickPoly(c=c1, coeffs=poly_b)
            prod = wick_product(wp, wp)
            weight = factorial(b) * pair_sums[b]
            scaled = scale_argument(prod, lam)
            for k, v in scaled.coeffs.items():
                acc[k] = acc.get(k, 0.0) + 0.5 * weight * v
        return acc

    c_g = counterterms(1.0, 0.0)
    c_mu = counterterms(0.0, 1.0)
    c_both = counterterms(1.0, 1.0)
    a1 = c_g.get(4, 0.0)
    a2 = c_g.get(2, 0.0)
    a3 = c_both.get(2, 0.0) - c_g.get(2, 0.0) - c_mu.get(2, 0.0)
    a4 = c_g.get(0, 0.0)
    a5 = c_mu.get(0, 0.0)
    return FlowCoefficients(
        a1=a1,
        a2=a2,
        a3=a3,
        a4=a4,
        a5=a5,
        gbar=(params.l_eps - 1.0) / a1,
        lam_g=2.0 - params.l_eps,
        lam_mu_free=params.lam_mu_free,
    )

"""Univariate Wick (Hermite) polynomial algebra at a fixed variance.

:phi^n:_c is the Hermite polynomial He_n(phi; c), mean zero under N(0, c).
Coefficients stay exact (int / Fraction) whenever the inputs are exact; the
structure constants of the product are always exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial

from .errors import DegreeError, WickConstantMismatchError

DEGREE_CAP = 16


def double_factorial_odd(j: int):
    """(2j-1)!! = number of pairings of 2j objects."""
    return factorial(2 * j) // (2**j * factorial(j))


def connection_coeff(a1: int, a2: int, k: int) -> int:
    """Structure constant of :phi^a1: x :phi^a2: on :phi^k: (per power of c).

    Zero outside the triangle |a1-a2| <= k <= a1+a2 or when a1+a2+k is odd.
    """
    if a1 < 0 or a2 < 0 or k < 0:
        return 0
    if k < abs(a1 - a2) or k > a1 + a2 or (a1 + a2 + k) % 2 != 0:
        return 0
    m = (a1 + a2 - k) // 2
    r = (a1 + k - a2) // 2
    s = (a2 + k - a1) // 2
    return factorial(a1) * factorial(a2) // (factorial(m) * factorial(r) * factorial(s))


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

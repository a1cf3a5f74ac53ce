"""Connection coefficients of the univariate Wick (Hermite) polynomials.

:phi^n:_c is the Hermite polynomial He_n(phi; c), mean zero under N(0, c).
The product :phi^a1:_c :phi^a2:_c expands on the :phi^k:_c with exact
integer structure constants times powers of c; the block engine builds its
graph tables from them.
"""

from math import factorial


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

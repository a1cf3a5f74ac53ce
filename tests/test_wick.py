from fractions import Fraction
from itertools import product
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrg.errors import DegreeError, WickConstantMismatchError
from hrg.wick import (
    WickPoly,
    connection_coeff,
    monomial_to_wick,
    scale_argument,
    wick_product,
    wick_to_monomial,
)
import exact_block


def test_connection_coeff_examples():
    assert connection_coeff(2, 2, 4) == 1
    assert connection_coeff(2, 2, 2) == 4
    assert connection_coeff(2, 2, 0) == 2
    assert connection_coeff(1, 1, 0) == 1
    assert connection_coeff(3, 2, 1) == 6


def test_connection_coeff_parity_and_triangle():
    for a1, a2, k in product(range(9), repeat=3):
        c = connection_coeff(a1, a2, k)
        if (a1 + a2 + k) % 2 == 1:
            assert c == 0
        if k > a1 + a2 or k < abs(a1 - a2):
            assert c == 0
        if c != 0:
            assert c > 0


def test_monomial_to_wick_examples():
    c = Fraction(7, 5)
    wp = monomial_to_wick({4: 1}, c)
    assert wp.coeffs == {4: 1, 2: 6 * c, 0: 3 * c**2}
    wp = monomial_to_wick({0: 1}, c)
    assert wp.coeffs == {0: 1}
    wp = monomial_to_wick({6: 1}, c)
    assert wp.coeffs == {6: 1, 4: 15 * c, 2: 45 * c**2, 0: 15 * c**3}


def test_round_trip_exact():
    c = Fraction(138, 100)
    poly = {0: Fraction(3), 1: Fraction(-2), 4: Fraction(1, 3), 7: Fraction(5)}
    wp = monomial_to_wick(poly, c)
    back = wick_to_monomial(wp)
    assert back == {k: v for k, v in poly.items() if v != 0}


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.integers(0, 12),
        st.fractions(min_value=-10, max_value=10, max_denominator=50),
        max_size=6,
    ),
    st.fractions(min_value=0, max_value=3, max_denominator=20),
)
def test_round_trip_hypothesis(poly, c):
    wp = monomial_to_wick(poly, c)
    back = wick_to_monomial(wp)
    assert back == {k: v for k, v in poly.items() if v != 0}


def _product_oracle(a1, a2, c):
    # multiply as plain polynomials, then re-order
    m1 = wick_to_monomial(WickPoly(c=c, coeffs={a1: 1}))
    m2 = wick_to_monomial(WickPoly(c=c, coeffs={a2: 1}))
    prod = {}
    for i, u in m1.items():
        for j, v in m2.items():
            prod[i + j] = prod.get(i + j, 0) + u * v
    return monomial_to_wick(prod, c)


def test_wick_product_matches_monomial_oracle_exhaustive():
    c = Fraction(13, 10)
    for a1 in range(7):
        for a2 in range(7):
            lhs = wick_product(WickPoly(c=c, coeffs={a1: 1}), WickPoly(c=c, coeffs={a2: 1}))
            rhs = _product_oracle(a1, a2, c)
            assert lhs.coeffs == rhs.coeffs, (a1, a2)


def test_wick_product_examples():
    x = WickPoly(c=1, coeffs={2: 1})
    out = wick_product(x, x)
    assert out.coeffs == {4: 1, 2: 4, 0: 2}
    unit = WickPoly(c=1, coeffs={0: 1})
    y = WickPoly(c=1, coeffs={3: 2, 1: -1})
    assert wick_product(y, unit).coeffs == y.coeffs
    a = WickPoly(c=2, coeffs={3: 1})
    b = WickPoly(c=2, coeffs={1: 1})
    out = wick_product(a, b)
    assert out.coeffs == {4: 1, 2: 3 * 2}


def test_wick_product_requires_same_constant():
    with pytest.raises(WickConstantMismatchError):
        wick_product(WickPoly(c=1, coeffs={2: 1}), WickPoly(c=2, coeffs={2: 1}))


def test_degree_cap():
    with pytest.raises(DegreeError):
        monomial_to_wick({17: 1}, 1)
    with pytest.raises(DegreeError):
        wick_product(WickPoly(c=1, coeffs={9: 1}), WickPoly(c=1, coeffs={9: 1}))


def _values(wp: WickPoly, xs):
    """Pointwise values through the Hermite basis of the exact block oracle."""
    coeffs = [float(wp.coeff(n)) for n in range(wp.degree + 1)]
    return exact_block.wick_basis(xs, wp.c, wp.degree) @ coeffs


def test_scale_argument_homogeneity():
    c, lam = 1.3, 0.6
    wp = WickPoly(c=c, coeffs={4: 1.0, 2: -0.3, 1: 0.1})
    scaled = scale_argument(wp, lam)
    assert scaled.c == pytest.approx(c / lam**2)
    xs = np.linspace(-2, 2, 11)
    assert np.allclose(_values(scaled, xs), _values(wp, lam * xs), atol=1e-12)

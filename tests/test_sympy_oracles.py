"""Independent oracles from sympy (a test-only dependency) for the
cyclotomic polynomials and the arithmetic functions they are built on."""

import pytest
import sympy

from fracpow.arith import divisors, euler_phi, factorize, mobius
from fracpow.cyclotomic import cyclotomic_poly


def _sympy_phi(n: int) -> list[int]:
    """Ascending coefficients of Phi_n in this package's sign convention:
    sympy's monic Phi_1 = x - 1 is negated, and for n >= 2 the monic
    and constant-term-1 polynomials coincide."""
    coeffs = [int(c) for c in reversed(sympy.cyclotomic_poly(n, polys=True).all_coeffs())]
    return [-c for c in coeffs] if n == 1 else coeffs


def test_cyclotomic_poly_matches_sympy_up_to_300():
    for n in range(1, 301):
        assert list(cyclotomic_poly(n).coeffs) == _sympy_phi(n), n


@pytest.mark.parametrize("n", [2310, 9240, 16170, 30030])
def test_cyclotomic_poly_matches_sympy_at_large_orders(n):
    assert list(cyclotomic_poly(n).coeffs) == _sympy_phi(n)


def test_arithmetic_functions_match_sympy_up_to_2000():
    for n in range(1, 2001):
        assert factorize(n) == sympy.factorint(n), n
        assert divisors(n) == sympy.divisors(n), n
        assert euler_phi(n) == sympy.totient(n), n
        assert mobius(n) == sympy.mobius(n), n

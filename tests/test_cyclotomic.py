import random
from fractions import Fraction as F
from functools import lru_cache

import pytest

from fracpow import (
    CycloProduct,
    DomainError,
    FracSeries,
    IntPolynomial,
    InternalError,
    MSpec,
    apply_mform,
    content,
    cyclotomic_poly,
    euler_phi,
    expand_phi_power,
    nprime_cyclotomic_part,
    onemxn_factor,
    phi_as_onemx,
    substitute_cyclo,
)
from fracpow.arith import bracket, divisors
from fracpow.cyclotomic import phi_multiplicity_split
from helpers import poly_gcd

M23 = MSpec(((2, 1), (3, 1)))


def one_minus_xn(n: int) -> IntPolynomial:
    return IntPolynomial([1] + [0] * (n - 1) + [-1])


@lru_cache(maxsize=None)
def phi_by_recursive_division(n: int) -> IntPolynomial:
    """Independent oracle: Phi_n = (1 - x^n) / prod_{d | n, d < n} Phi_d."""
    out = one_minus_xn(n)
    for d in divisors(n):
        if d < n:
            out, rem = out.divmod(phi_by_recursive_division(d))
            assert rem.is_zero
    return out


def test_polynomial_basics():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert p.is_integral
    assert not IntPolynomial([F(1, 2)]).is_integral
    assert IntPolynomial.parse("1,0,2") == IntPolynomial([1, 0, 2])
    q, r = IntPolynomial([1, 0, -1]).divmod(IntPolynomial([1, 1]))
    assert q == IntPolynomial([1, -1]) and r.is_zero
    assert IntPolynomial([1, 1, 1])(2) == 7


def test_polynomial_product_by_evaluation():
    # deg p + deg q + 1 points determine p * q
    rng = random.Random(71)
    for _ in range(20):
        p = IntPolynomial(
            [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(0, 7))]
        )
        q = IntPolynomial([rng.randint(-5, 5) for _ in range(rng.randint(0, 7))])
        pq = p * q
        assert pq.is_zero == (p.is_zero or q.is_zero)
        if not pq.is_zero:
            assert pq.degree == p.degree + q.degree
        for x in range(-1, len(p.coeffs) + len(q.coeffs)):
            assert pq(x) == p(x) * q(x)


def test_cyclotomic_small():
    assert str(cyclotomic_poly(1)) == "1 - x"
    assert str(cyclotomic_poly(2)) == "1 + x"
    assert cyclotomic_poly(6) == IntPolynomial([1, -1, 1])
    with pytest.raises(DomainError):
        cyclotomic_poly(0)


def test_cyclotomic_against_recursive_oracle():
    for n in range(1, 80):
        assert cyclotomic_poly(n) == phi_by_recursive_division(n)


def test_cyclotomic_degree_constant_content():
    for n in range(1, 201):
        poly = cyclotomic_poly(n)
        assert poly.degree == euler_phi(n)
        assert poly.coefficient(0) == 1
        assert content(poly) == 1


def test_onemxn_factor():
    assert onemxn_factor(1).as_dict() == {1: F(1)}
    assert onemxn_factor(6).as_dict() == {1: F(1), 2: F(1), 3: F(1), 6: F(1)}
    for n in range(1, 61):
        prod = IntPolynomial.one()
        for d, e in onemxn_factor(n).exps:
            assert e == 1
            prod = prod * cyclotomic_poly(d)
        assert prod == one_minus_xn(n)


def test_phi_as_onemx():
    assert phi_as_onemx(1).as_dict() == {1: F(1)}
    assert phi_as_onemx(4).as_dict() == {4: F(1), 2: F(-1)}
    for n in range(1, 31):
        cutoff = F(max(euler_phi(n), 1))
        series = phi_as_onemx(n).expand_series(cutoff)
        assert series == cyclotomic_poly(n).to_series(cutoff)


def test_expand_phi_power_examples():
    assert expand_phi_power(1, 2).as_dict() == {1: F(1), 2: F(1)}
    assert expand_phi_power(2, 2).as_dict() == {4: F(1)}
    assert cyclotomic_poly(2).substitute_power(2) == cyclotomic_poly(4)


def test_expand_phi_power_polynomial_equality():
    for a in range(1, 16):
        for d in range(1, 16):
            lhs = cyclotomic_poly(d).substitute_power(a)
            rhs = IntPolynomial.one()
            for f, e in expand_phi_power(d, a).exps:
                assert e == 1
                rhs = rhs * cyclotomic_poly(f)
            assert lhs == rhs, (a, d)


def test_expand_phi_power_degree_law():
    for a in range(1, 51):
        for d in range(1, 51):
            total = sum(euler_phi(f) for f, _ in expand_phi_power(d, a).exps)
            assert total == a * euler_phi(d), (a, d)


def test_substitute_cyclo(monkeypatch):
    g = CycloProduct.make("phi", {2: F(3), 5: F(-1, 2)})
    assert substitute_cyclo(g, 1) == g
    single = CycloProduct.make("phi", {3: F(1)})
    assert substitute_cyclo(single, 4) == expand_phi_power(3, 4)
    rng = random.Random(61)
    cutoff = F(40)
    for _ in range(8):
        orders = rng.sample(range(1, 7), rng.randint(1, 3))
        g = CycloProduct.make("phi", {d: F(rng.randint(-2, 2)) for d in orders})
        a = rng.randint(1, 6)
        subbed = substitute_cyclo(g, a)
        # exponent at f equals the input exponent at bracket(f/a)
        gdict = g.as_dict()
        for f_order, value in subbed.exps:
            assert value == gdict.get(bracket(F(f_order, a)), F(0))
        lhs = g.expand_series(cutoff).substitute_power(a).truncate(cutoff)
        assert lhs == subbed.expand_series(cutoff)
    # a broken bracket law is an internal error, even under python -O
    monkeypatch.setattr("fracpow.cyclotomic.bracket", lambda y: 0)
    with pytest.raises(InternalError):
        substitute_cyclo(single, 4)


def test_apply_mform():
    g = CycloProduct.make("phi", {1: F(1)})
    result = apply_mform(g, M23)
    gdict = g.as_dict()
    for d, value in result.exps:
        expected = sum(
            e_i * gdict.get(bracket(F(d, b_i)), F(0)) for b_i, e_i in M23.pairs
        )
        assert value == expected
    assert apply_mform(CycloProduct.make("phi", {}), M23).is_one
    cutoff = F(30)
    lhs = FracSeries.one(cutoff)
    for b_i, e_i in M23.pairs:
        sub = g.expand_series(cutoff).substitute_power(b_i).truncate(cutoff)
        for _ in range(e_i):
            lhs = lhs * sub
    assert lhs == result.expand_series(cutoff)


def test_content():
    assert content(IntPolynomial([2, 4])) == 2
    assert content(IntPolynomial([F(1, 2), F(3, 4)])) == F(1, 4)
    with pytest.raises(DomainError):
        content(IntPolynomial.zero())
    rng = random.Random(67)
    for _ in range(200):
        p = IntPolynomial([F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)])
        q = IntPolynomial([F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3)])
        if p.is_zero or q.is_zero:
            continue
        assert content(p * q) == content(p) * content(q)


def test_nprime_part_examples():
    assert nprime_cyclotomic_part(IntPolynomial.one(), M23, True).as_dict() == {1: F(-1)}
    assert nprime_cyclotomic_part(IntPolynomial([1, 1]), M23, True).as_dict() == {
        1: F(-1),
        2: F(1),
    }
    part = nprime_cyclotomic_part(IntPolynomial([1, 1, 1]), M23, True)
    assert part.as_dict() == {1: F(-1), 3: F(1)}
    assert nprime_cyclotomic_part(IntPolynomial([1, 1, 1]), M23, False).as_dict() == {
        3: F(1)
    }


def test_nprime_part_small_totient_orders():
    # orders with small totient exceed the degree: Phi_6 has degree 2
    part = nprime_cyclotomic_part(cyclotomic_poly(6), M23, False)
    assert part.as_dict() == {6: F(1)}


def test_nprime_part_validation():
    with pytest.raises(DomainError):
        nprime_cyclotomic_part(IntPolynomial([2, 1]), M23, True)
    with pytest.raises(DomainError):
        nprime_cyclotomic_part(IntPolynomial([1, -1]), M23, True)
    with pytest.raises(DomainError):
        nprime_cyclotomic_part(IntPolynomial([1, F(1, 2)]), M23, True)


def test_nprime_split_reassembly():
    rng = random.Random(71)
    for _ in range(20):
        poly = IntPolynomial.one()
        for d in rng.sample([1, 2, 3, 4, 6, 8, 9, 12], rng.randint(0, 4)):
            for _ in range(rng.randint(1, 2)):
                poly = poly * cyclotomic_poly(d)
        # attach a residual with no smooth-order roots of unity
        residual = IntPolynomial([1, 0, 0, 2])
        poly = poly * residual
        if poly(1) == 0 or poly.coefficient(0) != 1:
            continue
        parts, rest = phi_multiplicity_split(poly, M23)
        rebuilt = rest
        for d, c in parts.items():
            for _ in range(c):
                rebuilt = rebuilt * cyclotomic_poly(d)
        assert rebuilt == poly
        for d in (1, 2, 3, 4, 6, 8, 9, 12, 16, 18):
            g = poly_gcd(rest, cyclotomic_poly(d))
            assert g.degree == 0, (d, rest)


def test_basis_conversions():
    p = CycloProduct.make("phi", {1: F(-1), 2: F(3), 6: F(1, 2)})
    assert p.to_onemx().to_phi() == p
    q = CycloProduct.make("onemx", {1: F(2), 4: F(-1)})
    assert q.to_phi().to_onemx() == q
    cutoff = F(12)
    assert p.to_onemx().expand_series(cutoff) == p.expand_series(cutoff)


def test_cyclo_product_json():
    p = CycloProduct.make("phi", {3: F(1, 2), 1: F(-1)})
    data = p.to_json_dict()
    assert data == {"basis": "phi", "exps": [[1, "-1"], [3, "1/2"]]}

import math
import random
import sys
from fractions import Fraction as F

import pytest

from fracpow import (
    CapacityError,
    DomainError,
    MSpec,
    angle,
    bracket,
    divides_rational,
    euler_phi,
    in_nprime,
    in_qbprime,
    mobius,
    mobius_inversion_modified,
    ord_p,
)
from fracpow.arith import (
    divisors,
    factorize,
    format_rational,
    in_qbprime_off_nprime,
    parse_rational,
)
from helpers import forward_divisor_sum

M23 = MSpec(((2, 1), (3, 1)))


def test_ord_p_examples():
    assert ord_p(8, 2) == 3
    assert ord_p(F(2, 9), 3) == -2
    assert ord_p(7, 5) == 0


def test_ord_p_errors():
    with pytest.raises(DomainError):
        ord_p(0, 2)
    with pytest.raises(DomainError):
        ord_p(3, 4)


def test_ord_p_multiplicative():
    rng = random.Random(11)
    for _ in range(200):
        q = F(rng.randint(1, 500), rng.randint(1, 500)) * rng.choice([1, -1])
        r = F(rng.randint(1, 500), rng.randint(1, 500))
        p = rng.choice([2, 3, 5, 7])
        assert ord_p(q * r, p) == ord_p(q, p) + ord_p(r, p)


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(30) == -1
    with pytest.raises(DomainError):
        mobius(0)


def test_mobius_divisor_sums():
    assert sum(mobius(d) for d in divisors(1)) == 1
    for n in range(2, 300):
        assert sum(mobius(d) for d in divisors(n)) == 0


def test_euler_phi():
    assert euler_phi(1) == 1
    # brute force oracle
    assert euler_phi(12) == sum(1 for u in range(1, 13) if math.gcd(u, 12) == 1)
    for p in (2, 3, 5, 31, 97):
        assert euler_phi(p) == p - 1
    for n in range(1, 200):
        assert euler_phi(n) == sum(1 for u in range(1, n + 1) if math.gcd(u, n) == 1)
    with pytest.raises(DomainError):
        euler_phi(0)


def test_factorize_and_capacity(monkeypatch):
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    monkeypatch.setenv("FRACPOW_SIEVE_LIMIT", "10")
    with pytest.raises(CapacityError):
        factorize(101 * 103 * 107 * 109)
    monkeypatch.delenv("FRACPOW_SIEVE_LIMIT")
    assert factorize(101 * 103) == {101: 1, 103: 1}


def test_in_nprime():
    assert in_nprime(6, M23)
    assert not in_nprime(5, M23)
    assert in_nprime(1, M23)
    assert in_nprime(2**5 * 3**2, M23)


def test_in_qbprime():
    assert in_qbprime(F(3, 4), M23)
    assert not in_qbprime(F(5, 2), M23)
    assert in_qbprime(6, M23)
    assert not in_qbprime(F(1, 3), M23)  # denominator prime must divide b_0
    assert in_qbprime_off_nprime(F(3, 2), M23)
    assert not in_qbprime_off_nprime(6, M23)


def test_bracket():
    assert bracket(F(9, 4)) == 9
    assert bracket(5) == 5
    assert bracket(F(3, 7)) == 3
    with pytest.raises(DomainError):
        bracket(0)


def test_bracket_factorization_oracle():
    rng = random.Random(5)
    for _ in range(100):
        y = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
        expected = 1
        for p, k in factorize(y.numerator).items():
            expected *= p**k
        assert bracket(y) == expected
        # the two brackets jointly dominate the order at every prime
        both = bracket(y) * bracket(1 / y)
        for p in set(factorize(y.numerator)) | set(factorize(y.denominator)):
            assert ord_p(both, p) >= abs(ord_p(y, p))


def test_angle():
    assert angle(4, 6) == 4
    assert angle(9, 8) == 1
    assert angle(12, 10) == 4
    rng = random.Random(6)
    for _ in range(150):
        a = rng.randint(1, 400)
        d = rng.randint(1, 400)
        g = angle(a, d)
        assert a % g == 0
        for p in factorize(g):
            assert d % p == 0


def test_divides_rational():
    assert divides_rational(F(1, 2), F(3, 2))
    assert not divides_rational(F(3, 4), 1)
    assert divides_rational(F(7, 5), F(7, 5))


def test_mspec_validation():
    with pytest.raises(DomainError):
        MSpec(((3, 1), (2, 1)))
    with pytest.raises(DomainError):
        MSpec(((2, 0),))
    with pytest.raises(DomainError):
        MSpec(())
    with pytest.raises(DomainError):
        MSpec(((F(5, 2), 1), (3, F(3, 2))))
    assert MSpec(((F(2), 1), (3, F(2)))).pairs == ((2, 1), (3, 2))
    m = MSpec.parse("2:1,3:2")
    assert m.pairs == ((2, 1), (3, 2))
    assert m.thetas == (F(3, 2),)
    assert m.nus == (F(2),)
    assert m.coefficient_product == 6
    assert m.coefficient_gcd == 1


def test_mobius_inversion_trivial():
    assert mobius_inversion_modified({}, M23) == {}
    single = mobius_inversion_modified({F(3, 2): F(7)}, M23)
    assert single == {F(3, 2): F(7)}


def test_mobius_inversion_key_validation():
    with pytest.raises(DomainError):
        mobius_inversion_modified({F(6): F(1)}, M23)  # in N'
    with pytest.raises(DomainError):
        mobius_inversion_modified({F(5, 2): F(1)}, M23)  # not in Q_b'


def _saturated_keys(rng, m):
    # base element of Q_b' - N' times all divisors of a smooth integer:
    # a divisor-saturated key set, as required by the forward-sum lemma
    base = F(rng.choice([1, 3, 9, 27]), rng.choice([2, 4, 8]))
    smooth = rng.choice([1, 2, 3, 4, 6, 8, 9, 12, 18, 24])
    keys = []
    for d in divisors(smooth):
        k = base * d
        if in_qbprime_off_nprime(k, m):
            keys.append(k)
    return keys


def test_mobius_inversion_round_trip():
    rng = random.Random(17)
    done = 0
    while done < 100:
        keys = _saturated_keys(rng, M23)
        if not keys:
            continue
        original = {}
        for k in keys:
            v = F(rng.randint(-9, 9), rng.randint(1, 3))
            if v:
                original[k] = v
        summed = forward_divisor_sum(original, keys)
        recovered = mobius_inversion_modified(summed, M23)
        assert recovered == original
        done += 1


def test_spec_round_trip_keyset():
    # the documented chain 1/2 | 3/2 | 9/2
    rng = random.Random(23)
    keys = [F(1, 2), F(3, 2), F(9, 2)]
    for _ in range(20):
        original = {k: F(rng.randint(-5, 5)) for k in keys}
        original = {k: v for k, v in original.items() if v}
        summed = forward_divisor_sum(original, keys)
        assert mobius_inversion_modified(summed, M23) == original


def test_rational_strings():
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(8, 2)) == "4"
    assert format_rational(-2) == "-2"
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == -7
    with pytest.raises(DomainError):
        parse_rational("x")


def test_decimal_exponents_are_capped():
    # Fraction would build the whole integer of 10^exponent first
    assert parse_rational("1e100000") == 10**100000
    assert parse_rational("1E+0100000") == 10**100000
    assert parse_rational("25e-100000") == F(25, 10**100000)
    assert parse_rational("1.5e-3") == F(3, 2000)
    for text in ("1e100001", "-2.5e-100001", "1e" + "9" * 5000):
        with pytest.raises(CapacityError, match="100000"):
            parse_rational(text)
    # a malformed literal stays a domain error, whatever its exponent
    with pytest.raises(DomainError):
        parse_rational("1/2e999999999")


def test_unprintable_rationals_are_capacity_errors():
    digits = sys.get_int_max_str_digits()  # 4300 unless configured
    assert format_rational(F(1, 10 ** (digits - 1))) == "1/1" + "0" * (digits - 1)
    for q in (10**digits, F(1, 10**digits), F(10**digits + 1, 3)):
        with pytest.raises(CapacityError, match=f"{digits} digits"):
            format_rational(q)

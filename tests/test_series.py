import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpow import (
    DomainError,
    FracSeries,
    NotInvertibleError,
    SeriesOrder,
    UsageError,
    exp_series,
    log1p_series,
    pow_alpha,
    product_truncated,
    recover_product_exponents,
)
from fracpow.cyclotomic import CycloProduct, IntPolynomial
from fracpow.series import (
    Valuation,
    geometric_inverse,
    one_minus_x_power,
    onemx_product,
    times_sparse,
    valuation_max,
)
from helpers import (
    dyadic_exponents,
    rand_series,
    rand_unit_series,
    schoolbook_product,
    tau_oracle,
)

T = F(6)
EXPS = dyadic_exponents(T)


def rng_series(seed, count, unit=False):
    rng = random.Random(seed)
    for _ in range(count):
        if unit:
            yield rand_unit_series(rng, T, EXPS)
        else:
            yield rand_series(rng, T, EXPS)


def test_construction_invariants():
    f = FracSeries(T, {F(1, 2): F(3), F(2): F(0)})
    assert f.items() == [(F(1, 2), F(3))]
    with pytest.raises(UsageError):
        FracSeries(2, {F(5, 2): 1})
    with pytest.raises(DomainError):
        FracSeries(2, {F(-1, 2): 1})
    with pytest.raises(DomainError):
        FracSeries(0, {})


def test_add_examples():
    f = FracSeries(T, {0: 1, F(1, 2): 1})
    g = FracSeries(T, {0: 1, F(1, 2): -1})
    assert f + FracSeries.zero(T) == f
    assert f + g == FracSeries.constant(T, 2)
    with pytest.raises(UsageError):
        f + FracSeries.one(F(5))


def test_mul_examples():
    f = FracSeries(T, {0: 2, 1: -3, F(5, 2): F(1, 4)})
    assert f * FracSeries.one(T) == f
    assert (one_minus_x_power(T, 1) * geometric_inverse(T, 1)) == FracSeries.one(T)
    # dense, dense plus one term, the six-prime grid D = 30030, one term
    dense = FracSeries(T, {F(k, 2): F(k - 6, 3) for k in range(13)})
    primes = FracSeries(20, {F(1, p): p for p in (2, 3, 5, 7, 11, 13)}) + 1
    one_term = FracSeries.x_power(T, F(1, 2), -3)
    for a, b in (
        (dense, dense),
        (dense, dense + one_term),
        (primes, primes),
        (one_term, dense),
    ):
        assert a * b == schoolbook_product(a, b)


def test_ring_axioms():
    rng = random.Random(101)
    for _ in range(200):
        f = rand_series(rng, T, EXPS)
        g = rand_series(rng, T, EXPS)
        h = rand_series(rng, T, EXPS)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_order_examples():
    assert FracSeries.zero(T).order().is_infinite
    assert FracSeries(T, {F(3, 4): 1, 2: 1}).order() == SeriesOrder(F(3, 4))
    assert FracSeries.constant(T, 5).order() == SeriesOrder(F(0))


def test_order_laws():
    rng = random.Random(7)
    checked = 0
    while checked < 150:
        f = rand_series(rng, T, EXPS)
        g = rand_series(rng, T, EXPS)
        of, og = f.order(), g.order()
        assert not (f + g).order() < min(of, og)
        if of.is_infinite or og.is_infinite:
            continue
        if of.value + og.value <= T:
            assert (f * g).order() == of + og
            checked += 1


def test_valuation():
    assert FracSeries.zero(T).valuation().as_fraction() == 0
    f = FracSeries(T, {2: 7})
    assert f.valuation().as_fraction() == F(1, 4)
    rng = random.Random(13)
    checked = 0
    while checked < 150:
        f = rand_series(rng, T, EXPS)
        g = rand_series(rng, T, EXPS)
        vf, vg = f.valuation(), g.valuation()
        assert (f + g).valuation() <= valuation_max(vf, vg)
        if vf != vg:
            assert (f + g).valuation() == valuation_max(vf, vg)
        of, og = f.order(), g.order()
        if not of.is_infinite and not og.is_infinite and of.value + og.value <= T:
            assert (f * g).valuation() == vf * vg
            checked += 1


def test_valuation_irrational_value():
    v = FracSeries(T, {F(3, 4): 1}).valuation()
    with pytest.raises(DomainError):
        v.as_fraction()
    assert v == Valuation(F(3, 4))


def test_invert():
    assert one_minus_x_power(T, 1).invert() == geometric_inverse(T, 1)
    assert FracSeries.constant(T, F(5, 3)).invert() == FracSeries.constant(T, F(3, 5))
    with pytest.raises(NotInvertibleError):
        FracSeries(T, {1: 1}).invert()
    rng = random.Random(19)
    for _ in range(100):
        f = rand_unit_series(rng, T, EXPS)
        assert f * f.invert() == FracSeries.one(T)


def test_substitute_power():
    f = FracSeries(T, {0: 1, 1: 1})
    assert f.substitute_power(1) == f
    half = f.substitute_power(F(1, 2))
    assert half.cutoff == F(3)
    assert half.items() == [(F(0), F(1)), (F(1, 2), F(1))]
    assert half.substitute_power(2) == f
    with pytest.raises(DomainError):
        f.substitute_power(0)


def test_xderive():
    assert FracSeries.constant(T, 9).xderive() == FracSeries.zero(T)
    assert FracSeries(T, {F(3, 2): 1}).xderive() == FracSeries(T, {F(3, 2): F(3, 2)})
    rng = random.Random(23)
    for _ in range(100):
        f = rand_series(rng, T, EXPS)
        g = rand_series(rng, T, EXPS)
        assert (f * g).xderive() == f.xderive() * g + f * g.xderive()
        assert (f + g).xderive() == f.xderive() + g.xderive()


def test_derivative_substitution_law():
    rng = random.Random(29)
    for _ in range(100):
        f = rand_series(rng, T, EXPS)
        theta = F(rng.randint(3, 8), 2)
        assert f.substitute_power(theta).xderive() == theta * (
            f.xderive().substitute_power(theta)
        )


def test_log_derivative():
    assert FracSeries.one(T).log_derivative() == FracSeries.zero(T)
    with pytest.raises(NotInvertibleError):
        FracSeries(T, {1: 1}).log_derivative()
    rng = random.Random(31)
    for _ in range(100):
        f = rand_unit_series(rng, T, EXPS)
        g = rand_unit_series(rng, T, EXPS)
        assert (f * g).log_derivative() == f.log_derivative() + g.log_derivative()
        theta = F(rng.randint(3, 8), 2)
        assert f.substitute_power(theta).log_derivative() == theta * (
            f.log_derivative().substitute_power(theta)
        )


def test_log_derivative_of_linear_factors():
    # for G = prod (1 - a_i x)^{n_i}:  x G'/G = -sum_n (sum_i n_i a_i^n) x^n
    factors = [(F(1, 2), 3), (F(-2, 3), -2), (F(1), 1)]
    G = FracSeries.one(T)
    for a, n in factors:
        G = G * pow_alpha(FracSeries(T, {0: 1, 1: -a}), n)
    expected = FracSeries(
        T,
        {
            k: -sum(n * a**k for a, n in factors)
            for k in range(1, int(T) + 1)
        },
    )
    assert G.log_derivative() == expected


def test_products_to_sums():
    rng = random.Random(37)
    for _ in range(100):
        parts = [rand_series(rng, T, [e for e in EXPS if e > 0], 4) for _ in range(3)]
        prod = FracSeries.one(T)
        total = FracSeries.zero(T)
        for h in parts:
            prod = prod * (FracSeries.one(T) + h)
            total = total + h.xderive() * (FracSeries.one(T) + h).invert()
        assert prod.log_derivative() == total


def test_integrality_transfer():
    # f is integer-supported below the cutoff iff x f'/f is
    rng = random.Random(41)
    int_exps = [F(k) for k in range(0, int(T) + 1)]

    def integral(s):
        return all(e.denominator == 1 for e, _ in s.items())

    for _ in range(60):
        f = rand_unit_series(rng, T, int_exps)
        assert integral(f.log_derivative())
        g = f + FracSeries(T, {F(1, 2): 1})
        assert not integral(g.log_derivative())


def test_exp_log_pow():
    assert exp_series(FracSeries.zero(T)) == FracSeries.one(T)
    x = FracSeries(T, {1: 1})
    e = exp_series(x)
    for n in range(int(T) + 1):
        assert e.coefficient(n) == F(1, math.factorial(n))
    p = pow_alpha(FracSeries.one(T) + x, F(1, 2))
    assert p.coefficient(1) == F(1, 2)
    assert p.coefficient(2) == F(-1, 8)
    with pytest.raises(DomainError):
        exp_series(FracSeries.one(T))
    with pytest.raises(DomainError):
        pow_alpha(FracSeries(T, {0: 2}), F(1, 2))


def test_pow_alpha_binomial_oracle():
    x = FracSeries(T, {1: 1})
    for alpha in (F(1, 2), F(-3, 4), F(5), F(-2), F(7, 3)):
        p = pow_alpha(FracSeries.one(T) + x, alpha)
        for n in range(int(T) + 1):
            binom = F(1)
            for j in range(n):
                binom *= (alpha - j) / (j + 1)
            assert p.coefficient(n) == binom


def test_exp_log_round_trip():
    rng = random.Random(43)
    for _ in range(100):
        h = rand_series(rng, T, [e for e in EXPS if e > 0], 5)
        assert exp_series(log1p_series(h)) == FracSeries.one(T) + h
        assert log1p_series(exp_series(h) - 1) == h


def test_pow_alpha_group_laws():
    rng = random.Random(47)
    for _ in range(60):
        h = rand_series(rng, T, [e for e in EXPS if e > 0], 4)
        f = FracSeries.one(T) + h
        a = F(rng.randint(-6, 6), rng.randint(1, 3))
        b = F(rng.randint(-6, 6), rng.randint(1, 3))
        assert pow_alpha(f, a) * pow_alpha(f, b) == pow_alpha(f, a + b)
        assert pow_alpha(pow_alpha(f, a), 2) == pow_alpha(f, 2 * a)


def test_product_truncated():
    assert product_truncated([], cutoff=T) == FracSeries.one(T)
    with pytest.raises(UsageError):
        product_truncated([])
    with pytest.raises(DomainError):
        product_truncated([FracSeries.constant(T, 2)])
    cutoff = F(20)
    factors = []
    n = 1
    while 4**n <= 20:
        factors.append(FracSeries(cutoff, {0: 1, 4**n: 1}))
        n += 1
    prod = product_truncated(factors)
    # characteristic function of sums of distinct powers of 4 in range
    sums = {0}
    for p in (4, 16):
        sums |= {s + p for s in sums if s + p <= 20}
    for k in range(21):
        assert prod.coefficient(k) == (1 if k in sums else 0)


def test_product_truncated_tau():
    cutoff = F(6)
    factors = [pow_alpha(one_minus_x_power(cutoff, n), 24) for n in range(1, 7)]
    prod = product_truncated(factors)
    values = [prod.coefficient(k - 1) for k in range(1, 6)]
    assert values == tau_oracle(5)
    assert values == [1, -24, 252, -1472, 4830]


ONEMX_CUTOFFS = st.sampled_from([F(1, 2), F(1), F(7, 2), F(6), F(10)])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 12), st.integers(-30, 30)), max_size=5),
    ONEMX_CUTOFFS,
)
def test_onemx_product_matches_pow_alpha(factors, cutoff):
    # repeated orders, orders above the cutoff and v = 0 all included
    merged = {}
    for d, v in factors:
        merged[d] = merged.get(d, 0) + v
    oracle = CycloProduct.make("onemx", merged).expand_series(cutoff)
    assert onemx_product(cutoff, factors) == oracle


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-5, 5), max_size=8), ONEMX_CUTOFFS)
def test_onemx_product_poly_over_1mx(coeffs, cutoff):
    poly = IntPolynomial(coeffs)
    expected = poly.to_series(cutoff) * geometric_inverse(cutoff, 1)
    assert onemx_product(cutoff, ((1, -1),), poly.coeffs) == expected
    assert onemx_product(cutoff, [(1, -1)], coeffs) == expected


# sparse series on the mixed 1/2 and 1/3 grid, cutoff <= 3: the four
# parametrisations of the one recurrence engine against oracles built
# from * alone
ENGINE_CUTOFFS = st.sampled_from([F(1), F(2), F(5, 2), F(3)])
ENGINE_COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def engine_series(draw, cutoff, positive_order=True):
    grid = [F(k, d) for d in (2, 3) for k in range(int(positive_order), 3 * d + 1)]
    exps = draw(st.lists(st.sampled_from([e for e in grid if e <= cutoff]), max_size=4))
    return FracSeries(cutoff, {e: draw(ENGINE_COEFFS) for e in exps})


@settings(max_examples=60, deadline=None)
@given(st.data(), ENGINE_CUTOFFS)
def test_engine_division(data, cutoff):
    num = data.draw(engine_series(cutoff, positive_order=False))
    c0 = data.draw(ENGINE_COEFFS.filter(lambda c: c not in (0, 1)))
    den = data.draw(engine_series(cutoff)) + c0
    assert (num / den) * den == num


@settings(max_examples=60, deadline=None)
@given(st.data(), ENGINE_CUTOFFS)
def test_engine_log1p_exp_against_power_sums(data, cutoff):
    h = data.draw(engine_series(cutoff))
    mercator = FracSeries.zero(cutoff)
    taylor = FracSeries.one(cutoff)
    power = FracSeries.one(cutoff)
    for k in range(1, 10):  # ord h >= 1/3 and cutoff <= 3, so h^10 = 0
        power = power * h
        mercator = mercator + power * F((-1) ** (k + 1), k)
        taylor = taylor + power * F(1, math.factorial(k))
    assert log1p_series(h) == mercator
    assert exp_series(h) == taylor


@settings(max_examples=60, deadline=None)
@given(st.data(), ENGINE_CUTOFFS, st.integers(-3, 3))
def test_engine_pow_alpha_integer(data, cutoff, n):
    f = data.draw(engine_series(cutoff)) + 1
    assert pow_alpha(f, n) == f**n


def test_onemx_product_edges():
    assert onemx_product(F(7, 2), []) == FracSeries.one(F(7, 2))
    assert onemx_product(T, [], (2, 0, -1)) == FracSeries(T, {0: 2, 2: -1})
    assert onemx_product(T, [(7, 5), (9, -3)]) == FracSeries.one(T)
    # huge |v|: exact binomials, as cheap as any other exponent
    big = onemx_product(5, [(1, 100000)])
    assert [big.coefficient(j) for j in range(6)] == [
        (-1) ** j * math.comb(100000, j) for j in range(6)
    ]
    inverse = onemx_product(F(11, 2), [(2, -100000)])
    assert inverse == FracSeries(
        F(11, 2), {2 * j: math.comb(100000 + j - 1, j) for j in range(3)}
    )
    with pytest.raises(DomainError):
        onemx_product(T, [(0, 1)])
    with pytest.raises(DomainError):
        onemx_product(T, [], (1, F(1, 2)))
    assert one_minus_x_power(T, 9) == FracSeries.one(T)
    assert geometric_inverse(F(7, 2), F(2)) == FracSeries(F(7, 2), {0: 1, 2: 1})
    for d in (F(1, 2), F(3, 2), 0, -1):
        with pytest.raises(DomainError):
            one_minus_x_power(T, d)
        with pytest.raises(DomainError):
            geometric_inverse(T, d)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-3, 3), max_size=12),
    st.dictionaries(st.integers(0, 14), st.integers(-4, 4), max_size=5),
)
def test_times_sparse_matches_dense_product(coeffs, weights):
    n = len(coeffs)
    expected = [0] * n
    for i, c in enumerate(coeffs):
        for s, w in weights.items():
            if i + s < n:
                expected[i + s] += c * w
    assert times_sparse(coeffs, sorted(weights.items())) == expected


# operands for the product kernels: grids 1/2, 1/3 and 1/5 and their
# mixtures, coefficients small or beyond 2^200, of either sign, with
# denominators above 1; empty, one-term, sparse and dense operands
GRID_CUTOFFS = st.sampled_from([F(1, 2), F(1), F(7, 2), F(6)])
GRID_COEFFS = st.builds(
    F,
    st.one_of(
        st.integers(-9, 9),
        st.integers(2**200, 2**203),
        st.integers(-(2**203), -(2**200)),
    ),
    st.integers(1, 12),
)


@st.composite
def grid_series(draw, cutoff):
    den = draw(st.sampled_from([1, 2, 3, 5, 6, 10, 15, 30]))
    points = [F(k, den) for k in range(math.floor(cutoff * den) + 1)]
    if den <= 3 and draw(st.booleans()):
        exps = points
    else:
        exps = draw(st.lists(st.sampled_from(points), max_size=12))
    return FracSeries(cutoff, {e: draw(GRID_COEFFS) for e in exps})


@settings(max_examples=150, deadline=None)
@given(st.data(), GRID_CUTOFFS)
def test_product_matches_schoolbook_oracle(data, cutoff):
    f = data.draw(grid_series(cutoff))
    g = data.draw(grid_series(cutoff))
    for a, b in ((f, g), (f, f)):
        assert a * b == schoolbook_product(a, b)


@settings(max_examples=100, deadline=None)
@given(
    st.data(),
    GRID_CUTOFFS,
    st.fractions(min_value=F(1, 4), max_value=3, max_denominator=5),
)
def test_substitute_truncate_add_match_fraction_dicts(data, cutoff, rho):
    f = data.draw(grid_series(cutoff))
    top = data.draw(st.sampled_from([cutoff * rho, cutoff * rho / 2, min(cutoff * rho, F(1, 3))]))
    g = data.draw(grid_series(top))
    expected = {e * rho: c for e, c in f.items() if e * rho <= top}
    for e, c in g.items():
        expected[e] = expected.get(e, F(0)) + c
    expected = sorted((e, c) for e, c in expected.items() if c)
    result = f.substitute_power(rho).truncate(top) + g
    assert result.items() == expected
    assert result == FracSeries(top, dict(expected))


def test_recover_product_exponents():
    assert recover_product_exponents(one_minus_x_power(T, 1), 5) == {1: F(1)}
    assert recover_product_exponents(geometric_inverse(T, 1), 5) == {1: F(-1)}
    rng = random.Random(53)
    for _ in range(100):
        alphas = {}
        for n in rng.sample(range(1, 7), rng.randint(0, 4)):
            a = F(rng.randint(-8, 8), rng.randint(1, 4))
            if a:
                alphas[n] = a
        f = FracSeries.one(T)
        for n, a in alphas.items():
            f = f * pow_alpha(one_minus_x_power(T, n), a)
        assert recover_product_exponents(f, 6) == alphas


def test_recover_errors():
    with pytest.raises(DomainError):
        recover_product_exponents(FracSeries(T, {0: 1, F(1, 2): 1}), 3)
    with pytest.raises(UsageError):
        recover_product_exponents(FracSeries.one(F(2)), 5)
    with pytest.raises(DomainError):
        recover_product_exponents(FracSeries.constant(T, 2), 3)


def test_json_round_trip():
    f = FracSeries(T, {F(1, 2): F(-3, 7), 2: 5})
    data = f.to_json_dict()
    assert data == {"cutoff": "6", "terms": [["1/2", "-3/7"], ["2", "5"]]}


def test_str():
    f = FracSeries(T, {0: 1, F(1, 2): 1, F(3, 4): -1, 2: F(1, 3)})
    assert str(f) == "1 + x^(1/2) - x^(3/4) + 1/3*x^(2)"
    assert str(FracSeries.zero(T)) == "0"

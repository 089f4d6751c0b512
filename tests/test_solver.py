import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracpow import (
    DomainError,
    FracSeries,
    HypothesisError,
    IntPolynomial,
    MSpec,
    RhsSpec,
    almost_rational_bound,
    contradiction_certificate,
    decide,
    hypothesis_check,
    integrality_report,
    product_exponent,
    recover_product_exponents,
    recurrence_data,
    series_obstruction,
    solve_formal,
    verify_solution,
)
from fracpow.arith import in_nprime, in_qbprime_off_nprime
from helpers import brute_force_alternating_sum, on_base_grid

M23 = MSpec(((2, 1), (3, 1)))
M24 = MSpec(((2, 1), (4, 1)))
RHS_GEOMETRIC = RhsSpec.poly_over_1mx(IntPolynomial.one())
RHS_RUZSA = RhsSpec.onemx_product({2: -1})


def test_rhs_validation():
    with pytest.raises(DomainError):
        RhsSpec.poly_over_1mx(IntPolynomial([2, 1]))
    with pytest.raises(DomainError):
        RhsSpec.poly_over_1mx(IntPolynomial([1, -1]))
    with pytest.raises(DomainError):
        RhsSpec.onemx_product({0: 1})
    assert RhsSpec.onemx_product({2: 0}).factors == ()


def test_rhs_expand():
    geo = RHS_GEOMETRIC.expand(5)
    assert geo == FracSeries(F(5), {k: 1 for k in range(6)})
    poly = RhsSpec.poly_over_1mx(IntPolynomial([1, 1]))
    # (1+x)/(1-x) = 1 + 2x + 2x^2 + ...
    assert poly.expand(4) == FracSeries(F(4), {0: 1, 1: 2, 2: 2, 3: 2, 4: 2})
    prod = RhsSpec.onemx_product({1: -1}).expand(5)
    assert prod == geo


def test_solve_half_exponent_fixture():
    # two hand iterations of the contraction give
    # (1 - x^{3/4}) / (1 - x^{1/2}), trusted strictly below (1/2)(3/2)^2
    f = solve_formal(M23, RHS_GEOMETRIC, 4)
    trusted = {F(0): F(1), F(1, 2): F(1), F(3, 4): F(-1), F(1): F(1)}
    for e, c in trusted.items():
        assert f.coefficient(e) == c, e
    for e, c in f.items():
        if e < F(9, 8) and e not in trusted:
            assert c == 0


def test_solve_ruzsa_series():
    f = solve_formal(M24, RHS_RUZSA, 21)
    assert all(c == 1 for _, c in f.items())
    assert all(e.denominator == 1 for e, _ in f.items())
    assert sorted(int(e) for e, _ in f.items()) == [0, 1, 4, 5, 16, 17, 20, 21]
    assert verify_solution(f, M24, RHS_RUZSA)


def test_solve_trivial_rhs():
    for m in (M23, M24, MSpec(((3, 2), (5, 1), (7, 3)))):
        assert solve_formal(m, RhsSpec.onemx_product({}), 5) == FracSeries.one(F(5))


def test_solve_requires_base_two():
    with pytest.raises(HypothesisError):
        solve_formal(MSpec(((1, 1), (2, 1))), RHS_GEOMETRIC, 4)


def test_solve_seeded_uniqueness():
    T = F(4)
    base = solve_formal(M23, RHS_GEOMETRIC, T)
    top_seed = FracSeries.one(T) + FracSeries.x_power(T, T)
    assert solve_formal(M23, RHS_GEOMETRIC, T, seed=top_seed) == base
    low_seed = FracSeries.one(T) + FracSeries.x_power(T, F(1, 2), 3)
    assert solve_formal(M23, RHS_GEOMETRIC, T, seed=low_seed) == base
    with pytest.raises(DomainError):
        solve_formal(M23, RHS_GEOMETRIC, T, seed=FracSeries.constant(T, 2))


def test_verify_solution():
    f = solve_formal(M23, RHS_GEOMETRIC, 3)
    assert verify_solution(f, M23, RHS_GEOMETRIC)
    perturbed = f + FracSeries.x_power(f.cutoff, F(1, 2))
    assert not verify_solution(perturbed, M23, RHS_GEOMETRIC)
    one = FracSeries.one(F(3))
    assert verify_solution(one, M23, RhsSpec.onemx_product({}))


def test_integrality_report():
    ruzsa = solve_formal(M24, RHS_RUZSA, 12)
    assert integrality_report(ruzsa) == []
    f = solve_formal(M23, RHS_GEOMETRIC, 3)
    report = integrality_report(f)
    assert (F(1, 2), F(1)) in report
    assert all(e.denominator != 1 for e, _ in report)
    poly = FracSeries(F(3), {0: 1, 1: 2, 3: 1})
    assert integrality_report(poly) == []


def test_obstruction_trivial_and_domain():
    assert series_obstruction(M24, {}, F(1, 2)) == 0
    with pytest.raises(DomainError):
        series_obstruction(M23, {1: -1}, F(3))  # integer: in N'
    with pytest.raises(DomainError):
        series_obstruction(M23, {1: -1}, F(5, 2))  # 5 not smooth
    with pytest.raises(DomainError):
        series_obstruction(M23, {5: 1}, F(3, 2))  # support outside N'


def test_obstruction_solvable_instance():
    # power-series solution exists, so the obstruction vanishes everywhere
    lams = [F(1, 2), F(1, 4), F(3, 2), F(9, 4)]
    for lam in lams:
        if in_qbprime_off_nprime(lam, M24):
            assert series_obstruction(M24, {2: -1}, lam) == 0


def test_obstruction_single_surviving_term():
    # M = (2,3): with support {3}, the only tuple reaching order 3 from
    # 27/4 has length two, giving (+1) * nu^2 * m_3 = 1
    assert series_obstruction(M23, {3: 1}, F(27, 4)) == 1
    assert series_obstruction(M23, {3: 1}, F(9, 2)) == -1


def test_obstruction_detects_unsolvable():
    assert series_obstruction(M23, {1: -1}, F(3, 2)) == 1


def test_product_exponent_zero_map():
    assert product_exponent(M23, {}, 5) == 0
    assert product_exponent(M23, {}, F(7, 2)) == 0


def test_product_exponent_ruzsa_pattern():
    mex = {2: -1}
    assert product_exponent(M24, mex, 1) == -1
    for j in range(1, 7):
        assert product_exponent(M24, mex, 2**j) == (-1) ** (j + 1)
    for d in (3, 5, 6, 7, 9, 12):
        assert product_exponent(M24, mex, d) == 0


def test_product_exponent_matches_recovered():
    f = solve_formal(M24, RHS_RUZSA, 32)
    recovered = recover_product_exponents(f, 32)
    for d in range(1, 33):
        assert recovered.get(d, F(0)) == product_exponent(M24, {2: -1}, d)


def test_product_exponent_recurrence():
    rng = random.Random(79)
    m = MSpec(((2, 2), (3, 1), (8, 1)))
    mex = {1: -1, 2: 1, 3: -2, 6: 1}
    for _ in range(50):
        d = F(rng.randint(1, 24), rng.choice([1, 2, 3, 4, 6, 8]))
        lhs = product_exponent(m, mex, d)
        for theta, nu in zip(m.thetas, m.nus):
            lhs += nu * product_exponent(m, mex, d / theta)
        bd = m.b * d
        rhs = F(mex.get(bd.numerator, 0), 1) if bd.denominator == 1 else F(0)
        assert lhs == rhs / m.e, d


@st.composite
def _contracting_forms(draw):
    # 2-4 coefficients <= 30 with sum b_0/b_i <= 3/4, so the number of
    # ordered index tuples the brute force visits stays small
    b0 = draw(st.integers(1, 22))
    others = draw(
        st.lists(st.integers(-(-4 * b0 // 3), 30), min_size=1, max_size=3, unique=True)
    )
    assume(sum(F(b0, b) for b in others) <= F(3, 4))
    return MSpec(tuple((b, draw(st.integers(1, 4))) for b in [b0] + sorted(others)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_alternating_sums_match_tuple_brute_force(data):
    m = data.draw(_contracting_forms())
    orders = [n for n in range(1, 41) if in_nprime(n, m)]
    values = data.draw(st.lists(st.integers(-3, 3), min_size=len(orders), max_size=len(orders)))
    mex = {n: v for n, v in zip(orders, values) if v}
    d = data.draw(st.integers(1, 12))
    lam = F(data.draw(st.integers(1, 40 * m.b)), m.b ** data.draw(st.integers(1, 2)))
    # an index whose chain of steps lands exactly on the smallest order
    steps = data.draw(st.lists(st.sampled_from(m.coefficients[1:]), max_size=3))
    edge = F(min(mex, default=1), m.b) * math.prod(F(b, m.b) for b in steps)
    for x in (d, lam, edge):
        assert product_exponent(m, mex, x) == brute_force_alternating_sum(m, mex, m.b * x) / m.e
        if in_qbprime_off_nprime(x, m):
            assert series_obstruction(m, mex, x) == brute_force_alternating_sum(m, mex, x)


def test_product_exponent_recurrence_consecutive_coefficients():
    # ratios 12/11 and 13/11 near 1: an ordered-tuple walk is exponential
    m = MSpec(((11, 1), (12, 1), (13, 1)))
    mex = {n: (-1) ** n for n in range(1, 200) if in_nprime(n, m)}
    nonzero = 0
    for d in range(1, 65):
        g = product_exponent(m, mex, d)
        nonzero += g != 0
        lhs = g + sum(nu * product_exponent(m, mex, d / t) for t, nu in zip(m.thetas, m.nus))
        assert lhs == F(mex.get(m.b * d, 0), m.e), d
    assert nonzero


def test_decide_long_chain():
    # theta = 1001/1000 gives a chain about 6,900 levels deep from b d = 1000
    report = decide(MSpec(((1000, 1), (1001, 1))))
    assert json.dumps(report.to_json_dict()) == (
        '{"verdict": "impossible_by_theorem", "certificate": {"witness": {"p": 2, "t": 1}, '
        '"nprime_part": {"basis": "phi", "exps": [[1, "-1"]]}, "onemx_exponents": [[1, -1]], '
        '"gd_samples": [], "vanish_bound": 1, "recurrence": {"p": 2, "t": 3, "a": [1, 0, 0, 1], '
        '"total": 2, "gcd": 1}, "contradiction": {"gcd": 1, "total": 2, "holds": true}}, '
        '"evidence": null}'
    )


def test_hypothesis_check():
    assert hypothesis_check(M23) == (2, 1)
    assert hypothesis_check(MSpec(((2, 1), (3, 1), (4, 1), (6, 1)))) is None
    assert hypothesis_check(MSpec(((4, 1), (6, 1)))) == (2, 2)
    with pytest.raises(DomainError):
        hypothesis_check(MSpec(((2, 1),)))


def test_almost_rational_bound_trivial():
    assert almost_rational_bound(M23, {}, (2, 1)) == 1
    with pytest.raises(HypothesisError):
        almost_rational_bound(M23, {}, (3, 1))
    with pytest.raises(HypothesisError):
        almost_rational_bound(M24, {}, (2, 1))  # 2 divides 4 as well


def test_almost_rational_bound_scan():
    m = MSpec(((4, 1), (6, 1)))
    mex = {1: -1, 2: 1, 3: -2, 4: 1}
    bound = almost_rational_bound(m, mex, (2, 2))
    for d in range(bound, 4 * bound + 1):
        assert product_exponent(m, mex, d) == 0, d


def test_almost_rational_bound_monotone():
    m = MSpec(((4, 1), (6, 1)))
    small = almost_rational_bound(m, {1: -1, 2: 1}, (2, 2))
    large = almost_rational_bound(m, {1: -1, 2: 1, 4: 2}, (2, 2))
    assert small <= large


def test_recurrence_data():
    data = recurrence_data(M23, (2, 1))
    assert data.a == (1, 1)
    assert data.total == 2
    assert data.gcd == 1
    assert data.t == 1
    rng = random.Random(83)
    for _ in range(30):
        b0 = rng.choice([2, 3, 4, 5, 8, 9])
        others = sorted(rng.sample(range(b0 + 1, 40), rng.randint(1, 3)))
        pairs = tuple((b, rng.randint(1, 4)) for b in [b0] + others)
        m = MSpec(pairs)
        witness = hypothesis_check(m) if m.coefficient_gcd == 1 else None
        if witness is None:
            continue
        data = recurrence_data(m, witness)
        assert data.total == sum(m.multiplicities)
        assert data.a[0] != 0 and data.a[-1] != 0 and data.t >= 1


def test_recurrence_data_gcd_error():
    with pytest.raises(HypothesisError) as exc:
        recurrence_data(MSpec(((4, 2), (6, 3))), (2, 2))
    assert "gcd" in str(exc.value)


def test_contradiction_certificate():
    data = recurrence_data(M23, (2, 1))
    cert = contradiction_certificate(data)
    assert cert.holds and cert.gcd == 1 and cert.total == 2
    rng = random.Random(89)
    for _ in range(30):
        b0 = rng.choice([2, 3, 4, 5, 8])
        others = sorted(rng.sample(range(b0 + 1, 30), rng.randint(1, 2)))
        m = MSpec(tuple((b, rng.randint(1, 3)) for b in [b0] + others))
        if m.coefficient_gcd != 1:
            continue
        witness = hypothesis_check(m)
        if witness is None:
            continue
        assert contradiction_certificate(recurrence_data(m, witness)).holds


def test_decide_impossible():
    report = decide(M23)
    assert report.verdict == "impossible_by_theorem"
    cert = report.certificate
    assert cert.witness == (2, 1)
    assert cert.nprime_part.as_dict() == {1: F(-1)}
    assert dict(cert.onemx_exponents) == {1: -1}
    assert cert.recurrence.gcd == 1 and cert.recurrence.total == 2
    assert cert.contradiction.holds
    assert report.evidence is None


def test_decide_degenerate_and_outside():
    assert decide(M24).verdict == "degenerate_gcd"
    low = decide(MSpec(((1, 1), (2, 1))))
    assert low.verdict == "outside_hypothesis" and low.evidence is None
    counter = decide(MSpec(((2, 1), (3, 1), (4, 1), (6, 1))))
    assert counter.verdict == "outside_hypothesis"
    assert counter.evidence and (F(1, 2), F(1)) in list(counter.evidence)


def test_decide_with_polynomial():
    report = decide(M23, IntPolynomial([1, 1, 1]))
    assert report.verdict == "impossible_by_theorem"
    assert report.certificate.nprime_part.as_dict() == {1: F(-1), 3: F(1)}
    with pytest.raises(DomainError):
        decide(M23, IntPolynomial([1, -1]))
    with pytest.raises(DomainError):
        decide(MSpec(((2, 1),)))


def test_decide_certificate_json():
    data = decide(M23).to_json_dict()
    assert data["verdict"] == "impossible_by_theorem"
    assert data["certificate"]["witness"] == {"p": 2, "t": 1}
    assert data["certificate"]["recurrence"]["a"] == [1, 1]
    assert data["certificate"]["contradiction"]["holds"] is True


def _enumerate_offgrid(m, bound, max_power=3):
    seen = set()
    for t in range(1, max_power + 1):
        scale = m.b**t
        for n in range(1, int(bound * scale) + 1):
            q = F(n, scale)
            if q <= bound and in_qbprime_off_nprime(q, m) and q not in seen:
                seen.add(q)
    return sorted(seen)


def test_obstruction_matches_integrality():
    # solvable: empty report and zero obstruction everywhere sampled
    mex_solvable = {2: -1}
    f = solve_formal(M24, RHS_RUZSA, 16)
    assert integrality_report(f) == []
    for lam in _enumerate_offgrid(M24, 16):
        assert series_obstruction(M24, mex_solvable, lam) == 0
    # unsolvable: nonempty report and a nonzero obstruction witness
    g = solve_formal(M23, RHS_GEOMETRIC, 8)
    assert integrality_report(g)
    witnesses = [
        lam
        for lam in _enumerate_offgrid(M23, 8)
        if series_obstruction(M23, {1: -1}, lam) != 0
    ]
    assert witnesses


def test_decide_certificate_soundness_random():
    rng = random.Random(131)
    seen_impossible = 0
    for _ in range(60):
        b0 = rng.randint(2, 9)
        others = sorted(rng.sample(range(b0 + 1, 30), rng.randint(1, 2)))
        m = MSpec(tuple((b, rng.randint(1, 3)) for b in [b0] + others))
        report = decide(m)
        if report.verdict == "degenerate_gcd":
            assert m.coefficient_gcd > 1
            continue
        if report.verdict != "impossible_by_theorem":
            continue
        seen_impossible += 1
        cert = report.certificate
        assert cert is not None
        # witness re-derivable and the contradiction structural
        assert hypothesis_check(m) == cert.witness
        assert 0 < cert.contradiction.gcd < cert.contradiction.total
        assert cert.recurrence.total == sum(m.multiplicities)
        # the exponent vector really vanishes past the bound
        mex = dict(cert.onemx_exponents)
        for d in range(cert.vanish_bound, 2 * cert.vanish_bound + 1):
            assert product_exponent(m, mex, d) == 0
    assert seen_impossible >= 10


def test_solution_exponents_on_base_grid():
    f = solve_formal(M23, RHS_GEOMETRIC, 6)
    assert on_base_grid(f, M23.b)
    assert not on_base_grid(f, 3)


def _random_instance(rng):
    structured = rng.random() < 0.8
    b0 = rng.randint(2, 5)
    extra_count = rng.randint(1, 2)
    if structured:
        multipliers = rng.sample([2, 3, 4, 5, 6], extra_count)
        others = sorted(b0 * t for t in multipliers)
    else:
        b0 = 2
        others = [3] if extra_count == 1 else [3, rng.choice([4, 5])]
    pairs = [(b0, rng.randint(1, 3))]
    pairs.extend((b, rng.randint(1, 3)) for b in others)
    support = rng.sample(range(1, 7), rng.randint(0, 4))
    factors = {d: rng.choice([-2, -1, 1, 2]) for d in support}
    return MSpec(tuple(pairs)), RhsSpec.onemx_product(factors)


def test_residual_random_instances():
    rng = random.Random(97)
    for _ in range(10):
        m, rhs = _random_instance(rng)
        f = solve_formal(m, rhs, 12)
        assert verify_solution(f, m, rhs), (m.pairs, rhs.factors)
        reseeded = solve_formal(
            m, rhs, 12, seed=FracSeries.one(F(12)) + FracSeries.x_power(F(12), 12)
        )
        assert reseeded == f

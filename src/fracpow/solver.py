"""Solving f(x^{b_0})^{e_0} ... f(x^{b_m})^{e_m} = G(x) and deciding
when no classical power series solution can exist.

For b_0 >= 2 the equation has a unique fractional-power-series
solution with f(0) = 1: substituting x -> x^{1/b_0} and taking e_0-th
roots turns it into f = Gamma * F(f)^{-1} with
Gamma = G(x^{1/b_0})^{1/e_0} and F(f) = prod f(x^{theta_i})^{nu_i},
a contraction whose disagreement order grows by min theta_i > 1 per
step.  Because F is multiplicative and exp/log are exact mutually
inverse bijections at any truncation, the iteration is run on
L = log f, where it is linear:

    L  <-  log Gamma - sum_i nu_i L(x^{theta_i}),

and the solution is exp of the fixed point.  This is the same
operator conjugated by log, with identical convergence, at a fraction
of the cost of multiplying large truncated series.

The decision pipeline for "can the representation function of a form
be eventually constant" combines:

  * hypothesis_check: a prime power p^t dividing b_0 but none of the
    other coefficients;
  * the smooth-order cyclotomic part H of the right-hand side and its
    exponent vector m_d over the basis (1 - x^d);
  * product_exponent: the exponent g_d of (1 - x^d) in any power-series
    solution, an alternating finite sum taken level by level in integers,
    with the recurrence g_d + sum nu_i g_{d/theta_i} = m_{b d}/e_0;
  * almost_rational_bound: an explicit D* with g_d = 0 for d >= D*
    under the hypothesis;
  * recurrence_data / contradiction_certificate: the integrality
    contradiction gcd(a_0..a_t) < sum a_i obtained from the
    prime-power exponent recurrence via Gauss's lemma.

A degenerate shortcut applies when gcd(b_0..b_m) > 1: the left side
is a series in x^g, so it cannot match a right side whose
coefficients are eventually a nonzero constant.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    MSpec,
    as_integer,
    factorize,
    format_rational,
    in_nprime,
    in_qbprime_off_nprime,
    is_prime,
    ord_p,
)
from .cyclotomic import CycloProduct, IntPolynomial, nprime_cyclotomic_part
from .errors import DomainError, HypothesisError, InternalError, UsageError
from .series import FracSeries, exp_series, log1p_series, onemx_product

EVIDENCE_CUTOFF = Fraction(4)
EVIDENCE_LIMIT = 64
GD_SAMPLE_LIMIT = 64


@dataclass(frozen=True)
class RhsSpec:
    """Right-hand side G(x): either P(x)/(1-x) for an integer
    polynomial P with P(0) = 1 and P(1) != 0, or a finite product
    prod (1 - x^d)^{m_d}."""

    poly: IntPolynomial | None
    factors: tuple[tuple[int, int], ...] | None

    @classmethod
    def poly_over_1mx(cls, p: IntPolynomial) -> "RhsSpec":
        if not p.is_integral:
            raise DomainError("rhs polynomial must have integer coefficients")
        if p.coefficient(0) != 1:
            raise DomainError("rhs polynomial must have constant term 1")
        if p(1) == 0:
            raise DomainError("rhs polynomial must not vanish at 1")
        return cls(poly=p, factors=None)

    @classmethod
    def onemx_product(cls, exponents: dict) -> "RhsSpec":
        cleaned = []
        for d, v in sorted(exponents.items()):
            d = as_integer(d, "factor order")
            v = as_integer(v, "factor exponent")
            if d < 1:
                raise DomainError(f"factor order must be positive, got {d}")
            if v:
                cleaned.append((d, v))
        return cls(poly=None, factors=tuple(cleaned))

    def expand(self, cutoff) -> FracSeries:
        """G as a truncated series, complete up to the cutoff."""
        if self.poly is not None:
            return onemx_product(cutoff, ((1, -1),), self.poly.coeffs)
        return onemx_product(cutoff, self.factors)


def _log_substituted_rhs(m: MSpec, rhs: RhsSpec, cutoff: Fraction) -> FracSeries:
    # log Gamma = (1/e) log G(x^{1/b}), complete up to the cutoff
    G = rhs.expand(m.b * cutoff)
    if G.constant_term != 1:
        raise DomainError("rhs must have constant term 1")
    shrunk = G.substitute_power(Fraction(1, m.b))
    return log1p_series(shrunk - 1) * Fraction(1, m.e)


def solve_formal(m: MSpec, rhs: RhsSpec, cutoff, seed: FracSeries | None = None) -> FracSeries:
    """The unique solution f with f(0) = 1, complete up to the cutoff.

    Iterates the contraction in log form starting from log(seed)
    (seed defaults to 1) and stops when two successive iterates agree
    on every kept exponent; that happens within
    ceil(log_{min theta}(cutoff * b_0)) + 1 rounds because each round
    multiplies the disagreement order by min theta_i > 1.
    """
    if m.b < 2:
        raise HypothesisError(f"solver needs b_0 >= 2, got b_0 = {m.b}")
    T = Fraction(cutoff)
    if T <= 0:
        raise DomainError(f"cutoff must be positive, got {T}")
    R = _log_substituted_rhs(m, rhs, T)
    thetas, nus = m.thetas, m.nus
    if seed is None:
        L = FracSeries.zero(T)
    else:
        if seed.cutoff != T:
            raise UsageError("seed cutoff must match the requested cutoff")
        if seed.constant_term != 1:
            raise DomainError("seed must have constant term 1")
        L = log1p_series(seed - 1)
    if not thetas:
        return exp_series(R)
    round_limit = _round_limit(min(thetas), m.b, T)
    for _ in range(round_limit):
        nxt = R
        for theta, nu in zip(thetas, nus):
            nxt = nxt - nu * L.substitute_power(theta).truncate(T)
        if nxt == L:
            return exp_series(L)
        L = nxt
    raise InternalError("contraction failed to stabilize within its bound")


def _round_limit(theta_min: Fraction, b: int, T: Fraction) -> int:
    rounds = 2
    w = Fraction(1, b)
    while w <= T:
        w *= theta_min
        rounds += 1
    return rounds + 2


def verify_solution(f: FracSeries, m: MSpec, rhs: RhsSpec) -> bool:
    """Check prod f(x^{b_i})^{e_i} = G below the common valid cutoff.

    Runs the product route directly (powers first at the small
    cutoff, then substitution), independently of how f was obtained.
    """
    target = m.b * f.cutoff
    lhs = FracSeries.one(target)
    for b_i, e_i in m.pairs:
        lhs = lhs * (f**e_i).substitute_power(b_i).truncate(target)
    return lhs == rhs.expand(target)


def integrality_report(f: FracSeries) -> list[tuple[Fraction, Fraction]]:
    """All (exponent, coefficient) entries of f at exponents outside
    the non-negative integers; empty iff f is a classical power series
    up to its cutoff."""
    return [(e, c) for e, c in f.items() if e.denominator != 1]


def _alternating_sum(m: MSpec, mexps: dict[int, int], start: Fraction) -> Fraction:
    """sum_k (-1)^k sum_{i_1..i_k} nu_{i_1}...nu_{i_k} m[start / (theta_{i_1}...theta_{i_k})].

    One integer pass per level k: k steps from start = num/den reach
    num b_0^k / D, D = den prod b_i^{k_i} whatever their order, so level
    k maps D to its summed tuple weight over e_0^k, down to min(mexps).
    """
    if not mexps:
        return Fraction(0)
    lowest = min(mexps)
    (b0, e0), steps = m.pairs[0], m.pairs[1:]
    top, total, scale, level = start.numerator, 0, 1, {start.denominator: 1}
    while level:
        nxt: dict[int, int] = {}
        for D, w in level.items():
            q, r = divmod(top, D)
            if not r:
                total += w * mexps.get(q, 0)
            for b_i, e_i in steps:
                if top * b0 < lowest * D * b_i:
                    break
                nxt[D * b_i] = nxt.get(D * b_i, 0) - w * e_i
        level, top, total, scale = nxt, top * b0, total * e0, scale * e0
    return Fraction(total, scale)


def _check_mexps(mexps: dict, m: MSpec) -> dict[int, int]:
    out = {}
    for d, v in mexps.items():
        d = as_integer(d, "exponent order")
        if d < 1 or not in_nprime(d, m):
            raise DomainError(f"exponent order {d} lies outside N'")
        v = as_integer(v, "exponent")
        if v:
            out[d] = v
    return out


def series_obstruction(m: MSpec, mexps: dict, lam) -> Fraction:
    """The solvability obstruction at a fractional index lam.

    For H = prod (1 - x^d)^{m_d} with orders in N', a power-series
    solution g of the substituted product equation exists iff this
    alternating sum vanishes for every lam in Q_b' - N'.
    """
    lam = Fraction(lam)
    if not in_qbprime_off_nprime(lam, m):
        raise DomainError(f"index {lam} is not in Q_b' - N'")
    return _alternating_sum(m, _check_mexps(mexps, m), lam)


def product_exponent(m: MSpec, mexps: dict, d) -> Fraction:
    """The exponent g_d of (1 - x^d) in the power-series solution:

        g_d = sum_k (-1)^k sum nu_{i_1}..nu_{i_k} m[b d / (theta...)] / e_0,

    a finite alternating sum, taken one level of theta steps at a time;
    lookups at non-integer or unsupported indices contribute nothing, so
    g_d = 0 automatically once b d outruns the support.  The values
    satisfy g_d + sum_i nu_i g_{d/theta_i} = m_{b d} / e_0 identically.
    """
    d = Fraction(d)
    if d <= 0:
        raise DomainError(f"order must be positive, got {d}")
    checked = _check_mexps(mexps, m)
    return _alternating_sum(m, checked, m.b * d) / m.e


def hypothesis_check(m: MSpec) -> tuple[int, int] | None:
    """A witness (p, t) with p^t | b_0 but p^t not dividing any other
    coefficient, or None.  Prefers the smallest prime, then the
    smallest exponent; equivalently ord_p(b_0) strictly dominates
    every ord_p(b_i), with t = max_i ord_p(b_i) + 1 the least witness.
    """
    if m.extra_count < 1:
        raise DomainError("hypothesis_check needs at least one pair beyond b_0")
    b0 = m.b
    others = m.coefficients[1:]
    for p in sorted(factorize(b0)):
        t_max = ord_p(b0, p)
        t_min = max(ord_p(bi, p) if bi % p == 0 else 0 for bi in others) + 1
        if t_min <= t_max:
            return (p, t_min)
    return None


def _validate_witness(m: MSpec, witness) -> tuple[int, int]:
    try:
        p, t = witness
    except (TypeError, ValueError):
        raise DomainError(f"witness must be a (p, t) pair, got {witness!r}")
    if not is_prime(p):
        raise HypothesisError(f"witness prime {p} is not prime")
    if t < 1 or m.b % p**t != 0:
        raise HypothesisError(f"{p}^{t} does not divide b_0 = {m.b}")
    for bi in m.coefficients[1:]:
        if bi % p**t == 0:
            raise HypothesisError(f"{p}^{t} divides coefficient {bi}")
    return p, t


def almost_rational_bound(m: MSpec, mexps: dict, witness) -> int:
    """An explicit D* with product_exponent(m, mexps, d) = 0 for all
    d >= D*.

    Writing theta_i = rho_i p^{-w_i} with w_i >= 1 (possible exactly
    under the witness) and rho = max rho_i, every integer index
    reachable from b d is at least min(sqrt(b d), p^{log_rho(b d)/2}),
    so it clears the support once b d > Dmax^2 and b d >= rho^K where
    K is minimal with p^K > Dmax^2.
    """
    p, _ = _validate_witness(m, witness)
    checked = _check_mexps(mexps, m)
    if not checked:
        return 1
    d_max = max(checked)
    rho = max(
        theta * p ** (ord_p(m.b, p) - ord_p(bi, p))
        for theta, bi in zip(m.thetas, m.coefficients[1:])
    )
    k = 0
    while p**k <= d_max * d_max:
        k += 1
    rho_k = rho**k
    bound = max(
        d_max * d_max // m.b + 1,
        int(math.ceil(rho_k / m.b)),
    )
    while m.b * bound <= d_max * d_max or m.b * bound < rho_k:
        bound += 1
    return bound


@dataclass(frozen=True)
class RecurrenceData:
    """Coefficients of the prime-power exponent recurrence
    a_0 h[p^n] + a_1 h[p^{n-1}] + ... + a_t h[p^{n-t}] = c[p^n]."""

    p: int
    t: int
    a: tuple[int, ...]
    total: int
    gcd: int

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "t": self.t,
            "a": list(self.a),
            "total": self.total,
            "gcd": self.gcd,
        }


@dataclass(frozen=True)
class ContradictionCertificate:
    """gcd(a_0..a_t) / sum(a_i) must be an integer for a finitely
    supported exponent vector to exist; holds records that it is not."""

    gcd: int
    total: int
    holds: bool

    def to_json_dict(self) -> dict:
        return {"gcd": self.gcd, "total": self.total, "holds": self.holds}


def recurrence_data(m: MSpec, witness) -> RecurrenceData:
    """Group the multiplicities by ord_p of their coefficients:
    a_j = sum of e_i over ord_p(b_i) = j, for j = 0..t = max ord.

    Requires gcd(b_0..b_m) = 1, which guarantees a_0 != 0 for any
    prime dividing b_0; a_t != 0 holds because b_0 attains the
    maximal order under a valid witness.
    """
    p, _ = _validate_witness(m, witness)
    if m.coefficient_gcd != 1:
        raise HypothesisError(
            f"coefficient gcd is {m.coefficient_gcd}; the exponent recurrence "
            "needs coprime coefficients"
        )
    orders = [ord_p(bi, p) for bi in m.coefficients]
    t = max(orders)
    a = [0] * (t + 1)
    for j, (_, e_i) in zip(orders, m.pairs):
        a[j] += e_i
    if t < 1 or a[0] == 0 or a[t] == 0:
        raise HypothesisError(
            f"recurrence for p = {p} degenerates: shifts {a} need a_0 and a_t nonzero"
        )
    return RecurrenceData(
        p=p, t=t, a=tuple(a), total=sum(a), gcd=math.gcd(*a)
    )


def contradiction_certificate(data: RecurrenceData) -> ContradictionCertificate:
    """The impossibility check: 0 < gcd(a_0..a_t) < sum a_i means the
    forced integer gcd/total cannot exist, so no finitely supported
    exponent vector solves the recurrence."""
    holds = 0 < data.gcd < data.total
    return ContradictionCertificate(gcd=data.gcd, total=data.total, holds=holds)


@dataclass(frozen=True)
class Certificate:
    witness: tuple[int, int]
    nprime_part: CycloProduct
    onemx_exponents: tuple[tuple[int, int], ...]
    gd_samples: tuple[tuple[int, Fraction], ...]
    vanish_bound: int
    recurrence: RecurrenceData
    contradiction: ContradictionCertificate

    def to_json_dict(self) -> dict:
        return {
            "witness": {"p": self.witness[0], "t": self.witness[1]},
            "nprime_part": self.nprime_part.to_json_dict(),
            "onemx_exponents": [list(pair) for pair in self.onemx_exponents],
            "gd_samples": [[d, format_rational(v)] for d, v in self.gd_samples],
            "vanish_bound": self.vanish_bound,
            "recurrence": self.recurrence.to_json_dict(),
            "contradiction": self.contradiction.to_json_dict(),
        }


VERDICT_IMPOSSIBLE = "impossible_by_theorem"
VERDICT_OUTSIDE = "outside_hypothesis"
VERDICT_DEGENERATE = "degenerate_gcd"


@dataclass(frozen=True)
class DecisionReport:
    verdict: str
    certificate: Certificate | None = None
    evidence: tuple[tuple[Fraction, Fraction], ...] | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.verdict}
        out["certificate"] = (
            self.certificate.to_json_dict() if self.certificate else None
        )
        if self.evidence is None:
            out["evidence"] = None
        else:
            out["evidence"] = [
                [format_rational(e), format_rational(c)] for e, c in self.evidence
            ]
        return out


def decide(m: MSpec, p_poly: IntPolynomial | None = None) -> DecisionReport:
    """Decide whether the representation function of the form can be
    eventually constant, for right-hand sides P(x)/(1-x).

    Branches, in order: (i) gcd(b_0..b_m) > 1 is degenerate and
    impossible outright; (ii) a prime-power witness yields the full
    impossibility certificate; (iii) otherwise the question is outside
    the theorem, and for b_0 >= 2 a truncated solve attaches its
    fractional-exponent report as evidence.
    """
    if m.extra_count < 1:
        raise DomainError("decide needs at least two coefficient pairs")
    rhs = RhsSpec.poly_over_1mx(p_poly if p_poly is not None else IntPolynomial.one())
    if m.coefficient_gcd > 1:
        return DecisionReport(verdict=VERDICT_DEGENERATE)
    if m.b >= 2:
        witness = hypothesis_check(m)
    else:
        witness = None
    if witness is None:
        evidence = None
        if m.b >= 2:
            f = solve_formal(m, rhs, EVIDENCE_CUTOFF)
            # lowest fractional exponents only; the full report can be
            # regenerated at any cutoff through integrality_report
            evidence = tuple(integrality_report(f)[:EVIDENCE_LIMIT])
        return DecisionReport(verdict=VERDICT_OUTSIDE, evidence=evidence)
    h_part = nprime_cyclotomic_part(rhs.poly, m, include_1mx_inverse=True)
    onemx = h_part.to_onemx()
    mexps = {}
    for d, v in onemx.exps:
        if v.denominator != 1:
            raise InternalError("integer polynomial produced fractional exponents")
        mexps[d] = v.numerator
    bound = almost_rational_bound(m, mexps, witness)
    samples = []
    for d in range(1, min(bound, GD_SAMPLE_LIMIT) + 1):
        value = product_exponent(m, mexps, d)
        if value:
            samples.append((d, value))
    rec = recurrence_data(m, witness)
    contra = contradiction_certificate(rec)
    certificate = Certificate(
        witness=witness,
        nprime_part=h_part,
        onemx_exponents=tuple(sorted(mexps.items())),
        gd_samples=tuple(samples),
        vanish_bound=bound,
        recurrence=rec,
        contradiction=contra,
    )
    return DecisionReport(verdict=VERDICT_IMPOSSIBLE, certificate=certificate)

"""Cyclotomic polynomials with constant term 1, and formal products of them.

The cyclotomic polynomial of order n here is

    Phi_n(x) = prod over u in (Z/nZ)* of (1 - exp(2 pi i u / n) x),

which differs from the monic convention by a sign and satisfies
Phi_n(0) = 1.  The two families {Phi_n} and {1 - x^n} generate the
same multiplicative lattice:

    1 - x^n = prod_{d | n} Phi_d(x),
    Phi_n(x) = prod_{d | n} (1 - x^d)^{mobius(n/d)},

and computation stays in integer arithmetic throughout: Phi_n is
built by multiplying and exactly dividing the sparse binomials
1 - x^d, never by expanding root products.

CycloProduct holds a finite formal product in either basis
(prod Phi_d^{h_d} or prod (1 - x^d)^{g_d}) with rational exponents.
The substitution law

    Phi_d(x^a) = prod over d<a|d) | f | ad of Phi_f(x),
    <a|d) = prod_{p | gcd(a,d)} p^ord_p(a),

drives g(x) -> g(x^a) and the multilinear-form action on exponent
vectors.  The module also provides polynomial content (multiplicative
by Gauss's lemma) and extraction of the smooth-order cyclotomic part
of an integer polynomial by repeated exact division.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import (
    MSpec,
    angle,
    as_integer,
    bracket,
    divisors,
    euler_phi,
    format_rational,
    in_nprime,
    mobius,
    parse_rational,
)
from .errors import DomainError, InternalError
from .series import (
    FracSeries,
    one_minus_x_power,
    onemx_coefficients,
    pow_alpha,
    times_sparse,
)


class IntPolynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficient list is indexed by degree with trailing zeros trimmed;
    the zero polynomial has an empty list.  `is_integral` reports
    whether every coefficient is an integer.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cleaned = [Fraction(c) for c in coeffs]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        self.coeffs = tuple(cleaned)

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def parse(cls, text: str) -> "IntPolynomial":
        """Parse a comma list of ascending coefficients, e.g. '1,0,2'."""
        return cls([parse_rational(chunk) for chunk in text.split(",")])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return IntPolynomial([c * other for c in self.coeffs])
        top = self.degree + other.degree
        terms = list(enumerate(other.coeffs))
        return IntPolynomial(times_sparse(enumerate(self.coeffs), terms, top, [0] * (top + 1)))

    __rmul__ = __mul__

    def divmod(self, other: "IntPolynomial"):
        """Euclidean division over the rationals."""
        if other.is_zero:
            raise DomainError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = other.degree
        lead = other.coeffs[-1]
        if len(rem) <= dd:
            return IntPolynomial.zero(), IntPolynomial(rem)
        quo = [Fraction(0)] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if not c:
                continue
            q = c / lead
            quo[i - dd] = q
            for j, cb in enumerate(other.coeffs):
                rem[i - dd + j] -= q * cb
        return IntPolynomial(quo), IntPolynomial(rem)

    def substitute_power(self, a: int) -> "IntPolynomial":
        """x -> x^a (inflation by a positive integer)."""
        if a < 1:
            raise DomainError(f"substitution power must be >= 1, got {a}")
        if self.is_zero:
            return self
        out = [Fraction(0)] * (self.degree * a + 1)
        for i, c in enumerate(self.coeffs):
            out[i * a] = c
        return IntPolynomial(out)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_series(self, cutoff) -> FracSeries:
        cutoff = Fraction(cutoff)
        return FracSeries(
            cutoff,
            {Fraction(i): c for i, c in enumerate(self.coeffs) if i <= cutoff},
        )

    def to_json_list(self) -> list:
        return [format_rational(c) for c in self.coeffs]

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                body = format_rational(abs(c))
            else:
                mag = abs(c)
                coef = "" if mag == 1 else format_rational(mag) + "*"
                body = coef + ("x" if i == 1 else f"x^{i}")
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"IntPolynomial({self})"


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> IntPolynomial:
    """Phi_n with Phi_n(0) = 1 and degree euler_phi(n), exactly.

    prod_{d | n} (1 - x^d)^{mobius(n/d)} is a polynomial of degree
    euler_phi(n), so its series truncated at that degree is all of it.
    """
    if n < 1:
        raise DomainError(f"cyclotomic order must be >= 1, got {n}")
    deg = euler_phi(n)
    factors = [(d, mobius(n // d)) for d in divisors(n)]
    poly = IntPolynomial(onemx_coefficients(deg, factors))
    if poly.degree != deg:
        raise InternalError(f"Phi_{n} has degree {poly.degree}, not euler_phi = {deg}")
    return poly


@dataclass(frozen=True)
class CycloProduct:
    """Finite formal product prod Phi_d^{e_d} ('phi' basis) or
    prod (1 - x^d)^{e_d} ('onemx' basis), exponents rational."""

    basis: str
    exps: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        if self.basis not in ("phi", "onemx"):
            raise DomainError(f"unknown basis {self.basis!r}")
        cleaned = {}
        for d, value in dict(self.exps).items():
            d = as_integer(d, "order")
            if d < 1:
                raise DomainError(f"order must be positive, got {d}")
            value = Fraction(value)
            if value:
                cleaned[d] = value
        object.__setattr__(self, "exps", tuple(sorted(cleaned.items())))

    @classmethod
    def make(cls, basis: str, exps) -> "CycloProduct":
        return cls(basis, tuple(dict(exps).items()))

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.exps)

    @property
    def is_one(self) -> bool:
        return not self.exps

    def scale(self, c) -> "CycloProduct":
        c = Fraction(c)
        return CycloProduct.make(self.basis, {d: v * c for d, v in self.exps})

    def __mul__(self, other: "CycloProduct") -> "CycloProduct":
        if other.basis != self.basis:
            raise DomainError("cannot multiply products in different bases")
        out = dict(self.exps)
        for d, v in other.exps:
            out[d] = out.get(d, Fraction(0)) + v
        return CycloProduct.make(self.basis, out)

    def to_onemx(self) -> "CycloProduct":
        """Rewrite prod Phi_d^{h_d} as prod (1-x^u)^{g_u} (or return self)."""
        if self.basis == "onemx":
            return self
        out: dict[int, Fraction] = {}
        for d, h in self.exps:
            for u in divisors(d):
                mu = mobius(d // u)
                if mu:
                    out[u] = out.get(u, Fraction(0)) + mu * h
        return CycloProduct.make("onemx", out)

    def to_phi(self) -> "CycloProduct":
        """Rewrite prod (1-x^u)^{g_u} as prod Phi_d^{h_d} (or return self)."""
        if self.basis == "phi":
            return self
        out: dict[int, Fraction] = {}
        for u, g in self.exps:
            for d in divisors(u):
                out[d] = out.get(d, Fraction(0)) + g
        return CycloProduct.make("phi", out)

    def expand_series(self, cutoff) -> FracSeries:
        """Multiply the product out as a truncated series."""
        cutoff = Fraction(cutoff)
        out = FracSeries.one(cutoff)
        for d, value in self.exps:
            if self.basis == "onemx":
                base = one_minus_x_power(cutoff, d)
            else:
                base = cyclotomic_poly(d).to_series(cutoff)
            out = out * pow_alpha(base, value)
        return out

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "exps": [[d, format_rational(v)] for d, v in self.exps],
        }


def onemxn_factor(n: int) -> CycloProduct:
    """1 - x^n = prod_{d | n} Phi_d, as a phi-basis product."""
    if n < 1:
        raise DomainError(f"order must be >= 1, got {n}")
    return CycloProduct.make("phi", {d: Fraction(1) for d in divisors(n)})


def phi_as_onemx(n: int) -> CycloProduct:
    """Phi_n = prod_{d | n} (1 - x^d)^{mobius(n/d)}, as an onemx product."""
    if n < 1:
        raise DomainError(f"order must be >= 1, got {n}")
    out = {}
    for d in divisors(n):
        mu = mobius(n // d)
        if mu:
            out[d] = Fraction(mu)
    return CycloProduct.make("onemx", out)


def expand_phi_power(d: int, a: int) -> CycloProduct:
    """Phi_d(x^a) as the product of the Phi_f with d<a|d) | f | ad.

    The orders f are exactly d <a|d) f' for f' dividing a / <a|d); the
    degree identity sum euler_phi(f) = a euler_phi(d) pins the set.
    """
    if d < 1 or a < 1:
        raise DomainError("expand_phi_power needs positive integers")
    g = angle(a, d)
    base = d * g
    out = {base * fp: Fraction(1) for fp in divisors(a // g)}
    return CycloProduct.make("phi", out)


def substitute_cyclo(g: CycloProduct, a: int) -> CycloProduct:
    """g(x^a) for a phi-basis product; the exponent of Phi_f in the
    result is the input exponent at bracket(f/a)."""
    if g.basis != "phi":
        raise DomainError("substitute_cyclo needs a phi-basis product")
    if a < 1:
        raise DomainError(f"substitution power must be >= 1, got {a}")
    out: dict[int, Fraction] = {}
    for d, h in g.exps:
        for f, _ in expand_phi_power(d, a).exps:
            if bracket(Fraction(f, a)) != d:
                raise InternalError(f"bracket({f}/{a}) is not {d}")
            out[f] = out.get(f, Fraction(0)) + h
    return CycloProduct.make("phi", out)


def apply_mform(g: CycloProduct, m: MSpec) -> CycloProduct:
    """The phi-basis exponents of g(x^{b_0})^{e_0} ... g(x^{b_m})^{e_m}:
    the result exponent at d is sum_i e_i h_{bracket(d/b_i)}."""
    if g.basis != "phi":
        raise DomainError("apply_mform needs a phi-basis product")
    out = CycloProduct.make("phi", {})
    for b_i, e_i in m.pairs:
        out = out * substitute_cyclo(g, b_i).scale(e_i)
    return out


def content(p: IntPolynomial) -> Fraction:
    """The unique c > 0 with p = c * (primitive integer polynomial)."""
    if p.is_zero:
        raise DomainError("the zero polynomial has no content")
    den = math.lcm(*(c.denominator for c in p.coeffs))
    num = math.gcd(*(c.numerator * (den // c.denominator) for c in p.coeffs))
    return Fraction(num, den)


def phi_multiplicity_split(p: IntPolynomial, m: MSpec):
    """Split p into its smooth-order cyclotomic part and a residual.

    Returns ({d: multiplicity of Phi_d, d in N'}, residual R) with
    p = prod Phi_d^{c_d} * R exactly and R free of order-N' roots of
    unity.  Candidate orders d run over N' with euler_phi(d) <= deg p
    (any d with a larger totient cannot divide p); since
    euler_phi(d) >= sqrt(d/2), it suffices to scan N' up to
    2 deg(p)^2.
    """
    deg = p.degree
    parts: dict[int, int] = {}
    rest = p
    if deg >= 1:
        for d in range(1, 2 * deg * deg + 2):
            if not in_nprime(d, m) or euler_phi(d) > deg:
                continue
            phi_d = cyclotomic_poly(d)
            count = 0
            while True:
                quo, rem = rest.divmod(phi_d)
                if not rem.is_zero:
                    break
                rest = quo
                count += 1
            if count:
                parts[d] = count
    return parts, rest


def nprime_cyclotomic_part(
    p: IntPolynomial, m: MSpec, include_1mx_inverse: bool
) -> CycloProduct:
    """The cyclotomic-part exponents {d in N': c_d} of p, found by
    repeated exact division; with include_1mx_inverse the entry at
    d = 1 is decremented by one, accounting for a 1/(1-x) factor."""
    if p.coefficient(0) != 1:
        raise DomainError("polynomial must have constant term 1")
    if p(1) == 0:
        raise DomainError("polynomial must not vanish at 1")
    if not p.is_integral:
        raise DomainError("polynomial must have integer coefficients")
    parts, _ = phi_multiplicity_split(p, m)
    exps = {d: Fraction(c) for d, c in parts.items()}
    if include_1mx_inverse:
        exps[1] = exps.get(1, Fraction(0)) - 1
    return CycloProduct.make("phi", exps)

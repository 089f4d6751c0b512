"""Exact scalar arithmetic and the number-theoretic predicates.

The scalar for every coefficient and exponent in this package is an
arbitrary-precision rational, `fractions.Fraction` (always in lowest
terms, positive denominator).  On top of that this module provides:

    ord_p(q, p)     p-adic order of a nonzero rational
    mobius(n)       Moebius function
    euler_phi(n)    Euler totient
    bracket(y)      "positive part"  prod_{ord_p(y) > 0} p^ord_p(y)
    angle(a, d)     prod_{p | gcd(a,d)} p^ord_p(a)

together with the multilinear-form spec `MSpec` and the two
smoothness sets attached to it:

    N'   = { n : every prime of n divides b_0 * ... * b_m }
    Q_b' = { n / b^t : n in N', t >= 0 }         (b = b_0)

Factoring is plain trial division against a cached prime sieve
(default cap 10**6, overridable through FRACPOW_SIEVE_LIMIT); inputs
that would need more raise CapacityError.
"""

import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CapacityError, DomainError

DEFAULT_SIEVE_LIMIT = 10**6


def sieve_limit() -> int:
    """Current sieve cap; FRACPOW_SIEVE_LIMIT overrides the default."""
    raw = os.environ.get("FRACPOW_SIEVE_LIMIT")
    if raw is None:
        return DEFAULT_SIEVE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        raise DomainError(f"FRACPOW_SIEVE_LIMIT must be an integer, got {raw!r}")
    if limit < 2:
        raise DomainError("FRACPOW_SIEVE_LIMIT must be at least 2")
    return limit


@lru_cache(maxsize=4)
def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return tuple(i for i in range(limit + 1) if flags[i])


def primes() -> tuple[int, ...]:
    return _sieve(sieve_limit())


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    limit = sieve_limit()
    if n <= limit:
        # bisect would work; the tuple is cached and sets are cheap
        return n in _prime_set(limit)
    if n <= limit * limit:
        return all(n % p for p in _sieve(limit) if p * p <= n)
    raise CapacityError(f"primality of {n} exceeds sieve capacity {limit}")


@lru_cache(maxsize=4)
def _prime_set(limit: int) -> frozenset:
    return frozenset(_sieve(limit))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: multiplicity} of n >= 1 by trial division."""
    if n < 1:
        raise DomainError(f"factorize needs n >= 1, got {n}")
    limit = sieve_limit()
    out: dict[int, int] = {}
    rest = n
    for p in _sieve(limit):
        if p * p > rest:
            break
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
    if rest > 1:
        if rest > limit * limit:
            raise CapacityError(f"factoring {n} exceeds sieve capacity {limit}")
        # any composite <= limit^2 has a prime factor <= limit, so rest is prime
        out[rest] = out.get(rest, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, k in factorize(n).items():
        divs = [d * p**j for d in divs for j in range(k + 1)]
    return sorted(divs)


def ord_p(q, p: int) -> int:
    """Highest v with q = p^v * (unit coprime to p); q must be nonzero."""
    if not is_prime(p):
        raise DomainError(f"ord_p needs a prime, got {p}")
    q = Fraction(q)
    if q == 0:
        raise DomainError("ord_p is undefined at 0")
    v = 0
    num = q.numerator
    while num % p == 0:
        num //= p
        v += 1
    den = q.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def mobius(n: int) -> int:
    """0 if n has a squared prime factor, else (-1)^(number of primes)."""
    if n < 1:
        raise DomainError(f"mobius needs n >= 1, got {n}")
    fac = factorize(n)
    if any(k > 1 for k in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int) -> int:
    """Count of 1 <= u <= n coprime to n."""
    if n < 1:
        raise DomainError(f"euler_phi needs n >= 1, got {n}")
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def divides_rational(lam, mu) -> bool:
    """Rational divisibility: lam | mu iff mu/lam is a positive integer."""
    lam = Fraction(lam)
    mu = Fraction(mu)
    if lam <= 0 or mu <= 0:
        raise DomainError("divides_rational needs positive arguments")
    return (mu / lam).denominator == 1


def bracket(y) -> int:
    """Positive part of y > 0: the product of p^ord_p(y) over ord_p(y) > 0.

    Equals the numerator of y in lowest terms.
    """
    y = Fraction(y)
    if y <= 0:
        raise DomainError(f"bracket needs y > 0, got {y}")
    return y.numerator


def angle(a: int, d: int) -> int:
    """prod over primes p | gcd(a, d) of p^ord_p(a)."""
    if a < 1 or d < 1:
        raise DomainError("angle needs positive integers")
    out = 1
    for p in factorize(math.gcd(a, d)):
        out *= p ** ord_p(a, p)
    return out


def _strip_primes_of(n: int, radical_source: int) -> int:
    # remove from n every prime that divides radical_source
    while True:
        g = math.gcd(n, radical_source)
        if g == 1:
            return n
        while n % g == 0:
            n //= g
        # leftover prime powers whose prime divides g still remain; loop


@dataclass(frozen=True)
class MSpec:
    """Canonical multilinear form {(b_0, e_0), ..., (b_m, e_m)}.

    Coefficients b_i strictly increasing positive integers,
    multiplicities e_i positive.  Derived data: b = b_0, e = e_0,
    theta_i = b_i / b_0 and nu_i = e_i / e_0 for i >= 1.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise DomainError("MSpec needs at least one (b, e) pair")
        pairs = tuple((as_integer(b, "form coefficient"), as_integer(e, "form multiplicity"))
                      for b, e in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        prev = 0
        for b, e in self.pairs:
            if b <= prev:
                raise DomainError("MSpec coefficients must be strictly increasing and positive")
            if e < 1:
                raise DomainError("MSpec multiplicities must be positive")
            prev = b

    @classmethod
    def parse(cls, text: str) -> "MSpec":
        """Parse the flag grammar 'b0:e0,b1:e1,...' (ascending b)."""
        pairs = []
        for chunk in text.split(","):
            try:
                b_str, e_str = chunk.strip().split(":")
                pairs.append((int(b_str), int(e_str)))
            except ValueError:
                raise DomainError(f"bad form spec chunk {chunk!r}; expected 'b:e'")
        return cls(tuple(pairs))

    @property
    def b(self) -> int:
        return self.pairs[0][0]

    @property
    def e(self) -> int:
        return self.pairs[0][1]

    @property
    def coefficients(self) -> tuple[int, ...]:
        return tuple(b for b, _ in self.pairs)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.pairs)

    @property
    def thetas(self) -> tuple[Fraction, ...]:
        b0 = self.b
        return tuple(Fraction(b, b0) for b, _ in self.pairs[1:])

    @property
    def nus(self) -> tuple[Fraction, ...]:
        e0 = self.e
        return tuple(Fraction(e, e0) for _, e in self.pairs[1:])

    @property
    def extra_count(self) -> int:
        return len(self.pairs) - 1

    @property
    def coefficient_product(self) -> int:
        out = 1
        for b, _ in self.pairs:
            out *= b
        return out

    @property
    def coefficient_gcd(self) -> int:
        return math.gcd(*self.coefficients)


def in_nprime(n: int, m: MSpec) -> bool:
    """True iff every prime divisor of n divides b_0 * ... * b_m."""
    if n < 1:
        raise DomainError(f"in_nprime needs n >= 1, got {n}")
    return _strip_primes_of(n, m.coefficient_product) == 1


def in_qbprime(q, m: MSpec) -> bool:
    """True iff q = n / b^t with n in N' and t >= 0."""
    q = Fraction(q)
    if q <= 0:
        raise DomainError(f"in_qbprime needs q > 0, got {q}")
    if _strip_primes_of(q.denominator, m.b) != 1:
        return False
    return _strip_primes_of(q.numerator, m.coefficient_product) == 1


def in_qbprime_off_nprime(q, m: MSpec) -> bool:
    """Membership in Q_b' - N' (N' = the integers of Q_b')."""
    q = Fraction(q)
    return in_qbprime(q, m) and q.denominator != 1


def mobius_inversion_modified(B: dict, m: MSpec) -> dict:
    """Invert a divisor sum indexed by Q_b' - N'.

    Given a finite map B, returns A with

        A_n = sum over map keys u | n of mobius(n/u) * B_u,

    computed on the key set of B.  If B was produced by the forward
    divisor sum B_u = sum_{w | u} A_w over a divisor-saturated key
    set, this returns the original A.
    """
    keys = []
    for k, v in B.items():
        k = Fraction(k)
        if not in_qbprime_off_nprime(k, m):
            raise DomainError(f"key {k} is not in Q_b' - N'")
        keys.append((k, Fraction(v)))
    out: dict[Fraction, Fraction] = {}
    for n, _ in keys:
        total = Fraction(0)
        for u, value in keys:
            quot = n / u
            if quot.denominator == 1 and quot >= 1:
                total += mobius(quot.numerator) * value
        if total:
            out[n] = total
    return out


def format_rational(q) -> str:
    """Render a rational as 'num/den', omitting '/den' when den == 1.

    A numerator or denominator past Python's limit on int-to-str
    conversion (sys.get_int_max_str_digits(), 4300 digits by default)
    is a CapacityError."""
    q = Fraction(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise CapacityError(
            f"cannot print a numerator or denominator of more than {limit} digits"
        )


# Fraction("1e100000") takes about 10 ms and "1e1000000" 0.4 s (2-vCPU
# VM, Python 3.11.7); "1e999999999" would build a billion-digit integer
# before any size check could refuse it
MAX_LITERAL_EXPONENT = 100_000


def parse_rational(text: str) -> Fraction:
    """Parse 'n', 'n/d' or a decimal such as '-1.5e-3' exactly.  A decimal
    exponent above MAX_LITERAL_EXPONENT in magnitude is a CapacityError."""
    mantissa, _, exponent = text.strip().lower().partition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if "/" not in mantissa and digits.isdecimal():
        if len(digits) > len(str(MAX_LITERAL_EXPONENT)) or int(digits) > MAX_LITERAL_EXPONENT:
            raise CapacityError(
                f"the decimal exponent of a rational literal must be at most "
                f"{MAX_LITERAL_EXPONENT} in magnitude"
            )
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"bad rational literal {text!r}")


def as_integer(value, what: str) -> int:
    """value as an int, or a DomainError naming `what` when value is not
    an exact integer (5/2 and 1.7 are refused, not truncated)."""
    if type(value) is int:
        return value
    q = Fraction(value)
    if q.denominator != 1:
        raise DomainError(f"{what} must be an integer, got {format_rational(q)}")
    return q.numerator

"""Truncated fractional power series with exact rational coefficients.

A FracSeries is a finite object: a positive rational cutoff T and a
sparse map exponent -> coefficient with 0 <= exponent <= T and all
stored coefficients nonzero.  It stands for an element of the ring of
series sum c_lambda x^lambda over a discrete exponent lattice, *known
completely up to T*: every operation here preserves that completeness
contract, so equality of truncations below T is meaningful.

Supported operations:

    f + g, f * g          coefficientwise sum, Cauchy product (<= T)
    f.order()             least exponent with nonzero coefficient
    f.valuation()         beta^order with beta = 1/2, an ultrametric
                          absolute value (|f g| = |f| |g|,
                          |f + g| <= max(|f|, |g|))
    f.invert()            1/f, defined iff f(0) != 0
    f.substitute_power(r) x -> x^r, rescaling the cutoff to r*T
    f.xderive()           x f'(x), i.e. lambda * c_lambda termwise
    f.log_derivative()    x f'/f, turning products into sums
    exp_series, log1p_series, pow_alpha
                          the three classical compositions, truncated
    onemx_product, onemx_coefficients
                          P(x) prod (1 - x^d)^v for integer d, v: the
                          one expander of integer-exponent products,
                          exact binomial weights on an integer list
    times_sparse          sum c x^i * sum w x^s up to x^top: the one
                          convolution loop (FracSeries *, counting,
                          onemx_coefficients, IntPolynomial *)
    recover_product_exponents
                          unique exponents a_n with
                          f = prod (1 - x^n)^{a_n} below the cutoff

Representation.  Every exponent of a series is an integer over one
grid denominator D, the least one that fits (1 for integer exponents;
a power of b_0 on solver paths, whose exponents lie on F(theta)/b_0).
A series stores the cutoff, D and {k: c} for the terms c x^(k/D),
ascending in k; coefficients stay exact Fractions, each in lowest
terms.  Keeping D least keeps == and hash structural.  The public API
(items, coefficient, order, to_json_dict, str) speaks Fractions.  A
binary operation first rewrites both operands over lcm(D_f, D_g);
+, -, truncate, substitute_power (k/D -> k p / (D q) for x -> x^(p/q))
and recover_product_exponents then work on integer keys alone.

Product.  Every product in the package runs through times_sparse, one
schoolbook loop over (index, coefficient) pairs that adds into a list
(dense indices) or a defaultdict(int) (sparse grid keys).  f * g
scales each operand to integers over its own lcm coefficient
denominator, sums the integer products of the pairs up to the cutoff
index N = floor(T D) in a defaultdict, and turns each sum into one
Fraction again.

Division, exp, log1p and pow_alpha each solve a triangular recurrence
over ascending exponents, and all four run on one engine,
_recurrence(h, source, p, q, c0), with ord h > 0:

    g_l = (source_l + sum_{mu in supp h, mu <= l} h_mu (p(mu) + q (l - mu)) g_{l-mu}) / scale(l)

    caller              h         source   p(mu)        q    scale(l)
    num / den           den - c0  num      -1           0    c0
    exp_series(f)       f         1        mu           0    l (1 at 0)
    log1p_series(f)     f         l f_l    0            -1   l
    pow_alpha(1+h, a)   h         1        a mu         -1   l (1 at 0)

The weight p(mu) + q (l - mu) is p(mu) + q k for the contributing term
g_k, k = l - mu, so the engine forms h_mu p(mu) and h_mu q once per mu
and sums each g_l as one integer dot product over its contributors.
invert, log_derivative, negative powers and recover_product_exponents
reach it through division.

Everything is exact: exponents and coefficients are rationals, no
floating point anywhere.  All series entering a binary operation must
share one cutoff; substitute_power is the only operation that
rescales it.
"""

import heapq
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .arith import as_integer, format_rational
from .errors import CapacityError, DomainError, NotInvertibleError, UsageError

# the longest coefficient list a dense expansion may build
MAX_LIST_LEN = 10**7


@dataclass(frozen=True)
class SeriesOrder:
    """Least exponent with nonzero coefficient; value None means the
    truncation is zero (order at least the cutoff, reported as +inf)."""

    value: Fraction | None

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __add__(self, other: "SeriesOrder") -> "SeriesOrder":
        if self.value is None or other.value is None:
            return SeriesOrder(None)
        return SeriesOrder(self.value + other.value)

    def __lt__(self, other: "SeriesOrder") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __le__(self, other: "SeriesOrder") -> bool:
        return self == other or self < other

    def __repr__(self):
        return "SeriesOrder(+inf)" if self.value is None else f"SeriesOrder({self.value})"


@dataclass(frozen=True)
class Valuation:
    """Exact absolute value beta^exponent with beta = 1/2.

    Stored in log form so fractional orders stay exact; exponent None
    encodes the value 0 (the zero truncation).  Ordering follows the
    values: larger exponent means smaller valuation.
    """

    exponent: Fraction | None

    def __mul__(self, other: "Valuation") -> "Valuation":
        if self.exponent is None or other.exponent is None:
            return Valuation(None)
        return Valuation(self.exponent + other.exponent)

    def __lt__(self, other: "Valuation") -> bool:
        if other.exponent is None:
            return False
        if self.exponent is None:
            return True
        return self.exponent > other.exponent

    def __le__(self, other: "Valuation") -> bool:
        return self == other or self < other

    def __repr__(self):
        return "Valuation(0)" if self.exponent is None else f"Valuation((1/2)^{self.exponent})"


def valuation_max(a: Valuation, b: Valuation) -> Valuation:
    return b if a < b else a


class FracSeries:
    """Sparse truncated series: cutoff + {exponent: coefficient}, kept
    as {k: coefficient} for the exponents k/D of one grid 1/D."""

    def __init__(self, cutoff, terms=None):
        cutoff = Fraction(cutoff)
        if cutoff <= 0:
            raise DomainError(f"cutoff must be positive, got {cutoff}")
        clean: dict[Fraction, Fraction] = {}
        for e, c in (terms or {}).items():
            e = Fraction(e)
            c = Fraction(c)
            if c == 0:
                continue
            if e < 0:
                raise DomainError(f"negative exponent {e}")
            if e > cutoff:
                raise UsageError(f"exponent {e} exceeds cutoff {cutoff}")
            clean[e] = c
        den = math.lcm(*(e.denominator for e in clean))
        self._store(
            cutoff, den, {e.numerator * (den // e.denominator): c for e, c in clean.items()}
        )

    @classmethod
    def _grid(cls, cutoff: Fraction, den: int, coeffs: dict) -> "FracSeries":
        """The series sum c x^(k/den) over the {k: c} of coeffs, with
        0 <= k/den <= cutoff; zero coefficients are dropped."""
        out = cls.__new__(cls)
        out._store(cutoff, den, coeffs)
        return out

    def _store(self, cutoff, den, coeffs):
        # ascending keys over the least denominator, so that == and hash
        # compare the grid maps structurally
        coeffs = {k: c for k, c in sorted(coeffs.items()) if c}
        g = math.gcd(den, *coeffs)
        if g > 1:
            den //= g
            coeffs = {k // g: c for k, c in coeffs.items()}
        self.cutoff = cutoff
        self._den = den
        self._coeffs = coeffs

    def _keys_over(self, den: int) -> dict:
        """The grid map rewritten over den, a multiple of the own den."""
        f = den // self._den
        if f == 1:
            return self._coeffs
        return {k * f: c for k, c in self._coeffs.items()}

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, cutoff) -> "FracSeries":
        return cls(cutoff, {})

    @classmethod
    def one(cls, cutoff) -> "FracSeries":
        return cls(cutoff, {Fraction(0): Fraction(1)})

    @classmethod
    def constant(cls, cutoff, c) -> "FracSeries":
        return cls(cutoff, {Fraction(0): Fraction(c)})

    @classmethod
    def x_power(cls, cutoff, exponent, coefficient=1) -> "FracSeries":
        return cls(cutoff, {Fraction(exponent): Fraction(coefficient)})

    # -- inspection --------------------------------------------------

    def items(self) -> list[tuple[Fraction, Fraction]]:
        """Terms as (exponent, coefficient) pairs, ascending exponent."""
        den = self._den
        return [(Fraction(k, den), c) for k, c in self._coeffs.items()]

    def coefficient(self, exponent) -> Fraction:
        k = Fraction(exponent) * self._den
        if k.denominator != 1:
            return Fraction(0)
        return self._coeffs.get(k.numerator, Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        return self._coeffs.get(0, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        return (
            self.cutoff == other.cutoff
            and self._den == other._den
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.cutoff, self._den, frozenset(self._coeffs.items())))

    def __repr__(self):
        return f"FracSeries({format_rational(self.cutoff)}; {self})"

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in self.items():
            if e == 0:
                body = format_rational(abs(c))
            else:
                mag = abs(c)
                coef = "" if mag == 1 else format_rational(mag) + "*"
                expo = "x" if e == 1 else f"x^({format_rational(e)})"
                body = coef + expo
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FracSeries):
            if other.cutoff != self.cutoff:
                raise UsageError(
                    f"cutoff mismatch: {self.cutoff} vs {other.cutoff}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return FracSeries.constant(self.cutoff, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = math.lcm(self._den, other._den)
        out = dict(self._keys_over(den))
        for k, c in other._keys_over(den).items():
            acc = out.get(k)
            out[k] = c if acc is None else acc + c
        return FracSeries._grid(self.cutoff, den, out)

    __radd__ = __add__

    def __neg__(self):
        return FracSeries._grid(
            self.cutoff, self._den, {k: -c for k, c in self._coeffs.items()}
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FracSeries._grid(
                self.cutoff, self._den, {k: c * other for k, c in self._coeffs.items()}
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = math.lcm(self._den, other._den)
        product = _product(self._keys_over(den), other._keys_over(den), _top(self.cutoff, den))
        return FracSeries._grid(self.cutoff, den, product)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _divide(self, other)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise UsageError("integer powers only; use pow_alpha for rational exponents")
        if n < 0:
            return self.invert() ** (-n)
        out = FracSeries.one(self.cutoff)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- order and valuation -------------------------------------------

    def order(self) -> SeriesOrder:
        for k in self._coeffs:
            return SeriesOrder(Fraction(k, self._den))
        return SeriesOrder(None)

    def valuation(self) -> Valuation:
        return Valuation(self.order().value)

    # -- structural operations ------------------------------------------

    def truncate(self, new_cutoff) -> "FracSeries":
        """Restrict to a smaller cutoff; completeness is preserved."""
        new_cutoff = Fraction(new_cutoff)
        if new_cutoff > self.cutoff:
            raise UsageError(
                f"cannot extend cutoff {self.cutoff} to {new_cutoff}"
            )
        top = _top(new_cutoff, self._den)
        return FracSeries._grid(
            new_cutoff, self._den, {k: c for k, c in self._coeffs.items() if k <= top}
        )

    def substitute_power(self, rho) -> "FracSeries":
        """Change of variable x -> x^rho; cutoff becomes rho * cutoff."""
        rho = Fraction(rho)
        if rho <= 0:
            raise DomainError(f"substitution power must be positive, got {rho}")
        p = rho.numerator
        return FracSeries._grid(
            self.cutoff * rho,
            self._den * rho.denominator,
            {k * p: c for k, c in self._coeffs.items()},
        )

    def xderive(self) -> "FracSeries":
        """x f'(x): multiply each coefficient by its exponent."""
        den = self._den
        return FracSeries._grid(
            self.cutoff, den, {k: c * Fraction(k, den) for k, c in self._coeffs.items()}
        )

    def invert(self) -> "FracSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        return _divide(FracSeries.one(self.cutoff), self)

    def log_derivative(self) -> "FracSeries":
        """x f'/f; requires a nonzero constant term."""
        return _divide(self.xderive(), self)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "cutoff": format_rational(self.cutoff),
            "terms": [
                [format_rational(e), format_rational(c)] for e, c in self.items()
            ],
        }


def _top(cutoff: Fraction, den: int) -> int:
    """The largest grid index k with k/den <= cutoff."""
    return cutoff.numerator * den // cutoff.denominator


def _product(a: dict, b: dict, top: int) -> dict:
    """{k: c} of the product of two grid maps (ascending keys, Fraction
    coefficients) over one denominator, up to grid index top.

    Both operands become integers over their lcm coefficient
    denominator; times_sparse sums their integer products up to top,
    the shorter operand outside, and each sum is read back as one
    Fraction over the product of the two lcms.
    """
    if not a or not b:
        return {}
    a0, b0 = next(iter(a)), next(iter(b))
    if a0 + b0 > top:
        return {}
    ia, la = _scaled(a, top - b0)
    ib, lb = _scaled(b, top - a0)
    if len(ia) > len(ib):
        ia, ib = ib, ia
    den = la * lb
    sums = times_sparse(ia, ib, top, defaultdict(int))
    return {k: Fraction(v, den) for k, v in sums.items() if v}


def _scaled(coeffs: dict, top: int) -> tuple[list, int]:
    """[(k, c * L)] for the keys k <= top, and L, the lcm of their
    coefficient denominators."""
    terms = [(k, c) for k, c in coeffs.items() if k <= top]
    lcm = math.lcm(*(c.denominator for _, c in terms))
    return [(k, c.numerator * (lcm // c.denominator)) for k, c in terms], lcm


def one_minus_x_power(cutoff, d) -> FracSeries:
    """The binomial 1 - x^d at the given cutoff (just 1 when d > cutoff)."""
    return onemx_product(cutoff, [(d, 1)])


def geometric_inverse(cutoff, d) -> FracSeries:
    """1 / (1 - x^d) = 1 + x^d + x^{2d} + ... truncated at the cutoff."""
    return onemx_product(cutoff, [(d, -1)])


def onemx_product(cutoff, factors, poly=(1,)) -> FracSeries:
    """poly(x) * prod (1 - x^d)^v over the (d, v) pairs of `factors`,
    for integer coefficients, orders d >= 1 and exponents v, as a
    series truncated at the cutoff (see onemx_coefficients)."""
    cutoff = Fraction(cutoff)
    coeffs = onemx_coefficients(math.floor(cutoff), factors, poly)
    return FracSeries(cutoff, {i: c for i, c in enumerate(coeffs) if c})


def onemx_coefficients(n: int, factors, poly=(1,)) -> list[int]:
    """The coefficients of x^0 .. x^n of poly(x) * prod (1 - x^d)^v.

    Each factor is one times_sparse call with the exact weights w_j of
    x^{jd} in (1 - x^d)^v, jd <= n: (-1)^j C(v, j) for v > 0,
    C(|v|+j-1, j) for v < 0, so at most n/d + 1 terms whatever |v| is.
    For v < 0 with |v| <= n/d, |v| prefix sums mod d replace the call.
    Factors with v > 0 run first, largest d first, while coeffs is sparse.
    d and v must be exact integers (DomainError), and more than
    MAX_LIST_LEN coefficients is a CapacityError.
    """
    if n >= MAX_LIST_LEN:
        raise CapacityError(f"coefficients up to x^{n} need more than {MAX_LIST_LEN} entries")
    coeffs = [0] * (n + 1)
    for i, c in enumerate(poly[: n + 1]):
        c = Fraction(c)
        if c.denominator != 1:
            raise DomainError(f"polynomial coefficient {c} is not an integer")
        coeffs[i] = c.numerator
    for d, v in sorted(factors, key=lambda f: (f[1] < 0, -f[0])):
        d = as_integer(d, "factor order")
        if d < 1:
            raise DomainError(f"factor order must be a positive integer, got {d}")
        v = as_integer(v, "factor exponent")
        if v < 0 and -v <= n // d:
            for _ in range(-v):
                for r in range(d):
                    coeffs[r::d] = itertools.accumulate(coeffs[r::d])
            continue
        terms = [(0, 1)]
        w = 1
        for j in range(1, n // d + 1):
            w = w * (j - 1 - v) // j
            if not w:
                break
            terms.append((j * d, w))
        coeffs = times_sparse(enumerate(coeffs), terms, n, [0] * (n + 1))
    return coeffs


def times_sparse(pairs, terms, top: int, out):
    """The one convolution loop: for every nonzero (i, c) of `pairs`
    and every (s, w) of `terms` (s ascending) with i + s <= top, add
    c * w to out[i + s]; returns out.

    out is a list of length top + 1 for dense indices (counts, the
    (1 - x^d) products, IntPolynomial *) or a defaultdict(int) for the
    sparse grid keys of FracSeries *.  Each pass over terms stops at
    the first shift past top.
    """
    for i, c in pairs:
        if c:
            room = top - i
            for s, w in terms:
                if s > room:
                    break
                out[i + s] += c * w
    return out


def _recurrence(h: FracSeries, source: FracSeries, p, q: int, c0=None) -> FracSeries:
    """The one engine behind division, exp, log1p and pow_alpha:

        g_l = (source_l + sum_mu h_mu (p(mu) + q (l - mu)) g_{l-mu}) / scale(l)

    over mu in supp h with mu <= l, for ord h > 0; scale(l) is c0, or
    l (1 at 0) when c0 is None.  Grid indices are popped in ascending
    order from one heap seeded with supp(source).  Each nonzero g_k is
    recorded as a contributor to the pending indices k + supp(h), so a
    popped index has all of its contributors.  Their sum is one integer
    dot product: the weight h_mu (p(mu) + q k/D) is (P_mu + Q_mu k) / w
    over one integer w, fixed per call, and each g_k is read over the
    lcm of the contributors' denominators.  The work is
    |supp g| * |supp h| pairs and one Fraction per popped index.
    """
    T = h.cutoff
    den = math.lcm(h._den, source._den)
    top = _top(T, den)
    hs = [(j, c) for j, c in h._keys_over(den).items() if j <= top]
    ps = [c * p(Fraction(j, den)) for j, c in hs]
    w = den * math.lcm(*(x.denominator for x in ps), *(c.denominator for _, c in hs))
    P = {j: x.numerator * (w // x.denominator) for (j, _), x in zip(hs, ps)}
    Q = {j: q * c.numerator * (w // den // c.denominator) for j, c in hs}
    src = source._keys_over(den)
    pending: dict[int, list] = {k: [] for k in src}
    heap = list(pending)
    heapq.heapify(heap)
    g: dict[int, Fraction] = {}
    nums: dict[int, int] = {}
    dens: dict[int, int] = {}
    while heap:
        lam = heapq.heappop(heap)
        ks = pending.pop(lam)
        total = src.get(lam, 0)
        if ks:
            lcm = math.lcm(*[dens[k] for k in ks])
            if q:
                s = sum((P[lam - k] + Q[lam - k] * k) * nums[k] * (lcm // dens[k]) for k in ks)
            else:
                s = sum(P[lam - k] * nums[k] * (lcm // dens[k]) for k in ks)
            total += Fraction(s, lcm * w)
        if not total:
            continue
        if c0 is not None:
            val = total / c0
        else:
            val = total * Fraction(den, lam) if lam else total
        g[lam] = val
        nums[lam] = val.numerator
        dens[lam] = val.denominator
        for j, _ in hs:
            ne = lam + j
            if ne > top:
                break
            contributors = pending.get(ne)
            if contributors is None:
                pending[ne] = [lam]
                heapq.heappush(heap, ne)
            else:
                contributors.append(lam)
    return FracSeries._grid(T, den, g)


def _divide(num: FracSeries, den: FracSeries) -> FracSeries:
    """num/den; den(0) must be nonzero.  With den = c0 + h, the
    recurrence is g_l = (num_l - sum h_mu g_{l-mu}) / c0."""
    if den.cutoff != num.cutoff:
        raise UsageError(f"cutoff mismatch: {num.cutoff} vs {den.cutoff}")
    c0 = den.constant_term
    if c0 == 0:
        raise NotInvertibleError("constant term is zero; not invertible")
    return _recurrence(den - c0, num, lambda mu: -1, 0, c0)


def exp_series(f: FracSeries) -> FracSeries:
    """exp(f) for ord f > 0: x g' = g x f' gives
    lambda g_l = sum mu f_mu g_{l-mu}, g_0 = 1."""
    if f.constant_term != 0:
        raise DomainError("exp_series needs a series of positive order")
    return _recurrence(f, FracSeries.one(f.cutoff), lambda mu: mu, 0)


def log1p_series(f: FracSeries) -> FracSeries:
    """log(1 + f) for ord f > 0: x L' (1 + f) = x f' gives
    lambda L_l = lambda f_l - sum f_mu (lambda - mu) L_{l-mu}."""
    if f.constant_term != 0:
        raise DomainError("log1p_series needs a series of positive order")
    return _recurrence(f, f.xderive(), lambda mu: 0, -1)


def pow_alpha(f: FracSeries, alpha) -> FracSeries:
    """(1 + h)^alpha where f = 1 + h with ord h > 0, alpha rational.

    Satisfies the binomial identities exactly up to the cutoff, e.g.
    (1+h)^a (1+h)^b = (1+h)^{a+b}.
    """
    if f.constant_term != 1:
        raise DomainError("pow_alpha needs constant term exactly 1")
    alpha = Fraction(alpha)
    # x g' * (1+h) = alpha g * x h'  gives
    # lambda g_l = sum_mu h_mu (alpha mu - (lambda - mu)) g_{l-mu}
    return _recurrence(f - 1, FracSeries.one(f.cutoff), lambda mu: alpha * mu, -1)


def recover_product_exponents(f: FracSeries, max_n: int) -> dict[int, Fraction]:
    """The unique exponents a_n with f = prod_{n <= max_n} (1-x^n)^{a_n}
    up to the cutoff, found by stripping lowest terms of x f'/f.

    Each factor contributes -a_n n (x^n + x^{2n} + ...) to the
    logarithmic derivative, so scanning n upward and removing the full
    tail of each detected factor isolates every exponent in turn.
    """
    if f.constant_term != 1:
        raise DomainError("recover_product_exponents needs constant term 1")
    if max_n < 1:
        raise DomainError(f"max_n must be >= 1, got {max_n}")
    if f.cutoff < max_n:
        raise UsageError(f"cutoff {f.cutoff} cannot resolve exponents up to {max_n}")
    den = f._den
    for k in f._coeffs:
        if k % den and k <= max_n * den:
            raise DomainError(
                f"fractional exponent {Fraction(k, den)} below {max_n}: "
                "not a product of (1-x^n)"
            )
    ld = f.log_derivative()
    work = dict(ld._coeffs)
    top = _top(ld.cutoff, ld._den)
    out: dict[int, Fraction] = {}
    for n in range(1, max_n + 1):
        step = n * ld._den
        c = work.get(step)
        if not c:
            continue
        out[n] = -c / n
        for k in range(step, top + 1, step):
            prev = work.get(k, 0) - c
            if prev:
                work[k] = prev
            else:
                work.pop(k, None)
    return out

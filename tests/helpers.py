"""Shared test utilities: random generators and independent oracles.

The oracles here deliberately avoid the library's own code paths:
series products by a double loop over Fraction exponents,
representation counts by nested recursion over tuple slots, the
product-exponent sum by recursion over ordered index tuples, the tau
coefficients by plain integer-list polynomial expansion, divisor sums
for the Moebius round trip, and a rational-coefficient polynomial gcd
for root-freeness checks.
"""

import math
import random
from fractions import Fraction

from fracpow import FracSeries, MSpec
from fracpow.cyclotomic import IntPolynomial


def rand_fraction(rng: random.Random, num=6, den=4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_series(rng: random.Random, cutoff, exponents, max_terms=6) -> FracSeries:
    """Random series over a given exponent pool."""
    pool = [Fraction(e) for e in exponents if Fraction(e) <= Fraction(cutoff)]
    chosen = rng.sample(pool, min(max_terms, len(pool)))
    terms = {}
    for e in chosen:
        c = rand_fraction(rng)
        if c:
            terms[e] = c
    return FracSeries(cutoff, terms)


def dyadic_exponents(cutoff, den_power=3):
    """Grid n / 2^k up to the cutoff, a convenient fractional pool."""
    step = Fraction(1, 2**den_power)
    out = []
    e = Fraction(0)
    while e <= Fraction(cutoff):
        out.append(e)
        e += step
    return out


def rand_unit_series(rng, cutoff, exponents, max_terms=6) -> FracSeries:
    """Random series with constant term 1."""
    f = rand_series(rng, cutoff, [e for e in exponents if e > 0], max_terms)
    return f + FracSeries.one(Fraction(cutoff)) - FracSeries.constant(
        Fraction(cutoff), f.coefficient(0)
    )


def schoolbook_product(f: FracSeries, g: FracSeries) -> FracSeries:
    """f * g by the Fraction-keyed double loop over the public terms,
    truncated at the shared cutoff: the product oracle."""
    T = f.cutoff
    a, b = f.items(), g.items()
    out: dict[Fraction, Fraction] = {}
    for ea, ca in a:
        room = T - ea
        for eb, cb in b:
            if eb > room:
                break
            e = ea + eb
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return FracSeries(T, out)


def on_base_grid(f: FracSeries, b: int) -> bool:
    """True iff every exponent denominator of f divides some power of b
    (the admissible-exponent grid of a base-b lattice)."""
    for e, _ in f.items():
        den = e.denominator
        while den != 1:
            g = math.gcd(den, b)
            if g == 1:
                return False
            while den % g == 0:
                den //= g
    return True


def brute_force_counts(m: MSpec, elements, upto: int) -> list[int]:
    """Nested recursion over the multiplicity slots; counts ordered
    tuples directly.  Independent of the convolution path."""
    slots = []
    for b_i, e_i in m.pairs:
        slots.extend([b_i] * e_i)
    counts = [0] * (upto + 1)

    def walk(idx: int, total: int):
        if idx == len(slots):
            counts[total] += 1
            return
        b = slots[idx]
        for a in elements:
            nxt = total + b * a
            if nxt > upto:
                break
            walk(idx + 1, nxt)

    walk(0, 0)
    return counts


def brute_force_alternating_sum(m: MSpec, mexps: dict, start) -> Fraction:
    """sum over ordered index tuples (i_1..i_k) of
    prod_j (-e_{i_j}/e_0) * mexps[start / prod_j (b_{i_j}/b_0)], one
    recursive call per tuple.  A tuple whose index falls below the
    smallest order cannot reach the support, nor can its extensions."""
    if not mexps:
        return Fraction(0)
    lowest = min(mexps)
    (b0, e0), rest = m.pairs[0], m.pairs[1:]

    def walk(index: Fraction, weight: Fraction) -> Fraction:
        total = weight * mexps.get(index, 0)
        for b_i, e_i in rest:
            nxt = index * b0 / b_i
            if nxt >= lowest:
                total += walk(nxt, -weight * Fraction(e_i, e0))
        return total

    return walk(Fraction(start), Fraction(1))


def tau_oracle(upto: int) -> list[int]:
    """tau(1..upto) by direct integer-list expansion of
    q prod (1 - q^n)^24, no series machinery involved."""
    deg = upto - 1
    poly = [1]

    def mul_trunc(a, b):
        out = [0] * (deg + 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if i + j > deg:
                        break
                    out[i + j] += ca * cb
        while out and not out[-1]:
            out.pop()
        return out

    for n in range(1, deg + 1):
        binom = [0] * (deg + 1)
        # (1 - q^n)^24 truncated: sum_k C(24,k) (-1)^k q^{nk}
        c = 1
        k = 0
        while n * k <= deg and k <= 24:
            binom[n * k] = c if k % 2 == 0 else -c
            c = c * (24 - k) // (k + 1)
            k += 1
        while binom and not binom[-1]:
            binom.pop()
        poly = mul_trunc(poly, binom)
    return [poly[k - 1] if k - 1 < len(poly) else 0 for k in range(1, upto + 1)]


def forward_divisor_sum(a_map: dict, keys) -> dict:
    """B_u = sum over map keys w dividing u of A_w, over the given key
    set (the inversion oracle's forward direction).  Zero sums stay in
    the map: B is a function on the whole key set."""
    out = {}
    for u in keys:
        total = Fraction(0)
        for w, value in a_map.items():
            q = Fraction(u) / Fraction(w)
            if q.denominator == 1 and q >= 1:
                total += value
        out[u] = total
    return out


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Monic gcd over the rationals by the Euclidean algorithm."""
    while not b.is_zero:
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero:
        return a
    lead = a.coeffs[-1]
    return a * (Fraction(1) / lead)

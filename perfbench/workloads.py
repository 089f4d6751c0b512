"""Seeded op generators for the three benchmark workloads.

Every op is one `fracpow` command line (an argv list) plus the facts
the output checks need.  The generators know nothing about fracpow's
internals and import none of it: the program only ever sees the argv
lists.  The same seed always yields the same op list.

Ops come in *rounds*: each round has the same fixed slots (op kind and
cost class), and the seed fills in the details of every slot.  A run
cycles through whole rounds, so two seeds exercise the same mix of
cost classes and their medians and tail latencies can be compared;
only the concrete forms, right sides and sizes differ.

Why these three workloads:

* ``solve`` spends nearly all its time in ``series`` (``exp_series``,
  the ``*`` and ``**`` of ``verify_solution``, ``log1p_series``,
  ``pow_alpha``, ``substitute_power``) and in ``solver``; ``counting``
  and ``cyclotomic`` are bypassed.  It is the workload a change to the
  series representation must speed up.
* ``decide`` spends its time in ``arith`` (``factorize``,
  ``in_nprime``), ``cyclotomic`` (``cyclotomic_poly``,
  ``IntPolynomial.divmod``) and ``solver`` (``product_exponent``,
  ``almost_rational_bound``); ``series`` only runs for the small
  evidence solve of outside-hypothesis forms.  Its consecutive-
  coefficient slots expose the exponential ``_alternating_sum`` walk.
* ``count-tau`` is integer convolution in ``counting`` plus ``series``
  used differently from ``solve``: dense series with integer exponents
  and growing integer coefficients.  A ``series`` change that helps
  the sparse fractional ``solve`` but slows dense products shows here.
"""

import math
import random
from dataclasses import dataclass, field
from functools import cache

DEFAULT_SEED = 0
WORKLOADS = ("solve", "decide", "count-tau")

# Generated rounds per run.  A run cycles through them when a fast
# program finishes them all before the time is up.
ROUNDS = 60


@dataclass(frozen=True)
class Op:
    kind: str  # solve | enumerate | decide | count | tau
    argv: tuple[str, ...]
    info: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def generate(workload: str, seed: int, set_paths: dict | None = None) -> list[Op]:
    _cyclotomic.cache_clear()  # every set-up does the same work
    rng = random.Random(f"{workload}:{seed}")
    make_round = {
        "solve": lambda r: _solve_round(rng, r),
        "decide": lambda r: _decide_round(rng, r),
        "count-tau": lambda r: _count_tau_round(rng, r, set_paths),
    }[workload]
    return [op for r in range(ROUNDS) for op in make_round(r)]


def _form_text(pairs) -> str:
    return ",".join(f"{b}:{e}" for b, e in pairs)


# -- solve -------------------------------------------------------------

# Forms are fixed per slot: their ratio sets and cutoffs set the cost
# (3/2 makes the exponent lattice far denser than 5/2 or 7/2), so fixing
# them gives every seed the same cost mix.  The seed draws each right
# side, and the right-side kind alternates between rounds, so every form
# is solved against both polynomial and product right sides.
#
# Fractional forms: b_0 = 2, other coefficients from {3, 5, 7},
# multiplicities 1-2, cutoffs 6-12.
_FRACTIONAL_FORMS = (
    ("2:1,3:1", 8),
    ("2:2,3:1,5:1", 6),
    ("2:1,3:2,7:1", 7),
    ("2:1,5:2", 12),
    ("2:2,7:1", 11),
    ("2:1,5:1,7:2", 10),
)
# Integral forms b_i = t * b_0 with b_0 in 2..5 and t in 2..6.  They
# expand the right side densely to b_0 * cutoff, and verify multiplies
# dense series of that length, so the cost grows like (b_0 * cutoff)^2.
# Cutoffs run from 20 to 50 with b_0 * cutoff <= 100: 5:3,10:2,30:2 at
# cutoff 60 with a polynomial right side took 5.9 s alone.
_INTEGRAL_FORMS = (
    ("2:1,4:2", 50),
    ("2:2,6:1,12:1", 40),
    ("3:1,9:1", 33),
    ("3:2,6:1,18:2", 25),
    ("4:1,8:1,24:2", 25),
    ("5:1,15:2", 20),
)


def _pairs(form: str) -> list[tuple[int, int]]:
    return [tuple(int(x) for x in chunk.split(":")) for chunk in form.split(",")]


def _solve_round(rng: random.Random, r: int) -> list[Op]:
    ops = []
    for j, (form, cutoff) in enumerate(_FRACTIONAL_FORMS + _INTEGRAL_FORMS):
        pairs = _pairs(form)
        rhs = _rhs_flags(rng, use_poly=(j + r) % 2 == 0)
        ops.append(
            Op(
                "solve",
                ("solve", "--m", form, *rhs, "--cutoff", str(cutoff)),
                {"pairs": pairs, "cutoff": cutoff},
            )
        )
        if j < len(_FRACTIONAL_FORMS):
            ratios = [b for b, _ in pairs[1:]]
            thetas = ",".join(f"{b}/2" for b in ratios)
            ops.append(
                Op(
                    "enumerate",
                    ("enumerate", "--b", "2", "--thetas", thetas, "--below", str(cutoff)),
                    {"b": 2, "ratios": ratios, "cutoff": cutoff},
                )
            )
    rng.shuffle(ops)
    return ops


def _rhs_flags(rng: random.Random, use_poly: bool) -> tuple[str, ...]:
    """A right side G with a nonzero x term.

    G_1 = 0 (a factor list without d = 1, or P = 1 - x + ...) makes
    log G start at x^2 and the solve several times cheaper; mixing both
    kinds would split the latencies into two clusters with the median
    between them, so every right side here keeps G dense.
    """
    if use_poly:
        while True:
            coeffs = _short_poly(rng, 2)
            if coeffs[1] != -1:
                return ("--rhs-poly", ",".join(str(c) for c in coeffs))
    d = rng.randint(2, 6)
    m1, md = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
    return ("--rhs-factors", f"1:{m1},{d}:{md}")


def _short_poly(rng: random.Random, deg: int) -> list[int]:
    """Integer P of the given degree with P(0) = 1 and P(1) != 0 (the
    solver and decide both refuse a right side vanishing at 1)."""
    while True:
        coeffs = [1] + [rng.randint(-2, 2) for _ in range(deg)]
        if coeffs[-1] != 0 and sum(coeffs) != 0:
            return coeffs


# -- decide ------------------------------------------------------------

# Per round: 16 coprime forms, 2 with gcd > 1 (a tenth of the ops) and 2
# with consecutive coefficients.  The coefficients of every slot are
# fixed, because the verdict branch and the cost follow from them; the
# seed draws the multiplicities (1-3) and the right side.
#
# Coprime forms have 2 to 4 coefficients <= 30, ten with a prime-power
# witness and six outside the hypothesis (one with b_0 = 1, which gets
# no evidence solve).  Their ratios stay away from 1: the walk over
# index tuples in _alternating_sum grows like X^rho with
# sum_i theta_i^(-rho) = 1, and every form here has
# sum_i b_0 / b_i <= 0.75, so rho < 1.  A random form without that
# bound, 19:2,21:2,22:3, did not finish.  Outside-hypothesis forms keep
# b_0 <= 6: their evidence solve lists a lattice that grows fast with
# b_0 (12:2,27:1,28:2 took 10 s).
_DECIDE_FORMS = (
    (2, 5),
    (4, 9),
    (10, 21),
    (12, 29),
    (3, 7, 16),
    (6, 13, 29),
    (8, 17, 30),
    (9, 22, 29),
    (5, 14, 27, 29),
    (3, 8, 20, 28),
    (1, 3),
    (2, 6, 9),
    (3, 6, 13),
    (4, 12, 21),
    (5, 10, 23),
    (6, 18, 25),
)
_DECIDE_GCD_FORMS = ((4, 10), (6, 15, 27))

# The consecutive forms (b, b+1, b+2) have ratios (b+1)/b and (b+2)/b
# close to 1, where the depth-first _alternating_sum walk grows
# exponentially: 7,8,9 takes 0.39 s, 8,9,10 takes 2.3 s, 9,10,11 takes
# 13.8 s and 11,12,13 did not finish in 4 min.  b stays <= 8 so that
# every op finishes, and b cycles through 2..8 so that every run holds
# the same share of the cliff.  They keep the plain right side
# 1/(1-x): with a cyclotomic factor the vanishing bound grows, more g_d
# are sampled, and 8,9,10 no longer finishes.
_CONSECUTIVE_BASES = tuple(range(2, 9))
_DECIDE_CONSECUTIVE = 2

# Right sides: Phi_d with d <= 24 and Euler phi(d) in {4, 6}, so each
# factor adds 4 to 6 to the degree; slot j has j % 4 factors and, for
# even j, a residual of degree 2.
_RHS_ORDERS = (5, 7, 8, 9, 10, 12, 14, 18)


def _decide_round(rng: random.Random, r: int) -> list[Op]:
    ops = []
    for j, coeffs in enumerate(_DECIDE_FORMS + _DECIDE_GCD_FORMS):
        pairs = [(b, rng.randint(1, 3)) for b in coeffs]
        ops.append(_decide_op(pairs, _cyclotomic_rhs(rng, j % 4, j % 2 == 0)))
    for j in range(_DECIDE_CONSECUTIVE):
        b = _CONSECUTIVE_BASES[(_DECIDE_CONSECUTIVE * r + j) % len(_CONSECUTIVE_BASES)]
        ops.append(_decide_op([(b, 1), (b + 1, 1), (b + 2, 1)], None))
    rng.shuffle(ops)
    return ops


def _decide_op(pairs, rhs) -> Op:
    argv = ["decide", "--m", _form_text(pairs)]
    if rhs is not None:
        argv += ["--rhs-poly", ",".join(str(c) for c in rhs)]
    return Op("decide", tuple(argv), {"pairs": pairs})


def _cyclotomic_rhs(rng: random.Random, factors: int, residual: bool) -> list[int] | None:
    """P = Phi_{d_1} ... Phi_{d_k} * R, or None for the plain right side.

    Every factor has constant term 1 and is nonzero at 1 (Phi_1 = 1 - x
    is never used), so P(0) = 1 and P(1) != 0 hold by construction.
    """
    poly = [1]
    for d in rng.sample(_RHS_ORDERS, factors):
        poly = _poly_mul(poly, _cyclotomic(d))
    if residual:
        poly = _poly_mul(poly, _short_poly(rng, 2))
    return None if poly == [1] else poly


VERDICT_IMPOSSIBLE = "impossible_by_theorem"
VERDICT_OUTSIDE = "outside_hypothesis"
VERDICT_DEGENERATE = "degenerate_gcd"


def expected_verdict(coeffs: list[int]) -> tuple[str, int | None]:
    """The verdict decide must reach, and the witness prime it must name.

    gcd > 1 is degenerate.  Otherwise a prime p with ord_p(b_0) above
    every ord_p(b_i) (the least such p) gives the theorem's witness;
    with none, or with b_0 = 1, the form is outside the hypothesis.
    """
    if math.gcd(*coeffs) > 1:
        return VERDICT_DEGENERATE, None
    b0, others = coeffs[0], coeffs[1:]
    for p in _primes_of(b0):
        if _ord(b0, p) > max(_ord(b, p) for b in others):
            return VERDICT_IMPOSSIBLE, p
    return VERDICT_OUTSIDE, None


def _primes_of(n: int) -> list[int]:
    out = []
    p = 2
    while n > 1:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out


def _ord(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


@cache
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n as ascending integer coefficients, normalised to Phi_n(0) = 1
    (so Phi_1 = 1 - x), from 1 - x^n = prod_{d | n} Phi_d."""
    num = [1] + [0] * (n - 1) + [-1]
    for d in range(1, n):
        if n % d == 0:
            num = _exact_div(num, _cyclotomic(d))
    return tuple(num)


def _exact_div(num: list[int], den) -> list[int]:
    # den[0] == 1, so long division from the low end stays integral
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q)):
        c = num[i]
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return q


# -- count-tau ---------------------------------------------------------

# Digit sets with constant representation function r = 1 for their
# form: base k, digits at positions divisible by the period.
DIGIT_SETS = {
    "ruzsa": {"k": 2, "period": 2, "form": ((1, 1), (2, 1))},
    "moser": {"k": 3, "period": 2, "form": ((1, 1), (3, 1))},
    "digit": {"k": 2, "period": 3, "form": ((1, 1), (2, 1), (4, 1))},
}
SET_BOUND = 10**5

# Per round: one count per set and two tau ops, each slot with its own
# size range.  The count cost grows like upto^1.5 (the digit k=2 period
# 3 set is about three times cheaper than the other two at equal upto)
# and tau like N^2 log N.  The ranges put the five slots into cost
# classes of about 85, 110, 140, 160 and 420 ms on a 2-core machine, so
# the median and the 90th percentile of a run each fall inside a dense
# class rather than on a thin slope: with one size range shared by all
# slots the op costs spread evenly from 50 to 450 ms and p50 and p90
# moved 7 to 10 % between seeds.  Each range is cut into 5 bands, the
# slot steps through them round by round and the seed picks the size
# inside its band, so every 5 rounds cover every band once and every
# seed runs the same cost mix.  A 30 s run holds about 150 ops.
_UPTO_RANGES = {"ruzsa": (12_000, 16_000), "moser": (14_000, 18_000), "digit": (20_000, 30_000)}
_TAU_RANGES = ((70, 85), (115, 130))
_BANDS = 5


def digit_set(k: int, period: int, bound: int) -> list[int]:
    sums = [0]
    position = 1
    while position <= bound:
        sums = [s + eps * position for s in sums for eps in range(k) if s + eps * position <= bound]
        position *= k**period
    return sorted(sums)


def _banded(rng: random.Random, lo: int, hi: int, band: int) -> int:
    width = (hi - lo) // _BANDS
    start = lo + (band % _BANDS) * width
    return rng.randint(start, start + width - 1)


def _count_tau_round(rng: random.Random, r: int, set_paths: dict) -> list[Op]:
    ops = []
    for name, spec in DIGIT_SETS.items():
        upto = _banded(rng, *_UPTO_RANGES[name], r)
        path = set_paths[name]
        argv = ("count", "--m", _form_text(spec["form"]), "--set", path, "--upto", str(upto))
        ops.append(Op("count", argv, {"upto": upto, "b0": 1, "bound": SET_BOUND}))
    for tau_range in _TAU_RANGES:
        n = _banded(rng, *tau_range, r)
        ops.append(Op("tau", ("tau", "--upto", str(n)), {"upto": n}))
    rng.shuffle(ops)
    return ops

"""Output checks behind the benchmark's failure count.

They run outside the timed region and use no ``fracpow.series`` code:
tau values come from a plain integer-list expansion, decide verdicts
from a rule recomputed here from the gcd and p-adic orders, count
reports from the known r = 1 property of the digit sets, and solve
exponents from ``fracpow.lattice``.  On top of that every op whose
argv has a digest recorded (``digests.json``, written for the default
seed) must reproduce its stdout byte for byte.
"""

import hashlib
import json
from fractions import Fraction

from workloads import VERDICT_IMPOSSIBLE, VERDICT_OUTSIDE, expected_verdict


def digest(text: str) -> str:
    """Truncated sha256 of a text; digests.json maps digest(argv) to
    digest(stdout) so that it stays small."""
    return hashlib.sha256(text.encode()).hexdigest()[:32]


class Checker:
    def __init__(self, lattice, digests: dict):
        self._lattice = lattice
        self._digests = digests
        self._lattice_cache: dict = {}
        self._tau: list[int] = []
        self.digest_checked = 0

    def check(self, op, rc, out: str) -> str | None:
        """None when the op's output is right, else the reason it is not."""
        if rc != 0:
            return f"exit code {rc}"
        expected = self._digests.get(digest(op.key))
        if expected is not None:
            self.digest_checked += 1
            if digest(out) != expected:
                return "stdout differs from the recorded digest"
        try:
            return getattr(self, "_check_" + op.kind)(op, out)
        except (ValueError, KeyError, TypeError, IndexError) as ex:
            return f"malformed output: {type(ex).__name__}: {ex}"

    def _check_solve(self, op, out):
        data = json.loads(out)
        cutoff = op.info["cutoff"]
        if data["cutoff"] != str(cutoff):
            return f"cutoff {data['cutoff']} != {cutoff}"
        pairs = op.info["pairs"]
        b0 = pairs[0][0]
        ratios = tuple(Fraction(b, b0) for b, _ in pairs[1:])
        lattice = self._lattice_points(b0, ratios, cutoff)
        terms = data["terms"]
        if not terms or terms[0] != ["0", "1"]:
            return "solution does not start with f(0) = 1"
        for e, c in terms:
            if Fraction(e) not in lattice:
                return f"exponent {e} is outside the lattice"
            if Fraction(c) == 0:
                return f"zero coefficient stored at {e}"
        return None

    def _lattice_points(self, b0, ratios, cutoff):
        key = (b0, ratios, cutoff)
        points = self._lattice_cache.get(key)
        if points is None:
            spec = self._lattice.LatticeSpec(b0, ratios)
            points = frozenset(self._lattice.enumerate_below(spec, cutoff))
            self._lattice_cache[key] = points
        return points

    def _check_enumerate(self, op, out):
        b = op.info["b"]
        cutoff = op.info["cutoff"]
        values = [Fraction(v) for v in json.loads(out)]
        if values != sorted(set(values)):
            return "lattice listing is not strictly ascending"
        if values[0] != 0 or values[-1] > cutoff:
            return "lattice listing leaves [0, cutoff]"
        present = set(values)
        # F = constant k gives k / b; F = theta_i gives theta_i / b
        required = [Fraction(k, b) for k in range(b * cutoff + 1)]
        required += [Fraction(r, b * b) for r in op.info["ratios"] if Fraction(r, b * b) <= cutoff]
        missing = [q for q in required if q not in present]
        if missing:
            return f"lattice listing misses {missing[0]}"
        return None

    def _check_decide(self, op, out):
        data = json.loads(out)
        coeffs = [b for b, _ in op.info["pairs"]]
        verdict, prime = expected_verdict(coeffs)
        if data["verdict"] != verdict:
            return f"verdict {data['verdict']} != {verdict}"
        cert = data["certificate"]
        if verdict == VERDICT_IMPOSSIBLE:
            if cert is None or cert["contradiction"]["holds"] is not True:
                return "impossibility certificate does not hold"
            if cert["witness"]["p"] != prime:
                return f"witness prime {cert['witness']['p']} != {prime}"
        elif cert is not None:
            return "certificate on a verdict that has none"
        if verdict == VERDICT_OUTSIDE and (data["evidence"] is None) != (coeffs[0] < 2):
            return "evidence present exactly when b_0 >= 2 is violated"
        return None

    def _check_count(self, op, out):
        data = json.loads(out)
        upto = op.info["upto"]
        values = data["values"]
        if len(values) != upto + 1 or any(v != 1 for v in values):
            return "representation counts are not all 1"
        if data["constant_from"] != 0:
            return f"constant_from {data['constant_from']} != 0"
        if data["safe_bound"] != op.info["b0"] * op.info["bound"]:
            return f"safe_bound {data['safe_bound']} != b_0 * bound"
        return None

    def _check_tau(self, op, out):
        n = op.info["upto"]
        expected = self._tau_values(n)
        got = [tuple(int(x) for x in line.split("\t")) for line in out.splitlines()]
        if got != [(k, expected[k - 1]) for k in range(1, n + 1)]:
            return "tau values differ from the integer-list expansion"
        return None

    def _tau_values(self, n: int) -> list[int]:
        if len(self._tau) < n:
            self._tau = tau_oracle(max(n, 2 * len(self._tau)))
        return self._tau


def tau_oracle(n: int) -> list[int]:
    """tau(1..n): coefficients of q prod (1 - q^k)^24, by multiplying the
    pentagonal-number expansion of prod (1 - q^k) into a dense integer
    list 24 times."""
    euler = {}
    k = 0
    while True:
        hit = False
        for j in ((k * (3 * k - 1)) // 2, (k * (3 * k + 1)) // 2):
            if j < n:
                euler[j] = -1 if k % 2 else 1
                hit = True
        if not hit:
            break
        k += 1
    sparse = sorted(euler.items())
    power = [1] + [0] * (n - 1)
    for _ in range(24):
        nxt = [0] * n
        for i, c in enumerate(power):
            if c:
                for j, s in sparse:
                    if i + j >= n:
                        break
                    nxt[i + j] += c * s
        power = nxt
    return power

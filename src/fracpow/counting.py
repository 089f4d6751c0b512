"""Representation counting and digit-set constructions.

For a form M = {(b_i, e_i)} and a set A of non-negative integers,
r_M(n, A) counts ordered tuples (a_{i,j}) in A with

    n = b_0 (a_{0,1} + ... + a_{0,e_0}) + ... + b_m (a_{m,1} + ... + a_{m,e_m}).

r_M(n, A) is the coefficient of x^n in prod f_A(x^{b_i})^{e_i}, with
f_A(x) = sum_{a in A} x^a, expanded on one integer list truncated at
the requested bound by series.times_sparse, the kernel behind every
product in the package.  generating_check recomputes it in FracSeries
arithmetic, which runs the same kernel over sparse grid keys; the
independent oracle is the brute-force tuple count of the tests.

Working with a bounded prefix of an infinite set is sound below the
*safe bound* b_0 * X: a representation touching an omitted element
a' > X contributes at least b_0 * a' > b_0 * X to n, so counts up to
b_0 * X only see the prefix.  Constancy claims are never emitted
beyond it.

The digit sets are the classic constant-representation constructions:
all integers whose base-k digits are supported on positions divisible
by the period, e.g. base 2 / period 2 pairs with the form a + 2a'.
"""

from dataclasses import dataclass
from fractions import Fraction

from .arith import MSpec, as_integer
from .errors import CapacityError, DomainError, UsageError
from .series import MAX_LIST_LEN, FracSeries, times_sparse


@dataclass(frozen=True)
class BoundedSet:
    """A finite prefix {a in A : a <= bound} of a set of non-negative
    integers, with the enumeration bound made explicit."""

    elements: tuple[int, ...]
    bound: int

    def __post_init__(self):
        bound = as_integer(self.bound, "set bound")
        if bound < 0:
            raise DomainError(f"bound must be >= 0, got {bound}")
        elems = tuple(sorted(set(as_integer(a, "set element") for a in self.elements)))
        if elems and elems[0] < 0:
            raise DomainError("set elements must be non-negative")
        if elems and elems[-1] > bound:
            raise DomainError(
                f"element {elems[-1]} exceeds the declared bound {bound}"
            )
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "bound", bound)


def build_digit_set(k: int, period: int, bound: int) -> BoundedSet:
    """All sums of eps_i * k^(period*i) with digits eps_i in 0..k-1,
    enumerated up to the bound."""
    if k < 2:
        raise DomainError(f"digit-set base must be >= 2, got {k}")
    if period < 1:
        raise DomainError(f"digit-set period must be >= 1, got {period}")
    if bound < 0:
        raise DomainError(f"digit-set bound must be >= 0, got {bound}")
    sums = [0]
    position = 1
    while position <= bound:
        layer = []
        for s in sums:
            for eps in range(1, k):
                value = s + eps * position
                if value <= bound:
                    layer.append(value)
                else:
                    break
        sums.extend(layer)
        position *= k**period
    return BoundedSet(tuple(sums), bound)


def representation_counts(m: MSpec, elements, upto: int) -> list[int]:
    """r_M(n) for n = 0..upto over the given finite list of non-negative
    elements: the coefficients of prod f_A(x^{b_i})^{e_i}, one
    series.times_sparse call per multiplicity slot, with the shifts
    b_i * a <= upto as unit terms.  More than series.MAX_LIST_LEN
    entries is a CapacityError."""
    if upto < 0:
        raise DomainError(f"upto must be >= 0, got {upto}")
    if upto >= MAX_LIST_LEN:
        raise CapacityError(f"counts up to {upto} need more than {MAX_LIST_LEN} entries")
    elems = sorted(set(elements))
    if elems and elems[0] < 0:
        raise DomainError(f"set elements must be non-negative, got {elems[0]}")
    counts = [1] + [0] * upto
    for b_i, e_i in m.pairs:
        terms = [(b_i * a, 1) for a in elems if b_i * a <= upto]
        for _ in range(e_i):
            counts = times_sparse(enumerate(counts), terms, upto, [0] * (upto + 1))
    return counts


def count_representations(m: MSpec, elements, n: int) -> int:
    """r_M(n, A) for one n; A given as an explicit element list."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    return representation_counts(m, elements, n)[n]


@dataclass(frozen=True)
class CountReport:
    """Counts r_M(0..N), the least index from which they are constant
    (when a tail of length >= 2 is constant), and the safe bound."""

    values: tuple[int, ...]
    constant_from: int | None
    safe_bound: int

    def to_json_dict(self) -> dict:
        return {
            "values": list(self.values),
            "constant_from": self.constant_from,
            "safe_bound": self.safe_bound,
        }


def _constant_from(values) -> int | None:
    n = len(values)
    if n == 0:
        return None
    start = n - 1
    while start > 0 and values[start - 1] == values[start]:
        start -= 1
    if start == n - 1 and n > 1:
        return None
    return start


def constancy_scan(m: MSpec, bounded: BoundedSet, upto: int) -> CountReport:
    """Counts up to `upto`, which must not exceed the safe bound."""
    safe = m.b * bounded.bound
    if upto > safe:
        raise UsageError(
            f"requested bound {upto} exceeds the safe bound {safe} "
            f"(= b_0 {m.b} * enumeration bound {bounded.bound})"
        )
    values = representation_counts(m, bounded.elements, upto)
    return CountReport(
        values=tuple(values),
        constant_from=_constant_from(values),
        safe_bound=safe,
    )


def generating_check(m: MSpec, bounded: BoundedSet, cutoff: int) -> bool:
    """Cross-check the list counts against the series product
    prod f_A(x^{b_i})^{e_i} computed in exact series arithmetic.

    Both paths run series.times_sparse, so this checks the grid path
    (scaling, grid keys, Fraction read-back) against the list path, not
    the kernel itself; tests/helpers.brute_force_counts is the
    independent oracle.
    """
    if cutoff > m.b * bounded.bound:
        raise UsageError(
            f"cutoff {cutoff} exceeds the safe bound {m.b * bounded.bound}"
        )
    T = Fraction(cutoff)
    product = FracSeries.one(T)
    for b_i, e_i in m.pairs:
        factor = (
            FracSeries(
                T, {Fraction(b_i * x): 1 for x in bounded.elements if b_i * x <= cutoff}
            )
            ** e_i
        )
        product = product * factor
    counts = representation_counts(m, bounded.elements, cutoff)
    return all(product.coefficient(n) == counts[n] for n in range(cutoff + 1))


def parity_check(bounded: BoundedSet, upto: int) -> list[tuple[int, bool]]:
    """For the two-slot form a + a': r(n) is odd exactly when n = 2a
    with a in the set.  Returns (n, consistent) for n = 0..upto."""
    if upto > bounded.bound:
        raise UsageError(
            f"requested bound {upto} exceeds the enumeration bound {bounded.bound}"
        )
    pair_form = MSpec(((1, 2),))
    counts = representation_counts(pair_form, bounded.elements, upto)
    members = set(bounded.elements)
    out = []
    for n in range(upto + 1):
        doubled = n % 2 == 0 and n // 2 in members
        out.append((n, (counts[n] % 2 == 1) == doubled))
    return out


SET_FILE_HEADER = "# bound="


def format_set_file(bounded: BoundedSet) -> str:
    """Set-file format: a '# bound=X' header, then one integer per
    line, ascending."""
    lines = [f"{SET_FILE_HEADER}{bounded.bound}"]
    lines.extend(str(a) for a in bounded.elements)
    return "\n".join(lines) + "\n"


def read_set_file(path: str) -> BoundedSet:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise DomainError(f"set file {path} is not ASCII text")
    except OSError as ex:
        raise UsageError(f"cannot read set file {path}: {ex.strerror or ex}")
    return parse_set_file(text)


def parse_set_file(text: str) -> BoundedSet:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith(SET_FILE_HEADER):
        raise DomainError(f"set file must start with '{SET_FILE_HEADER}X'")
    try:
        bound = int(lines[0][len(SET_FILE_HEADER):])
        elements = tuple(int(line) for line in lines[1:])
    except ValueError:
        raise DomainError("set file lines must be integers")
    if list(elements) != sorted(elements):
        raise DomainError("set file elements must be sorted ascending")
    return BoundedSet(elements, bound)

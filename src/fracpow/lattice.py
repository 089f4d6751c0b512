"""The exponent lattice of a fractional power series ring.

For a base b >= 1 and ratios theta_1, ..., theta_m > 1 the admissible
exponents are

    Lambda = { F(theta_1, ..., theta_m) / b :
               F a polynomial with non-negative integer coefficients }.

Lambda is discrete (finitely many elements below any bound), closed
under addition and under multiplication by each theta_i, and contains
the non-negative integers.  Enumeration below a bound works in two
stages: collect the finitely many monomial values
theta_{i_1} * ... * theta_{i_k} <= b * bound, then close the set of
non-negative integer combinations of them below b * bound and divide
by b.
"""

import math
from dataclasses import dataclass
from collections import deque
from fractions import Fraction

from .errors import CapacityError, DomainError
from .series import MAX_LIST_LEN


@dataclass(frozen=True)
class LatticeSpec:
    b: int
    thetas: tuple[Fraction, ...]

    def __post_init__(self):
        if self.b < 1:
            raise DomainError(f"lattice base must be >= 1, got {self.b}")
        thetas = tuple(Fraction(t) for t in self.thetas)
        object.__setattr__(self, "thetas", thetas)
        if any(t <= 1 for t in thetas):
            raise DomainError("lattice ratios must all exceed 1")
        if len(set(thetas)) != len(thetas):
            raise DomainError("lattice ratios must be distinct")


def theta_monomials(spec: LatticeSpec, limit: Fraction) -> list[Fraction]:
    """All products of ratios (including the empty product 1) <= limit."""
    limit = Fraction(limit)
    if limit < 1:
        return []
    seen = {Fraction(1)}
    queue = deque(seen)
    while queue:
        value = queue.popleft()
        for theta in spec.thetas:
            nxt = value * theta
            if nxt <= limit and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return sorted(seen)


def enumerate_below(spec: LatticeSpec, bound) -> list[Fraction]:
    """Sorted list of every lattice element in [0, bound].

    Every k/b is in the lattice, so the list has at least
    floor(b * bound) + 1 entries; more than MAX_LIST_LEN of them is a
    CapacityError, raised before anything is enumerated.
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise DomainError(f"bound must be positive, got {bound}")
    limit = spec.b * bound
    if math.floor(limit) >= MAX_LIST_LEN:
        # no value of the bound in the message, as in solver.solve_formal
        raise CapacityError(
            f"the lattice below the bound has at least floor(b * bound) + 1 elements, more "
            f"than {MAX_LIST_LEN}: b * bound must be below {MAX_LIST_LEN}, with b = {spec.b}"
        )
    reach = {Fraction(0)}
    for value in theta_monomials(spec, limit):
        queue = deque(reach)
        while queue:
            base = queue.popleft()
            nxt = base + value
            if nxt <= limit and nxt not in reach:
                reach.add(nxt)
                queue.append(nxt)
    return sorted(x / spec.b for x in reach)


def contains(spec: LatticeSpec, q) -> bool:
    """Membership test; intended for test support, not hot paths."""
    q = Fraction(q)
    if q < 0:
        raise DomainError(f"lattice membership needs q >= 0, got {q}")
    if q == 0:
        return True
    return q in set(enumerate_below(spec, q))

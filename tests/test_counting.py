import random
from fractions import Fraction as F

import pytest

from fracpow import (
    BoundedSet,
    DomainError,
    MSpec,
    UsageError,
    build_digit_set,
    constancy_scan,
    count_representations,
    generating_check,
    parity_check,
)
from fracpow.counting import (
    format_set_file,
    parse_set_file,
    representation_counts,
)
from helpers import brute_force_counts

M12 = MSpec(((1, 1), (2, 1)))
PAIR = MSpec(((1, 2),))


def test_build_digit_set_examples():
    assert build_digit_set(2, 2, 20).elements == (0, 1, 4, 5, 16, 17, 20)
    assert build_digit_set(5, 3, 0).elements == (0,)
    assert build_digit_set(3, 1, 8).elements == tuple(range(9))
    with pytest.raises(DomainError):
        build_digit_set(1, 2, 10)
    with pytest.raises(DomainError):
        build_digit_set(2, 0, 10)


def test_digit_set_membership_oracle():
    # brute force: integers whose base-k digits live on multiples of the period
    for k, period, bound in ((2, 2, 200), (3, 2, 300), (2, 3, 120)):
        ds = build_digit_set(k, period, bound)
        expected = []
        for n in range(bound + 1):
            digits = []
            v = n
            while v:
                digits.append(v % k)
                v //= k
            if all(c == 0 for i, c in enumerate(digits) if i % period):
                expected.append(n)
        assert list(ds.elements) == expected


def test_count_examples():
    ruzsa = build_digit_set(2, 2, 40)
    assert count_representations(M12, ruzsa.elements, 0) == 1
    counts = representation_counts(M12, ruzsa.elements, 40)
    assert all(c == 1 for c in counts)
    naturals = tuple(range(30))
    assert representation_counts(PAIR, naturals, 29) == [n + 1 for n in range(30)]


def test_counts_match_brute_force():
    rng = random.Random(103)
    for case in range(60):
        pair_count = rng.randint(1, 3)
        bs = sorted(rng.sample(range(1, 7), pair_count))
        m = MSpec(tuple((b, rng.randint(1, 3)) for b in bs))
        if case % 4 == 3:
            # dense: every shift up to the bound, kept small for the brute force
            upto = rng.randint(0, 14)
            elements = tuple(range(upto + 1))
        else:
            upto = rng.randint(0, 30) if case % 5 else 0
            elements = tuple(sorted(rng.sample(range(0, 25), rng.randint(1, 8))))
            if case % 2:
                elements = tuple(sorted(set(elements) | {0}))
        assert representation_counts(m, elements, upto) == brute_force_counts(
            m, elements, upto
        ), (m, elements, upto)


def test_counts_reject_negative_elements():
    with pytest.raises(DomainError):
        representation_counts(M12, [-1, 0, 1], 6)
    with pytest.raises(DomainError):
        count_representations(PAIR, [3, -2], 4)
    assert representation_counts(M12, [], 3) == [0, 0, 0, 0]


def test_constancy_scan():
    ruzsa = build_digit_set(2, 2, 500)
    report = constancy_scan(M12, ruzsa, 500)
    assert report.values == tuple([1] * 501)
    assert report.constant_from == 0
    assert report.safe_bound == 500

    naturals = BoundedSet(tuple(range(101)), 100)
    increasing = constancy_scan(PAIR, naturals, 100)
    assert increasing.constant_from is None

    with pytest.raises(UsageError) as exc:
        constancy_scan(M12, ruzsa, 501)
    assert "500" in str(exc.value)


def test_constancy_scan_moser():
    moser = build_digit_set(3, 2, 5000)
    report = constancy_scan(MSpec(((1, 1), (3, 1))), moser, 5000)
    assert all(v == 1 for v in report.values)
    assert report.constant_from == 0


def test_constant_from_tail():
    # eventually constant but not from zero
    explicit = BoundedSet((0, 1, 2), 50)
    m = MSpec(((1, 1),))
    report = constancy_scan(m, explicit, 50)
    assert report.values[:4] == (1, 1, 1, 0)
    assert report.constant_from == 3


def test_generating_check():
    small = build_digit_set(2, 2, 100)
    assert generating_check(M12, small, 100)
    rng = random.Random(107)
    for _ in range(20):
        elements = tuple(sorted({0} | set(rng.sample(range(1, 30), rng.randint(1, 6)))))
        bounded = BoundedSet(elements, 30)
        bs = sorted(rng.sample(range(1, 5), rng.randint(1, 2)))
        m = MSpec(tuple((b, rng.randint(1, 2)) for b in bs))
        cutoff = rng.randint(1, m.b * 30)
        assert generating_check(m, bounded, cutoff)
    with pytest.raises(UsageError):
        generating_check(M12, small, 101)


def test_truncation_detected_beyond_safe_bound():
    # counts over a lying prefix diverge past the prefix's true safe bound
    full = build_digit_set(2, 2, 100)
    broken = tuple(a for a in full.elements if a <= 40)
    reference = representation_counts(M12, full.elements, 100)
    truncated = representation_counts(M12, broken, 100)
    assert truncated[:41] == reference[:41]
    assert any(truncated[n] != reference[n] for n in range(41, 101))


def test_parity_check():
    tiny = BoundedSet((0, 1), 1)
    assert parity_check(tiny, 1) == [(0, True), (1, True)]
    rng = random.Random(109)
    for _ in range(10):
        elements = tuple(sorted(rng.sample(range(201), rng.randint(3, 40))))
        result = parity_check(BoundedSet(elements, 200), 200)
        assert len(result) == 201
        assert all(ok for _, ok in result)
    with pytest.raises(UsageError):
        parity_check(tiny, 2)


def test_safe_bound_soundness():
    # doubling the enumeration bound never changes counts below the original
    rng = random.Random(113)
    for k, period in ((2, 2), (3, 2), (2, 3)):
        ds = build_digit_set(k, period, 150)
        ds2 = build_digit_set(k, period, 300)
        m = MSpec(((1, rng.randint(1, 2)), (k, 1)))
        first = representation_counts(m, ds.elements, 150)
        second = representation_counts(m, ds2.elements, 150)
        assert first == second


def test_set_file_round_trip():
    ds = build_digit_set(2, 2, 20)
    text = format_set_file(ds)
    assert text.startswith("# bound=20\n0\n1\n4\n")
    assert parse_set_file(text) == ds
    with pytest.raises(DomainError):
        parse_set_file("0\n1\n")
    with pytest.raises(DomainError):
        parse_set_file("# bound=5\n3\n1\n")


def test_bounded_set_validation():
    with pytest.raises(DomainError):
        BoundedSet((0, 10), 5)
    for elements, bound in (((F(5, 2), 1.7), 3), ((0, 2), F(7, 2))):
        with pytest.raises(DomainError):
            BoundedSet(elements, bound)
    assert BoundedSet((F(2), 1.0), F(3)) == BoundedSet((1, 2), 3)
    with pytest.raises(DomainError):
        BoundedSet((-1, 2), 5)

"""Reduction chains, reduced-form enumeration, periods, proper equivalence."""

from __future__ import annotations

import random
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadforms.forms import QuadraticForm, UnimodularMap, transform
from quadforms.numtheory import DomainError, ext_gcd
from quadforms.reduction import (
    enumerate_reduced_negative,
    enumerate_reduced_positive,
    is_reduced_negative,
    is_reduced_positive,
    neighbor,
    period,
    properly_equivalent,
    reduce_negative,
    reduce_positive,
)

coeff = st.integers(min_value=-80, max_value=80)
negative_det_forms = (
    st.tuples(coeff.filter(bool), coeff, coeff.filter(bool))
    .map(lambda t: QuadraticForm(*t))
    .filter(lambda f: f.determinant < 0)
)
positive_det_forms = (
    st.tuples(coeff.filter(bool), coeff, coeff.filter(bool))
    .map(lambda t: QuadraticForm(*t))
    .filter(lambda f: f.determinant > 0 and isqrt(f.determinant) ** 2 != f.determinant)
)


def brute_reduced_negative(d: int) -> set[QuadraticForm]:
    out = set()
    for a in range(1, isqrt(-4 * d // 3) + 1):
        for b in range(-(a // 2), a // 2 + 1):
            if (b * b - d) % a:
                continue
            c = (b * b - d) // a
            if c < a:
                continue
            out.add(QuadraticForm(a, b, c))
            out.add(QuadraticForm(-a, b, -c))
    return out


def on_boundary(f: QuadraticForm) -> bool:
    return 2 * abs(f.b) == abs(f.a) or abs(f.a) == abs(f.c)


def is_canonical_negative(f: QuadraticForm) -> bool:
    """Reduced, and on the boundary the positive mirror has b >= 0."""
    g = f.negated() if f.a < 0 else f
    return is_reduced_negative(g) and (g.b >= 0 or not on_boundary(g))


def random_proper_map(rng: random.Random) -> UnimodularMap:
    while True:
        x, y = rng.randint(-20, 20), rng.randint(-20, 20)
        if gcd(x, y) == 1:
            break
    _, u, w = ext_gcd(x, y)  # x*u + y*w = 1
    k = rng.randint(-5, 5)
    return UnimodularMap(x, k * x - w, y, u + k * y)


def brute_reduced_positive(d: int) -> set[QuadraticForm]:
    out = set()
    bound = isqrt(4 * d)
    for a in range(-bound, bound + 1):
        if a == 0:
            continue
        for b in range(1, isqrt(d) + 1):
            if (b * b - d) % a:
                continue
            c = (b * b - d) // a
            f = QuadraticForm(a, b, c)
            if is_reduced_positive(f):
                out.add(f)
    return out


# --- reduced predicates ---


def test_is_reduced_negative_pinned_values():
    assert is_reduced_negative(QuadraticForm(5, -2, 7))
    assert not is_reduced_negative(QuadraticForm(304, 217, 155))
    assert is_reduced_negative(QuadraticForm(-10, 5, -11))
    with pytest.raises(DomainError):
        is_reduced_negative(QuadraticForm(3, 8, -5))
    with pytest.raises(DomainError):
        is_reduced_negative(QuadraticForm(1, 2, 0))  # square determinant


def test_is_reduced_positive_pinned_values():
    assert is_reduced_positive(QuadraticForm(-1, 5, 4))
    assert not is_reduced_positive(QuadraticForm(67, 97, 140))
    assert is_reduced_positive(QuadraticForm(3, 8, -5))
    with pytest.raises(DomainError):
        is_reduced_positive(QuadraticForm(5, -2, 7))
    with pytest.raises(DomainError):
        is_reduced_positive(QuadraticForm(1, 3, 0))  # square determinant


# --- reduction traces ---


def test_reduce_negative_classic_chain():
    trace = reduce_negative(QuadraticForm(304, 217, 155))
    assert [g.coefficients() for g in trace.chain] == [
        (304, 217, 155),
        (155, -62, 25),
        (25, 12, 7),
        (7, 2, 5),
        (5, -2, 7),
    ]
    assert trace.result == QuadraticForm(5, -2, 7)
    assert trace.b_sequence == (-62, 12, 2, -2)


def test_reduce_negative_short_circuits_when_reduced():
    trace = reduce_negative(QuadraticForm(5, -2, 7))
    assert len(trace.chain) == 1
    assert trace.result == QuadraticForm(5, -2, 7)


def test_reduce_negative_definite_mirror():
    trace = reduce_negative(QuadraticForm(-304, 217, -155))
    assert trace.result == QuadraticForm(-5, -2, -7)
    f = QuadraticForm(-304, -217, -155)
    assert reduce_negative(f).result == reduce_negative(f.negated()).result.negated()


def test_reduce_negative_canonicalises_boundary_forms():
    chains = {
        (2, -1, 43): [(2, -1, 43), (43, 1, 2), (2, 1, 43)],
        (68, -34, 35): [(68, -34, 35), (35, -1, 35), (35, 1, 35)],
        (-2, 1, -43): [(-2, 1, -43), (-43, -1, -2), (-2, -1, -43)],
    }
    for start, expected in chains.items():
        f = QuadraticForm(*start)
        trace = reduce_negative(f)
        assert [g.coefficients() for g in trace.chain] == expected
        t = trace.transformation
        assert t.determinant == 1
        assert transform(f, t) == trace.result


def test_reduce_negative_is_canonical_on_every_reduced_form():
    rng = random.Random(20210)
    for d in range(-300, 0):
        for g in enumerate_reduced_negative(d):
            canonical = reduce_negative(g).result
            assert is_canonical_negative(canonical), g
            # a reduced form and its opposite share a class exactly when the
            # form is ambiguous: b = 0 or on the boundary
            same = reduce_negative(g.opposite()).result == canonical
            assert same == (g.b == 0 or on_boundary(g)), g
            for _ in range(3):
                image = transform(g, random_proper_map(rng))
                assert reduce_negative(image).result == canonical, (g, image)


def test_reduce_negative_rejects_degenerate():
    with pytest.raises(DomainError):
        reduce_negative(QuadraticForm(0, 2, 5))
    with pytest.raises(DomainError):
        reduce_negative(QuadraticForm(3, 8, -5))


def test_reduce_positive_classic_chain():
    trace = reduce_positive(QuadraticForm(67, 97, 140))
    assert [g.coefficients() for g in trace.chain] == [
        (67, 97, 140),
        (140, -97, 67),
        (67, -37, 20),
        (20, -3, -1),
        (-1, 5, 4),
    ]
    assert trace.result == QuadraticForm(-1, 5, 4)
    assert trace.b_sequence == (-97, -37, -3, 5)


def test_reduce_positive_already_reduced_inputs():
    assert len(reduce_positive(QuadraticForm(-1, 5, 4)).chain) == 1
    # the principal indefinite seed of 997331 is born reduced
    assert len(reduce_positive(QuadraticForm(1, 998, -1327)).chain) == 1


def test_reduce_positive_rejects_square_determinant():
    with pytest.raises(DomainError):
        reduce_positive(QuadraticForm(1, 3, 5))  # det 4
    with pytest.raises(DomainError):
        reduce_positive(QuadraticForm(2, 0, -2))  # det 0 via b=0? a*c != 0, det 4? no: det = 4


@given(negative_det_forms)
@example(QuadraticForm(68, -34, 35))
@settings(max_examples=150)
def test_reduce_negative_invariants(f):
    trace = reduce_negative(f)
    # the walk a1 = c0, a2, ... shrinks strictly; the input's own a is not part
    # of it, and one last step may turn (a, b, a) into the canonical (a, -b, a)
    walk = trace.chain[1:]
    if len(walk) > 1 and walk[-1] == walk[-2].opposite() and walk[-1].a == walk[-1].c:
        walk = walk[:-1]
    sizes = [abs(g.a) for g in walk]
    assert all(x > y for x, y in zip(sizes, sizes[1:]))
    result = trace.result
    assert is_reduced_negative(result)
    assert is_canonical_negative(result)
    assert 3 * result.a * result.a <= -4 * f.determinant
    t = trace.transformation
    assert t.determinant == 1
    assert transform(f, t) == result


@given(positive_det_forms)
@settings(max_examples=150)
def test_reduce_positive_invariants(f):
    trace = reduce_positive(f)
    sizes = [abs(g.a) for g in trace.chain[1:]]
    assert all(x > y for x, y in zip(sizes, sizes[1:]))
    result = trace.result
    assert is_reduced_positive(result)
    assert result.a * result.c < 0
    t = trace.transformation
    assert t.determinant == 1
    assert transform(f, t) == result


# --- enumeration ---


def test_enumerate_reduced_negative_pinned_sets():
    by_method = [set(enumerate_reduced_negative(-85, method=m)) for m in (1, 2)]
    expected = brute_reduced_negative(-85)
    assert by_method[0] == by_method[1] == expected
    assert len(expected) == 12
    positives = {
        (1, 0, 85), (2, 1, 43), (2, -1, 43), (5, 0, 17), (10, 5, 11), (10, -5, 11),
    }
    assert {f.coefficients() for f in expected if f.a > 0} == positives

    assert {f.coefficients() for f in enumerate_reduced_negative(-1)} == {
        (1, 0, 1), (-1, 0, -1),
    }
    d31 = {f.coefficients() for f in enumerate_reduced_negative(-31)}
    assert {(5, -2, 7), (5, 2, 7)} <= d31


def test_enumerate_reduced_negative_ordering_is_canonical():
    forms = enumerate_reduced_negative(-85)
    keys = [(abs(f.a), f.a > 0, f.b) for f in forms]
    assert keys == sorted(keys)
    assert enumerate_reduced_negative(-85, 1) == enumerate_reduced_negative(-85, 2)


def test_enumerate_reduced_positive_pinned_sets():
    forms = set(enumerate_reduced_positive(79))
    assert len(forms) == 32
    coeffs = {f.coefficients() for f in forms}
    assert {(1, 8, -15), (3, 8, -5), (15, 8, -1), (7, 3, -10)} <= coeffs
    assert not {(13, 1, -6), (14, 3, -5), (15, 2, -5)} & coeffs
    assert forms == brute_reduced_positive(79)

    assert {f.coefficients() for f in enumerate_reduced_positive(2)} == {
        (1, 1, -1), (-1, 1, 1),
    }
    with pytest.raises(DomainError):
        enumerate_reduced_positive(16)


def test_enumeration_methods_agree_with_brute_force_sample():
    for d in (-1, -3, -4, -12, -31, -60, -85, -99):
        assert (
            set(enumerate_reduced_negative(d, 1))
            == set(enumerate_reduced_negative(d, 2))
            == brute_reduced_negative(d)
        ), d


def test_enumerate_positive_agrees_with_brute_force_sample():
    for d in (2, 3, 5, 29, 31, 79, 97, 145):
        assert set(enumerate_reduced_positive(d)) == brute_reduced_positive(d), d


# --- periods ---


def test_neighbor_pinned_values():
    assert neighbor(QuadraticForm(3, 8, -5)) == QuadraticForm(-5, 7, 6)
    assert neighbor(QuadraticForm(-5, 7, 6)) == QuadraticForm(6, 5, -9)
    assert neighbor(QuadraticForm(-10, 7, 3)) == QuadraticForm(3, 8, -5)
    with pytest.raises(DomainError):
        neighbor(QuadraticForm(67, 97, 140))


def test_period_pinned_cycle():
    p = period(QuadraticForm(3, 8, -5))
    assert p.length == 6
    assert [f.coefficients() for f in p.forms] == [
        (3, 8, -5), (-5, 7, 6), (6, 5, -9), (-9, 4, 7), (7, 3, -10), (-10, 7, 3),
    ]
    assert QuadraticForm(7, 3, -10) in p
    assert QuadraticForm(1, 8, -15) not in p


def test_period_of_member_is_rotation():
    base = period(QuadraticForm(3, 8, -5))
    for f in base.forms:
        rotated = period(f)
        assert set(rotated.forms) == set(base.forms)
        assert rotated.forms[0] == f


def test_periods_partition_the_reduced_forms():
    for d in (2, 13, 29, 79, 145):
        remaining = set(enumerate_reduced_positive(d))
        while remaining:
            cycle = period(next(iter(remaining)))
            members = set(cycle.forms)
            assert members <= remaining  # no overlap with an earlier cycle
            assert len(members) == cycle.length
            remaining -= members


def test_period_reduces_unreduced_input_first():
    p = period(QuadraticForm(67, 97, 140))
    assert QuadraticForm(-1, 5, 4) in p


# --- proper equivalence ---


def test_properly_equivalent_pinned_values():
    assert properly_equivalent(QuadraticForm(2, -4, 3), QuadraticForm(-13, -6, -2))
    assert properly_equivalent(QuadraticForm(10, 3, 17), QuadraticForm(10, 3, 17))
    assert properly_equivalent(QuadraticForm(10, 3, 17), QuadraticForm(17, -3, 10))
    # opposite of a non-ambiguous form sits in the improper class
    assert not properly_equivalent(QuadraticForm(5, 2, 7), QuadraticForm(5, -2, 7))
    # ambiguous: 2|b| = |a|
    assert properly_equivalent(QuadraticForm(2, 1, 43), QuadraticForm(2, -1, 43))
    # different determinants
    assert not properly_equivalent(QuadraticForm(1, 0, 1), QuadraticForm(1, 0, 2))


def test_properly_equivalent_positive_determinant():
    assert properly_equivalent(QuadraticForm(67, 97, 140), QuadraticForm(-1, 5, 4))
    assert properly_equivalent(QuadraticForm(3, 8, -5), QuadraticForm(-10, 7, 3))
    with pytest.raises(DomainError):
        properly_equivalent(QuadraticForm(1, 2, 0), QuadraticForm(1, 2, 0))


@given(negative_det_forms, st.integers(min_value=-4, max_value=4))
@settings(max_examples=60)
def test_contiguous_transforms_stay_equivalent(f, h):
    # any unimodular image of f is properly equivalent to f
    from quadforms.forms import UnimodularMap

    g = transform(f, UnimodularMap(0, -1, 1, h))
    assert properly_equivalent(f, g)
    assert properly_equivalent(g, f)

"""Composition of forms: general bilinear construction, shortcuts, class powers."""

from __future__ import annotations

from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadforms.composition import (
    BilinearSubstitution,
    class_multiples,
    compose_general,
    compose_prime_power,
    compose_same_det,
)
from quadforms.forms import QuadraticForm, transform
from quadforms.numtheory import DomainError, bezout_chain
from quadforms.reduction import (
    enumerate_reduced_negative,
    is_reduced_negative,
    properly_equivalent,
    reduce_negative,
)

BASE = QuadraticForm(3, 1, 332444)  # determinant -997331


@st.composite
def same_det_pairs(draw):
    d = draw(st.integers(min_value=-150, max_value=-1))
    pool = [f for f in enumerate_reduced_negative(d) if f.is_primitive]
    assume(pool)
    return draw(st.sampled_from(pool)), draw(st.sampled_from(pool))


def grid_identity_holds(f1, f2, form, sub, span=2):
    rng = range(-span, span + 1)
    for x1 in rng:
        for y1 in rng:
            for x2 in rng:
                for y2 in rng:
                    monomials = (x1 * x2, x1 * y2, y1 * x2, y1 * y2)
                    big_x = sum(sub.p[i] * monomials[i] for i in range(4))
                    big_y = sum(sub.q[i] * monomials[i] for i in range(4))
                    if form.value(big_x, big_y) != f1.value(x1, y1) * f2.value(x2, y2):
                        return False
    return True


def test_same_det_worked_example():
    assert compose_same_det(QuadraticForm(10, 3, 11), QuadraticForm(15, 2, 7)) == QuadraticForm(
        6, 5, 21
    )


def test_principal_form_is_an_identity():
    assert compose_same_det(QuadraticForm(1, 0, 85), QuadraticForm(2, 1, 43)) == QuadraticForm(
        2, 1, 43
    )
    form, _ = compose_general(QuadraticForm(1, 0, 85), QuadraticForm(1, 0, 85))
    assert form == QuadraticForm(1, 0, 85)


def test_same_det_noncoprime_pair_falls_back():
    # equal leads force the general construction; result differs from the
    # prime-power one only by the middle-coefficient representative
    got = compose_same_det(BASE, BASE)
    assert got == QuadraticForm(9, 7, 110820)
    assert got.determinant == -997331
    assert properly_equivalent(got, QuadraticForm(9, -2, 110815))


def test_prime_power_square_and_cube():
    square = compose_prime_power(BASE, BASE, 3)
    assert square == QuadraticForm(9, -2, 110815)
    assert compose_prime_power(square, BASE, 3) == QuadraticForm(27, 7, 36940)


def test_prime_power_opposite_lands_in_the_principal_class():
    form = compose_prime_power(QuadraticForm(3, 1, 4), QuadraticForm(3, -1, 4), 3)
    assert form == QuadraticForm(1, 0, 11)


def test_prime_power_high_power_step():
    got = compose_prime_power(QuadraticForm(729, -209, 1428), BASE, 3)
    assert got.determinant == -997331
    reduced = reduce_negative(got).result
    assert reduced == QuadraticForm(476, 209, 2187)


def test_prime_power_agrees_with_same_det_route():
    acc = BASE
    for _ in range(5):
        via_power = compose_prime_power(acc, BASE, 3)
        via_crt = compose_same_det(acc, BASE)
        assert via_power.determinant == via_crt.determinant == -997331
        assert properly_equivalent(via_power, via_crt)
        acc = reduce_negative(via_power).result


def test_even_content_pairs_keep_their_determinant():
    # the CRT route stays at det D even when both contents are 2; the general
    # construction instead builds the direct composite at determinant 4D
    f = QuadraticForm(-2, -1, -2)
    assert compose_same_det(f, f) == QuadraticForm(1, 0, 3)
    direct, sub = compose_general(f, f)
    assert direct == QuadraticForm(4, 2, 4)
    assert direct.determinant == 4 * f.determinant
    assert sub.k == 1
    assert grid_identity_holds(f, f, direct, sub)
    g = QuadraticForm(4, 1, 18)
    assert compose_same_det(g, g) == QuadraticForm(18, 17, 20)
    assert compose_same_det(g, QuadraticForm(4, -1, 18)) == QuadraticForm(1, 0, 71)
    assert compose_same_det(QuadraticForm(6, 1, 12), QuadraticForm(6, 1, 12)).determinant == -71


def test_general_worked_example_with_substitution():
    f1, f2 = QuadraticForm(10, 3, 11), QuadraticForm(15, 2, 7)
    form, sub = compose_general(f1, f2)
    assert form == QuadraticForm(6, 5, 21)
    assert (sub.p, sub.q) == ((5, -1, -1, -4), (0, 2, 3, 1))
    assert sub.minors == (10, 15, 5, -1, 7, 11)
    assert sub.k == 1
    assert sub.n1 == sub.n2 == 1
    assert (sub.m1, sub.m2) == (1, 1)
    assert grid_identity_holds(f1, f2, form, sub)


def test_general_composes_distinct_determinants():
    f1, f2 = QuadraticForm(1, 0, 1), QuadraticForm(1, 0, 4)
    form, sub = compose_general(f1, f2)
    assert form == QuadraticForm(1, 0, 1)
    assert (sub.n1, sub.n2) == (1, 2)
    assert grid_identity_holds(f1, f2, form, sub)


def test_general_seed_choice_never_changes_the_class():
    f1, f2 = QuadraticForm(10, 3, 11), QuadraticForm(15, 2, 7)
    for seed, expected in [
        ((0, -1, 0, 0), QuadraticForm(70, 33, 17)),
        ((0, 0, 1, 0), QuadraticForm(165, 107, 70)),
        ((1, 1, 0, 0), QuadraticForm(65, 48, 37)),
        ((0, 0, 0, 1), QuadraticForm(77, 19, 6)),
    ]:
        form, sub = compose_general(f1, f2, q_seed=seed)
        assert form == expected
        assert properly_equivalent(form, QuadraticForm(6, 5, 21))
        assert grid_identity_holds(f1, f2, form, sub)


def test_general_bezout_choice_changes_substitution_not_form():
    f1, f2 = QuadraticForm(10, 3, 11), QuadraticForm(15, 2, 7)
    form, sub = compose_general(f1, f2)
    _, b0 = bezout_chain(sub.q)
    for t in [(1, 0, 0, 0), (0, 2, -1, 0), (3, -1, 4, 1), (0, 0, 0, -2)]:
        dot = sum(t[i] * sub.q[i] for i in range(4))
        alt = tuple(b0[i] + t[i] - dot * b0[i] for i in range(4))
        assert sum(alt[i] * sub.q[i] for i in range(4)) == 1
        form2, sub2 = compose_general(f1, f2, bezout=alt)
        assert form2 == form
        assert sub2.q == sub.q
        assert grid_identity_holds(f1, f2, form2, sub2)
    with pytest.raises(DomainError):
        compose_general(f1, f2, bezout=(0, 0, 0, 0))


def test_general_rejections():
    with pytest.raises(DomainError):
        compose_general(QuadraticForm(1, 0, 0), QuadraticForm(1, 0, 1))
    with pytest.raises(DomainError):
        compose_general(QuadraticForm(1, 0, 1), QuadraticForm(1, 0, -2))
    with pytest.raises(DomainError):
        compose_general(QuadraticForm(1, 0, 2), QuadraticForm(1, 0, 1))
    with pytest.raises(DomainError):
        compose_general(QuadraticForm(10, 3, 11), QuadraticForm(15, 2, 7), q_seed=(0, 0, 0, 0))


def test_same_det_rejections():
    with pytest.raises(DomainError):
        compose_same_det(QuadraticForm(1, 0, 1), QuadraticForm(1, 0, 2))
    with pytest.raises(DomainError):
        compose_same_det(QuadraticForm(0, 2, 5), QuadraticForm(0, 2, 5))
    with pytest.raises(DomainError):
        compose_same_det(QuadraticForm(2, 0, 2), QuadraticForm(2, 0, 2))


def test_prime_power_rejections():
    with pytest.raises(DomainError):
        compose_prime_power(QuadraticForm(1, 0, 1), QuadraticForm(1, 0, 2), 2)
    with pytest.raises(DomainError):
        compose_prime_power(BASE, BASE, 4)
    with pytest.raises(DomainError):
        compose_prime_power(QuadraticForm(10, 3, 11), QuadraticForm(10, 3, 11), 3)


def test_class_multiples_power_chain():
    chain = class_multiples(BASE, 10)
    assert [n for n, _ in chain] == list(range(1, 11))
    assert [g.a for _, g in chain] == [3, 9, 27, 81, 243, 729, 476, 1027, 932, 425]
    for _, g in chain:
        assert g.determinant == -997331
        assert is_reduced_negative(g)
        assert g.is_primitive


def test_class_multiples_small_cases():
    assert class_multiples(QuadraticForm(10, 3, 11), 1) == [(1, QuadraticForm(10, 3, 11))]
    two = class_multiples(QuadraticForm(2, 1, 43), 2)
    assert two[1] == (2, QuadraticForm(1, 0, 85))


def test_class_multiples_rejections():
    with pytest.raises(DomainError):
        class_multiples(QuadraticForm(10, 3, 11), 0)
    with pytest.raises(DomainError):
        class_multiples(QuadraticForm(3, 8, -5), 2)
    with pytest.raises(DomainError):
        class_multiples(QuadraticForm(2, 0, 2), 2)
    # primitive, but of content 2: composition of such classes depends on the
    # representatives, so their powers are rejected
    with pytest.raises(DomainError, match="content 1"):
        class_multiples(QuadraticForm(2, 1, 2), 2)


def test_commutative_with_principal_identity_for_two_determinants():
    for d in (-85, -161):
        pool = [f for f in enumerate_reduced_negative(d) if f.is_primitive]
        principal = QuadraticForm(1, 0, -d)
        for f1 in pool:
            assert properly_equivalent(compose_same_det(principal, f1), f1)
            for f2 in pool:
                left = compose_same_det(f1, f2)
                right = compose_same_det(f2, f1)
                assert left.determinant == d
                assert properly_equivalent(left, right)


@given(same_det_pairs())
@settings(max_examples=60, deadline=None)
def test_same_det_congruences_and_primitivity(pair):
    f1, f2 = pair
    got = compose_same_det(f1, f2)
    assert got.determinant == f1.determinant
    assert got.b * got.b - got.a * got.c == f1.determinant
    assert got.is_primitive
    mu = gcd(f1.a, f2.a, f1.b + f2.b)
    a1, a2 = f1.a // mu, f2.a // mu
    if gcd(a1, a2) == 1:
        assert got.a == a1 * a2
        assert (got.b - f1.b) % a1 == 0
        assert (got.b - f2.b) % a2 == 0


@given(same_det_pairs())
@settings(max_examples=40, deadline=None)
def test_general_matches_shortcut_up_to_equivalence(pair):
    f1, f2 = pair
    assume(gcd(f1.content, f2.content) == 1)
    form, sub = compose_general(f1, f2)
    assert properly_equivalent(form, compose_same_det(f1, f2))
    assert grid_identity_holds(f1, f2, form, sub, span=1)


@given(same_det_pairs())
@settings(max_examples=40, deadline=None)
def test_composition_commutes_up_to_equivalence(pair):
    f1, f2 = pair
    assume(gcd(f1.content, f2.content) == 1)
    assert properly_equivalent(compose_same_det(f1, f2), compose_same_det(f2, f1))

"""Characters, genera, form square roots, characteristic numbers."""

from __future__ import annotations

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadforms import genus
from quadforms.forms import QuadraticForm, UnimodularMap, transform
from quadforms.genus import (
    CharacterProfile,
    character,
    characteristic_numbers,
    is_characteristic_number,
    same_genus,
    sqrt_of_form,
)
from quadforms.numtheory import DomainError, full_factor, jacobi
from quadforms.reduction import enumerate_reduced_negative, enumerate_reduced_positive, period

coeff = st.integers(min_value=-40, max_value=40)
primitive_forms = (
    st.tuples(coeff, coeff, coeff)
    .filter(lambda t: t != (0, 0, 0))
    .map(lambda t: QuadraticForm(*t))
    .filter(lambda f: f.is_primitive and f.determinant != 0)
)

@st.composite
def proper_maps(draw):
    # determinant-one map built from a Bezout pair plus a column shift
    alpha = draw(st.integers(min_value=-12, max_value=12))
    gamma = draw(st.integers(min_value=-12, max_value=12))
    if gcd(alpha, gamma) != 1:
        alpha, gamma = 1, 0
    for beta in range(-200, 201):
        if alpha == 0:
            delta = 0
            if -beta * gamma == 1:
                break
        else:
            delta, rem = divmod(1 + beta * gamma, alpha)
            if rem == 0:
                break
    shift = draw(st.integers(min_value=-5, max_value=5))
    return UnimodularMap(alpha, beta + shift * alpha, gamma, delta + shift * gamma)


def represented_values(f: QuadraticForm, span: int = 12) -> list[int]:
    values = []
    for x in range(-span, span + 1):
        for y in range(-span, span + 1):
            if gcd(x, y) == 1:
                values.append(f.value(x, y))
    return values


def check_profile_against_represented_numbers(f: QuadraticForm) -> None:
    # oracle: every represented number coprime to 2D obeys each announced entry
    profile = character(f)
    d = f.determinant
    coprime = [v for v in represented_values(f) if v and gcd(v, 2 * d) == 1]
    assert coprime, f
    for p, value in profile.odd_prime_entries:
        symbols = {jacobi(v, p) for v in coprime}
        assert symbols == {1 if value == "R" else -1}, (f, p)
    if profile.mod4_entry is not None:
        expected = int(profile.mod4_entry.split(",")[0])
        assert {v % 4 for v in coprime if v % 2} == {expected}, f
    if profile.mod8_entry is not None:
        label = profile.mod8_entry.split(",")[0]
        allowed = {int(tok) for tok in label.split(" and ")}
        assert {v % 8 for v in coprime if v % 2} <= allowed, f


# --- character ---


def test_character_pinned_profiles():
    p = character(QuadraticForm(10, 3, 17))
    assert str(p) == "N7; N23; 1,4"
    assert p.odd_prime_entries == ((7, "N"), (23, "N"))
    assert p.mod4_entry == "1,4" and p.mod8_entry is None

    p = character(QuadraticForm(3, 1, 5))  # D = -14 ≡ 2 (mod 8)
    assert str(p) == "N7; 3 and 5,8"

    p = character(QuadraticForm(1, 0, 85))
    assert str(p) == "R5; R17; 1,4"


def test_character_covers_large_prime_divisors():
    # |D| = 7 * 23 with the large prime above isqrt(|D|): both entries present
    f = QuadraticForm(3, 1, 54)
    assert [p for p, _ in character(f).odd_prime_entries] == [7, 23]


def test_character_rejects_bad_forms():
    with pytest.raises(DomainError):
        character(QuadraticForm(2, 4, 6))
    with pytest.raises(DomainError):
        character(QuadraticForm(1, 2, 4))  # determinant 0


def test_character_matches_represented_numbers_on_pinned_forms():
    for f in (
        QuadraticForm(10, 3, 17),
        QuadraticForm(3, 1, 5),
        QuadraticForm(1, 0, 85),
        QuadraticForm(2, 1, 43),
        QuadraticForm(3, 8, -5),
        QuadraticForm(1, 998, -1327),
    ):
        check_profile_against_represented_numbers(f)


def test_character_mod8_pairings():
    # D ≡ 2 (mod 8) pairs {1,7} and {3,5}; D ≡ 6 (mod 8) pairs {1,3} and {5,7}
    f = QuadraticForm(1, 0, -2)  # D = 2
    assert character(f).mod8_entry == "1 and 7,8"
    f = QuadraticForm(1, 0, -6)  # D = 6
    assert character(f).mod8_entry == "1 and 3,8"
    f = QuadraticForm(5, 2, -2)  # D = 14 ≡ 6, odd value 5
    assert character(f).mod8_entry == "5 and 7,8"


@given(primitive_forms, proper_maps())
@settings(max_examples=80)
def test_character_is_a_class_invariant(f, t):
    assert character(transform(f, t)) == character(f)


def test_all_period_members_share_a_character():
    for d in (79, 29):
        seen: set[QuadraticForm] = set()
        from quadforms.reduction import enumerate_reduced_positive

        for f in enumerate_reduced_positive(d):
            if f in seen or not f.is_primitive:
                continue
            cycle = period(f)
            seen.update(cycle.forms)
            profiles = {character(g) for g in cycle.forms}
            assert len(profiles) == 1, (d, f)


# --- same_genus ---


def test_same_genus_pinned_values():
    assert same_genus(QuadraticForm(10, 5, 11), QuadraticForm(10, -5, 11))
    assert same_genus(QuadraticForm(1, 0, 85), QuadraticForm(1, 0, 85))
    assert not same_genus(QuadraticForm(1, 0, 85), QuadraticForm(2, 1, 43))
    with pytest.raises(DomainError):
        same_genus(QuadraticForm(1, 0, 1), QuadraticForm(1, 0, 2))


# --- sqrt_of_form ---


def test_sqrt_of_form_pinned_values():
    values = sqrt_of_form(QuadraticForm(3, 1, 54), 1, 23)
    assert (7, 10) in [(v.g, v.h) for v in values]
    values = sqrt_of_form(QuadraticForm(20, 10, 27), 3, 440)
    assert (150, 9) in [(v.g, v.h) for v in values]
    # both g,h odd makes gh odd: no solution despite square outer congruences
    assert sqrt_of_form(QuadraticForm(1, 0, 1), 1, 2) == ()
    with pytest.raises(DomainError):
        sqrt_of_form(QuadraticForm(3, 1, 54), 23, 23)


def test_sqrt_of_form_solutions_verify_and_sort():
    f = QuadraticForm(3, 1, 54)
    values = sqrt_of_form(f, 1, 23)
    pairs = [(v.g, v.h) for v in values]
    assert pairs == sorted(pairs)
    for v in values:
        assert (v.g * v.g - f.a * v.multiplier) % v.modulus == 0
        assert (v.g * v.h - f.b * v.multiplier) % v.modulus == 0
        assert (v.h * v.h - f.c * v.multiplier) % v.modulus == 0


def double_scan_sqrt_of_form(f: QuadraticForm, multiplier: int, modulus: int) -> tuple:
    # the former sqrt_of_form, kept as the reference: every pair (g, h) is
    # tested, with the test on g alone made once before the loop over h
    am = f.a * multiplier % modulus
    bm = f.b * multiplier % modulus
    cm = f.c * multiplier % modulus
    return tuple(
        (g, h)
        for g in range(modulus)
        if (g * g - am) % modulus == 0
        for h in range(modulus)
        if (g * h - bm) % modulus == 0 and (h * h - cm) % modulus == 0
    )


def test_sqrt_of_form_matches_the_double_scan():
    forms = (
        QuadraticForm(3, 1, 54),
        QuadraticForm(20, 10, 27),
        QuadraticForm(-7, 3, 12),
        QuadraticForm(1, 0, 85),
        QuadraticForm(4, 2, 6),
    )
    for f in forms:
        for modulus in range(1, 61):
            for multiplier in range(1, modulus + 1):
                if gcd(multiplier, modulus) != 1:
                    continue
                values = sqrt_of_form(f, multiplier, modulus)
                assert all(v.modulus == modulus and v.multiplier == multiplier for v in values)
                pairs = tuple((v.g, v.h) for v in values)
                assert pairs == double_scan_sqrt_of_form(f, multiplier, modulus), (f, multiplier, modulus)


# --- characteristic numbers ---


def test_is_characteristic_number_pinned_values():
    ok, witness = is_characteristic_number(3, QuadraticForm(20, 10, 27))
    assert ok
    m = witness.modulus
    f = QuadraticForm(20, 10, 27)
    assert m == 440
    assert (witness.g**2 - 3 * f.a) % m == 0
    assert (witness.g * witness.h - 3 * f.b) % m == 0
    assert (witness.h**2 - 3 * f.c) % m == 0
    # the exhaustive solution list contains the hand-computed pair
    assert (150, 9) in [(v.g, v.h) for v in sqrt_of_form(f, 3, 440)]

    ok, witness = is_characteristic_number(1, QuadraticForm(1, 0, 85))
    assert ok and (witness.g, witness.h) == (1, 0)

    ok, witness = is_characteristic_number(2, QuadraticForm(1, 0, 85))
    assert not ok and witness is None

    with pytest.raises(DomainError):
        is_characteristic_number(5, QuadraticForm(1, 0, 85))


def test_characteristic_numbers_pinned_values():
    assert characteristic_numbers(QuadraticForm(1, 0, 1)) == (1,)
    assert 3 in characteristic_numbers(QuadraticForm(20, 10, 27))
    expected = (1, 4, 9, 16, 19, 21, 26, 36, 49, 59, 64, 66, 69, 76, 81, 84)
    assert characteristic_numbers(QuadraticForm(1, 0, 85)) == expected


def test_characteristic_construction_agrees_with_exhaustive_search():
    for f in (
        QuadraticForm(1, 0, 85),
        QuadraticForm(2, 1, 43),
        QuadraticForm(10, 3, 17),
        QuadraticForm(3, 1, 54),
        QuadraticForm(5, 1, 33),
    ):
        d = abs(f.determinant)
        for m in range(1, d + 1):
            if gcd(m, d) != 1:
                continue
            ok, witness = is_characteristic_number(m, f)
            assert ok == bool(sqrt_of_form(f, m, d)), (f, m)
            if ok:
                assert witness.modulus == d and witness.multiplier == m


def test_cached_prime_powers_agree_with_the_uncached_path(monkeypatch):
    # determinants with repeated, large and even prime powers, of both signs;
    # each is visited three times, interleaved, so later rounds hit the cache
    dets = (-85, -440, -1701, -4100, 85, 440, 1155)
    forms = []
    for d in dets:
        reduced = enumerate_reduced_negative(d) if d < 0 else enumerate_reduced_positive(d)
        forms += [f for f in reduced if f.is_primitive]

    def profiles() -> list:
        out = []
        for f in forms:
            d = abs(f.determinant)
            chars = [is_characteristic_number(m, f) for m in range(1, 10) if gcd(m, d) == 1]
            out.append((character(f), chars))
        return out

    cached = [profiles() for _ in range(3)]
    assert genus._prime_powers.cache_info().hits > 0
    monkeypatch.setattr(genus, "_prime_powers", genus._prime_powers.__wrapped__)
    uncached = profiles()
    assert all(rounds == uncached for rounds in cached)
    for d in dets:
        n = abs(d)
        expected = tuple((p, p**e) for p, e in full_factor(n).factors)
        assert genus._prime_powers(n) == expected


def test_characteristic_products_land_in_the_principal_set():
    # m1*f and m2*f both squares mod |D| forces m1*m2*f^2 to be one, so the
    # product is characteristic for the principal form; the principal set is
    # itself a group under multiplication mod |D|.
    for det in range(-60, 0):
        d = abs(det)
        principal = set(characteristic_numbers(QuadraticForm(1, 0, d)))
        for m1 in principal:
            for m2 in principal:
                assert (m1 * m2 % d or d) in principal, (det, m1, m2)
        for f in enumerate_reduced_negative(det):
            if not f.is_primitive or f.a < 0:
                continue
            chars = set(characteristic_numbers(f))
            for m1 in chars:
                for m2 in chars:
                    assert (m1 * m2 % d or d) in principal, (f, m1, m2)


def test_same_genus_means_same_characteristic_numbers():
    for d in range(-60, 0):
        forms = [f for f in enumerate_reduced_negative(d) if f.is_primitive and f.a > 0]
        sets = {f: set(characteristic_numbers(f)) for f in forms}
        for f1 in forms:
            for f2 in forms:
                if same_genus(f1, f2):
                    assert sets[f1] == sets[f2], (d, f1, f2)

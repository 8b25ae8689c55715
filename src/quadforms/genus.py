"""Genus characters and characteristic numbers of primitive forms.

Every number representable by a primitive form of determinant D falls into
fixed residue classes with respect to the odd primes dividing D and, when
applicable, modulo 4 and 8.  The complete character of a form records those
classes; forms of equal determinant and equal character share a genus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .forms import QuadraticForm
from .numtheory import DomainError, _crt_roots, full_factor, jacobi, sqrt_mod


@dataclass(frozen=True)
class CharacterProfile:
    """Complete character of a form: one entry per applicable modulus."""

    determinant: int
    odd_prime_entries: tuple[tuple[int, str], ...]  # (p, "R" or "N"), p ascending
    mod4_entry: str | None
    mod8_entry: str | None

    def tokens(self) -> tuple[str, ...]:
        parts = [f"{value}{p}" for p, value in self.odd_prime_entries]
        if self.mod4_entry is not None:
            parts.append(self.mod4_entry)
        if self.mod8_entry is not None:
            parts.append(self.mod8_entry)
        return tuple(parts)

    def __str__(self) -> str:
        return "; ".join(self.tokens())


@dataclass(frozen=True)
class FormSqrtValue:
    """Pair (g, h) with g^2 = aM, gh = bM, h^2 = cM modulo the modulus."""

    g: int
    h: int
    modulus: int
    multiplier: int


@lru_cache(maxsize=64)
def _prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    """(p, p**e) for each prime power p**e exactly dividing n > 0, p ascending.

    Callers work through the forms of one determinant at a time, so a few
    entries let |D| be factored once per determinant instead of once per form.
    """
    return tuple((p, p**e) for p, e in full_factor(n).factors)


def character(f: QuadraticForm) -> CharacterProfile:
    """Complete character of a primitive form of nonzero determinant."""
    if not f.is_primitive:
        raise DomainError("character is defined for primitive forms only")
    d = f.determinant
    if d == 0:
        raise DomainError("zero determinant has no character")
    entries = []
    for p, _ in _prime_powers(abs(d)):
        if p == 2:
            continue
        # primitivity guarantees one of a, c is coprime to p
        v = f.a if f.a % p else f.c
        entries.append((p, "R" if jacobi(v, p) == 1 else "N"))
    mod4 = None
    mod8 = None
    if d % 4 in (0, 3) or d % 8 in (2, 6):
        odd = f.a if f.a % 2 else f.c  # exists whenever d != 1 (mod 4)
        if d % 4 in (0, 3):
            mod4 = f"{odd % 4},4"
        if d % 8 == 0:
            mod8 = f"{odd % 8},8"
        elif d % 8 == 2:
            mod8 = "1 and 7,8" if odd % 8 in (1, 7) else "3 and 5,8"
        elif d % 8 == 6:
            mod8 = "1 and 3,8" if odd % 8 in (1, 3) else "5 and 7,8"
    return CharacterProfile(d, tuple(entries), mod4, mod8)


def same_genus(f1: QuadraticForm, f2: QuadraticForm) -> bool:
    if f1.determinant != f2.determinant:
        raise DomainError("genus comparison requires equal determinants")
    return character(f1) == character(f2)


def sqrt_of_form(f: QuadraticForm, multiplier: int, modulus: int) -> tuple[FormSqrtValue, ...]:
    """All (g, h) mod modulus solving g^2=aM, gh=bM, h^2=cM, lexicographic.

    g and h run in ascending order over the roots sqrt_mod gives for aM and
    cM, and the pairs with gh = bM are kept.
    """
    if modulus < 1:
        raise DomainError("modulus must be positive")
    if gcd(multiplier, modulus) != 1:
        raise DomainError("multiplier must be coprime to the modulus")
    bm = f.b * multiplier % modulus
    hs = sqrt_mod(f.c * multiplier, modulus)
    return tuple(
        FormSqrtValue(g, h, modulus, multiplier)
        for g in sqrt_mod(f.a * multiplier, modulus)
        for h in hs
        if (g * h - bm) % modulus == 0
    )


def is_characteristic_number(multiplier: int, f: QuadraticForm) -> tuple[bool, FormSqrtValue | None]:
    """Whether multiplier*f has a square root mod |D|, with a witness when it does.

    Works one prime power p^k || |D| at a time: solve g^2 = aM (mod p^k) for
    whichever of a, c is coprime to p, derive the other component from
    gh = bM, and glue the pieces together.  The remaining congruence holds
    automatically because p^k divides D.
    """
    if not f.is_primitive:
        raise DomainError("characteristic numbers are defined for primitive forms")
    d = f.determinant
    if d == 0:
        raise DomainError("zero determinant is not supported")
    if gcd(multiplier, d) != 1:
        raise DomainError("multiplier must be coprime to the determinant")
    gs, hs, done = [0], [0], 1  # the witness mod done, the part of |D| solved so far
    for p, pk in _prime_powers(abs(d)):
        if f.a % p:
            roots = sqrt_mod(f.a * multiplier % pk, pk)
            if not roots:
                return False, None
            g = roots[0]
            h = f.b * g * pow(f.a, -1, pk) % pk
        else:
            roots = sqrt_mod(f.c * multiplier % pk, pk)
            if not roots:
                return False, None
            h = roots[0]
            g = f.b * h * pow(f.c, -1, pk) % pk
        gs = _crt_roots(gs, done, (g,), pk)
        hs = _crt_roots(hs, done, (h,), pk)
        done *= pk
    (g,), (h,) = gs, hs
    m = abs(d)
    witness = FormSqrtValue(g, h, m, multiplier)
    if (
        (g * g - f.a * multiplier) % m
        or (g * h - f.b * multiplier) % m
        or (h * h - f.c * multiplier) % m
    ):
        raise ArithmeticError(f"({g}, {h}) is not a square root of {multiplier} * {f} mod {m}")
    return True, witness


def characteristic_numbers(f: QuadraticForm) -> tuple[int, ...]:
    """All characteristic numbers of f in [1, |D|]."""
    m = abs(f.determinant)
    return tuple(
        n for n in range(1, m + 1) if gcd(n, m) == 1 and is_characteristic_number(n, f)[0]
    )

"""Reduction of binary quadratic forms, reduced-form enumeration, and periods.

Forms are ax^2 + 2bxy + cy^2 with determinant D = b^2 - ac.  For D < 0 every
form is carried to the canonical reduced form of its class, so two forms are
properly equivalent exactly when they reduce to the same tuple; for D > 0
(non-square) the reduced forms split into disjoint cycles ("periods") and two
forms are properly equivalent exactly when they land in the same period.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .forms import QuadraticForm, UnimodularMap, transform
from .numtheory import DomainError, abs_min_residue, sqrt_mod


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) * isqrt(n) == n


@dataclass(frozen=True)
class ReductionTrace:
    """Chain of contiguous forms produced by a reduction, input first."""

    chain: tuple[QuadraticForm, ...]

    @property
    def result(self) -> QuadraticForm:
        return self.chain[-1]

    @property
    def b_sequence(self) -> tuple[int, ...]:
        return tuple(f.b for f in self.chain[1:])

    @property
    def transformation(self) -> UnimodularMap:
        """Cumulative proper substitution carrying chain[0] onto the result."""
        t = UnimodularMap.identity()
        for prev, nxt in zip(self.chain, self.chain[1:]):
            # each step is (x, y) -> (-y, x + h*y) with h = (b + b') / c
            t = t @ UnimodularMap(0, -1, 1, (nxt.b + prev.b) // prev.c)
        return t


@dataclass(frozen=True)
class Period:
    """Cyclically ordered reduced forms traversed by repeated neighbor steps."""

    forms: tuple[QuadraticForm, ...]

    @property
    def length(self) -> int:
        return len(self.forms)

    def __contains__(self, f: object) -> bool:
        return f in self.forms


def is_reduced_negative(f: QuadraticForm) -> bool:
    """Reduced for D < 0: 2|b| <= |a| <= |c| (outer coefficients share a sign)."""
    if f.determinant >= 0:
        raise DomainError("negative determinant required")
    return 2 * abs(f.b) <= abs(f.a) <= abs(f.c)


def is_reduced_positive(f: QuadraticForm) -> bool:
    """Reduced for non-square D > 0: 0 < b < sqrt(D) < |a| + b and |a| < sqrt(D) + b."""
    d = f.determinant
    if d <= 0 or _is_square(d):
        raise DomainError("positive non-square determinant required")
    a, b = abs(f.a), f.b
    if b <= 0 or b * b >= d:
        return False
    if (a + b) ** 2 <= d:
        return False
    return a <= b or (a - b) ** 2 < d


def reduce_negative(f: QuadraticForm) -> ReductionTrace:
    """Walk contiguous forms until the canonical reduced form of the class appears.

    On the boundary 2|b| = |a| or |a| = |c| the result (or its positive mirror
    when a < 0) has b >= 0, so it is unique per class.  Each step replaces
    (a, b, c) by (c, b1, c1) where b1 = -b mod c with the least absolute value,
    ties toward +c/2, and c1 = (b1^2 - D) / c; the walk stops when c1 > c, or
    when c1 = c and b1 >= 0.
    """
    d = f.determinant
    if d >= 0:
        raise DomainError("negative determinant required")
    flip = f.a < 0  # negative-definite: reduce the positive mirror, negate back
    current = f.negated() if flip else f
    a, b, c = current.coefficients()
    if 2 * abs(b) <= a <= c and (b >= 0 or 2 * abs(b) < a < c):
        return ReductionTrace((f,))
    chain = [current]
    while True:
        b1 = abs_min_residue(-current.b, current.c)
        c1 = (b1 * b1 - d) // current.c
        nxt = QuadraticForm(current.c, b1, c1)
        chain.append(nxt)
        if c1 > current.c or (c1 == current.c and b1 >= 0):
            break
        current = nxt
    if flip:
        chain = [g.negated() for g in chain]
    return ReductionTrace(tuple(chain))


def _pick_indefinite_b(prev_b: int, modulus: int, sq: int) -> int:
    # unique b with b = -prev_b (mod |modulus|) in the interval (sq - |modulus|, sq]
    m = abs(modulus)
    r = (-prev_b) % m
    return sq - ((sq - r) % m)


def reduce_positive(f: QuadraticForm) -> ReductionTrace:
    """Walk contiguous forms for non-square D > 0 until a reduced form appears.

    The successor of (a, b, c) is (c, b1, c1) with b1 = -b (mod |c|) chosen in
    the interval (sqrt(D) - |c|, sqrt(D)); the walk stops when |c1| >= |c|,
    which is exactly when the new form is reduced.
    """
    d = f.determinant
    if d <= 0 or _is_square(d):
        raise DomainError("positive non-square determinant required")
    if is_reduced_positive(f):
        return ReductionTrace((f,))
    sq = isqrt(d)
    current = f
    chain = [current]
    while True:
        b1 = _pick_indefinite_b(current.b, current.c, sq)
        c1 = (b1 * b1 - d) // current.c
        nxt = QuadraticForm(current.c, b1, c1)
        chain.append(nxt)
        if abs(c1) >= abs(current.c):
            break
        current = nxt
    return ReductionTrace(tuple(chain))


def enumerate_reduced_negative(d: int, method: int = 1) -> tuple[QuadraticForm, ...]:
    """All reduced forms of determinant d < 0, sorted by (|a|, sign(a), b).

    method 1 scans leading coefficients and solves b^2 = d (mod a); method 2
    scans middle coefficients and factors b^2 - d.  Both return the same set.
    """
    if d >= 0:
        raise DomainError("negative determinant required")
    if method not in (1, 2):
        raise DomainError("method must be 1 or 2")
    out: list[QuadraticForm] = []
    if method == 1:
        for a in range(1, isqrt(-4 * d // 3) + 1):
            for r in sqrt_mod(d % a, a):
                for b in (r, r - a):
                    if 2 * abs(b) <= a:
                        c = (b * b - d) // a
                        if c >= a:
                            out.append(QuadraticForm(a, b, c))
    else:
        for b in range(-isqrt(-d // 3), isqrt(-d // 3) + 1):
            m = b * b - d
            # both factors of m must be >= 2|b|
            for a in range(max(1, 2 * abs(b)), isqrt(m) + 1):
                if m % a == 0:
                    out.append(QuadraticForm(a, b, m // a))
    out.extend([g.negated() for g in out])
    return tuple(sorted(out, key=lambda g: (abs(g.a), _sign(g.a), g.b)))


def enumerate_reduced_positive(d: int) -> tuple[QuadraticForm, ...]:
    """All reduced forms of non-square determinant d > 0, sorted by (|a|, sign(a), b)."""
    if d <= 0 or _is_square(d):
        raise DomainError("positive non-square determinant required")
    sq = isqrt(d)
    out: list[QuadraticForm] = []
    for a in range(1, isqrt(4 * d - 1) + 1):
        for r in sqrt_mod(d % a, a):
            b = sq - ((sq - r) % a)  # largest b = r (mod a) with b <= sq
            if b <= 0:
                continue
            if (a + b) ** 2 > d and (a <= b or (a - b) ** 2 < d):
                c = (b * b - d) // a
                out.append(QuadraticForm(a, b, c))
                out.append(QuadraticForm(-a, b, -c))
    return tuple(sorted(out, key=lambda g: (abs(g.a), _sign(g.a), g.b)))


def neighbor(f: QuadraticForm) -> QuadraticForm:
    """Successor of a reduced indefinite form: the unique reduced (c, b', c')."""
    if not is_reduced_positive(f):
        raise DomainError("neighbor steps are defined on reduced forms only")
    d = f.determinant
    b1 = _pick_indefinite_b(f.b, f.c, isqrt(d))
    return QuadraticForm(f.c, b1, (b1 * b1 - d) // f.c)


def period(f: QuadraticForm) -> Period:
    """Cycle of reduced forms reachable from f (reducing it first if needed)."""
    start = f if is_reduced_positive(f) else reduce_positive(f).result
    forms = [start]
    current = neighbor(start)
    while current != start:
        forms.append(current)
        current = neighbor(current)
    return Period(tuple(forms))


def properly_equivalent(f1: QuadraticForm, f2: QuadraticForm) -> bool:
    """Whether some substitution of determinant +1 carries f1 onto f2."""
    d = f1.determinant
    if d != f2.determinant:
        return False
    if d < 0:
        return reduce_negative(f1).result == reduce_negative(f2).result
    if _is_square(d):
        raise DomainError("square determinants are not supported")
    return reduce_positive(f2).result in period(f1)

"""Composition of binary quadratic forms.

compose_same_det composes forms of one determinant by Dirichlet's united
form: one extended gcd of a1, a2 and b1 + b2 and an integer formula for the
middle coefficient (Cohen, A Course in Computational Algebraic Number
Theory, 5.4).  On forms of content 1 it is the group law on classes.
class_multiples iterates it on a class, reducing after every step.  Two constructions of the paper stay alongside it:
compose_general, the full bilinear substitution (the 4x4 antisymmetric
matrix of coefficient products, substitution rows p, q from a seed vector
and a Bezout certificate, the composed form read off the closing relations),
which also composes forms whose determinants differ by a square factor; and
compose_prime_power, for leading coefficients that are powers of one prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .forms import QuadraticForm
from .numtheory import DomainError, abs_min_residue, bezout_chain, is_prime
from .reduction import reduce_negative

Vector = tuple[int, int, int, int]


@dataclass(frozen=True)
class BilinearSubstitution:
    """Rows (p, q) of the substitution X = p.(xx', xy', yx', yy'), Y = q.(...)."""

    p: Vector
    q: Vector
    n1: Fraction
    n2: Fraction
    m1: int
    m2: int

    def minor(self, i: int, j: int) -> int:
        return self.p[i] * self.q[j] - self.q[i] * self.p[j]

    @property
    def minors(self) -> tuple[int, int, int, int, int, int]:
        """The six 2x2 minors, index pairs (1,2), (1,3), (1,4), (2,3), (2,4), (3,4)."""
        return (
            self.minor(0, 1),
            self.minor(0, 2),
            self.minor(0, 3),
            self.minor(1, 2),
            self.minor(1, 3),
            self.minor(2, 3),
        )

    @property
    def k(self) -> int:
        return gcd(*self.minors)


def _fraction_sqrt(value: Fraction) -> Fraction | None:
    if value <= 0:
        return None
    num, den = isqrt(value.numerator), isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise DomainError(f"{what} is not integral; the forms cannot be composed directly")
    return value.numerator


def compose_general(
    f1: QuadraticForm,
    f2: QuadraticForm,
    q_seed: Vector = (-1, 0, 0, 0),
    bezout: Vector | None = None,
) -> tuple[QuadraticForm, BilinearSubstitution]:
    """Compose two forms whose determinant ratio is a rational square.

    Returns the composed form (middle coefficient normalized into [0, |A|))
    together with the bilinear substitution realizing f1*f2 = F.  q_seed picks
    the q row among the proportional columns of the minor matrix; bezout, when
    given, must certify q (sum of bezout[i]*q[i] equal to 1) and picks the p
    row.  Different choices change the substitution but never the class of F.
    """
    d1, d2 = f1.determinant, f2.determinant
    if d1 == 0 or d2 == 0:
        raise DomainError("composition requires nonzero determinants")
    if (d1 > 0) != (d2 > 0):
        raise DomainError("composition requires determinants of equal sign")
    m1, m2 = f1.content, f2.content
    big_d = (1 if d1 > 0 else -1) * gcd(d1 * m2 * m2, d2 * m1 * m1)
    n1 = _fraction_sqrt(Fraction(d1, big_d))
    n2 = _fraction_sqrt(Fraction(d2, big_d))
    if n1 is None or n2 is None:
        raise DomainError("determinant ratio is not a rational square")
    p_entry = _as_int(f1.a * n2, "a1*n2")
    q_entry = _as_int(f2.a * n1, "a2*n1")
    r_entry = _as_int(f1.b * n2 + f2.b * n1, "b1*n2 + b2*n1")
    s_entry = _as_int(f2.b * n1 - f1.b * n2, "b2*n1 - b1*n2")
    t_entry = _as_int(f2.c * n1, "c2*n1")
    u_entry = _as_int(f1.c * n2, "c1*n2")
    mat = (
        (0, p_entry, q_entry, r_entry),
        (-p_entry, 0, s_entry, t_entry),
        (-q_entry, -s_entry, 0, u_entry),
        (-r_entry, -t_entry, -u_entry, 0),
    )
    mq = tuple(sum(mat[i][j] * q_seed[j] for j in range(4)) for i in range(4))
    mu = gcd(*mq)
    if mu == 0:
        raise DomainError("seed vector annihilates the minor matrix")
    q = tuple(x // mu for x in mq)
    if bezout is None:
        g, bezout = bezout_chain(q)
        if g != 1:
            raise ArithmeticError(f"q = mq / {mu} still has content {g}")
    elif sum(bezout[i] * q[i] for i in range(4)) != 1:
        raise DomainError("bezout vector does not certify q")
    p = tuple(sum(mat[i][j] * bezout[j] for j in range(4)) for i in range(4))
    scale = n1 * n2
    a = _as_int(Fraction(q[1] * q[2] - q[0] * q[3]) / scale, "composed a")
    if a == 0:
        raise DomainError("seed vector produces a degenerate composite")
    double_b = _as_int(
        Fraction(p[0] * q[3] + q[0] * p[3] - p[1] * q[2] - q[1] * p[2]) / scale, "composed 2b"
    )
    if double_b % 2:
        raise DomainError("composed middle coefficient is not integral")
    b = double_b // 2
    b_norm = b % abs(a)
    t = (b_norm - b) // a
    p = tuple(p[i] - t * q[i] for i in range(4))
    c = (b_norm * b_norm - big_d) // a
    if b_norm * b_norm - a * c != big_d:
        raise ArithmeticError(f"composite ({a}, {b_norm}, {c}) misses determinant {big_d}")
    form = QuadraticForm(a, b_norm, c)
    return form, BilinearSubstitution(p, q, n1, n2, m1, m2)


def compose_same_det(f1: QuadraticForm, f2: QuadraticForm) -> QuadraticForm:
    """Compose primitive forms of one determinant D by Dirichlet's united form.

    With e = gcd(a1, a2, b1 + b2) = u*a1 + v*a2 + w*(b1 + b2), the composite
    is (A, B, C) with A = a1*a2/e^2, B = (u*a1*b2 + v*a2*b1 + w*(b1*b2 + D))/e
    reduced into [0, |A|) and C = (B^2 - D)/A (Cohen, A Course in
    Computational Algebraic Number Theory, 5.4, in the b^2 - ac convention).
    B = b1 (mod a1/e) and B = b2 (mod a2/e), and for forms of content 1 the
    class of the composite depends only on the classes of f1 and f2.
    """
    d = f1.determinant
    if d != f2.determinant:
        raise DomainError("compose_same_det requires equal determinants")
    if d == 0:
        raise DomainError("composition requires nonzero determinants")
    if f1.a == 0 or f2.a == 0:
        raise DomainError("leading coefficients must be nonzero")
    if not (f1.is_primitive and f2.is_primitive):
        raise DomainError("composition requires primitive forms")
    e, (u, v, w) = bezout_chain((f1.a, f2.a, f1.b + f2.b))
    a1, a2 = f1.a // e, f2.a // e
    a = a1 * a2
    b = (u * f1.a * f2.b + v * f2.a * f1.b + w * (f1.b * f2.b + d)) // e % abs(a)
    c = (b * b - d) // a
    if (b - f1.b) % a1 or (b - f2.b) % a2:
        raise ArithmeticError(f"middle coefficient {b} fails the congruences mod {a1}, {a2}")
    if b * b - a * c != d:
        raise ArithmeticError(f"composite ({a}, {b}, {c}) misses determinant {d}")
    return QuadraticForm(a, b, c)


def _prime_power_exponent(n: int, h: int) -> int:
    """Exponent e with n = h^e, or raise."""
    e = 0
    while n > 1:
        if n % h:
            raise DomainError(
                f"{n} is not a power of {h}; use compose_same_det for general leads"
            )
        n //= h
        e += 1
    return e


def compose_prime_power(f1: QuadraticForm, f2: QuadraticForm, h: int) -> QuadraticForm:
    """Compose forms whose leading coefficients are powers of the prime h.

    For leads h^chi, h^lambda (chi >= lambda after swapping) and s = b1 + b2
    with h^nu = gcd(h^lambda, s), the composite is (h^(chi+lambda-2nu), B, C)
    where B = b1 - B4*c1*h^(chi-nu) for any B4 with B4*s = h^nu (mod h^lambda);
    B is normalized to least absolute value, ties to the positive.
    """
    d = f1.determinant
    if d != f2.determinant:
        raise DomainError("compose_prime_power requires equal determinants")
    if not is_prime(h):
        raise DomainError("h must be prime")
    if not (f1.is_primitive and f2.is_primitive):
        raise DomainError("composition requires primitive forms")
    chi = _prime_power_exponent(f1.a, h)
    lam = _prime_power_exponent(f2.a, h)
    if chi < lam:
        f1, f2 = f2, f1
        chi, lam = lam, chi
    s = f1.b + f2.b
    if s == 0:
        nu = lam
        b4 = 0
    else:
        power = gcd(h**lam, s)
        nu = _prime_power_exponent(power, h)
        rest = h ** (lam - nu)
        b4 = 0 if rest == 1 else pow(s // power, -1, rest)
    a = h ** (chi + lam - 2 * nu)
    b = abs_min_residue(f1.b - b4 * f1.c * h ** (chi - nu), a) if a > 1 else 0
    c = (b * b - d) // a
    if b * b - a * c != d:
        raise ArithmeticError(f"composite ({a}, {b}, {c}) misses determinant {d}")
    return QuadraticForm(a, b, c)


def class_multiples(f: QuadraticForm, n_max: int) -> list[tuple[int, QuadraticForm]]:
    """Canonical reduced forms of the classes f, f^2, ..., f^n_max (negative det, content 1)."""
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    if f.determinant >= 0:
        raise DomainError("class multiples are implemented for negative determinants")
    if f.content != 1:
        raise DomainError("class multiples require a form of content 1")
    base = reduce_negative(f).result
    out = [(1, base)]
    acc = base
    for n in range(2, n_max + 1):
        acc = reduce_negative(compose_same_det(acc, base)).result
        out.append((n, acc))
    return out

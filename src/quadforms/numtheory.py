"""Exact integer arithmetic: gcd chains, residues, Jacobi symbols, primality, trial division.

Kernels and smoothness peel small primes by gcds against a cached product of
primes (Bernstein, "How to find smooth parts of integers", 2004) rather than
dividing by one prime at a time; see _strip.

Trial division stops at 2**16.  A part left with no prime factor that small
is split by _split_cofactor alone, with Shanks's square-form factorisation
(SQUFOF) for a composite below 2**64; factorizer runs the same _squfof.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod

__all__ = [
    "DomainError",
    "Factorization",
    "ext_gcd",
    "bezout_chain",
    "abs_min_residue",
    "isqrt",
    "jacobi",
    "sqrt_mod",
    "primes_upto",
    "is_prime",
    "is_smooth",
    "trial_factor",
    "full_factor",
    "squarefree_part",
    "iroot",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with a*u + b*v = g = gcd(|a|, |b|) >= 0.

    The coefficients are the ones produced by the classical remainder
    recursion on |a|, |b| with signs patched afterwards, so they are
    deterministic: ext_gcd(10, 3) == (1, 1, -3).
    """
    old_r, r = abs(a), abs(b)
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r == 0:
        return 0, 0, 0
    return old_r, (-old_u if a < 0 else old_u), (-old_v if b < 0 else old_v)


def bezout_chain(values: tuple[int, ...] | list[int]) -> tuple[int, tuple[int, ...]]:
    """Fold ext_gcd over values: (g, coeffs) with sum(c*v) = g = gcd(values) >= 0."""
    g = 0
    coeffs: list[int] = []
    for v in values:
        g_next, u, w = ext_gcd(g, v)
        coeffs = [c * u for c in coeffs]
        coeffs.append(w)
        g = g_next
    return g, tuple(coeffs)


def abs_min_residue(x: int, m: int) -> int:
    """Residue of x mod |m| with least absolute value; tie broken toward +|m|/2."""
    if m == 0:
        raise DomainError("modulus must be nonzero")
    m = abs(m)
    r = x % m
    if 2 * r > m:
        r -= m
    return r


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    if n < 1 or n % 2 == 0:
        raise DomainError(f"Jacobi symbol needs odd positive n, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# The one trial-division table: is_prime looks n up in the primes below this
# cap, sqrt_mod, full_factor and the sieve divide over them, and _primorial
# multiplies a slice of them, so every caller reads the one cached
# primes_upto(_TRIAL_CAP).  _split_cofactor takes what division leaves.
_TRIAL_CAP = 1 << 16


def sqrt_mod(a: int, m: int) -> tuple[int, ...]:
    """All x in [0, m) with x*x ≡ a (mod m), in ascending order, as a tuple.

    Method (Cohen, A Course in Computational Algebraic Number Theory, 1.5):
    split m into prime powers p**k by trial division, solve each part and
    glue the root sets by CRT.  For odd p not dividing a, Tonelli-Shanks
    gives a root mod p (pow(a, (p+1)/4, p) when p ≡ 3 mod 4) and Hensel
    lifting carries it to p**k; a unit mod 2**k has 1, 2 or 4 roots; when
    p | a, a = p**j * u with j even is solved through y*y ≡ u (mod p**(k-j)).

    Trial division runs over the primes below 2**16, the one table
    primes_upto(_TRIAL_CAP); a leftover with no prime factor that small is
    split by _split_cofactor, whose DomainError names its limit, so no
    modulus is ever scanned.
    """
    if m < 1:
        raise DomainError("modulus must be positive")
    a %= m
    roots = [0]
    done = 1  # roots holds every root mod done, the part of m solved so far
    r = m
    for p in primes_upto(_TRIAL_CAP):
        if p * p > r:  # r is 1 or a prime
            break
        if r % p == 0:
            pk = p
            r //= p
            while r % p == 0:
                r //= p
                pk *= p
            roots = _crt_roots(roots, done, _sqrt_mod_prime_power(a % pk, p, pk), pk)
            if not roots:
                return ()
            done *= pk
    if r > 1:
        for q, e in _split_cofactor(r):
            qe = q**e
            roots = _crt_roots(roots, done, _sqrt_mod_prime_power(a % qe, q, qe), qe)
            if not roots:
                return ()
            done *= qe
    return tuple(sorted(roots))


def _crt_roots(xs: list[int], m: int, ys: tuple[int, ...], n: int) -> list[int]:
    """Every z mod m*n with z ≡ x (mod m), z ≡ y (mod n), for coprime m, n."""
    if m == 1:
        return list(ys)
    inv = pow(m, -1, n)
    return [x + m * ((y - x) * inv % n) for x in xs for y in ys]


def _sqrt_mod_prime_power(a: int, p: int, pk: int) -> tuple[int, ...]:
    """The roots of x*x ≡ a (mod pk), in any order, for pk = p**k and 0 <= a < pk."""
    if a == 0:  # x*x ≡ 0 iff p**ceil(k/2) divides x
        step = p
        while step * step % pk:
            step *= p
        return tuple(range(0, pk, step))
    if a % p:
        return _sqrt_mod_unit(a, p, pk)
    # a = p**j * u with 0 < j < k and p ∤ u: x = p**(j/2) * y, y*y ≡ u (mod p**(k-j))
    pj = p
    while a % (pj * p) == 0:
        pj *= p
    half = isqrt(pj)
    if half * half != pj:  # j odd
        return ()
    q = pk // pj
    ys = _sqrt_mod_unit(a // pj % q, p, q)
    # y is needed mod p**(k - j/2) = q * half, so each root y0 mod q has half lifts
    return tuple(half * (y + t * q) for y in ys for t in range(half))


def _sqrt_mod_unit(a: int, p: int, pk: int) -> tuple[int, ...]:
    """The roots of x*x ≡ a (mod pk), in any order, for pk = p**k and a unit a."""
    if p == 2:
        if pk <= 4:
            return tuple(x for x in range(1, pk, 2) if x * x % pk == a)
        if a % 8 != 1:
            return ()
        # lift x*x ≡ a one bit at a time, from mod 8 up to mod pk
        x, bit = 1, 4
        while bit < pk // 2:
            if (x * x - a) % (bit * 4):
                x += bit
            bit *= 2
        h = pk // 2
        return x, pk - x, (x + h) % pk, (h - x) % pk
    x = _sqrt_mod_prime(a % p, p)
    if x is None:
        return ()
    # Newton's step x -= (x*x - a) / (2x) doubles the p-adic precision
    precision = p
    while precision < pk:
        precision = min(precision * precision, pk)
        x = (x - (x * x - a) * pow(2 * x, -1, precision)) % precision
    return x, pk - x


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A root of x*x ≡ a (mod p) for an odd prime p and 0 < a < p, or None."""
    if p % 4 == 3:
        x = pow(a, (p + 1) // 4, p)
        return x if x * x % p == a else None
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    # Tonelli-Shanks: p - 1 = q * 2**s with q odd, z a non-residue
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, x = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, x = t * c % p, x * b % p
    return x


@lru_cache(maxsize=32)
def primes_upto(bound: int) -> tuple[int, ...]:
    """Primes <= bound by sieve of Eratosthenes."""
    if bound < 2:
        return ()
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(compress(range(bound + 1), flags))


# Miller-Rabin bases: the first 13 primes.  Below each bound, the strong test
# to the first `count` of them is a proof of primality (Jaeschke, Math. Comp.
# 61, 1993; Sorenson & Webster, Math. Comp. 86, 2017).  The bound 2047 for the
# base 2 alone is left out: the prime table decides below 2**16.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BASE_PRODUCT = prod(_MR_BASES)
_MR_PROOF_BOUNDS = (
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)


def is_prime(n: int) -> bool:
    """Primality, proven: the prime table below 2**16, deterministic Miller-Rabin above.

    Below 2**16, n is looked up in primes_upto(_TRIAL_CAP).  From there up to
    the last bound of _MR_PROOF_BOUNDS (about 3.3e24) the strong test to the
    smallest sufficient set of prime bases decides.  At or above the last
    bound, a composite that fails one of the 13 bases gives False, and any
    other n raises DomainError naming the bound, so a True is never
    probabilistic and no call runs unbounded trial division.
    """
    if n <= _MR_BASES[-1]:
        return n in _MR_BASES
    if gcd(n, _MR_BASE_PRODUCT) != 1:
        return False
    if n < _TRIAL_CAP:  # n > 41 here, so the table holds a prime <= n
        table = primes_upto(_TRIAL_CAP)
        return table[bisect_right(table, n) - 1] == n
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for bound, count in _MR_PROOF_BOUNDS:
        if n < bound:
            break
    for a in _MR_BASES[:count]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= bound:
        raise DomainError(f"primality is proven only below {bound}; {n} passes all 13 bases")
    return True


@dataclass(frozen=True)
class Factorization:
    """sign * prod(p**e) * cofactor, primes strictly ascending, cofactor unfactored."""

    sign: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def value(self) -> int:
        return self.sign * prod(p**e for p, e in self.factors) * self.cofactor

    def __str__(self) -> str:
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors]
        if self.cofactor != 1 or not parts:
            parts.append(str(self.cofactor))
        body = " * ".join(parts)
        return f"-{body}" if self.sign < 0 else body


def trial_factor(n: int, bound: int = 1000) -> Factorization:
    """Strip primes <= bound from n.

    Every listed prime is <= bound; a leftover with no divisor up to its own
    square root is prime and listed when it fits under the bound, otherwise it
    stays as the cofactor (which therefore has no prime factor <= bound).
    """
    if n == 0:
        raise DomainError("0 has no factorization")
    if bound < 2:
        raise DomainError("trial division bound must be at least 2")
    sign, r = (-1, -n) if n < 0 else (1, n)
    factors: list[tuple[int, int]] = []
    for p in primes_upto(bound):
        if p * p > r:
            break
        e = 0
        while r % p == 0:
            r //= p
            e += 1
        if e:
            factors.append((p, e))
    cofactor = 1
    if r > 1:
        if r <= bound:
            factors.append((r, 1))
        else:
            cofactor = r
    return Factorization(sign, tuple(factors), cofactor)


def full_factor(n: int) -> Factorization:
    """Complete factorization: trial division below 2**16, then _split_cofactor.

    Division runs over the primes below 2**16, the one table
    primes_upto(_TRIAL_CAP).  A cofactor left after it has no prime factor
    that small and goes to _split_cofactor, which proves each part prime or
    raises DomainError naming its limit.
    """
    f = trial_factor(n, _TRIAL_CAP)
    if f.complete:
        return f
    return Factorization(f.sign, f.factors + _split_cofactor(f.cofactor), 1)


def _split_cofactor(r: int) -> tuple[tuple[int, int], ...]:
    """The prime powers (q, e) of r > 1, q ascending, for r prime or with no prime factor below 2**16.

    A part below _TRIAL_CAP**2 is then prime; a larger one is prime if is_prime
    proves it, whose DomainError beyond its proof bound passes through.  A
    perfect power is split by iroot, any other composite below
    _TRIAL_CAP**4 by _squfof, and the parts are split again.  A larger
    composite, or one SQUFOF does not split, raises DomainError.
    """
    if r < _TRIAL_CAP**2 or is_prime(r):
        return ((r, 1),)
    # r = q**k with q > 2**16 has more than 16*k bits
    for k in range(2, r.bit_length() // 16 + 1):
        q, exact = iroot(r, k)
        if exact:
            return tuple((p, e * k) for p, e in _split_cofactor(q))
    g = _squfof(r) if r < _TRIAL_CAP**4 else None
    if g is None:
        raise DomainError(
            f"{r} is composite with no prime factor below {_TRIAL_CAP}; such a part "
            f"is split only below {_TRIAL_CAP}**4, by SQUFOF within its step bounds"
        )
    parts: dict[int, int] = {}
    for q, e in _split_cofactor(g) + _split_cofactor(r // g):
        parts[q] = parts.get(q, 0) + e
    return tuple(sorted(parts.items()))


@lru_cache(maxsize=32)
def _primorial(bound: int) -> int:
    """The product of the primes <= bound, from the one table for bounds below 2**16."""
    table = primes_upto(max(bound, _TRIAL_CAP))
    return prod(table[: bisect_right(table, bound)])


def _strip(r: int, primorial: int) -> tuple[int, int]:
    """(kernel, rest) for r >= 1: r = kernel * s**2 * rest with rest coprime to primorial.

    kernel is the product of the primes of primorial that divide r to an odd
    power.  g = gcd(r, primorial) is the radical of that part of r; each pass
    divides it out and keeps in g the primes that still divide r, so the
    primes leaving g on the first, third, fifth ... pass have odd exponent.
    """
    kernel, odd = 1, True
    g = gcd(r, primorial)
    while g > 1:
        r //= g
        g_next = gcd(r, g)
        if odd:
            kernel *= g // g_next
        g, odd = g_next, not odd
    return kernel, r


def is_smooth(n: int, bound: int) -> bool:
    """True iff every prime factor of n is <= bound (n nonzero).

    The same answer as trial_factor(n, bound).complete.  n is peeled by gcds
    with the product of the primes up to min(bound, s), where s =
    2**ceil(bits/2) > sqrt|n|.  The rest has no prime factor up to that cut:
    if the cut is bound, it is 1 or not smooth, and if it is s, it is 1 or a
    prime, since s**2 > |n|.  Either way n is smooth iff the rest is at most
    bound.  The cut at s keeps a small n from paying a gcd with a large product.
    """
    if n == 0:
        raise DomainError("0 has no factorization")
    if bound < 2:
        raise DomainError("trial division bound must be at least 2")
    r = abs(n)
    s = 1 << (r.bit_length() + 1) // 2
    return _strip(r, _primorial(s if s < bound else bound))[1] <= bound


def squarefree_part(n: int) -> tuple[int, int]:
    """Split n = kernel * root**2 with kernel squarefree carrying the sign.

    The primes below 2**8 are peeled by gcds with their product.  A rest
    below 2**16 then has no prime factor up to its square root, so it is 1
    or a prime and joins the kernel.  Only when the rest is 2**16 or more is
    n factored, by full_factor, whose DomainError from _split_cofactor
    bounds the work.
    """
    if n == 0:
        raise DomainError("0 has no squarefree part")
    kernel, rest = _strip(abs(n), _primorial(isqrt(_TRIAL_CAP)))
    if rest < _TRIAL_CAP:
        kernel *= rest
    else:  # rare
        kernel = prod(p for p, e in full_factor(n).factors if e % 2)
    return (kernel if n > 0 else -kernel), isqrt(abs(n) // kernel)


def iroot(n: int, k: int) -> tuple[int, bool]:
    """(floor(n**(1/k)), exact?) for n >= 0, k >= 1, by integer Newton steps."""
    if n < 0 or k < 1:
        raise DomainError("iroot needs n >= 0, k >= 1")
    if n < 2 or k == 1:
        return n, True
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x, x**k == n


# the squarefree products of 3, 5, 7 and 11
_SQUFOF_MULTIPLIERS = (1, 3, 5, 7, 11, 15, 21, 33, 35, 55, 77, 105, 165, 231, 385, 1155)


def _square_form(
    n: int, k: int, state: tuple[int, int, int, int], bound: int
) -> tuple[int, int, int, int]:
    """Walk the principal cycle of det kN to the next proper square form or to form `bound`.

    state = (i, Q_i, P_i, Q_(i+1)) stands for form i = ((-1)^i Q_i, P_i,
    (-1)^(i+1) Q_(i+1)) of the cycle of (1, s, s^2 - kN), s = isqrt(kN), which
    is (0, 1, s, kN - s^2); each step is reduction._walk's, taken two at a
    time, so i and bound are even.  The walk stops at the first form i whose
    lead Q_i = r^2 is a proper square, or at i = bound.  A square is improper
    when r = Q_j / gcd(Q_j, 2k) for a lead Q_j met on the way: its square root
    then lies in the class of a form whose lead divides 2k, so its ambiguous
    form gives only a trivial factor (Gower & Wagstaff's queue).
    """
    # steps are fused here and in _ambiguous_form, not drawn from _walk: on 56
    # semiprimes of 32 to 56 bits a bare _walk step took 425 ns and a step of
    # this loop 254 ns (Python 3.11.7), and SQUFOF is most of factor's time
    kn = k * n
    s = isqrt(kn)
    # leads stay below 2s, so a root r is at most isqrt(2s)
    small = 2 * k * isqrt(2 * s)
    improper: set[int] = set()
    i, q0, p, q = state
    for i in range(i + 2, bound + 1, 2):
        # odd step: form i-1 is (-Q_(i-1), P_(i-1), Q_i) = (-q, p1, q0)
        b = (s + p) // q
        p1 = b * q - p
        q0 += b * (p - p1)
        if q < small:
            improper.add(q // gcd(q, 2 * k))
        # even step: form i is (Q_i, P_i, -Q_(i+1)) = (q0, p, -q)
        b = (s + p1) // q0
        p = b * q0 - p1
        q += b * (p1 - p)
        if q0 < small:
            improper.add(q0 // gcd(q0, 2 * k))
        r = isqrt(q0)
        if r * r == q0 and r not in improper:
            break
    return i, q0, p, q


def _ambiguous_form(kn: int, r: int, p: int, bound: int) -> tuple[int, int, int] | None:
    """From the square form (r^2, p, .) of det kn, the first ambiguous form of the
    cycle of its inverse square root (r, -p, .), as (Q, P, Q'); None after `bound` steps.

    The walk starts at (r, P, (P^2 - kn)/r), the same class with P = -p (mod r)
    in (s - r, s], and steps like _square_form until a step keeps P: the form
    reached is then (±Q, P, ∓Q') with Q | 2P.
    """
    s = isqrt(kn)
    p = s - (s + p) % r
    q0, q = r, (kn - p * p) // r
    for _ in range(bound):
        b = (s + p) // q
        p1 = b * q - p
        if p1 == p:
            return q, p, q0
        q0, q, p = q, q0 + b * (p - p1), p1
    return None


def _squfof(n: int, bound: int | None = None) -> int | None:
    """A proper factor of n by square-form factorisation, or None.

    Shanks's SQUFOF (Gower & Wagstaff, Math. Comp. 77, 2008): for each
    multiplier k, walk the principal cycle of det kN to a proper square form,
    then the cycle of its inverse square root to an ambiguous form, whose lead
    shares a factor with N or not; then go on to the next multiplier.  Each of
    the two walks takes at most `bound` steps (an even number), by default
    3 * 2 * isqrt(2 * isqrt(n)), so no multiplier takes more than 2 * bound.
    A factor is checked by division before it is returned.
    """
    if bound is None:
        bound = 6 * isqrt(2 * isqrt(n))
    for k in _SQUFOF_MULTIPLIERS:
        kn = k * n
        s = isqrt(kn)
        if s * s == kn:
            g = gcd(s, n)
        else:
            i, q0, p, _ = _square_form(n, k, (0, 1, s, kn - s * s), bound)
            found = _ambiguous_form(kn, isqrt(q0), p, bound) if i < bound else None
            g = 1 if found is None else gcd(found[0], n)
        if 1 < g < n:
            if n % g:
                raise DomainError(f"SQUFOF found {g}, which does not divide {n}")
            return g
    return None

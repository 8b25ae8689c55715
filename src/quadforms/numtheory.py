"""Exact integer arithmetic: gcd chains, residues, Jacobi symbols, primality, trial division.

Kernels and smoothness peel small primes by gcds against a cached product of
primes (Bernstein, "How to find smooth parts of integers", 2004) rather than
dividing by one prime at a time; see _strip.
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
# primes_upto(_TRIAL_CAP).
_TRIAL_CAP = 1 << 16


def sqrt_mod(a: int, m: int) -> tuple[int, ...]:
    """All x in [0, m) with x*x ≡ a (mod m), in ascending order, as a tuple.

    Method (Cohen, A Course in Computational Algebraic Number Theory, 1.5):
    split m into prime powers p**k by trial division, solve each part and
    glue the root sets by CRT.  For odd p not dividing a, Tonelli-Shanks
    gives a root mod p (pow(a, (p+1)/4, p) when p ≡ 3 mod 4) and Hensel
    lifting carries it to p**k; a unit mod 2**k has 1, 2 or 4 roots; when
    p | a, a = p**j * u with j even is solved through y*y ≡ u (mod p**(k-j)).

    Size cap: trial division runs over the primes below 2**16, the one table
    primes_upto(_TRIAL_CAP).  The leftover is accepted when it is below 2**32
    (it is then prime) or when it is q**k for a q that is_prime proves prime
    (k found by iroot); any other modulus raises DomainError naming the cap,
    so no modulus is ever scanned.
    """
    if m < 1:
        raise DomainError("modulus must be positive")
    a %= m
    roots = [0]
    done = 1  # roots holds every root mod done, the part of m solved so far
    r = m
    for p in primes_upto(_TRIAL_CAP):
        if p * p > r:  # r is 1 or a prime
            p = r
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
    else:  # no prime below the cap divides r, so r is prime if below the cap squared
        p = r if r < _TRIAL_CAP**2 else _proven_prime_root(r)
        if p is None:
            raise DomainError(
                f"sqrt_mod factors its modulus by trial division up to {_TRIAL_CAP}; "
                f"{m} leaves {r}, which is at least {_TRIAL_CAP}**2 "
                "and not a power of a proven prime"
            )
    if r > 1:
        roots = _crt_roots(roots, done, _sqrt_mod_prime_power(a % r, p, r), r)
    return tuple(sorted(roots))


def _proven_prime_root(n: int) -> int | None:
    """The prime q with n = q**k when is_prime proves q prime, else None.

    For n with no prime factor up to 2**16, so that q**k > 2**(16k) bounds k.
    """
    for k in range(1, n.bit_length() // 16 + 1):
        q, exact = iroot(n, k)
        try:
            if exact and is_prime(q):
                return q
        except DomainError:  # beyond the proof bound of is_prime
            pass
    return None


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


def _full_bound(n: int) -> int:
    """Trial-division bound for a complete factorization of n.

    Division stops at p*p > r, and a leftover with no divisor up to its square
    root is prime, so every bound above sqrt(|n|) gives the same factorization.
    """
    return 1 << (isqrt(abs(n)) + 1).bit_length()


def full_factor(n: int) -> Factorization:
    """Complete factorization by trial division (n of desk scale).

    Division runs first over the primes below 2**16, the one table
    primes_upto(_TRIAL_CAP).  A cofactor of at least 2**32 has no prime
    factor that small and may be composite: it is accepted when it is q**k
    for a q that is_prime proves prime, and otherwise divided again over a
    table sized by it, which must be at most 2**24 (a cofactor below about
    2**48).  A larger composite cofactor raises DomainError naming that limit.
    """
    f = trial_factor(n, _TRIAL_CAP)
    factors, r = f.factors, f.cofactor
    if r >= _TRIAL_CAP**2:
        q = _proven_prime_root(r)
        if q is not None:
            k = 0
            while r > 1:
                r //= q
                k += 1
            factors += ((q, k),)
        elif (bound := _full_bound(r)) > 1 << 24:
            raise DomainError(
                f"full_factor divides a cofactor by primes up to {1 << 24} at most; "
                f"{n} leaves {r}, which needs primes up to {bound} "
                "and is not a power of a proven prime"
            )
        else:
            g = trial_factor(r, bound)
            factors, r = factors + g.factors, g.cofactor
    if r > 1:  # r survived division by every prime up to its square root
        factors += ((r, 1),)
    return Factorization(f.sign, factors, 1)


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
    n factored, by full_factor, whose DomainError bounds the work.
    """
    if n == 0:
        raise DomainError("0 has no squarefree part")
    kernel, rest = _strip(abs(n), _primorial(isqrt(_TRIAL_CAP)))
    if rest < _TRIAL_CAP:
        kernel *= rest
    else:  # rare; factoring n itself keeps full_factor's error naming n
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

"""Exact integer arithmetic: gcd chains, residues, Jacobi symbols, primality, trial division."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod

__all__ = [
    "DomainError",
    "SmoothnessError",
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


class SmoothnessError(DomainError):
    """An integer did not factor completely within the requested bound."""


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


def sqrt_mod(a: int, m: int) -> tuple[int, ...]:
    """All x in [0, m) with x*x ≡ a (mod m), ascending. Exhaustive scan, O(m)."""
    if m < 1:
        raise DomainError("modulus must be positive")
    a %= m
    return tuple(x for x in range(m) if (x * x - a) % m == 0)


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
    return tuple(i for i, f in enumerate(flags) if f)


# Miller-Rabin bases: the first 13 primes.  Below each bound, the strong test
# to the first `count` of them is a proof of primality (Jaeschke, Math. Comp.
# 61, 1993; Sorenson & Webster, Math. Comp. 86, 2017).  The bound 2047 for the
# base 2 alone is left out: trial division decides below 2**16.
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
# Below this, trial division up to sqrt(n) is faster than two modular powers.
_TRIAL_DIVISION_BELOW = 1 << 16


def is_prime(n: int) -> bool:
    """Primality, proven: deterministic Miller-Rabin, with trial division below 2**16.

    From 2**16 up to the last bound of _MR_PROOF_BOUNDS (about 3.3e24) the
    strong test to the smallest sufficient set of prime bases decides.  Below
    2**16, trial division up to sqrt(n) is faster.  At or above the last
    bound, a composite that fails one of the 13 bases gives False, and any
    other n raises DomainError naming the bound, so a True is never
    probabilistic and no call runs unbounded trial division.
    """
    if n <= _MR_BASES[-1]:
        return n in _MR_BASES
    if gcd(n, _MR_BASE_PRODUCT) != 1:
        return False
    if n >= _TRIAL_DIVISION_BELOW:
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
    d = 43  # the primes up to 41 were ruled out above
    while d * d <= n:
        if n % d == 0 or n % (d + 4) == 0:
            return False
        d += 6
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
    Rounding up to a power of two keeps primes_upto to a few dozen cache keys.
    """
    return 1 << (isqrt(abs(n)) + 1).bit_length()


def full_factor(n: int) -> Factorization:
    """Complete factorization by trial division (n of desk scale)."""
    f = trial_factor(n, _full_bound(n))
    if f.complete:
        return f
    # the cofactor survived division by everything up to its square root
    return Factorization(f.sign, f.factors + ((f.cofactor, 1),), 1)


def is_smooth(n: int, bound: int) -> bool:
    """True iff every prime factor of n is <= bound (n nonzero).

    trial_factor(n, bound).complete without building the Factorization.  The
    answer is known once the leftover r is at most bound (its prime factors
    are at most r) or once p*p > r (r is then 1 or a prime).
    """
    if n == 0:
        raise DomainError("0 has no factorization")
    if bound < 2:
        raise DomainError("trial division bound must be at least 2")
    r = abs(n)
    for p in primes_upto(bound):
        if p * p > r:
            break
        if r % p == 0:
            r //= p
            while r % p == 0:
                r //= p
            if r <= bound:
                return True
    return r <= bound


def squarefree_part(n: int, bound: int | None = None) -> tuple[int, int]:
    """Split n = kernel * cofactor**2 with kernel squarefree carrying the sign.

    With bound=None the factorization is forced complete; an explicit bound
    raises SmoothnessError when the part of n left over after trial division
    is neither a certified prime nor a perfect square.
    """
    if n == 0:
        raise DomainError("0 has no squarefree part")
    limit = max(bound if bound is not None else _full_bound(n), 2)
    f = trial_factor(n, limit)
    kernel = f.sign
    root = 1
    for p, e in f.factors:
        if e % 2:
            kernel *= p
        root *= p ** (e // 2)
    r = f.cofactor
    if r > 1:
        if r <= limit * limit:
            kernel *= r  # no divisor up to sqrt(r): prime, and squarefree
        else:
            s = isqrt(r)
            if s * s != r:
                raise SmoothnessError(f"{n} does not factor over primes <= {limit}")
            root *= s
    return kernel, root


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

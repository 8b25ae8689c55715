"""Integer-arithmetic layer: gcd chains, symbols, modular roots, trial division."""

from __future__ import annotations

import time
from math import gcd, isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadforms.numtheory import (
    DomainError,
    Factorization,
    SmoothnessError,
    abs_min_residue,
    bezout_chain,
    ext_gcd,
    full_factor,
    iroot,
    is_prime,
    is_smooth,
    jacobi,
    primes_upto,
    sqrt_mod,
    squarefree_part,
    trial_factor,
)

ints = st.integers(min_value=-(10**6), max_value=10**6)
small_nonzero = st.integers(min_value=-(10**5), max_value=10**5).filter(lambda n: n != 0)
moduli = st.integers(min_value=1, max_value=10**6)


def brute_jacobi(a: int, n: int) -> int:
    # product of Legendre symbols over the prime factorization of n
    result = 1
    for p, e in full_factor(n).factors:
        if e % 2 == 0:
            if a % p == 0:
                return 0
            continue
        if a % p == 0:
            return 0
        legendre = 1 if any(x * x % p == a % p for x in range(1, p)) else -1
        result *= legendre
    return result


# --- ext_gcd / bezout_chain ---


def test_ext_gcd_pinned_values():
    assert ext_gcd(1, 0) == (1, 1, 0)
    assert ext_gcd(10, 3) == (1, 1, -3)
    assert ext_gcd(0, 0) == (0, 0, 0)


@given(ints, ints)
def test_ext_gcd_identity(a, b):
    g, u, v = ext_gcd(a, b)
    assert g == gcd(a, b)
    assert a * u + b * v == g


@given(st.lists(ints, min_size=1, max_size=6))
def test_bezout_chain_identity(values):
    g, coeffs = bezout_chain(values)
    assert g == gcd(*values) if len(values) > 1 else g == abs(values[0])
    assert sum(c * v for c, v in zip(coeffs, values)) == g
    assert len(coeffs) == len(values)


# --- abs_min_residue ---


def test_abs_min_residue_pinned_values():
    assert abs_min_residue(-12, 5) == -2
    assert abs_min_residue(-217, 155) == -62
    # exact half goes to +m/2, never -m/2
    assert abs_min_residue(5, 10) == 5
    assert abs_min_residue(-3, 6) == 3


@given(st.integers(min_value=-(10**9), max_value=10**9), moduli)
def test_abs_min_residue_is_smallest_representative(x, m):
    r = abs_min_residue(x, m)
    assert (x - r) % m == 0
    assert 2 * abs(r) <= m
    if 2 * abs(r) == m:
        assert r > 0


# --- jacobi ---


def test_jacobi_pinned_values():
    assert jacobi(10, 7) == -1
    assert jacobi(10, 23) == -1
    assert jacobi(0, 1) == 1
    assert jacobi(14, 21) == 0


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(DomainError):
        jacobi(3, 10)
    with pytest.raises(DomainError):
        jacobi(3, -7)
    with pytest.raises(DomainError):
        jacobi(3, 0)


def test_jacobi_matches_legendre_for_small_primes():
    for p in primes_upto(200):
        if p == 2:
            continue
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert jacobi(a, p) == expected, (a, p)


@given(ints, ints, st.integers(min_value=0, max_value=500))
def test_jacobi_multiplicative_in_numerator(a, b, k):
    n = 2 * k + 1
    assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


@given(ints, st.integers(min_value=0, max_value=100), st.integers(min_value=0, max_value=100))
def test_jacobi_multiplicative_in_denominator(a, j, k):
    m, n = 2 * j + 1, 2 * k + 1
    assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)


# --- sqrt_mod ---


def test_sqrt_mod_pinned_values():
    assert list(sqrt_mod(-85, 2)) == [1]
    assert list(sqrt_mod(0, 1)) == [0]
    assert list(sqrt_mod(-85, 10)) == [5]
    assert list(sqrt_mod(2, 7)) == [3, 4]
    assert list(sqrt_mod(3, 7)) == []


@given(st.integers(min_value=-500, max_value=500), st.integers(min_value=1, max_value=200))
def test_sqrt_mod_is_exhaustive_and_sorted(a, m):
    roots = list(sqrt_mod(a, m))
    assert roots == sorted(x for x in range(m) if (x * x - a) % m == 0)


# --- primality / trial division ---


def test_is_prime_small_table():
    known = set(primes_upto(2 * 10**5))
    for n in range(-3, 2 * 10**5):
        assert is_prime(n) == (n in known)


def test_is_prime_rejects_pseudoprimes():
    # strong pseudoprimes to the first 4, 9 and 12 prime bases, then Carmichael numbers
    for n in (3215031751, 3825123056546413051, 318665857834031151167461, 561, 41041):
        assert not is_prime(n)


def test_is_prime_mersenne_61_is_fast():
    t0 = time.perf_counter()
    assert is_prime(2**61 - 1)
    assert not is_prime((2**61 - 1) * (2**31 - 1))
    assert time.perf_counter() - t0 < 1.0


def test_is_prime_refuses_beyond_the_proof_bound():
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="proven only below 3317044064679887385961981"):
        is_prime(2**89 - 1)
    assert time.perf_counter() - t0 < 1.0
    # 1287836182261 * 2575672364521, a strong pseudoprime to all 13 bases
    with pytest.raises(DomainError, match="proven only below 3317044064679887385961981"):
        is_prime(3317044064679887385961981)
    # just below the bound, and a composite above it that fails a base, are decided
    assert is_prime(3317044064679887385961981 - 168)
    assert not is_prime((2**89 - 1) * (2**61 - 1))


def test_trial_factor_pinned_values():
    f = trial_factor(-715, 100)
    assert (f.sign, f.factors, f.cofactor) == (-1, ((5, 1), (11, 1), (13, 1)), 1)
    assert f.complete and f.value() == -715
    assert str(f) == "-5 * 11 * 13"

    assert trial_factor(1, 2) == Factorization(1, (), 1)
    assert trial_factor(1, 2).complete

    f = trial_factor(997331, 100)
    assert not f.complete
    assert f.factors == () and f.cofactor == 997331

    # default bound is 1000: strips 127 but the rough 7853 stays a cofactor
    f = trial_factor(997331)
    assert (f.factors, f.cofactor) == (((127, 1),), 7853)
    assert str(full_factor(997331)) == "127 * 7853"


def test_trial_factor_rejects_zero_and_tiny_bounds():
    with pytest.raises(DomainError):
        trial_factor(0, 10)
    with pytest.raises(DomainError):
        trial_factor(12, 1)


@given(small_nonzero, st.integers(min_value=2, max_value=1000))
def test_trial_factor_invariants(n, bound):
    f = trial_factor(n, bound)
    assert f.value() == n
    assert f.sign == (1 if n > 0 else -1)
    primes = [p for p, _ in f.factors]
    assert primes == sorted(set(primes))
    assert all(is_prime(p) for p in primes)
    assert all(p <= bound for p in primes)
    assert all(e >= 1 for _, e in f.factors)
    assert f.cofactor >= 1
    if f.cofactor > 1:
        assert all(f.cofactor % p for p in primes_upto(bound))


@given(small_nonzero)
def test_full_factor_is_complete(n):
    f = full_factor(n)
    assert f.complete
    assert f.value() == n
    primes = [p for p, _ in f.factors]
    assert primes == sorted(set(primes))
    assert all(is_prime(p) for p in primes)


def test_is_smooth():
    assert is_smooth(720, 5)
    assert not is_smooth(721, 5)  # 7 * 103
    assert is_smooth(-102, 17)
    assert not is_smooth(-102, 13)
    with pytest.raises(DomainError):
        is_smooth(0, 100)
    with pytest.raises(DomainError):
        is_smooth(12, 1)


def next_prime(n: int) -> int:
    """Smallest prime > n."""
    n += 1
    while not is_prime(n):
        n += 1
    return n


@st.composite
def smoothness_cases(draw):
    """(n, bound): a signed product of primes <= bound, an arbitrary factor,
    and bound itself, the prime q just above bound, q^2 or q times the next prime."""
    bound = draw(st.one_of(st.sampled_from((2, 3, 10, 100, 1000)), st.integers(min_value=2, max_value=2000)))
    q = next_prime(bound)
    smooth = prod(draw(st.lists(st.sampled_from(primes_upto(bound)), max_size=8)))
    other = draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=10**6)))
    edge = draw(st.sampled_from((1, bound, q, q * q, q * next_prime(q))))
    sign = draw(st.sampled_from((1, -1)))
    return sign * smooth * other * edge, bound


@given(smoothness_cases())
@example((1, 2))
@example((-1, 2))
@example((-8, 2))
@example((9, 2))
@example((121, 10))  # 11^2, the prime just above bound squared
@example((-11 * 8, 10))
@example((10, 10))
@settings(max_examples=300)
def test_is_smooth_matches_trial_factor(case):
    n, bound = case
    assert is_smooth(n, bound) == trial_factor(n, bound).complete


# --- squarefree_part ---


def test_squarefree_part_pinned_values():
    assert squarefree_part(325) == (13, 5)
    assert squarefree_part(-918) == (-102, 3)
    assert squarefree_part(1) == (1, 1)
    assert squarefree_part(-1) == (-1, 1)
    assert squarefree_part(144) == (1, 12)


def test_squarefree_part_bounded():
    # 998 = 2 * 499; 499 <= 31*31 certifies itself prime
    assert squarefree_part(998, 31) == (998, 1)
    # rough square cofactor is absorbed into the root
    assert squarefree_part(4 * 101 * 101, 10) == (1, 202)
    # rough non-square leftover is a genuine smoothness failure
    with pytest.raises(SmoothnessError):
        squarefree_part(101 * 103, 5)
    with pytest.raises(DomainError):
        squarefree_part(0)


@given(small_nonzero)
def test_squarefree_part_reassembles(n):
    kernel, root = squarefree_part(n)
    assert kernel * root * root == n
    assert all(e == 1 for _, e in full_factor(kernel).factors)


# --- iroot ---


def test_iroot_pinned_values():
    assert iroot(0, 3) == (0, True)
    assert iroot(997331, 2) == (998, False)
    assert iroot(27, 3) == (3, True)
    assert iroot(28, 3) == (3, False)
    with pytest.raises(DomainError):
        iroot(-4, 2)
    with pytest.raises(DomainError):
        iroot(4, 0)


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=6))
def test_iroot_bounds(n, k):
    r, exact = iroot(n, k)
    assert r**k <= n < (r + 1) ** k
    assert exact == (r**k == n)


# --- isqrt passthrough used throughout the package ---


def test_isqrt_examples():
    assert isqrt(997331) == 998
    assert isqrt(1994662) == 1412

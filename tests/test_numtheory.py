"""Integer-arithmetic layer: gcd chains, symbols, modular roots, trial division."""

from __future__ import annotations

import time
from math import gcd, isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadforms import numtheory
from quadforms.numtheory import (
    DomainError,
    Factorization,
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


def test_sqrt_mod_matches_a_squares_table_below_512():
    for m in range(1, 512):
        table: dict[int, list[int]] = {}
        for x in range(m):
            table.setdefault(x * x % m, []).append(x)
        for a in range(m):
            assert sqrt_mod(a, m) == tuple(table.get(a, ())), (a, m)


_ODD_PRIMES = primes_upto(300)[1:]


@st.composite
def moduli_with_p_adic_residues(draw):
    """(a, m): m = p**k or 2**i * p**k * q up to 2**16, a divisible by a power of p."""
    p = draw(st.sampled_from(_ODD_PRIMES))
    if draw(st.booleans()):
        top = 1
        while p ** (top + 1) <= 1 << 16:
            top += 1
        k = draw(st.integers(min_value=1, max_value=top))
        m = p**k
    else:
        i = draw(st.integers(min_value=0, max_value=6))  # leaves room for q >= 3
        top = 1
        while (2**i) * p ** (top + 1) * 3 <= 1 << 16:
            top += 1
        k = draw(st.integers(min_value=1, max_value=top))
        room = (1 << 16) // (2**i * p**k)
        q = draw(st.sampled_from([q for q in _ODD_PRIMES if q <= room]))
        m = 2**i * p**k * q
    e = draw(st.integers(min_value=0, max_value=k + 1))
    u = draw(st.integers(min_value=0, max_value=m - 1))
    return p**e * u % m, m


@given(moduli_with_p_adic_residues())
@settings(max_examples=60)
@example((0, 3**10))
@example((3**4 * 2, 3**10))
@example((3**3 * 7, 3**10))
@example((2**6 * 17, 2**8 * 5**2 * 7))
def test_sqrt_mod_on_prime_powers_and_products(case):
    a, m = case
    assert sqrt_mod(a, m) == tuple(x for x in range(m) if x * x % m == a)


def test_sqrt_mod_refuses_a_modulus_beyond_the_cap():
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="trial division up to 65536; 1000036000099 leaves"):
        sqrt_mod(2, 1000003 * 1000033)
    # a prime leftover is solved, by pow(a, (p+1)/4, p) since 2**61 - 1 ≡ 3 (mod 4)
    assert sqrt_mod(4, 2**61 - 1) == (2, 2**61 - 3)
    big = 2**61 - 1
    assert sqrt_mod(4, 3 * big) == (2, big - 2, 2 * big + 2, 3 * big - 2)
    assert time.perf_counter() - t0 < 1.0


def test_sqrt_mod_solves_a_prime_power_leftover():
    t0 = time.perf_counter()
    q = 65537  # the least prime above the trial-division cap
    assert sqrt_mod(4, q**2) == (2, q**2 - 2)
    m = 3 * q**2
    roots = sqrt_mod(4, m)
    assert roots == (2, 4295098367, 8590196740, m - 2)
    assert all(x * x % m == 4 for x in roots)
    # iroot finds q from q**4 after rejecting the composite square root q**2
    assert sqrt_mod(4, q**4) == (2, q**4 - 2)
    assert sqrt_mod(0, q**3) == tuple(range(0, q**3, q**2))
    with pytest.raises(DomainError, match="not a power of a proven prime"):
        sqrt_mod(2, (1000003 * 1000033) ** 2)
    assert time.perf_counter() - t0 < 1.0


# --- primality / trial division ---


def test_is_prime_small_table():
    # is_prime reads primes_upto below 2**16, so there a divisor scan is the oracle
    known = set(primes_upto(2 * 10**5))
    for n in range(-3, 2 * 10**5):
        if n < numtheory._TRIAL_CAP + 100:
            expected = n > 1 and all(n % d for d in range(2, isqrt(n) + 1))
        else:
            expected = n in known
        assert is_prime(n) == expected


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


def test_full_factor_sizes_its_table_by_the_cofactor(monkeypatch):
    # _full_bound would size tables of 2**40, 2**47 and 2**37 entries by n itself
    asked = []
    real = numtheory.primes_upto
    monkeypatch.setattr(numtheory, "primes_upto", lambda b: asked.append(b) or real(b))
    assert full_factor(101**12).factors == ((101, 12),)
    assert full_factor(2**60 * 101**5).factors == ((2, 60), (101, 5))
    assert squarefree_part(101**11) == (101, 101**5)
    # a composite cofactor of 2**32 or more is divided again over a table sized by it
    assert full_factor(-3 * 65537 * 65539).factors == ((3, 1), (65537, 1), (65539, 1))
    assert max(asked) == 1 << 17


def test_full_factor_proves_a_prime_cofactor_and_bounds_a_composite_one(monkeypatch):
    asked = []
    real = numtheory.primes_upto
    monkeypatch.setattr(numtheory, "primes_upto", lambda b: asked.append(b) or real(b))
    t0 = time.perf_counter()
    # is_prime proves the cofactor, where a table up to its square root would hold 2**31 entries
    big = 2**61 - 1
    assert full_factor(3 * big).factors == ((3, 1), (big, 1))
    assert full_factor(-(65537**3) * 5).factors == ((5, 1), (65537, 3))
    # a composite cofactor that needs primes beyond 2**24 is refused, not scanned
    with pytest.raises(DomainError, match="primes up to 16777216 at most; .* needs primes up to 2147483648"):
        full_factor((2**31 - 1) * (2**31 - 19))
    assert time.perf_counter() - t0 < 1.0
    assert max(asked) == 1 << 16


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


# every prime from 2**8 to 2**16, so that a peel by the primes below 2**8 leaves it
MIDDLE_PRIMES = primes_upto(1 << 16)[len(primes_upto(1 << 8)) :]


@st.composite
def peel_cases(draw):
    """A signed product of primes <= 2**8 to exponents up to 6, times 1, a prime
    in (2**8, 2**16), 257 * 263, a power of 65537 or 2**31 - 1."""
    powers = draw(st.lists(st.tuples(st.sampled_from(primes_upto(1 << 8)), st.integers(1, 6)), max_size=6))
    rest = draw(
        st.one_of(
            st.just(1),
            st.sampled_from(MIDDLE_PRIMES),
            st.just(257 * 263),
            st.sampled_from((65537, 65537**2, 65537**3)),
            st.just(2**31 - 1),
        )
    )
    sign = draw(st.sampled_from((1, -1)))
    return sign * prod(p**e for p, e in powers) * rest


@given(peel_cases(), st.sampled_from((251, 256, 257, 1 << 16, (1 << 16) + 1)))
@example(2**60 * 3**7, 3)  # sixty passes of the peel
@example(-(251**9) * 257**4, 256)
@example(251**9 * 257**4, 257)
@example(65537**3 * 7**5, 1 << 16)
@example(65537**3 * 7**5, (1 << 16) + 1)
@example(65521, 1 << 16)  # the peel stops at 2**8 and leaves a prime at most bound
@example(-65537, 1 << 16)  # ... or a prime above it
@example(257 * 263, 300)  # the peel must reach sqrt|n| to leave a prime
@example(1, 2)
@settings(max_examples=200)
def test_is_smooth_matches_trial_factor_at_the_peel_bounds(n, bound):
    assert is_smooth(n, bound) == trial_factor(n, bound).complete


# --- squarefree_part ---


def test_squarefree_part_pinned_values():
    assert squarefree_part(325) == (13, 5)
    assert squarefree_part(-918) == (-102, 3)
    assert squarefree_part(1) == (1, 1)
    assert squarefree_part(-1) == (-1, 1)
    assert squarefree_part(144) == (1, 12)
    with pytest.raises(DomainError):
        squarefree_part(0)
    # a rest beyond full_factor's limit raises its error, which names n itself
    n = 7 * (2**31 - 1) * (2**31 - 19)
    with pytest.raises(DomainError, match=f"; {n} leaves {n // 7},"):
        squarefree_part(n)


@given(small_nonzero)
def test_squarefree_part_reassembles(n):
    kernel, root = squarefree_part(n)
    assert kernel * root * root == n
    assert all(e == 1 for _, e in full_factor(kernel).factors)


@given(peel_cases())
@example(251**2 * 257)
@example(65521)  # the largest prime below 2**16 is left whole by the peel
@example(-257 * 263)  # a rest of 2**16 or more goes through full_factor
@example(3 * 257**2)  # a square rest is not a prime
@example(2**40 * 3**25)
def test_squarefree_part_matches_full_factor(n):
    f = full_factor(n)
    kernel = f.sign * prod(p for p, e in f.factors if e % 2)
    root = prod(p ** (e // 2) for p, e in f.factors)
    assert squarefree_part(n) == (kernel, root)


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

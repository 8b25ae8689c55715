"""Factoring integers through quadratic residues harvested from forms.

Every residue collected here is a small number r with x^2 = r (mod M) for
some known or deducible x.  Three harvests produce them: leading coefficients
along the period of (1, floor(sqrt(kM)), ...), smooth values of k*x^2 - M near
sqrt(M/k), and outer coefficients of reduced powers of a class of determinant
-kM.  A raw value sharing a prime with M splits it by a gcd; otherwise every
odd prime p <= limit for which no kernel is a non-residue mod p survives the
sieve.  True prime factors of M always survive, so trial division over the
survivors (and recursion on the quotient) finishes the job.

The Jacobi symbol is multiplicative, so a product of kernels can exclude a
prime its factors let through only when that prime divides one of them, and
never a prime of M: combine's GF(2) elimination could at most remove
pseudo-survivors from the sieve, so it is not a stage of factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod

from .composition import class_multiples
from .forms import QuadraticForm
from .numtheory import (
    DomainError,
    Factorization,
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
from .reduction import neighbor


@dataclass(frozen=True)
class WitnessedResidue:
    """Quadratic residue raw mod some M, its squarefree kernel, and a root."""

    raw: int
    kernel: int
    witness: int | None
    provenance: str


def witnessed_residue(raw: int, modulus: int, witness: int | None, provenance: str) -> WitnessedResidue:
    kernel, _ = squarefree_part(raw)
    if witness is not None:
        witness %= modulus
        if (witness * witness - raw) % modulus:
            raise DomainError(f"witness {witness} does not square to {raw} mod {modulus}")
    return WitnessedResidue(raw, kernel, witness, provenance)


@dataclass(frozen=True)
class HarvestResult:
    """Residues gathered by one pipeline stage plus factors found on the way."""

    residues: tuple[WitnessedResidue, ...]
    factors: tuple[int, ...] = ()


@dataclass(frozen=True)
class FactorConfig:
    trial_bound: int = 100
    multipliers: tuple[int, ...] = (1, 2, 3)
    period_steps: int = 20
    window: int = 50
    smooth_bound: int = 100
    use_class_multiples: bool = False
    class_seed_lead: int = 3
    class_count: int = 10
    sieve_limit: int | None = None

    def __post_init__(self) -> None:
        if self.trial_bound < 2:
            raise DomainError("trial_bound must be at least 2")
        if not self.multipliers or any(k < 1 for k in self.multipliers):
            raise DomainError("multipliers must be positive")
        if self.period_steps < 1:
            raise DomainError("period_steps must be at least 1")
        if self.smooth_bound < 2:
            raise DomainError("smooth_bound must be at least 2")
        if self.class_count < 1:
            raise DomainError("class_count must be at least 1")


def seed_form(m: int, k: int = 1) -> QuadraticForm:
    """Principal-cycle seed (1, s, s^2 - kM) with s = isqrt(kM); det = kM."""
    if m < 1 or k < 1:
        raise DomainError("m and k must be positive")
    s = isqrt(k * m)
    if s * s == k * m:
        raise DomainError(f"{k}*{m} is a perfect square; take gcd({s}, {m}) instead")
    return QuadraticForm(1, s, s * s - k * m)


def harvest_from_period(m: int, k: int = 1, steps: int = 20) -> HarvestResult:
    """Leading coefficients along the period of the seed form, with witnesses.

    Successive leads a_j satisfy a_j*a_{j+1} = b_j^2 - kM, so the chained
    witness w_{j+1} = b_j / w_j (mod M) squares to a_{j+1}; a shared factor
    with M aborts the walk early and is returned through the factor channel.
    """
    current = seed_form(m, k)
    residues: list[WitnessedResidue] = []
    factors: list[int] = []
    w = 1
    for step in range(1, steps + 1):
        b_prev = current.b
        current = neighbor(current)
        g = gcd(current.a, m)
        if g > 1:
            if g < m:
                factors.append(g)
            break
        w = b_prev * pow(w, -1, m) % m
        residues.append(
            witnessed_residue(current.a, m, w, f"period-form(k={k}, step={step})")
        )
    return HarvestResult(tuple(residues), tuple(factors))


def harvest_square_representations(
    m: int,
    multipliers: tuple[int, ...] = (1, 2, 3),
    window: int = 50,
    smooth_bound: int = 100,
) -> HarvestResult:
    """Smooth values k*(k*x^2 - M) for x near sqrt(M/k); witness is k*x."""
    residues: list[WitnessedResidue] = []
    factors: list[int] = []
    for k in multipliers:
        center = isqrt(m // k)
        for x in range(max(1, center - window), center + window + 1):
            r = k * x * x - m
            if r == 0:
                g = gcd(x, m)
                if 1 < g < m:
                    factors.append(g)
                continue
            v = k * r
            if not is_smooth(v, smooth_bound):
                continue
            residues.append(
                witnessed_residue(v, m, k * x, f"square-representation(k={k}, x={x})")
            )
    return HarvestResult(tuple(residues), tuple(factors))


def harvest_from_class_multiples(
    m: int,
    seed: QuadraticForm,
    n_max: int = 10,
    smooth_bound: int = 100,
) -> HarvestResult:
    """Smooth outer coefficients of the reduced powers of a class of det -kM.

    Even powers represent their own outer coefficients, so a' and c' are
    residues directly; for odd powers the represented values are seed.a * a'
    and seed.a * c'.  No square roots are tracked for these.
    """
    d = seed.determinant
    if d >= 0 or (-d) % m:
        raise DomainError("seed determinant must be -kM for some positive k")
    residues: list[WitnessedResidue] = []
    for n, rep in class_multiples(seed, n_max):
        scale = 1 if n % 2 == 0 else seed.a
        for value, which in ((rep.a, "a"), (rep.c, "c")):
            v = scale * value
            if is_smooth(v, smooth_bound):
                residues.append(
                    witnessed_residue(v, m, None, f"class-multiple(n={n}, {which})")
                )
    return HarvestResult(tuple(residues), ())


@lru_cache(maxsize=4096)
def _prime_support(kernel: int) -> frozenset[int]:
    if kernel == 0:
        return frozenset()
    f = full_factor(abs(kernel))
    return frozenset(p for p, _ in f.factors)


def _multiply(
    r1: WitnessedResidue, r2: WitnessedResidue, m: int, factors: list[int]
) -> WitnessedResidue:
    # kernels are squarefree, so shared primes are exactly gcd(|k1|, |k2|)
    shared = gcd(abs(r1.kernel), abs(r2.kernel))
    raw = r1.kernel * r2.kernel // (shared * shared)
    witness = None
    if r1.witness is not None and r2.witness is not None:
        # witness_i squares to raw_i = kernel_i * s_i^2; divide out s_i and
        # the shared primes to get a root of the squarefree product
        s = isqrt(r1.raw // r1.kernel) * isqrt(r2.raw // r2.kernel) * shared
        try:
            witness = r1.witness * r2.witness * pow(s, -1, m) % m
        except ValueError:
            g = gcd(s, m)
            if 1 < g < m:
                factors.append(g)
    if witness is not None and (witness * witness - raw) % m:
        raise DomainError(f"witness {witness} does not square to {raw} mod {m}")
    return WitnessedResidue(raw, raw, witness, f"combination({r1.kernel} * {r2.kernel})")


def combine(residues: list[WitnessedResidue] | tuple[WitnessedResidue, ...], m: int) -> HarvestResult:
    """Gauss-Jordan over GF(2) on kernel exponent vectors.

    Returns an independent generating set for the kernels (unit kernels are
    dropped); any factor of m uncovered while dividing witnesses comes back
    in the factor channel.

    The elimination runs on int masks (one bit per prime, largest prime
    first, then the sign) and records its row operations; residues are then
    multiplied in that order only for the rows that end nonzero.  A dropped
    row can only surface a factor when a witness fails to invert mod m, which
    needs a prime of m in some raw value, so then every row is multiplied.
    """
    factors: list[int] = []
    pool = list(residues)
    supports = [_prime_support(r.kernel) for r in pool]
    base = sorted(set().union(*supports), reverse=True)
    bit_of = {p: 1 << i for i, p in enumerate(base)}
    sign = 1 << len(base)
    masks = [
        sum(bit_of[p] for p in support) | (sign if r.kernel < 0 else 0)
        for r, support in zip(pool, supports)
    ]
    used: set[int] = set()
    steps: list[tuple[int, int]] = []
    for col in range(len(base) + 1):
        bit = 1 << col
        hits = [i for i, v in enumerate(masks) if v & bit]
        pivot = next((i for i in hits if i not in used), None)
        if pivot is None:
            continue
        used.add(pivot)
        pivot_mask = masks[pivot]
        for i in hits:
            if i != pivot:
                masks[i] ^= pivot_mask
                steps.append((i, pivot))
    # pivot rows end nonzero, so every product a kept row needs is made
    every_row = any(gcd(r.raw, m) > 1 for r in pool)
    work = pool[:]
    for i, pivot in steps:
        if masks[i] or every_row:
            work[i] = _multiply(work[i], work[pivot], m, factors)

    out: list[WitnessedResidue] = []
    seen: set[int] = set()
    for v, r in zip(masks, work):
        if v and r.kernel not in seen:
            seen.add(r.kernel)
            out.append(r)
    return HarvestResult(tuple(out), tuple(factors))


# Kernels whose prime factors are all at most this bound are sieved by residue
# class; the others are left to the exact pass.
_MASK_BOUND = 1000
_MASK_PRIMES = primes_upto(_MASK_BOUND)
_MASK_PRIMORIAL = prod(_MASK_PRIMES)
# Stop sieving by residue class once this few candidates are left.
_FEW_CANDIDATES = 16
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@lru_cache(maxsize=None)
def _nonresidue_period(q: int) -> tuple[int, int]:
    """(pattern, period): bit i of the pattern is set iff (q / 2i+1) = -1.

    For q = -1 or 2 and for an odd prime q, the Jacobi symbol (q/n) over odd n
    depends only on n mod 4, n mod 8 and n mod 4q (quadratic reciprocity), so
    the pattern over indices i, where n = 2i + 1, repeats every 2, 4 or 2q.
    Bits for the odd multiples of q are clear.
    """
    if q == -1:
        return 0b10, 2
    if q == 2:
        return 0b0110, 4
    squares = bytearray(q)
    for x in range(1, q // 2 + 1):
        squares[x * x % q] = 1
    flip = q % 4 == 3
    pattern = 0
    for i in range(2 * q):
        n = 2 * i + 1
        r = n % q
        if r and (not squares[r]) != (flip and n % 4 == 3):
            pattern |= 1 << i
    return pattern, 2 * q


def _nonresidue_mask(q: int, width: int) -> int:
    """Bit i set iff (q / 2i+1) = -1, for i < width: one period tiled."""
    mask, period = _nonresidue_period(q)
    while period < width:
        mask |= mask << period
        period *= 2
    return mask & ((1 << width) - 1)


def _odd_prime_mask(width: int) -> int:
    """Bit i set iff 2i + 1 is prime, for i < width."""
    flags = bytearray([1]) * width
    flags[0] = 0
    for i in range(1, (isqrt(2 * width - 1) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, width, p)))
    return int(flags[::-1].translate(_BINARY_DIGITS), 2)


def _mask_support(kernel: int) -> tuple[int, ...] | None:
    """Prime factors of a squarefree kernel (with -1 for the sign) if all are <= _MASK_BOUND."""
    k = abs(kernel)
    if gcd(k, _MASK_PRIMORIAL) != k:
        return None
    support = [-1] if kernel < 0 else []
    for q in _MASK_PRIMES:
        if k == 1:
            break
        if k % q == 0:
            support.append(q)
            k //= q
    return tuple(support)


def sieve_candidates(
    residues: list[WitnessedResidue] | tuple[WitnessedResidue, ...], limit: int
) -> tuple[int, ...]:
    """Odd primes p <= limit for which no kernel is a non-residue mod p.

    A residue-class sieve first: over one bit per odd n <= limit, each kernel
    that factors over primes <= _MASK_BOUND clears the odd n where its Jacobi
    symbol is -1, the XOR of the tiled non-residue masks of its prime factors
    and sign.  Kernels are added until only a few odd primes are left.  The
    exact predicate, jacobi(k, p) != -1 for every kernel k not divisible by p,
    then decides those primes and the masked kernels' own prime factors, where
    the masks do not apply, so the result is that of the predicate over every
    odd prime <= limit.
    """
    if not residues:
        raise DomainError("an empty residue pool would pass every prime")
    if limit < 3:
        return ()
    kernels = list(dict.fromkeys(r.kernel for r in residues if abs(r.kernel) != 1))
    width = (limit + 1) // 2
    survivors = _odd_prime_mask(width)
    masks: dict[int, int] = {}
    # the masked kernels' own primes, where the masks do not apply
    candidates: set[int] = set()
    left = survivors.bit_count()
    for k in kernels:
        if left <= _FEW_CANDIDATES:
            break
        support = _mask_support(k)
        if support is None:
            continue
        mask = 0
        for q in support:
            if q not in masks:
                masks[q] = _nonresidue_mask(q, width)
            mask ^= masks[q]
            if 2 < q <= limit:
                candidates.add(q)
        survivors &= ~mask
        left = survivors.bit_count()
    bits = bin(survivors)[:1:-1]
    i = bits.find("1")
    while i >= 0:
        candidates.add(2 * i + 1)
        i = bits.find("1", i + 1)
    return tuple(
        p
        for p in sorted(candidates)
        if all(jacobi(k, p) != -1 for k in kernels if k % p)
    )


@dataclass(frozen=True)
class FactorReport:
    input: int
    factorization: Factorization
    residues: tuple[WitnessedResidue, ...]
    survivors: tuple[int, ...]
    pseudo_survivors: tuple[int, ...]
    notes: tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return self.factorization.complete

    @property
    def status(self) -> str:
        return "complete" if self.complete else "partial"

    def to_json(self) -> dict:
        return {
            "input": self.input,
            "status": self.status,
            "residues": [
                {
                    "raw": r.raw,
                    "kernel": r.kernel,
                    "witness": r.witness,
                    "provenance": r.provenance,
                }
                for r in self.residues
            ],
            "survivors": list(self.survivors),
            "pseudo_survivors": list(self.pseudo_survivors),
            "factors": [[p, e] for p, e in self.factorization.factors],
            "cofactor": self.factorization.cofactor,
        }


def _class_seed(m: int, lead: int) -> QuadraticForm | None:
    """Form (lead, b, c) of determinant -m with the smallest b >= 0, if it has content 1."""
    roots = sqrt_mod(-m % lead, lead)
    if not roots:
        return None
    b = roots[0]
    seed = QuadraticForm(lead, b, (b * b + m) // lead)
    return seed if seed.content == 1 else None


def factor(m: int, config: FactorConfig | None = None) -> FactorReport:
    """Factor a positive integer via the quadratic-residue pipeline.

    Small primes are stripped by trial division; prime and perfect-power
    leftovers are dispatched directly.  Anything else is harvested; a proper
    gcd of a harvested raw value with it splits it, and otherwise the pool is
    sieved and the quotient by any survivor that divides is recursed on.  If
    no survivor divides, or a leftover is too large for is_prime to decide,
    the report comes back partial with the untouched cofactor and a note.
    """
    if m < 1:
        raise DomainError("m must be positive")
    cfg = config or FactorConfig()
    found: dict[int, int] = {}
    residues: list[WitnessedResidue] = []
    survivors: list[int] = []
    pseudo: list[int] = []
    notes: list[str] = []
    leftover = 1

    def add(p: int, e: int) -> None:
        found[p] = found.get(p, 0) + e

    def crack(n: int, mult: int) -> None:
        nonlocal leftover
        f = trial_factor(n, cfg.trial_bound)
        for p, e in f.factors:
            add(p, e * mult)
        r = f.cofactor
        if r == 1:
            return
        try:
            prime = is_prime(r)
        except DomainError as exc:  # too large to prove either way
            notes.append(str(exc))
            leftover *= r**mult
            return
        if prime:
            add(r, mult)
            return
        for e in range(2, r.bit_length() + 1):
            root, exact = iroot(r, e)
            if root < 2:
                break
            if exact:
                crack(root, mult * e)
                return
        crack_hard(r, mult)

    def crack_hard(r: int, mult: int) -> None:
        nonlocal leftover
        pool: list[WitnessedResidue] = []

        def drain(result: HarvestResult) -> int | None:
            pool.extend(result.residues)
            residues.extend(result.residues)
            return result.factors[0] if result.factors else None

        for k in cfg.multipliers:
            s = isqrt(k * r)
            if s * s == k * r:
                g = gcd(s, r)
                if 1 < g < r:
                    crack(g, mult)
                    crack(r // g, mult)
                    return
                notes.append(f"multiplier {k} skipped: {k}*{r} is a perfect square")
                continue
            g = drain(harvest_from_period(r, k, cfg.period_steps))
            if g is not None:
                crack(g, mult)
                crack(r // g, mult)
                return
        g = drain(
            harvest_square_representations(r, cfg.multipliers, cfg.window, cfg.smooth_bound)
        )
        if g is not None:
            crack(g, mult)
            crack(r // g, mult)
            return
        if cfg.use_class_multiples:
            seed = _class_seed(r, cfg.class_seed_lead)
            if seed is None:
                notes.append(f"no class seed of content 1 with lead {cfg.class_seed_lead} for {r}")
            else:
                drain(harvest_from_class_multiples(r, seed, cfg.class_count, cfg.smooth_bound))
        if not pool:
            notes.append(f"no residues harvested for {r}")
            leftover *= r**mult
            return
        # a raw sharing a prime with r splits it directly
        g = next((d for x in pool if 1 < (d := gcd(x.raw, r)) < r), None)
        if g is not None:
            crack(g, mult)
            crack(r // g, mult)
            return
        limit = cfg.sieve_limit if cfg.sieve_limit is not None else isqrt(r)
        passed = sieve_candidates(pool, limit)
        survivors.extend(passed)
        rem = r
        for p in passed:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            if e:
                add(p, e * mult)
            else:
                pseudo.append(p)
        if rem == r:
            notes.append(f"no sieve survivor divides {r}")
            leftover *= r**mult
            return
        if rem > 1:
            crack(rem, mult)

    if m > 1:
        crack(m, 1)
    factorization = Factorization(1, tuple(sorted(found.items())), leftover)
    return FactorReport(
        m, factorization, tuple(residues), tuple(survivors), tuple(pseudo), tuple(notes)
    )

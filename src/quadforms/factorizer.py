"""Factoring integers through quadratic residues harvested from forms.

When isqrt(M) exceeds _SIEVE_BUDGET, Shanks's square-form factorisation
(SQUFOF) comes first: it walks the principal cycle of det kM to a square form
and the cycle of its inverse square root to an ambiguous form, whose lead
splits M; each walk has an explicit step bound.  Failing that, or for smaller
M, residues are harvested.  Every residue collected here is a small number r
with x^2 = r (mod M) for some known or deducible x.  Three harvests produce
them: leading coefficients along the period of (1, floor(sqrt(kM)), ...),
smooth values of k*x^2 - M near sqrt(M/k), and outer coefficients of reduced
powers of a class of determinant -kM.  A raw value sharing a prime with M
splits it by a gcd.  Otherwise the sieve keeps every odd prime p <= limit for
which no kernel is a non-residue mod p, tested by Euler's criterion.  Every
residue of M is a square mod each prime of M, so true prime factors always
survive, and trial division over the survivors (and recursion on the
quotient) finishes the job.

The Jacobi symbol is multiplicative, so a product of kernels can exclude a
prime its factors let through only when that prime divides one of them, and
never a prime of M: combine's GF(2) elimination could at most remove
pseudo-survivors from the sieve, so it is not a stage of factor.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .composition import class_multiples
from .forms import QuadraticForm
from .numtheory import (
    _TRIAL_CAP,
    DomainError,
    Factorization,
    full_factor,
    iroot,
    is_prime,
    is_smooth,
    primes_upto,
    sqrt_mod,
    squarefree_part,
    trial_factor,
)
from .reduction import _walk


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
    class_seed_lead: int | None = None  # None: no class-multiple harvest
    sieve_limit: int | None = None

    def __post_init__(self) -> None:
        if self.trial_bound < 2:
            raise DomainError("trial_bound must be at least 2")
        if not self.multipliers or any(k < 1 for k in self.multipliers):
            raise DomainError("multipliers must be positive")
        if self.period_steps < 1:
            raise DomainError("period_steps must be at least 1")
        if self.window < 0:
            raise DomainError("window must be at least 0")
        if self.smooth_bound < 2:
            raise DomainError("smooth_bound must be at least 2")
        if self.class_seed_lead is not None and self.class_seed_lead < 1:
            raise DomainError("class_seed_lead must be at least 1")
        if self.sieve_limit is not None and self.sieve_limit < 0:
            raise DomainError("sieve_limit must be at least 0")


# the config of every factor call given none, built and checked once
_DEFAULT_CONFIG = FactorConfig()


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
    seed = seed_form(m, k)
    residues: list[WitnessedResidue] = []
    factors: list[int] = []
    w, b_prev = 1, seed.b
    for step, (a, b, _) in zip(range(1, steps + 1), _walk(k * m, seed.a, seed.b, seed.c)):
        g = gcd(a, m)
        if g > 1:
            if g < m:
                factors.append(g)
            break
        w = b_prev * pow(w, -1, m) % m
        b_prev = b
        residues.append(witnessed_residue(a, m, w, f"period-form(k={k}, step={step})"))
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


# crack_hard runs SQUFOF, before any harvest, when isqrt(r) exceeds this width
_SIEVE_BUDGET = 1 << 10


def sieve_candidates(
    residues: list[WitnessedResidue] | tuple[WitnessedResidue, ...], limit: int
) -> tuple[int, ...]:
    """Odd primes p <= limit for which no kernel is a non-residue mod p.

    The predicate itself, kernel by kernel over the odd primes left: by
    Euler's criterion, k^((p-1)/2) = -1 (mod p) exactly when (k/p) = -1, and
    a kernel divisible by p gives 0, so p passes it.  The unit kernels 1 and
    -1 are left out.  The primes come from primes_upto(max(limit,
    _TRIAL_CAP)), the one table of numtheory for every limit below 2**16.
    """
    if not residues:
        raise DomainError("an empty residue pool would pass every prime")
    table = primes_upto(max(limit, _TRIAL_CAP))
    survivors = table[1 : bisect_right(table, limit)]
    for k in dict.fromkeys(r.kernel for r in residues if abs(r.kernel) != 1):
        if not survivors:
            break
        survivors = [p for p in survivors if pow(k, p >> 1, p) != p - 1]
    return tuple(survivors)


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
    """
    if bound is None:
        bound = 6 * isqrt(2 * isqrt(n))
    for k in _SQUFOF_MULTIPLIERS:
        kn = k * n
        s = isqrt(kn)
        if s * s == kn:
            g = gcd(s, n)
            if 1 < g < n:
                return g
            continue
        i, q0, p, _ = _square_form(n, k, (0, 1, s, kn - s * s), bound)
        if i < bound:
            found = _ambiguous_form(kn, isqrt(q0), p, bound)
            if found is not None:
                g = gcd(found[0], n)
                if 1 < g < n:
                    return g
    return None


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
    leftovers are dispatched directly.  A leftover r with isqrt(r) >
    _SIEVE_BUDGET goes to SQUFOF first, so a report whose every such r
    SQUFOF splits carries no residues.  If SQUFOF finds no factor within its
    bounds, or r is smaller, r is harvested; a proper gcd of a harvested raw
    value with it splits it.  Otherwise the pool is sieved and the quotient by
    any survivor that divides is recursed on.  If no survivor divides, or a
    leftover is too large for is_prime to decide, the report comes back
    partial with the untouched cofactor and a note.
    """
    if m < 1:
        raise DomainError("m must be positive")
    cfg = config or _DEFAULT_CONFIG
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
            if root <= cfg.trial_bound:  # r has no prime factor this small
                break
            if exact:
                crack(root, mult * e)
                return
        crack_hard(r, mult)

    def crack_hard(r: int, mult: int) -> None:
        nonlocal leftover
        pool: list[WitnessedResidue] = []

        def split(g: int) -> None:
            crack(g, mult)
            crack(r // g, mult)

        def drain(result: HarvestResult) -> int | None:
            pool.extend(result.residues)
            residues.extend(result.residues)
            return result.factors[0] if result.factors else None

        if isqrt(r) > _SIEVE_BUDGET:
            g = _squfof(r)
            if g is not None:
                if not (1 < g < r and r % g == 0):
                    raise DomainError(f"SQUFOF returned {g}, which does not split {r}")
                return split(g)
        for k in cfg.multipliers:
            s = isqrt(k * r)
            if s * s == k * r:
                g = gcd(s, r)
                if 1 < g < r:
                    return split(g)
                notes.append(f"multiplier {k} skipped: {k}*{r} is a perfect square")
                continue
            g = drain(harvest_from_period(r, k, cfg.period_steps))
            if g is not None:
                return split(g)
        g = drain(
            harvest_square_representations(r, cfg.multipliers, cfg.window, cfg.smooth_bound)
        )
        if g is not None:
            return split(g)
        if cfg.class_seed_lead is not None:
            seed = _class_seed(r, cfg.class_seed_lead)
            if seed is None:
                notes.append(f"no class seed of content 1 with lead {cfg.class_seed_lead} for {r}")
            else:
                drain(harvest_from_class_multiples(r, seed, smooth_bound=cfg.smooth_bound))
        if not pool:
            notes.append(f"no residues harvested for {r}")
            leftover *= r**mult
            return
        # a raw sharing a prime with r splits it directly
        g = next((d for x in pool if 1 < (d := gcd(x.raw, r)) < r), None)
        if g is not None:
            return split(g)
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

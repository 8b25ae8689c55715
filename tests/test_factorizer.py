"""Residue harvesting, combination, sieving, and the full factor pipeline."""

from __future__ import annotations

import json
from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadforms import factorizer
from quadforms.factorizer import (
    _SIEVE_BUDGET,
    FactorConfig,
    HarvestResult,
    WitnessedResidue,
    _ambiguous_form,
    _square_form,
    _squfof,
    combine,
    factor,
    harvest_from_class_multiples,
    harvest_from_period,
    harvest_square_representations,
    seed_form,
    sieve_candidates,
    witnessed_residue,
)
from quadforms.forms import QuadraticForm
from quadforms.numtheory import DomainError, full_factor, is_prime, jacobi, primes_upto, squarefree_part
from quadforms.reduction import (
    enumerate_reduced_negative,
    enumerate_reduced_positive,
    neighbor,
    reduce_positive,
)

M = 997331
BASE = QuadraticForm(3, 1, 332444)

PERIOD_RAWS_K1 = (-1327, 670, -1315, 37, -626, 325, -1411, 382, -715)
PERIOD_RAWS_K2 = (-918, 211, -151, 1723, -1062, 1473, -901, 1137)
FINAL_KERNELS = (-6, 13, -14, 17, 19, -29, 37, -53, -55, 79, -83, -102, -118, -310, 670)

moduli = st.integers(min_value=2, max_value=10**6)


def test_witnessed_residue_construction():
    r = witnessed_residue(-918, M, None, "t")
    assert (r.raw, r.kernel, r.witness, r.provenance) == (-918, -102, None, "t")
    assert witnessed_residue(4, 21, 23, "t").witness == 2
    assert witnessed_residue(325, M, None, "t").kernel == 13
    with pytest.raises(DomainError):
        witnessed_residue(5, 21, 2, "t")


def test_seed_form_values():
    assert seed_form(M, 1) == QuadraticForm(1, 998, -1327)
    assert seed_form(M, 2) == QuadraticForm(1, 1412, -918)
    assert seed_form(5) == QuadraticForm(1, 2, -1)


def test_seed_form_rejections():
    with pytest.raises(DomainError):
        seed_form(0, 1)
    with pytest.raises(DomainError):
        seed_form(5, 0)
    with pytest.raises(DomainError, match=r"take gcd\(3, 9\)"):
        seed_form(9, 1)
    with pytest.raises(DomainError):
        seed_form(2, 2)


def test_period_harvest_reproduces_both_walks():
    for k, expected in ((1, PERIOD_RAWS_K1), (2, PERIOD_RAWS_K2)):
        got = harvest_from_period(M, k, len(expected))
        assert tuple(r.raw for r in got.residues) == expected
        assert got.factors == ()
        for r in got.residues:
            assert r.witness is not None
            assert (r.witness * r.witness - r.raw) % M == 0
            assert r.provenance.startswith("period-form")


def test_period_harvest_early_exit_surfaces_a_factor():
    got = harvest_from_period(M, 1, 20)
    assert got.factors == (127,)
    assert len(got.residues) == 18
    quick = harvest_from_period(10403, 1, 5)
    assert quick.factors == (101,)
    assert quick.residues == ()


def test_square_representation_harvest_kernels():
    got = harvest_square_representations(M, (1, 2, 3, 11), 50, 100)
    kernels = {r.kernel for r in got.residues}
    assert {670, -55, -102, -1023, 273, 14763, -9570} <= kernels
    assert got.factors == ()
    for r in got.residues:
        assert (r.witness * r.witness - r.raw) % M == 0
        assert r.provenance.startswith("square-representation")


def test_square_representation_zero_value_yields_factor():
    got = harvest_square_representations(49, (1,), 5, 100)
    assert 7 in got.factors


def test_class_multiple_harvest():
    got = harvest_from_class_multiples(M, BASE, 10, 100)
    entries = {(r.raw, r.kernel) for r in got.residues}
    assert {(1428, 357), (1027, 1027), (425, 17), (3825, 17)} <= entries
    for r in got.residues:
        assert r.witness is None
        assert r.provenance.startswith("class-multiple")
    with pytest.raises(DomainError):
        harvest_from_class_multiples(7, QuadraticForm(1, 0, 1), 3, 100)
    with pytest.raises(DomainError):
        harvest_from_class_multiples(7, QuadraticForm(3, 8, -5), 3, 100)


def test_combine_eliminates_shared_primes():
    got = combine([witnessed_residue(-918, M, None, "t"), witnessed_residue(17, M, None, "t")], M)
    assert sorted(r.kernel for r in got.residues) == [-6, 17]
    assert got.factors == ()


def test_combine_surfaces_factor_from_noninvertible_witness():
    got = combine(
        [witnessed_residue(147, 91, 28, "t"), witnessed_residue(588, 91, 56, "t")], 91
    )
    assert got.factors == (7,)
    assert [r.kernel for r in got.residues] == [3]


def test_combine_drops_unit_kernels_but_keeps_sign():
    assert combine([witnessed_residue(4, 21, 2, "t")], 21).residues == ()
    kept = combine([witnessed_residue(-1, 5, 2, "t")], 5)
    assert [r.kernel for r in kept.residues] == [-1]


def test_combine_on_real_harvest_finds_small_products():
    pool = (
        harvest_from_period(M, 1, 9).residues + harvest_from_period(M, 2, 8).residues
    )
    got = combine(pool, M)
    kernels = {r.kernel for r in got.residues}
    assert -55 in kernels  # -715 reduced by the kernel 13 of 325
    for r in got.residues:
        assert abs(r.kernel) != 1
        k, _ = squarefree_part(r.kernel)
        assert k == r.kernel
        if r.witness is not None:
            assert (r.witness * r.witness - r.raw) % M == 0


def reference_multiply(r1, r2, m, factors):
    """combine's product of two rows as first written, kept as its specification."""
    shared = gcd(abs(r1.kernel), abs(r2.kernel))
    raw = r1.kernel * r2.kernel // (shared * shared)
    witness = None
    if r1.witness is not None and r2.witness is not None:
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


def reference_combine(residues, m):
    """combine's elimination as first written: every row operation multiplies."""
    factors = []
    pool = list(residues)
    base = tuple(
        sorted({p for r in pool for p, _ in full_factor(abs(r.kernel)).factors}, reverse=True)
    )

    def mask_of(r):
        k, bits = abs(r.kernel), 0
        for i, p in enumerate(base):
            if k % p == 0:
                bits |= 1 << i
                k //= p
        return bits | (r.kernel < 0) << len(base)

    work = [(mask_of(r), r) for r in pool]
    used = set()
    for col in range(len(base) + 1):
        bit = 1 << col
        pivot = next((i for i in range(len(work)) if i not in used and work[i][0] & bit), None)
        if pivot is None:
            continue
        used.add(pivot)
        for i in range(len(work)):
            if i != pivot and work[i][0] & bit:
                work[i] = (
                    work[i][0] ^ work[pivot][0],
                    reference_multiply(work[i][1], work[pivot][1], m, factors),
                )
    out = []
    seen = set()
    for _, r in work:
        if r.kernel != 1 and r.kernel not in seen:
            seen.add(r.kernel)
            out.append(r)
    return HarvestResult(tuple(out), tuple(factors))


def combine_outcome(fn, pool, m):
    try:
        return fn(pool, m)
    except DomainError as exc:
        return ("DomainError", str(exc))


# unwitnessed raws: units, small kernels with repeats (3, 12, 75, 147), any small value
plain_raws = st.one_of(
    st.sampled_from((1, -1, 4, -9, 2, -2, 3, -3, 6, 12, -12, 30, -30, 75, 147)),
    st.integers(min_value=-3000, max_value=3000),
)
small_ints = st.integers(min_value=-3, max_value=3)


@st.composite
def combine_pools(draw):
    """(pool, m) in shuffled order, each witness squaring to its raw mod m.

    Witnessed rows have raw w^2 - t*m (a unit at t = 0, negative for t > 0),
    some with w just off sqrt(t*m), so that raws are small and share primes;
    unwitnessed rows take plain_raws.  Rows are repeated, or rescaled by c,
    which keeps the kernel but changes the raw or negates the root.  Small
    moduli often share a prime with some raw.
    """
    m = draw(st.one_of(st.integers(min_value=2, max_value=300), st.sampled_from((91, 210, 1155, M))))
    pool = []
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        kind = draw(st.sampled_from(("far", "near", "plain")))
        if kind == "plain":
            raw, w = draw(plain_raws), None
        else:
            t = draw(small_ints)
            w = draw(st.integers(min_value=0, max_value=600))
            if kind == "near":
                t = abs(t)
                w = max(isqrt(t * m) + draw(small_ints), 0)
            raw = w * w - t * m
        if raw:
            pool.append(witnessed_residue(raw, m, w, kind))
    for _ in range(draw(st.integers(min_value=0, max_value=6)) if pool else 0):
        r = draw(st.sampled_from(pool))
        c = draw(st.sampled_from((1, -1, 2, 3)))
        w = None if r.witness is None else r.witness * c
        pool.append(witnessed_residue(r.raw * c * c, m, w, f"{r.provenance}*{c}"))
    return draw(st.permutations(pool)), m


@given(combine_pools())
@example(([witnessed_residue(147, 91, 28, "t")] * 2, 91))  # a unit row surfaces 7
@example(([witnessed_residue(147, 91, 28, "t"), witnessed_residue(588, 91, 56, "t")], 91))
@settings(max_examples=300, deadline=None)
def test_combine_matches_reference(case):
    pool, m = case
    assert combine_outcome(combine, pool, m) == combine_outcome(reference_combine, pool, m)


def test_sieve_candidates_goldens():
    assert sieve_candidates([witnessed_residue(k, M, None, "final") for k in FINAL_KERNELS], 998) == (127,)
    assert sieve_candidates([witnessed_residue(2, 17, 6, "t")], 20) == (7, 17)
    # primes dividing every kernel pass vacuously
    assert sieve_candidates([witnessed_residue(-6, M, None, "t")], 10) == (3, 5, 7)
    assert sieve_candidates([witnessed_residue(-1, 5, 2, "t")], 10) == (3, 5, 7)
    with pytest.raises(DomainError):
        sieve_candidates([], 100)


def reference_sieve(kernels, limit):
    """The sieve's specification: one Jacobi test per odd prime per distinct kernel."""
    ks = []
    for k in kernels:
        if abs(k) != 1 and k not in ks:
            ks.append(k)
    return tuple(
        p for p in primes_upto(limit) if p != 2 and all(jacobi(k, p) != -1 for k in ks if k % p)
    )


# raws whose kernels are units and +-2, have a prime factor <= limit (exempt
# there), have a prime near 1000 or 7919, or one far above limit
sieve_raws = st.one_of(
    st.sampled_from((-2, -1, 1, 2, 4, -8)),
    st.integers(min_value=-5000, max_value=5000).filter(lambda n: n != 0),
    st.builds(lambda k, q: k * q, st.sampled_from((1, -1, 3, -6, 10)), st.sampled_from((997, 1009, 7919, 1000003))),
    st.integers(min_value=-(10**9), max_value=10**9).filter(lambda n: n != 0),
)


@given(st.lists(sieve_raws, min_size=1, max_size=40), st.integers(min_value=0, max_value=5000))
@example([303], 101)  # 101 divides the kernel and is the limit itself
@example([21, 10], 30)  # 3 and 7 divide 21; 10 keeps 3 and drops 7
@example([2, -3], 0)
@example([2, -3], 1)
@example([2, -3], 2)
@example([2, -3], _SIEVE_BUDGET)
@example([2, -3], _SIEVE_BUDGET + 1)  # still within the one table, of the primes below 2**16
@settings(max_examples=100, deadline=None)
def test_sieve_candidates_matches_reference(raws, limit):
    pool = [witnessed_residue(v, M, None, "t") for v in raws]
    assert sieve_candidates(pool, limit) == reference_sieve([r.kernel for r in pool], limit)


def test_sieves_within_the_budget_share_one_prime_table():
    # primes_upto keeps 32 tables, so one per sieve limit would evict the others
    pool = [witnessed_residue(2, 17, 6, "t")]
    primes_upto.cache_clear()
    for limit in (3, 316, _SIEVE_BUDGET):
        sieve_candidates(pool, limit)
    assert primes_upto.cache_info().currsize == 1


def test_factor_and_the_enumerations_share_the_one_prime_table():
    # besides trial_bound's table (100), every caller reads primes_upto(2**16); is_smooth slices
    # smooth_bound's primes out of it
    primes_upto.cache_clear()
    for m in range(90000, 90500):
        factor(m)
    enumerate_reduced_negative(-99991)
    enumerate_reduced_positive(99991)
    assert primes_upto.cache_info().currsize <= 2


def test_factor_config_validation():
    cfg = FactorConfig()
    assert (cfg.trial_bound, cfg.multipliers, cfg.period_steps) == (100, (1, 2, 3), 20)
    assert (cfg.window, cfg.smooth_bound, cfg.sieve_limit) == (50, 100, None)
    assert cfg.class_seed_lead is None
    for bad in (
        dict(trial_bound=1),
        dict(multipliers=()),
        dict(multipliers=(1, 0)),
        dict(period_steps=0),
        dict(smooth_bound=1),
    ):
        with pytest.raises(DomainError):
            FactorConfig(**bad)
    for field, value in (
        ("class_seed_lead", 0),
        ("class_seed_lead", -3),
        ("window", -1),
        ("sieve_limit", -1),
    ):
        with pytest.raises(DomainError, match=field):
            FactorConfig(**{field: value})
    assert FactorConfig(window=0, sieve_limit=0).window == 0


def test_factor_golden_default_config():
    rep = factor(M)
    assert rep.status == "complete"
    assert rep.factorization.factors == ((127, 1), (7853, 1))
    assert rep.factorization.cofactor == 1
    assert len(rep.residues) == 18
    assert rep.survivors == ()
    assert rep.notes == ()
    for r in rep.residues:
        assert (r.witness * r.witness - r.raw) % M == 0


def test_factor_full_pipeline_sieves_to_127():
    rep = factor(M, FactorConfig(period_steps=10, class_seed_lead=3))
    assert rep.status == "complete"
    assert rep.factorization.factors == ((127, 1), (7853, 1))
    assert rep.survivors == (127,)
    assert rep.pseudo_survivors == ()
    assert len(rep.residues) == 73


SHARED_PRIME_CONFIG = FactorConfig(trial_bound=2, period_steps=3, window=5, smooth_bound=50)


def test_factor_splits_on_a_raw_sharing_a_prime():
    # the near-square scan harvests 414 = 2 * 3^2 * 23, and 851 = 23 * 37
    rep = factor(851, SHARED_PRIME_CONFIG)
    assert 414 in [r.raw for r in rep.residues]
    assert rep.status == "complete"
    assert rep.factorization.factors == ((23, 1), (37, 1))
    assert rep.survivors == ()


@given(
    st.integers(min_value=2, max_value=3 * 10**4 - 1),
    st.sampled_from(
        (
            FactorConfig(trial_bound=2),
            FactorConfig(trial_bound=5, smooth_bound=200, class_seed_lead=3),
            SHARED_PRIME_CONFIG,
        )
    ),
)
@settings(max_examples=200, deadline=None)
def test_factor_completes_when_raws_share_primes(m, cfg):
    # small trial bounds leave r with small primes that harvested raws share
    rep = factor(m, cfg)
    assert rep.status == "complete"
    assert rep.factorization.value() == m
    assert rep.factorization.factors == full_factor(m).factors


def test_factor_notes_a_cofactor_beyond_the_primality_bound():
    rep = factor(2**89 - 1)
    assert rep.status == "partial"
    assert rep.factorization.factors == ()
    assert rep.factorization.cofactor == 2**89 - 1
    assert rep.notes == (
        "primality is proven only below 3317044064679887385961981; "
        "618970019642690137449562111 passes all 13 bases",
    )


def test_factor_skips_a_class_seed_of_content_two():
    # lead 2 and r = 3 (mod 4) give the seed (2, 1, (r + 1) / 2) of content 2;
    # isqrt(m) is within the sieve budget, so the harvests run
    m = 1009 * 1019
    assert isqrt(m) <= _SIEVE_BUDGET
    rep = factor(m, FactorConfig(class_seed_lead=2))
    assert rep.status == "complete"
    assert rep.factorization.factors == ((1009, 1), (1019, 1))
    assert f"no class seed of content 1 with lead 2 for {m}" in rep.notes
    assert not any(r.provenance.startswith("class-multiple") for r in rep.residues)


# 40- and 64-bit balanced semiprimes
N40 = 917513 * 983063
N64 = 3758096411 * 4026531853


@pytest.mark.parametrize("n, k", [(M, 1), (M, 2), (M, 3), (N40, 1), (N64, 1)])
def test_squfof_recurrence_walks_the_cycles_of_the_form_layer(n, k):
    kn = k * n
    s = isqrt(kn)
    start = (0, 1, s, kn - s * s)
    # two steps per call: state i is the i-th neighbor of the seed form, and
    # the odd form between two states has their outer coefficients
    form, state = seed_form(n, k), start
    for i in range(2, 122, 2):
        prev = state
        state = _square_form(n, k, state, i)
        odd = neighbor(form)
        form = neighbor(odd)
        _, q0, p, q = state
        assert state[0] == i
        assert form == QuadraticForm(q0, p, -q)
        assert (odd.a, odd.c) == (-prev[3], q0)

    bound = 6 * isqrt(2 * isqrt(n))
    i, q0, p, q = _square_form(n, k, start, bound)
    r = isqrt(q0)
    assert i < bound and i % 2 == 0 and r * r == q0
    lead, mid, other = _ambiguous_form(kn, r, p, bound)
    # the reverse walk is the cycle of the reduced inverse square root of
    # form i, up to its first step that keeps the middle coefficient
    form = reduce_positive(QuadraticForm(r, -p, -r * q)).result
    assert form.a == r
    for _ in range(bound):
        nxt = neighbor(form)
        if nxt.b == form.b:
            break
        form = nxt
    assert nxt in (QuadraticForm(lead, mid, -other), QuadraticForm(-lead, mid, other))
    assert (2 * mid) % lead == 0
    assert 1 < gcd(lead, n) < n


ABOVE_BUDGET = (
    (14680067, 15728681),  # 48 bits
    (234881033, 251658263),  # 56 bits
    (3758096411, 4026531853),  # 64 bits
    (1000003, 1000033, 1000037),
    (101, 1000000007, 1000000009),  # 101 survives trial_bound = 100
    (1201, 1453),  # isqrt 1321, 2559 and 3763, above the budget
    (2309, 2837),
    (3593, 3943),
)


@pytest.mark.parametrize("primes", ABOVE_BUDGET)
def test_factor_above_the_sieve_budget(primes):
    m = prod(primes)
    assert isqrt(m) > _SIEVE_BUDGET
    rep = factor(m)
    assert rep.status == "complete"
    assert rep.factorization.factors == tuple((p, 1) for p in primes)
    assert rep.survivors == ()
    assert rep.notes == ()
    # SQUFOF splits every cofactor above the budget before any harvest
    assert rep.residues == ()


def test_squfof_out_of_bound_falls_back_to_the_sieve(monkeypatch):
    assert isqrt(N40) > _SIEVE_BUDGET
    assert _squfof(N40, bound=2) is None
    # 3 * 1000003^2 is not a square, but 3 times it is
    assert _squfof(3 * 1000003**2, bound=2) == 3 * 1000003
    monkeypatch.setattr(factorizer, "_squfof", lambda r: _squfof(r, bound=2))
    rep = factor(N40)
    assert rep.status == "complete"
    assert rep.factorization.factors == ((917513, 1), (983063, 1))
    assert 917513 in rep.survivors
    assert rep.residues != ()


@pytest.mark.parametrize(
    "factors, cfg",
    [(((101, k),), None) for k in range(2, 13)]
    + [
        (((101, 3), (103, 3)), None),
        (((103, 5), (107, 1)), None),
        (((3, 20),), FactorConfig(trial_bound=2)),
    ],
)
def test_factor_perfect_powers_with_roots_just_above_the_trial_bound(factors, cfg):
    # the power probe stops once a root is within the trial bound
    m = prod(p**e for p, e in factors)
    rep = factor(m, cfg)
    assert rep.status == "complete"
    assert rep.factorization.factors == factors == full_factor(m).factors
    if len(factors) == 1:  # the probe takes each root, so no harvest runs
        assert rep.residues == ()


def test_factor_small_inputs():
    assert factor(1).factorization.factors == ()
    assert factor(1).status == "complete"
    assert factor(127).factorization.factors == ((127, 1),)
    assert factor(1024).factorization.factors == ((2, 10),)
    assert factor(10201).factorization.factors == ((101, 2),)
    rep = factor(10403)
    assert rep.factorization.factors == ((101, 1), (103, 1))
    with pytest.raises(DomainError):
        factor(0)
    with pytest.raises(DomainError):
        factor(-5)


def test_factor_partial_report_is_explicit():
    rep = factor(M, FactorConfig(period_steps=1, multipliers=(1,), window=1, smooth_bound=2, sieve_limit=3))
    assert rep.status == "partial"
    assert not rep.complete
    assert rep.factorization.factors == ()
    assert rep.factorization.cofactor == M
    assert rep.factorization.value() == M
    assert "no sieve survivor divides 997331" in rep.notes


def test_factor_report_json_round_trip():
    rep = factor(M)
    blob = rep.to_json()
    assert sorted(blob) == [
        "cofactor",
        "factors",
        "input",
        "pseudo_survivors",
        "residues",
        "status",
        "survivors",
    ]
    assert blob["factors"] == [[127, 1], [7853, 1]]
    assert blob["input"] == M
    assert blob["cofactor"] == 1
    assert sorted(blob["residues"][0]) == ["kernel", "provenance", "raw", "witness"]
    assert json.loads(json.dumps(blob)) == blob
    assert factor(M).to_json() == blob


@given(moduli, st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_period_harvest_invariants(m, k):
    s = isqrt(k * m)
    assume(s * s != k * m)
    got = harvest_from_period(m, k, 10)
    for r in got.residues:
        assert (r.witness * r.witness - r.raw) % m == 0
        assert r.kernel == squarefree_part(r.raw)[0]
    for g in got.factors:
        assert 1 < g < m and m % g == 0


@given(moduli)
@settings(max_examples=25, deadline=None)
def test_factor_agrees_with_direct_factorization(m):
    rep = factor(m)
    assert rep.factorization.value() == m
    for p, e in rep.factorization.factors:
        assert is_prime(p) and e >= 1
    if rep.complete:
        assert rep.factorization.factors == full_factor(m).factors
    else:
        assert rep.factorization.cofactor > 1
        assert rep.notes

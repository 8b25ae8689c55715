"""The three workloads: seeded inputs, warm-up inputs, the timed operation and its check.

Each workload is a Workload whose run(qf, x) is the one timed operation on
input x (qf is the quadforms package under test) and whose check(qf, x, out)
returns None or a reason, using only checks.py for reference values.  plain()
turns an output into tuples, so that later rounds can be compared with the
first, fully checked one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Any, Callable

import checks

# sweep: every m in [90000, 100000) completes at the commit that added this
# benchmark.  Each run factors the whole window, from a seeded start and
# wrapping round, so every seed measures the same work.
SWEEP_LO, SWEEP_HI = 90_000, 100_000
# semiprimes: eight balanced products at each size, p and q drawn from
# [0.90, 0.92) * 2^(bits/2), so that inputs of one size cost about the same
SEMIPRIME_BITS, SEMIPRIMES_PER_SIZE = (32, 34, 36, 38, 40), 8
SEMIPRIME_BAND = (0.90, 0.92)
# classgroup: one determinant per equal-width stratum of [1000, 100000), per sign
CLASS_LO, CLASS_HI, CLASS_STRATA = 1_000, 100_000, 100
COMPOSE_PAIRS, MULTIPLES = 16, 12
# rounds over which each input is timed by its slowest time: the fewest rounds
# a 30-second run completed of each workload on the host of the figures in
# README.md, so that the slowest time is taken over most of the run
TIMED_ROUNDS = {"sweep": 6, "semiprimes": 4, "classgroup": 10}


@dataclass
class Workload:
    name: str
    inputs: Callable[[int], list]
    warmup: Callable[[], list]
    run: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any], str | None]
    plain: Callable[[Any], Any]
    timed_rounds: int  # the last this many rounds of a timed run give the metrics


# --- sweep ----------------------------------------------------------------------


def _sweep_inputs(seed: int) -> list[int]:
    start = random.Random(seed).randrange(SWEEP_LO, SWEEP_HI)
    return list(range(start, SWEEP_HI)) + list(range(SWEEP_LO, start))


@lru_cache(maxsize=1)
def _prime_flags() -> bytearray:
    return checks.prime_flags(SWEEP_HI)


def _report_plain(report) -> tuple:
    f = report.factorization
    return f.complete, f.factors


def _sweep_check(qf, m: int, report) -> str | None:
    return checks.check_factorization(m, *_report_plain(report), _prime_flags())


SWEEP = Workload(
    "sweep",
    _sweep_inputs,
    lambda: list(range(SWEEP_LO - 100, SWEEP_LO)),
    lambda qf, m: qf.factor(m),
    _sweep_check,
    _report_plain,
    TIMED_ROUNDS["sweep"],
)


# --- semiprimes -------------------------------------------------------------------


def _prime(rng: random.Random, half: int) -> int:
    lo, hi = (int(x * (1 << half)) for x in SEMIPRIME_BAND)
    while True:
        p = rng.randrange(lo, hi) | 1
        if checks.is_prime_mr(p):
            return p


def _semiprimes(rng: random.Random, sizes) -> list[tuple[int, int]]:
    out = []
    for bits in sizes:
        p = _prime(rng, bits // 2)
        q = _prime(rng, bits // 2)
        while q == p:
            q = _prime(rng, bits // 2)
        out.append((p, q))
    return out


def _semiprime_inputs(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    out = _semiprimes(rng, [b for b in SEMIPRIME_BITS for _ in range(SEMIPRIMES_PER_SIZE)])
    rng.shuffle(out)
    return out


SEMIPRIMES = Workload(
    "semiprimes",
    _semiprime_inputs,
    lambda: _semiprimes(random.Random("warm-up"), (24, 24, 28)),
    lambda qf, pq: qf.factor(pq[0] * pq[1]),
    lambda qf, pq, report: checks.check_semiprime(*pq, *_report_plain(report)),
    _report_plain,
    TIMED_ROUNDS["semiprimes"],
)


# --- classgroup --------------------------------------------------------------------


def _determinants(rng: random.Random, lo: int, hi: int, strata: int) -> list[int]:
    """One |D| per stratum for each sign; positive ones are non-square."""
    width = (hi - lo) / strata
    out = []
    for i in range(strata):
        out.append(-(lo + int((i + rng.random()) * width)))
        while True:
            d = lo + int((i + rng.random()) * width)
            if isqrt(d) ** 2 != d:
                out.append(d)
                break
    return out


def _class_inputs(rng: random.Random, dets: list[int]) -> list[tuple]:
    """(D, picks): picks place the composed pairs and the base of the multiples."""
    return [
        (d, tuple(rng.random() for _ in range(2 * COMPOSE_PAIRS + 1)) if d < 0 else ())
        for d in dets
    ]


def _classgroup_inputs(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    out = _class_inputs(rng, _determinants(rng, CLASS_LO, CLASS_HI, CLASS_STRATA))
    rng.shuffle(out)
    return out


def _classgroup_warmup() -> list[tuple]:
    rng = random.Random("warm-up")
    return _class_inputs(rng, _determinants(rng, 300, 900, 2))


def _classgroup_run(qf, x):
    d, picks = x
    if d > 0:
        forms = qf.enumerate_reduced_positive(d)
        seen: set = set()
        periods = []
        for f in forms:
            if f not in seen:
                cycle = qf.period(f).forms
                seen.update(cycle)
                periods.append(cycle)
        return forms, periods
    forms = qf.enumerate_reduced_negative(d)
    # content-2 forms are left out: their composite depends on the representatives
    primitive = [f for f in forms if f.content == 1]
    chars = [qf.character(f) for f in primitive]
    positive = [f for f in primitive if f.a > 0]
    n = len(positive)
    pairs = []
    for i in range(COMPOSE_PAIRS):
        f, g = positive[int(picks[2 * i] * n)], positive[int(picks[2 * i + 1] * n)]
        pairs.append((f, g, qf.reduce_negative(qf.compose_same_det(f, g)).result))
    base = positive[int(picks[-1] * n)]
    return forms, primitive, chars, pairs, base, qf.class_multiples(base, MULTIPLES)


def _classgroup_plain(out) -> tuple:
    t = lambda f: (f.a, f.b, f.c)  # noqa: E731
    if len(out) == 2:
        forms, periods = out
        return tuple(map(t, forms)), tuple(tuple(map(t, p)) for p in periods)
    forms, primitive, chars, pairs, base, multiples = out
    return (
        tuple(map(t, forms)),
        tuple((t(f), c.odd_prime_entries, c.tokens()) for f, c in zip(primitive, chars)),
        tuple((t(f), t(g), t(h)) for f, g, h in pairs),
        t(base),
        tuple((n, t(f)) for n, f in multiples),
    )


def _classgroup_check(qf, x, out) -> str | None:
    d = x[0]
    p = _classgroup_plain(out)
    if d > 0:
        return checks.check_positive_class(d, list(p[0]), [list(c) for c in p[1]])

    def compose_lib(f, g):
        h = qf.compose_same_det(qf.QuadraticForm(*f), qf.QuadraticForm(*g))
        return h.a, h.b, h.c

    return checks.check_negative_class(
        d,
        {
            "forms": list(p[0]),
            "chars": {f: (entries, tokens) for f, entries, tokens in p[1]},
            "pairs": list(p[2]),
            "base": p[3],
            "multiples": list(p[4]),
        },
        compose_lib,
    )


CLASSGROUP = Workload(
    "classgroup",
    _classgroup_inputs,
    _classgroup_warmup,
    _classgroup_run,
    _classgroup_check,
    _classgroup_plain,
    TIMED_ROUNDS["classgroup"],
)

WORKLOADS = {w.name: w for w in (SWEEP, SEMIPRIMES, CLASSGROUP)}

"""SHA-256 digests of outputs that a refactor must leave byte-identical.

Each digest was computed before the integer cycle walker replaced the
form-by-form neighbor loops, and must still match after it.  A change meant to
alter one of these outputs updates the digest here and says in CHANGES.md
which outputs moved and why.
"""

from __future__ import annotations

import hashlib
import json
from math import isqrt

from quadforms.factorizer import factor
from quadforms.reduction import enumerate_reduced_positive, period


def test_factor_reports_up_to_ten_thousand_are_pinned():
    h = hashlib.sha256()
    for m in range(2, 10**4 + 1):
        rep = factor(m)
        h.update(json.dumps([rep.to_json(), list(rep.notes)], sort_keys=True).encode())
    assert h.hexdigest() == "9a39dafb850797a34972df430286be653506b25006d89bd86b3dd271da46b12f"


def test_period_cycles_up_to_five_hundred_are_pinned():
    # every cycle of every non-square D <= 500, in enumeration order of its first form
    h = hashlib.sha256()
    for d in range(2, 501):
        if isqrt(d) ** 2 == d:
            continue
        seen: set = set()
        for f in enumerate_reduced_positive(d):
            if f not in seen:
                cycle = period(f).forms
                seen.update(cycle)
                h.update(repr([g.coefficients() for g in cycle]).encode())
    assert h.hexdigest() == "b489bc3e990bdabae3be5d14dfdb3901c9a0bbd56f1198c79f9cef74a46aa388"

"""Each check accepts the library's real output and rejects a planted wrong answer.

    python3 perfbench/test_checks.py        (or: python3 -m pytest perfbench)
"""

from __future__ import annotations

import random
import sys
import unittest
from dataclasses import replace
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import quadforms as qf  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import Checker  # noqa: E402


def negative_case(d: int, seed: int = 5) -> dict:
    """The check argument built from one classgroup operation with D < 0."""
    x = workloads._class_inputs(random.Random(seed), [d])[0]
    plain = workloads._classgroup_plain(workloads._classgroup_run(qf, x))
    out = {
        "forms": list(plain[0]),
        "chars": {f: (entries, tokens) for f, entries, tokens in plain[1]},
        "pairs": list(plain[2]),
        "base": plain[3],
        "multiples": list(plain[4]),
    }
    return out


def compose_lib(f, g):
    h = qf.compose_same_det(qf.QuadraticForm(*f), qf.QuadraticForm(*g))
    return h.a, h.b, h.c


class ReferenceArithmetic(unittest.TestCase):
    def test_canon_and_compose_agree_with_the_library(self):
        for d in (-47, -1000, -2379):
            forms = [
                f for f in sorted(checks.scan_reduced_negative(d))
                if f[0] > 0 and gcd(gcd(f[0], 2 * f[1]), f[2]) == 1
            ]
            for f in forms[:20]:
                for g in forms[:20]:
                    h = compose_lib(f, g)
                    self.assertEqual(checks.canon(h), checks.canon(checks.compose(f, g)))

    def test_canon_merges_boundary_twins(self):
        self.assertEqual(checks.canon((47, -15, 47)), checks.canon((47, 15, 47)))
        self.assertEqual(checks.canon((304, 217, 155)), (5, -2, 7))

    def test_miller_rabin_matches_the_sieve(self):
        flags = checks.prime_flags(20_000)
        self.assertEqual([n for n in range(20_001) if flags[n]],
                         [n for n in range(20_001) if checks.is_prime_mr(n)])


class FactoringChecks(unittest.TestCase):
    flags = checks.prime_flags(100_000)

    def test_sweep_accepts_the_library_and_rejects_planted_answers(self):
        m = 95477
        r = qf.factor(m).factorization
        self.assertIsNone(checks.check_factorization(m, r.complete, r.factors, self.flags))
        p, e = r.factors[0]
        wrong_product = ((p, e + 1),) + r.factors[1:]
        self.assertIsNotNone(checks.check_factorization(m, True, wrong_product, self.flags))
        composite = ((p * r.factors[1][0], 1),) + r.factors[2:]
        self.assertIsNotNone(checks.check_factorization(m, True, composite, self.flags))
        self.assertIsNotNone(checks.check_factorization(m, False, r.factors, self.flags))

    def test_semiprime_accepts_the_generated_primes_only(self):
        p, q = 40093, 52361
        r = qf.factor(p * q).factorization
        self.assertIsNone(checks.check_semiprime(p, q, r.complete, r.factors))
        self.assertIsNotNone(checks.check_semiprime(p, q, True, ((1, 1), (p * q, 1))))
        self.assertIsNotNone(checks.check_semiprime(p, q, False, r.factors))


class NegativeClassChecks(unittest.TestCase):
    def setUp(self):
        self.d = -2381  # = 3 (mod 4), so characters carry a mod-4 entry
        self.out = negative_case(self.d)

    def rejects(self, out, compose=compose_lib, word=""):
        reason = checks.check_negative_class(self.d, out, compose)
        self.assertIsNotNone(reason)
        self.assertIn(word, reason)

    def test_real_output_passes(self):
        self.assertIsNone(checks.check_negative_class(self.d, self.out, compose_lib))

    def test_missing_or_extra_form(self):
        self.rejects(dict(self.out, forms=self.out["forms"][1:]), word="exhaustive")
        self.rejects(dict(self.out, forms=self.out["forms"] + [(1, 0, 1 - self.d)]), word="exhaustive")

    def test_character_entry_flipped(self):
        f, (entries, tokens) = next(iter(self.out["chars"].items()))
        p, v = entries[0]
        bad = ((p, "N" if v == "R" else "R"),) + tuple(entries[1:])
        self.rejects(dict(self.out, chars=self.out["chars"] | {f: (bad, tokens)}), word="Euler")

    def test_wrong_composite(self):
        f, g, h = self.out["pairs"][0]
        other = next(k for k in self.out["chars"] if k[0] > 0 and checks.canon(k) != checks.canon(h))
        self.rejects(dict(self.out, pairs=[(f, g, other)] + self.out["pairs"][1:]), word=" o ")

    def test_character_not_multiplicative(self):
        chars = dict(self.out["chars"])
        f, g, h = next((f, g, h) for f, g, h in self.out["pairs"] if h != f and h != g)
        entries, tokens = chars[h]
        flipped = tuple(("3,4" if t == "1,4" else "1,4") if t.endswith(",4") else t for t in tokens)
        self.assertNotEqual(flipped, tokens, "this determinant needs a mod-4 entry")
        chars[h] = (entries, flipped)
        self.rejects(dict(self.out, chars=chars), word="multiplicative")

    def test_identity_inverse_and_associativity(self):
        d = self.d
        x0 = next(f for f in self.out["chars"] if f[0] > 1)

        def shifted(f, g):  # every composite moved by the class of x0
            return checks.compose(compose_lib(f, g), x0)

        self.rejects(self.out, shifted, "identity")

        def projection(f, g):  # f o g = f: identity holds, inverses do not
            return f

        self.rejects(self.out, projection, "opposite")
        f0, g0, _ = self.out["pairs"][0]
        self.assertNotIn(checks.canon(g0), ((1, 0, -d), checks.canon((f0[0], -f0[1], f0[2]))))

        def one_wrong_pair(f, g):
            h = compose_lib(f, g)
            return checks.compose(h, x0) if (f, g) == (f0, g0) else h

        self.assertNotEqual(checks.canon(x0), (1, 0, -d))
        self.rejects(self.out, one_wrong_pair, "associative")

    def test_wrong_class_multiple(self):
        multiples = list(self.out["multiples"])
        n, _ = multiples[3]
        multiples[3] = (n, multiples[2][1])
        self.rejects(dict(self.out, multiples=multiples), word="class_multiples")


class PositiveClassChecks(unittest.TestCase):
    def setUp(self):
        self.d = 2379
        plain = workloads._classgroup_plain(workloads._classgroup_run(qf, (self.d, ())))
        self.forms = list(plain[0])
        self.periods = [list(p) for p in plain[1]]

    def test_real_output_passes(self):
        self.assertIsNone(checks.check_positive_class(self.d, self.forms, self.periods))

    def test_unreduced_or_wrong_determinant_form(self):
        a, b, c = self.forms[0]
        for bad in ((a, -b, c), (a, b + 1, c)):
            reason = checks.check_positive_class(self.d, self.forms + [bad], self.periods)
            self.assertIn("not a reduced form", reason)

    def test_periods_that_do_not_partition(self):
        longest = max(self.periods, key=len)
        reason = checks.check_positive_class(self.d, self.forms, self.periods + [longest])
        self.assertIn("overlap", reason)
        rest = [p for p in self.periods if p is not longest]
        reason = checks.check_positive_class(self.d, self.forms, rest)
        self.assertIn("partition", reason)

    def test_period_out_of_order(self):
        longest = max(self.periods, key=len)
        self.assertGreater(len(longest), 2)
        periods = [p[::-1] if p is longest else p for p in self.periods]
        reason = checks.check_positive_class(self.d, self.forms, periods)
        self.assertIn("does not follow", reason)


class LaterRounds(unittest.TestCase):
    def test_a_changed_output_in_a_later_round_fails(self):
        checker = Checker(qf, workloads.SWEEP)
        checker.record(0, 95477, qf.factor(95477))
        checker.record(0, 95477, qf.factor(95479))
        self.assertEqual((checker.attempted, checker.failed, checker.wrong), (2, 1, 1))

    def test_an_incomplete_report_counts_as_wrong(self):
        report = qf.factor(95477)
        f = report.factorization
        (p, e), rest = f.factors[0], f.factors[1:]
        partial = replace(report, factorization=replace(f, factors=rest, cofactor=p**e))
        checker = Checker(qf, workloads.SWEEP)
        checker.record(0, 95477, partial)
        self.assertEqual((checker.attempted, checker.failed, checker.wrong), (1, 1, 1))

    def test_a_raised_operation_counts_as_failed_not_wrong(self):
        checker = Checker(qf, workloads.SWEEP)
        checker.record(0, 95477, None, "raised")
        self.assertEqual((checker.attempted, checker.failed, checker.wrong), (1, 1, 0))


if __name__ == "__main__":
    unittest.main()

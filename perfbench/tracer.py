"""Spans around the library's public functions, recorded from outside the library.

A Tracer replaces each traced function in every quadforms module that binds
it (factorizer holds its own reference to jacobi, reduction to neighbor, and
so on) with a wrapper that records one span: name, parent, start and end.
Spans are kept in flat arrays and written out once the run ends; self time
(a span's duration minus that of its child spans) and the call counts are
summed as the spans close.
"""

from __future__ import annotations

import json
import sys
from array import array
from functools import wraps
from pathlib import Path
from time import perf_counter

# (module, function) pairs, in the order the per-layer metrics list them
TRACED = (
    ("numtheory", "jacobi"),
    ("numtheory", "is_prime"),
    ("numtheory", "primes_upto"),
    ("numtheory", "trial_factor"),
    ("numtheory", "squarefree_part"),
    ("numtheory", "full_factor"),
    ("numtheory", "sqrt_mod"),
    ("reduction", "reduce_negative"),
    ("reduction", "neighbor"),
    ("reduction", "enumerate_reduced_negative"),
    ("reduction", "enumerate_reduced_positive"),
    ("reduction", "period"),
    ("composition", "compose_same_det"),
    ("composition", "compose_general"),
    ("composition", "class_multiples"),
    ("genus", "character"),
    ("factorizer", "harvest_from_period"),
    ("factorizer", "harvest_square_representations"),
    ("factorizer", "combine"),
    ("factorizer", "sieve_candidates"),
    ("factorizer", "factor"),
)


def _count_reduce(counters, args, result) -> None:
    counters["reduction.reduce_negative.steps"] += len(result.chain) - 1


def _count_combine(counters, args, result) -> None:
    counters["factorizer.combine.rows_in"] += len(args[0])
    counters["factorizer.combine.rows_out"] += len(result.residues)


def _count_sieve(counters, args, result) -> None:
    counters["factorizer.sieve_candidates.survivors"] += len(result)


def _count_factor(counters, args, report) -> None:
    counters["factorizer.factor.reports"] += 1
    counters["factorizer.factor.residue_total"] += len(report.residues)
    counters["factorizer.factor.survivors"] += len(report.survivors)
    counters["factorizer.factor.dividing"] += len(report.survivors) - len(report.pseudo_survivors)


COUNTER_NAMES = (
    "reduction.reduce_negative.steps",
    "factorizer.combine.rows_in",
    "factorizer.combine.rows_out",
    "factorizer.sieve_candidates.survivors",
    "factorizer.factor.reports",
    "factorizer.factor.residue_total",
    "factorizer.factor.survivors",
    "factorizer.factor.dividing",
)
COUNTERS = {
    "reduction.reduce_negative": _count_reduce,
    "factorizer.combine": _count_combine,
    "factorizer.sieve_candidates": _count_sieve,
    "factorizer.factor": _count_factor,
}


class Tracer:
    """Records spans for TRACED while installed; root spans mark benchmark operations."""

    def __init__(self, package) -> None:
        self.package = package
        self.names: list[str] = ["op"] + [f"{m}.{f}" for m, f in TRACED]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[list] = []  # [span index, time covered by child spans]
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.patched: list[tuple[object, str, object]] = []

    def _open(self, nid: int) -> list:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        frame = [idx, 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, t0: float, t1: float) -> None:
        self.stack.pop()
        idx, children = frame
        self.start[idx] = t0
        self.end[idx] = t1
        duration = t1 - t0
        self.calls[name] += 1
        self.self_s[name] += duration - children
        if self.stack:
            self.stack[-1][1] += duration

    def wrap(self, name: str, fn):
        nid = self.names.index(name)
        count = COUNTERS.get(name)
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._close(frame, name, t0, t1)
            if count is not None:
                count(tracer.counters, args, result)
            return result

        return traced

    def operation(self, run, *args):
        """Run one benchmark operation under a root span."""
        frame = self._open(0)
        t0 = perf_counter()
        try:
            return run(*args)
        finally:
            self._close(frame, "op", t0, perf_counter())

    def install(self) -> None:
        prefix = self.package.__name__
        modules = [m for k, m in sys.modules.items() if k == prefix or k.startswith(prefix + ".")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"{prefix}.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
                    self.patched.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self.patched):
            setattr(module, fn_name, original)
        self.patched.clear()

    def write(self, path: Path) -> None:
        """Spans as raw arrays (name id, parent index, start, end) plus a JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name_id", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "clock": "time.perf_counter, seconds",
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")

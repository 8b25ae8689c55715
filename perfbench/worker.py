"""One fresh-interpreter run of one workload; prints a single JSON line.

    python3 perfbench/worker.py <workload> <seed> <mode> <seconds>

Modes:
  setup   set up (import, inputs, warm-up) and report the clock at the point
          where the first timed operation would start;
  timed   set up, then run whole rounds over the input list until <seconds>
          have passed and at least the workload's timed_rounds are done,
          timing each operation and checking its output; each input is
          reported by its slowest time over the last timed_rounds rounds;
  traced  one round with spans around the library's functions.

quadforms is imported from the src/ directory next to this benchmark, never
from an installed copy.  Times are time.perf_counter; the setup mark uses
time.monotonic, which the parent process shares.
"""

from __future__ import annotations

import hashlib
import json
from array import array
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    sys.path.insert(0, str(SRC))
    import quadforms

    if not Path(quadforms.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"quadforms resolved to {quadforms.__file__}, outside {SRC}")
    return quadforms


def digest(value) -> bytes:
    return hashlib.blake2b(repr(value).encode(), digest_size=16).digest()


class Checker:
    """Checks every output; an input's later outputs must equal its first, checked one."""

    def __init__(self, qf, workload) -> None:
        self.qf = qf
        self.workload = workload
        self.first: dict[int, bytes | None] = {}
        self.attempted = 0
        self.failed = 0  # raised, or gave a wrong or incomplete answer
        self.wrong = 0
        self.errors: list[str] = []

    def record(self, i: int, x, out, error: str | None = None) -> None:
        """Count one operation; error is set when it raised instead of answering."""
        self.attempted += 1
        if error is None:
            if i in self.first:
                good = self.first[i]
                if good is None or digest(self.workload.plain(out)) != good:
                    error = f"input {x!r}: output differs from the first, checked one"
            else:
                error = self.workload.check(self.qf, x, out)
                self.first[i] = None if error else digest(self.workload.plain(out))
            self.wrong += error is not None
        if error:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)


def run_round(workload, qf, inputs, checker: Checker, times: array, call=None) -> None:
    """Time each operation into times; check its output outside the timed interval."""
    for i, x in enumerate(inputs):
        try:
            t0 = perf_counter()
            out = call(workload.run, qf, x) if call else workload.run(qf, x)
            times[i] = perf_counter() - t0
        except Exception as exc:  # a failed operation is counted, not fatal
            times[i] = perf_counter() - t0
            checker.record(i, x, None, f"input {x!r}: {type(exc).__name__}: {exc}")
            continue
        checker.record(i, x, out)


def timed_rounds(workload, qf, inputs, checker: Checker, seconds: float) -> dict:
    """Whole rounds until seconds have passed and at least workload.timed_rounds are done.

    Only the last timed_rounds rounds are kept, in preallocated arrays, so the
    slowest time of an input is always taken over the same number of samples
    and the memory used does not grow with the speed of the code measured.
    """
    kept = [array("d", bytes(8 * len(inputs))) for _ in range(workload.timed_rounds)]
    done = 0
    t_end = perf_counter() + seconds
    while done < len(kept) or perf_counter() < t_end:
        run_round(workload, qf, inputs, checker, kept[done % len(kept)])
        done += 1
    return {
        "rounds": done,
        "round_s": [sum(times) for times in kept],
        "per_input": [max(ts) for ts in zip(*kept)],
    }


def main(argv: list[str]) -> int:
    name, seed, mode, seconds = argv[0], int(argv[1]), argv[2], float(argv[3])
    qf = import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.inputs(seed)
    for x in workload.warmup():
        workload.run(qf, x)
    first_op = time.monotonic()
    result: dict = {"first_op": first_op, "package": qf.__file__}
    if mode == "setup":
        print(json.dumps(result))
        return 0
    checker = Checker(qf, workload)
    if mode == "timed":
        result.update(timed_rounds(workload, qf, inputs, checker, seconds))
    elif mode == "traced":
        from tracer import Tracer

        cache = sys.modules["quadforms.numtheory"].primes_upto.cache_info
        misses = cache().misses
        tracer = Tracer(qf)
        times = array("d", bytes(8 * len(inputs)))
        tracer.install()
        try:
            run_round(workload, qf, inputs, checker, times, tracer.operation)
        finally:
            tracer.uninstall()
        result["round_s"] = [sum(times)]
        result["primes_upto_misses"] = cache().misses - misses
        result["calls"] = tracer.calls
        result["self_s"] = tracer.self_s
        result["counters"] = tracer.counters
        result["spans"] = len(tracer.start)
        out = ROOT / "perfbench" / "out" / f"trace-{name}.spans"
        tracer.write(out)
        result["span_file"] = str(out.relative_to(ROOT))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["attempted"] = checker.attempted
    result["failed"] = checker.failed
    result["wrong"] = checker.wrong
    result["errors"] = checker.errors
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

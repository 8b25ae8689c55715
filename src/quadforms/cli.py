"""Command-line interface.

Every subcommand accepts --format {text,json} and --convention {half,full}.
Forms are written "a,b,c"; under the default half convention b is the halved
middle coefficient (the form is ax^2 + 2bxy + cy^2), under full the middle
coefficient is given in full and must be even.  JSON output is a single
envelope {"command": ..., "input": ..., "result": ...} with sorted keys.
Exit codes: 0 on success, 1 on a domain error, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .composition import class_multiples, compose_same_det
from .factorizer import _SIEVE_BUDGET, FactorConfig, factor
from .forms import QuadraticForm
from .genus import character, sqrt_of_form
from .numtheory import DomainError
from .reduction import (
    enumerate_reduced_negative,
    enumerate_reduced_positive,
    period,
    properly_equivalent,
    reduce_negative,
    reduce_positive,
)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_form(text: str, convention: str) -> QuadraticForm:
    f = QuadraticForm.parse(text)
    if convention == "full":
        if f.b % 2:
            raise DomainError("full-convention middle coefficient must be even")
        return QuadraticForm(f.a, f.b // 2, f.c)
    return f


def _form_cells(f: QuadraticForm) -> dict:
    return {"half": [f.a, f.b, f.c], "full": [f.a, 2 * f.b, f.c]}


def _forms_of(args: argparse.Namespace, count: int) -> list[QuadraticForm]:
    given = args.form or []
    if len(given) != count:
        raise DomainError(f"expected {count} --form argument(s), got {len(given)}")
    return [_parse_form(t, args.convention) for t in given]


def _cmd_reduce(args: argparse.Namespace) -> tuple[str, dict, list[str], int]:
    (f,) = _forms_of(args, 1)
    trace = reduce_negative(f) if f.determinant < 0 else reduce_positive(f)
    t = trace.transformation
    result = {
        "determinant": f.determinant,
        "chain": [list(g.coefficients()) for g in trace.chain],
        "b_sequence": list(trace.b_sequence),
        "transformation": [t.alpha, t.beta, t.gamma, t.delta],
        "reduced": _form_cells(trace.result),
    }
    lines = [
        f"determinant: {f.determinant}",
        "chain: " + " -> ".join(str(g) for g in trace.chain),
        f"full: {trace.result.a},{2 * trace.result.b},{trace.result.c}",
        f"reduced: {trace.result}",
    ]
    return str(f), result, lines, 0


def _cmd_enumerate(args: argparse.Namespace) -> tuple[str, dict, list[str], int]:
    d = args.det
    if d is None:
        raise DomainError("--det is required")
    if d < 0:
        forms = enumerate_reduced_negative(d, args.method)
    else:
        forms = enumerate_reduced_positive(d)
    result = {
        "determinant": d,
        "method": args.method if d < 0 else None,
        "count": len(forms),
        "forms": [list(g.coefficients()) for g in forms],
    }
    lines = [f"count: {len(forms)}"] + [str(g) for g in forms]
    return str(d), result, lines, 0


def _cmd_period(args: argparse.Namespace) -> tuple[str, dict, list[str], int]:
    (f,) = _forms_of(args, 1)
    cycle = period(f)
    result = {
        "determinant": f.determinant,
        "length": cycle.length,
        "forms": [list(g.coefficients()) for g in cycle.forms],
    }
    lines = [f"length: {cycle.length}"] + [str(g) for g in cycle.forms]
    return str(f), result, lines, 0


def _cmd_equivalent(args: argparse.Namespace) -> tuple[str, dict, list[str], int]:
    f1, f2 = _forms_of(args, 2)
    verdict = properly_equivalent(f1, f2)
    result = {"equivalent": verdict}
    lines = [f"properly equivalent: {'yes' if verdict else 'no'}"]
    return f"{f1}; {f2}", result, lines, 0


def _cmd_character(args: argparse.Namespace) -> tuple[str, dict, list[str], int]:
    (f,) = _forms_of(args, 1)
    profile = character(f)
    result = {
        "determinant": f.determinant,
        "entries": list(profile.tokens()),
        "profile": str(profile),
    }
    return str(f), result, [str(profile)], 0


def _cmd_compose(args: argparse.Namespace) -> tuple[str, dict, list[str], int]:
    f1, f2 = _forms_of(args, 2)
    composed = compose_same_det(f1, f2)
    result = {"determinant": composed.determinant, "composed": _form_cells(composed)}
    lines = [
        f"determinant: {composed.determinant}",
        f"full: {composed.a},{2 * composed.b},{composed.c}",
        f"composed: {composed}",
    ]
    return f"{f1}; {f2}", result, lines, 0


def _cmd_class_multiples(args: argparse.Namespace) -> tuple[str, dict, list[str], int]:
    (f,) = _forms_of(args, 1)
    reps = class_multiples(f, args.n)
    result = {
        "determinant": f.determinant,
        "multiples": [{"n": n, "form": list(g.coefficients())} for n, g in reps],
    }
    lines = [f"{n}: {g}" for n, g in reps]
    return str(f), result, lines, 0


def _cmd_sqrtform(args: argparse.Namespace) -> tuple[str, dict, list[str], int]:
    (f,) = _forms_of(args, 1)
    modulus = args.mod if args.mod is not None else abs(f.determinant)
    solutions = sqrt_of_form(f, args.n, modulus)
    result = {
        "multiplier": args.n,
        "modulus": modulus,
        "count": len(solutions),
        "solutions": [[s.g, s.h] for s in solutions],
    }
    lines = [f"count: {len(solutions)}"] + [f"{s.g},{s.h}" for s in solutions]
    return f"{f}; n={args.n}; mod={modulus}", result, lines, 0


def _cmd_factor(args: argparse.Namespace) -> tuple[str, dict, list[str], int]:
    given = {
        "multipliers": args.multipliers,
        "period_steps": args.steps,
        "window": args.window,
        "smooth_bound": args.smooth_bound,
        "class_seed_lead": args.class_seed,
        "sieve_limit": args.limit,
    }
    report = factor(args.n, FactorConfig(**{k: v for k, v in given.items() if v is not None}))
    lines = [
        f"residues: {len(report.residues)}",
        f"survivors: {', '.join(str(p) for p in report.survivors) if report.survivors else '-'}",
    ]
    if report.complete:
        lines.append(f"{report.input} = {report.factorization}")
        code = 0
    else:
        lines.append(f"incomplete: cofactor {report.factorization.cofactor} remains")
        code = 1
    return str(args.n), report.to_json(), lines, code


_HANDLERS = {
    "reduce": _cmd_reduce,
    "enumerate": _cmd_enumerate,
    "period": _cmd_period,
    "equivalent": _cmd_equivalent,
    "character": _cmd_character,
    "compose": _cmd_compose,
    "class-multiples": _cmd_class_multiples,
    "sqrtform": _cmd_sqrtform,
    "factor": _cmd_factor,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--convention", choices=("half", "full"), default="half")
    common.add_argument("--seed", type=int, default=0, help="reserved; output is deterministic")

    parser = argparse.ArgumentParser(prog="quadforms", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", parents=[common], help="reduce a form to canonical shape")
    p.add_argument("--form", action="append", metavar="a,b,c")

    p = sub.add_parser("enumerate", parents=[common], help="list all reduced forms of a determinant")
    p.add_argument("--det", type=int, required=True)
    p.add_argument("--method", type=int, choices=(1, 2), default=1)

    p = sub.add_parser("period", parents=[common], help="walk the period of an indefinite form")
    p.add_argument("--form", action="append", metavar="a,b,c")

    p = sub.add_parser("equivalent", parents=[common], help="test proper equivalence of two forms")
    p.add_argument("--form", action="append", metavar="a,b,c")

    p = sub.add_parser("character", parents=[common], help="complete character of a primitive form")
    p.add_argument("--form", action="append", metavar="a,b,c")

    p = sub.add_parser("compose", parents=[common], help="compose two forms of one determinant")
    p.add_argument("--form", action="append", metavar="a,b,c")

    p = sub.add_parser("class-multiples", parents=[common], help="reduced powers of a class")
    p.add_argument("--form", action="append", metavar="a,b,c")
    p.add_argument("--n", type=int, default=10, help="highest power")

    p = sub.add_parser("sqrtform", parents=[common], help="square roots of a multiple of a form")
    p.add_argument("--form", action="append", metavar="a,b,c")
    p.add_argument("--n", type=int, default=1, help="multiplier M")
    p.add_argument("--mod", type=int, default=None, help="modulus (default |det|)")

    p = sub.add_parser("factor", parents=[common], help="factor via quadratic residues")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--multipliers", type=_int_list, default=None, metavar="K,K,...",
                   help="form multipliers, comma separated (default 1,2,3)")
    p.add_argument("--steps", type=int, default=None, help="period steps per multiplier")
    p.add_argument("--window", type=int, default=None, help="square-representation window")
    p.add_argument("--smooth-bound", type=int, default=None)
    p.add_argument("--limit", type=int, default=None,
                   help="sieve limit (default isqrt); the sieve runs only when isqrt of "
                        f"the cofactor is at most {_SIEVE_BUDGET}")
    p.add_argument("--class-seed", type=int, default=None, metavar="LEAD",
                   help="harvest class multiples from a seed with this lead")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        echo, result, lines, code = _HANDLERS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps({"command": args.command, "input": echo, "result": result}, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

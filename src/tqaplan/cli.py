"""Command-line surface: generate benchmark domains, encode theories, solve,
validate plans, and run benchmark sweeps into a CSV.

Exit codes for solve: 0 plan found, 1 stage counts exhausted, 2 resource
limit, 3 input error.  Validate: 0 valid, 1 invalid, 3 malformed input.
Every command exits 3 on an input error, a malformed or missing argument
included, with a one-line message on stderr, and 141 (128 + SIGPIPE, as a
shell reports a process killed by a broken pipe) when its standard output
is closed early.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .benchgen import GadgetSpec, gen_cushing
from .domain import (
    DOMAIN_KEYS,
    Domain,
    DomainFormatError,
    domain_from_document,
    read_document,
    serialize_domain,
    validate_domain,
)
from .cpmodel import export_model
from .encoder import encode
from .search import (
    EXHAUSTED,
    FOUND,
    FindOutcome,
    SearchLimits,
    _n_schedule,
    find_plan,
    plan_from_document,
    plan_to_document,
)
from .theory import instantiate
from .validator import validate_plan

CSV_COLUMNS = (
    "instance",
    "type",
    "copies",
    "height",
    "n_found",
    "bool_vars",
    "int_vars",
    "nodes",
    "wall_ms",
    "objective",
    "verdict",
)


EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 3


class _Parser(argparse.ArgumentParser):
    """Reports argument errors as input errors (exit 3, one line), not with
    argparse's usage block and exit 2, which solve uses for a resource limit."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _load_domain(path: str, strict: bool) -> Domain:
    doc = read_document(Path(path).read_text(encoding="utf-8"))
    if not strict and isinstance(doc, dict):
        dropped = set(doc) - set(DOMAIN_KEYS)
        if dropped:
            print(f"warning: ignoring unknown keys {sorted(dropped)}", file=sys.stderr)
            doc = {k: v for k, v in doc.items() if k in DOMAIN_KEYS}
    domain = domain_from_document(doc)
    diags = validate_domain(domain)
    if diags:
        raise DomainFormatError("$", "; ".join(str(d) for d in diags))
    return domain


def _limits_from(args) -> SearchLimits:
    return SearchLimits(
        max_n=args.max_n,
        copy_cap=args.max_copies,
        horizon=args.horizon,
        time_budget=args.time_budget,
    )


def _run_record(instance: str, outcome: FindOutcome) -> dict:
    return {
        "instance": instance,
        "n_found": outcome.n_found,
        "wall_ms": round(outcome.wall_time * 1000, 3),
        "nodes": outcome.nodes,
        "bool_vars": outcome.model_stats[0],
        "int_vars": outcome.model_stats[1],
        "objective": str(outcome.plan.objective)
        if outcome.found and outcome.plan.objective is not None
        else None,
        "verdict": outcome.status,
        "minimal_n_guaranteed": outcome.minimal_n_guaranteed,
        "last_n": outcome.last_n,
        "limit_reason": outcome.limit_reason,
    }


def cmd_solve(args) -> int:
    domain = _load_domain(args.domain, args.strict_io)
    outcome = find_plan(
        domain,
        objective=args.objective,
        limits=_limits_from(args),
        geometric=args.geometric_n,
    )
    print(json.dumps(_run_record(args.domain, outcome)))
    if outcome.status == FOUND:
        plan_path = args.plan_out or str(Path(args.domain).with_suffix(".plan.json"))
        Path(plan_path).write_text(plan_to_document(outcome.plan), encoding="utf-8")
        print(f"plan written to {plan_path}", file=sys.stderr)
        return 0
    if outcome.status == EXHAUSTED:
        # the horizon cuts the schedule short exactly when it is below --max-n
        if args.horizon is not None and args.horizon < args.max_n:
            reason = f"--horizon {args.horizon} admits no more stages"
        else:
            reason = f"--max-n {args.max_n} reached"
        if args.geometric_n:
            probed = "at stage counts " + ", ".join(map(str, _n_schedule(outcome.last_n, True)))
        else:
            probed = f"up to {outcome.last_n} stages"
        print(f"no plan {probed} ({reason})", file=sys.stderr)
        return 1
    print(f"resource limit reached: {outcome.limit_reason}", file=sys.stderr)
    return 2


def cmd_validate(args) -> int:
    domain = _load_domain(args.domain, args.strict_io)
    plan = plan_from_document(Path(args.plan).read_text(encoding="utf-8"))
    report = validate_plan(domain, plan)
    payload = {
        "verdict": report.verdict,
        "violations": [
            {"rule": v.rule, "subjects": list(v.subjects), "message": v.message}
            for v in report.violations
        ],
    }
    print(json.dumps(payload, indent=2))
    return 0 if report.is_valid else 1


def cmd_gen(args) -> int:
    domain = gen_cushing(GadgetSpec(args.type, args.copies, args.height))
    text = serialize_domain(domain)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"domain written to {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def cmd_encode(args) -> int:
    domain = _load_domain(args.domain, args.strict_io)
    model = encode(instantiate(domain, args.n, args.max_copies, args.horizon), args.objective)
    text = export_model(model)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"model written to {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _parse_range(flag: str, text: str) -> range:
    """The values of ``text``, a count ``A`` or a range ``A..B``."""
    lo, dots, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise ValueError(f"{flag}: expected a count or a range A..B, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag}: empty range {text!r}")
    return values


def cmd_bench(args) -> int:
    # build every instance first, so that a bad one exits before any is solved
    heights = _parse_range("--height", args.height) if args.height else [None]
    specs = [
        GadgetSpec(args.type, m, h) for m in _parse_range("--copies", args.copies) for h in heights
    ]
    limits = _limits_from(args)
    rows = []
    for spec in specs:
        m, h = spec.copies, spec.height
        domain = gen_cushing(spec)
        instance = f"{args.type.lower()}-m{m}" + (f"-h{h}" if h else "")
        outcome = find_plan(
            domain, objective=args.objective, limits=limits, geometric=args.geometric_n
        )
        row = _run_record(instance, outcome)
        row.update(type=args.type, copies=m, height=h)
        if outcome.found:
            report = validate_plan(domain, outcome.plan)
            row["verdict"] = "valid" if report.is_valid else "invalid-plan"
        rows.append(row)
        print(
            f"{instance}: {row['verdict']} n={outcome.n_found} {row['wall_ms']}ms",
            file=sys.stderr,
        )
    out_path = Path(args.out)
    new_file = not out_path.exists()
    with out_path.open("a", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        if new_file:
            writer.writeheader()
        writer.writerows(rows)
    print(f"{len(rows)} records appended to {args.out}", file=sys.stderr)
    return 0


def _add_model_flags(sub) -> None:
    sub.add_argument("--max-copies", type=int, default=None, help="cap on action copies")
    sub.add_argument("--horizon", type=int, default=None, help="fixed time horizon")
    sub.add_argument(
        "--objective", choices=("none", "makespan", "costs"), default="none"
    )


def _add_document_flags(sub) -> None:
    """For the commands that read a domain document."""
    sub.add_argument("domain")
    sub.add_argument(
        "--strict-io",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reject unknown keys in input documents",
    )


def _add_search_flags(sub) -> None:
    _add_model_flags(sub)
    sub.add_argument("--max-n", type=int, default=20, help="largest stage count to try")
    sub.add_argument("--time-budget", type=float, default=300.0, help="seconds")
    sub.add_argument("--geometric-n", action="store_true", help="probe 1,2,4,... (minimality not guaranteed)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tqaplan",
        description="Temporal planning via bounded interval-logic satisfiability",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="search stage counts and write a plan")
    _add_document_flags(p_solve)
    p_solve.add_argument("--plan-out", default=None, help="plan document path")
    _add_search_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_val = subs.add_parser("validate", help="check a plan document against a domain")
    _add_document_flags(p_val)
    p_val.add_argument("plan")
    p_val.set_defaults(func=cmd_validate)

    p_gen = subs.add_parser("gen", help="generate a benchmark domain")
    p_gen.add_argument("--type", choices=("I", "II", "III"), required=True)
    p_gen.add_argument("--copies", type=int, required=True)
    p_gen.add_argument("--height", type=int, default=None)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_enc = subs.add_parser("encode", help="dump the constraint model for one stage count")
    _add_document_flags(p_enc)
    p_enc.add_argument("--n", type=int, default=1, help="stage count to instantiate")
    p_enc.add_argument("--out", default=None)
    _add_model_flags(p_enc)
    p_enc.set_defaults(func=cmd_encode)

    p_bench = subs.add_parser("bench", help="solve a sweep of benchmark instances into CSV")
    p_bench.add_argument("--type", choices=("I", "II", "III"), required=True)
    p_bench.add_argument("--copies", required=True, help="count or range A..B")
    p_bench.add_argument("--height", default=None, help="count or range A..B (Type II/III)")
    p_bench.add_argument("--out", default="bench.csv")
    _add_search_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place that turns exceptions into exit codes."""
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so that the
        # interpreter's final flush of what is still buffered cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (OSError, ValueError) as exc:
        # unreadable paths, malformed arguments, and documents or flag values
        # the library rejects (every format error it raises is a ValueError)
        return _fail(str(exc))
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 on success, 1 on an input problem (usage, parse, validation,
or an impossible query), 2 when the run hits the timeout or the node cap.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from . import benchgen, infer, oracle
from .bdd import NodeLimitError
from .compiler import CompileError, compile_program, compile_query, query_cvs_of
from .grounder import GroundingError, StratificationError, format_ground, ground
from .model import Assignment, Literal, Program
from .parser import ParseError, parse_atom, parse_literal, parse_program


_ALARM_REPEAT_S = 0.1


class _Timeout(Exception):
    pass


def _read_program(args):
    try:
        with open(args.program, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(str(exc))
    program = parse_program(text, filename=args.program)
    if getattr(args, "evidence", None):
        extra = tuple(parse_literal(text) for text in args.evidence)
        program = Program(program.clauses, program.evidence + extra, program.queries,
                          program.warnings)
    infer.check_program(program)
    for warning in program.warnings:
        print("warning: %s" % warning, file=sys.stderr)
    return program


def _query_atom(args, program):
    if getattr(args, "query", None):
        return parse_atom(args.query)
    if program.queries:
        if len(program.queries) > 1:
            rest = ", ".join("query(%s)" % q for q in program.queries[1:])
            print("warning: only the first query directive is answered, not %s; "
                  "pass --query to ask for another" % rest, file=sys.stderr)
        return program.queries[0]
    raise ParseError("no query: pass --query or add a query directive")


def _emit(args, result):
    if args.json:
        json.dump(result.to_json_dict(), sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in result.to_text_lines():
            print(line)
        if args.stats:
            for key, val in sorted(result.stats.to_json_dict().items()):
                print("stat %s: %s" % (key, val))


def _dump_ground(args, gp):
    if args.dump_ground:
        print(format_ground(gp), file=sys.stderr)


def _diagram(args, task):
    """The program, its ground program for the task, and the literals whose
    conjunction the answer is read from: the query and the evidence for
    prob, the evidence for mpe and map."""
    program = _read_program(args)
    literals = list(program.evidence)
    if task == "prob":
        literals.insert(0, Literal(_query_atom(args, program)))
    gp = ground(program, [lit.atom for lit in literals], choices=task != "prob")
    return program, gp, literals


def _dot_text(args, gp, task, literals):
    roots = [lit.atom for lit in literals]
    cp = compile_program(gp, task=task, node_cap=args.node_cap, roots=roots)
    return cp.manager.to_dot(compile_query(cp, literals))


def _cmd_solve(args, task):
    program, gp, literals = _diagram(args, task)
    _dump_ground(args, gp)
    kw = {"node_cap": args.node_cap, "gp": gp}
    if task == "prob":
        result = infer.prob_result(program, literals[0].atom, **kw)
    elif task == "mpe":
        result = infer.mpe(program, normalize=args.normalize, **kw)
    else:
        result = infer.map_query(program, normalize=args.normalize, **kw)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(_dot_text(args, gp, task, literals))
    _emit(args, result)
    return 0


def _oracle_result(args):
    program = _read_program(args)
    gp = ground(program)
    _dump_ground(args, gp)
    evidence = list(program.evidence)
    if args.task == "prob":
        query = [Literal(_query_atom(args, program))]
        if evidence:
            try:
                value = oracle.exact_cond_prob(gp, query, evidence)
            except ZeroDivisionError:
                raise infer.InferError("evidence has probability zero") from None
        else:
            value = oracle.exact_prob(gp, query)
        return value, None
    value, sels = oracle.exact_map(gp, evidence, query_cvs_of(gp, args.task))
    if not sels:
        raise infer.InferError("evidence has probability zero")
    return value, Assignment.of(gp, oracle.first_maximiser(sels))


def _cmd_oracle(args):
    value, assignment = _oracle_result(args)
    if args.json:
        out = {
            "task": args.task,
            "value": value,
            "assignment": None if assignment is None else assignment.to_rule_dicts(),
        }
        json.dump(out, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print("value: %r" % value)
        if assignment is not None:
            for line in assignment.to_rule_lines():
                print(line)
    return 0


def _cmd_ground(args):
    program = _read_program(args)
    gp = ground(program)
    print(format_ground(gp))
    return 0


def _cmd_dot(args):
    _, gp, literals = _diagram(args, args.task)
    text = _dot_text(args, gp, args.task, literals)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text)
    return 0


def _cmd_bench(args):
    if "map" in args.task and not args.fraction:
        raise ValueError("map runs need at least one --fraction")
    if args.fraction and "map" not in args.task:
        raise ValueError("--fraction applies to map runs only")
    if args.seeds < 1:
        raise ValueError("--seeds must be at least 1, not %d" % args.seeds)
    # every spec is checked before the first run
    specs = [
        benchgen.BenchSpec(
            family=args.family,
            size=size,
            seed=seed,
            task=task,
            map_fraction=fraction,
            timeout=args.timeout,
            node_cap=args.node_cap,
        )
        for size in args.size
        for seed in range(args.seeds)
        for task in args.task
        for fraction in (args.fraction if task == "map" else [None])
    ]
    rows = [benchgen.run_bench(spec) for spec in specs]
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            benchgen.write_rows(rows, handle)
    else:
        benchgen.write_rows(rows, sys.stdout)
    return 0


# the flags a subcommand registers only when it honours them
_FLAGS = {
    "--evidence": dict(action="append", metavar="LITERAL",
                       help="extra evidence literal (repeatable)"),
    "--query": dict(metavar="ATOM", help="query atom"),
    "--node-cap": dict(type=int, default=None),
    "--json": dict(action="store_true", help="emit JSON"),
    "--stats": dict(action="store_true", help="print run statistics (text mode)"),
    "--dump-ground": dict(action="store_true",
                          help="print the ground program to stderr"),
    "--timeout": dict(type=float, default=None, metavar="SECONDS"),
}


def _add_common(sub, *flags):
    sub.add_argument("program", help="program file")
    for flag in ("--timeout",) + flags:
        sub.add_argument(flag, **_FLAGS[flag])


def _check_limits(args):
    """Reject a timeout or node cap that cannot be met or armed."""
    benchgen.check_limits(args.timeout, getattr(args, "node_cap", None),
                          ("--timeout", "--node-cap"))


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as other bad input
    does; argparse's own code, 2, means a timeout or the node cap here.
    The subcommand parsers are of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    parser = _Parser(
        prog="lpadc",
        description="Probabilistic inference for logic programs with "
        "annotated disjunctions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    solve = ("--evidence", "--node-cap", "--json", "--stats", "--dump-ground")
    p = subs.add_parser("prob", help="marginal or conditional probability")
    _add_common(p, "--query", *solve)
    p.add_argument("--dot", metavar="FILE",
                   help="write the query and evidence BDD as DOT")

    for name, text in (("mpe", "most probable total explanation"),
                       ("map", "most probable query-clause selection")):
        p = subs.add_parser(name, help=text)
        _add_common(p, *solve)
        p.add_argument("--normalize", action="store_true",
                       help="divide by the evidence probability")
        p.add_argument("--dot", metavar="FILE",
                       help="write the evidence BDD as DOT")

    p = subs.add_parser("oracle", help="answer by world enumeration")
    p.add_argument("task", choices=("prob", "mpe", "map"))
    _add_common(p, "--query", "--evidence", "--json", "--dump-ground")

    p = subs.add_parser("ground", help="print the ground program of every "
                        "possible atom")
    _add_common(p)

    p = subs.add_parser("dot", help="write a compiled BDD as DOT")
    p.add_argument("--task", choices=("prob", "mpe", "map"), default="prob")
    p.add_argument("-o", "--out", metavar="FILE")
    _add_common(p, "--query", "--evidence", "--node-cap")

    p = subs.add_parser("bench", help="generate and time benchmark instances")
    p.add_argument("--family", choices=benchgen.BENCH_FAMILIES, required=True)
    p.add_argument("--size", type=int, action="append", required=True)
    p.add_argument("--seeds", type=int, default=1,
                   help="run seeds 0..N-1 (default 1)")
    p.add_argument("--task", choices=benchgen.BENCH_TASKS, action="append",
                   required=True)
    p.add_argument("--fraction", type=float, action="append",
                   help="fraction of choice variables queried in map runs, in (0, 1]")
    for flag in ("--timeout", "--node-cap"):
        p.add_argument(flag, **_FLAGS[flag])
    p.add_argument("--out", metavar="FILE", help="CSV output path")
    return parser


_COMMANDS = {
    "prob": lambda args: _cmd_solve(args, "prob"),
    "mpe": lambda args: _cmd_solve(args, "mpe"),
    "map": lambda args: _cmd_solve(args, "map"),
    "oracle": _cmd_oracle,
    "ground": _cmd_ground,
    "dot": _cmd_dot,
    "bench": _cmd_bench,
}


def _alarm(signum, frame):
    raise _Timeout()


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    timeout = args.timeout
    old = None
    try:
        _check_limits(args)
        if timeout is not None and args.command != "bench":
            old = signal.signal(signal.SIGALRM, _alarm)
            # the alarm repeats until handled: Python drops an exception raised
            # inside a finalizer such as BddRef.__del__, so one alarm can be lost
            signal.setitimer(signal.ITIMER_REAL, timeout, _ALARM_REPEAT_S)
        return handler(args)
    except (ParseError, GroundingError, StratificationError, CompileError,
            infer.InferError, oracle.OracleCapError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except _Timeout:
        signal.setitimer(signal.ITIMER_REAL, 0)
        print("error: timed out after %ss" % timeout, file=sys.stderr)
        return 2
    except NodeLimitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        if old is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


if __name__ == "__main__":
    sys.exit(main())

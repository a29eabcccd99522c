"""Command-line entry point.

All results go to standard output as JSON with fixed key order; diagnostics
go to standard error.  Exit status: 0 decided/ok, 1 negative decision,
2 usage error, 3 validation or input error, or a run out of memory or
stack depth.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import expression, generators, graphs, oracle
from .dp_answersets import has_answer_set_dp
from .dp_classical import has_model_dp
from .errors import AspcwError
from .program import parse_program, serialize_program
from .tables import trace_json

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INVALID = 3


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_program(path: str):
    return parse_program(Path(path).read_text())


def _load_expression(path: str):
    return expression.parse_expression(Path(path).read_text())


class _TableSizes:
    """The trace sink of `solve`: the node count (the last index), the
    width (each node's field width w, the label count) and the largest
    table, and with `keep` the nodes, for the trace file."""

    def __init__(self, keep: bool):
        self.node_count = self.width = self.max_table = 0
        self.nodes = [] if keep else None

    def append(self, node) -> None:
        self.node_count, self.width = node.index, node.w
        self.max_table = max(self.max_table, len(node.table))
        if self.nodes is not None:
            self.nodes.append(node)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    program = _load_program(args.program)
    if args.expr:
        expr = _load_expression(args.expr)
    elif args.auto_expr == "heuristic":
        expr = expression.heuristic_expression(program)
    else:
        expr = expression.trivial_expression(program)
    mismatches = expression.validate_against(expr, program)
    if mismatches:
        _emit({"error": "expression does not define the program's graph",
               "mismatches": mismatches})
        return EXIT_INVALID

    if args.mode == "classical":
        decide, field = has_model_dp, "triples"
    else:
        decide, field = has_answer_set_dp, "pairs"
    sink = _TableSizes(keep=bool(args.trace))
    # The sink is the decision's one observer: it keeps the sizes and the
    # width, and the nodes only for a trace, so the path and the payload
    # are the same with and without one.  The trace file is opened first,
    # so a path that cannot be written fails before the decision.  It is
    # written over in place and then cut at the new end, which costs less
    # than cutting it to nothing first, and a decision that fails leaves it
    # empty.  A device or a pipe has no size to cut.
    out = open(os.open(args.trace, os.O_WRONLY | os.O_CREAT, 0o666), "wb") \
        if args.trace else None
    text = b""
    try:
        decision = decide(expr, trace=sink)
        if out is not None:
            text = trace_json(sink.nodes, field).encode()
    finally:
        if out is not None:
            with out:
                old = os.fstat(out.fileno()).st_size
                out.write(text)
                if old > len(text):
                    out.truncate(len(text))
    _emit({"decision": decision, "width": sink.width,
           "table_sizes": {"node_count": sink.node_count,
                           "max_table": sink.max_table}})
    return EXIT_OK if decision else EXIT_NEGATIVE


def _cmd_oracle(args) -> int:
    program = _load_program(args.program)
    if args.mode == "models":
        found = oracle.enumerate_models(program, bound=args.bound)
    else:
        found = oracle.enumerate_answer_sets(program, bound=args.bound)
    order = program.atom_index()
    _emit({"mode": args.mode,
           "sets": [sorted(s, key=order.__getitem__) for s in found]})
    return EXIT_OK


def _cmd_validate(args) -> int:
    program = _load_program(args.program)
    expr = _load_expression(args.expr)
    joined = frozenset(args.join.split(",")) if args.join else frozenset()
    mismatches = expression.validate_against(expr, program, joined=joined)
    _emit({"ok": not mismatches, "mismatches": mismatches})
    return EXIT_OK if not mismatches else EXIT_INVALID


def _cmd_measure(args) -> int:
    if args.metric in ("cyclerank", "uncyclerank"):
        d = graphs.digraph_from_json(Path(args.graph).read_text())
        if args.metric == "cyclerank":
            value = graphs.cycle_rank(d, max_vertices=args.max_vertices)
        else:
            value = graphs.undirected_cycle_rank(d, max_vertices=args.max_vertices)
        _emit({"metric": args.metric, "value": value})
        return EXIT_OK
    program = _load_program(args.program)
    count = 0
    all_le_one = True
    for orientation in graphs.homogeneous_orientations(
            program, max_groups=args.max_groups, samples=args.samples,
            seed=args.seed):
        count += 1
        if not graphs.is_cycle_rank_at_most(orientation, 1):
            all_le_one = False
    _emit({"metric": "homogeneous", "orientations": count,
           "all_cycle_rank_at_most_one": all_le_one})
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.kind == "qbf2asp":
        phi = generators.parse_qbf(Path(args.qbf).read_text())
        _write(args.out, serialize_program(generators.reduce_qbf_to_asp(phi)))
    elif args.kind == "pclique":
        g = generators.gen_pclique(args.k, args.part_size, args.density, args.seed)
        _write(args.out_graph, generators.pclique_to_json(g) + "\n")
        if args.out_program or args.out_expr:
            program, expr = generators.reduce_pclique_to_asp(g)
            if args.out_program:
                _write(args.out_program, serialize_program(program))
            if args.out_expr:
                _write(args.out_expr,
                       expression.serialize_expression(expr) + "\n")
    elif args.kind == "grid":
        _write(args.out, serialize_program(generators.gen_grid_program(args.n)))
    elif args.kind == "random-program":
        program = generators.gen_random_program(
            args.atoms, args.rules, (args.head_p, args.pos_p, args.neg_p),
            args.seed)
        _write(args.out, serialize_program(program))
    else:
        phi = generators.gen_random_qbf(args.n, args.m, args.terms, args.seed)
        _write(args.out, generators.serialize_qbf(phi))
    return EXIT_OK


def _cmd_expr(args) -> int:
    if args.action == "join":
        expr = _load_expression(args.expr)
        joined = frozenset(args.labels.split(","))
        result = expression.join_labels(expr, joined)
    else:
        program = _load_program(args.program)
        if args.action == "trivial":
            result = expression.trivial_expression(program)
        else:
            result = expression.heuristic_expression(program)
    _write(args.out, expression.serialize_expression(result) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then kept: building it
    costs far more than parsing one command line."""
    parser = argparse.ArgumentParser(
        prog="aspcw",
        description="Answer-set and classical-model decisions over "
                    "k-expressions of signed incidence graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a decomposition-based decision")
    p.add_argument("--mode", choices=("classical", "asp"), required=True)
    p.add_argument("--program", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr")
    group.add_argument("--auto-expr", choices=("trivial", "heuristic"))
    p.add_argument("--trace", help="write a per-node table trace (JSON)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="brute-force enumeration")
    p.add_argument("--mode", choices=("models", "answersets"), required=True)
    p.add_argument("--program", required=True)
    p.add_argument("--bound", type=int, default=oracle.DEFAULT_ENUMERATION_BOUND)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("validate", help="check an expression against a program")
    p.add_argument("--program", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--join", help="comma-separated signs treated as joined")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("measure", help="width measures")
    msub = p.add_subparsers(dest="metric", required=True)
    for metric in ("cyclerank", "uncyclerank"):
        mp = msub.add_parser(metric)
        mp.add_argument("--graph", required=True, help="digraph JSON file")
        mp.add_argument("--max-vertices", type=int, default=16)
        mp.set_defaults(func=_cmd_measure, metric=metric)
    mp = msub.add_parser("homogeneous")
    mp.add_argument("--program", required=True)
    mp.add_argument("--max-groups", type=int, default=14)
    mp.add_argument("--samples", type=int, default=64)
    mp.add_argument("--seed", type=int, default=0)
    mp.set_defaults(func=_cmd_measure, metric="homogeneous")

    p = sub.add_parser("gen", help="instance generators and reductions")
    gsub = p.add_subparsers(dest="kind", required=True)
    gp = gsub.add_parser("qbf2asp")
    gp.add_argument("--qbf", required=True)
    gp.add_argument("--out")
    gp.set_defaults(func=_cmd_gen, kind="qbf2asp")
    gp = gsub.add_parser("pclique")
    gp.add_argument("--k", type=int, required=True)
    gp.add_argument("--part-size", type=int, required=True)
    gp.add_argument("--density", type=float, default=0.5)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--out-graph")
    gp.add_argument("--out-program")
    gp.add_argument("--out-expr")
    gp.set_defaults(func=_cmd_gen, kind="pclique")
    gp = gsub.add_parser("grid")
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--out")
    gp.set_defaults(func=_cmd_gen, kind="grid")
    gp = gsub.add_parser("random-program")
    gp.add_argument("--atoms", type=int, required=True)
    gp.add_argument("--rules", type=int, required=True)
    gp.add_argument("--head-p", type=float, default=0.2)
    gp.add_argument("--pos-p", type=float, default=0.2)
    gp.add_argument("--neg-p", type=float, default=0.2)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--out")
    gp.set_defaults(func=_cmd_gen, kind="random-program")
    gp = gsub.add_parser("random-qbf")
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--m", type=int, required=True)
    gp.add_argument("--terms", type=int, required=True)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--out")
    gp.set_defaults(func=_cmd_gen, kind="random-qbf")

    p = sub.add_parser("expr", help="expression construction and transforms")
    esub = p.add_subparsers(dest="action", required=True)
    for action in ("trivial", "heuristic"):
        ep = esub.add_parser(action)
        ep.add_argument("--program", required=True)
        ep.add_argument("--out")
        ep.set_defaults(func=_cmd_expr, action=action)
    ep = esub.add_parser("join")
    ep.add_argument("--expr", required=True)
    ep.add_argument("--labels", required=True,
                    help="comma-separated signs to join, e.g. h,p,n")
    ep.add_argument("--out")
    ep.set_defaults(func=_cmd_expr, action="join")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AspcwError, ValueError, OSError) as exc:
        print(f"aspcw: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (MemoryError, OverflowError, RecursionError) as exc:
        # Their message is often empty, so the type names the cause.
        print(f"aspcw: out of resources ({type(exc).__name__})", file=sys.stderr)
        return EXIT_INVALID


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

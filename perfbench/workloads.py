"""Seeded instance sets for the three workloads, with reference answers.

Every instance carries the generated inputs (hashed into the fingerprint),
an operation that goes from those inputs to a verdict through aspcw's public
functions, and the verdict an independent reference gave at set-up.  The
operations look functions up on their modules at call time, so the tracer's
wrappers see them.  No reference answer comes from either DP.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

# The package re-exports the function ``dp_classical`` under its module's
# name, so the modules are looked up by their full names.
(cli, dp_answersets, dp_classical, expression, generators, graphs, oracle,
 program) = (importlib.import_module(f"aspcw.{name}") for name in (
     "cli", "dp_answersets", "dp_classical", "expression", "generators",
     "graphs", "oracle", "program"))

RANDOM_PARTS = (0.2, 0.2, 0.2)


class OperationError(Exception):
    """An operation ended without a verdict (invalid expression, CLI exit 3)."""


@dataclass
class Instance:
    kind: str
    inputs: str
    op: Callable[[], object]
    expected: object
    # Raised RecursionError when this benchmark was written (an expression
    # deeper than the interpreter's recursion limit); kept so the defect
    # stays visible.  Only that exception is an expected failure.
    known_defect: bool = False
    stats: dict = field(default_factory=dict)


def _seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.randrange(1 << 32)


def _oracle_has_answer_set(p) -> bool:
    return bool(oracle.enumerate_answer_sets(p))


def _require_valid(expr, prog, joined=frozenset()) -> None:
    mismatches = expression.validate_against(expr, prog, joined=joined)
    if mismatches:
        raise OperationError(f"expression rejected: {mismatches[:3]}")


# ---------------------------------------------------------------------------
# Operations (timed)
# ---------------------------------------------------------------------------

def decide_asp(text: str) -> bool:
    prog = program.parse_program(text)
    expr = expression.trivial_expression(prog)
    _require_valid(expr, prog)
    return dp_answersets.has_answer_set_dp(expr)


def decide_fixed_width(text: str) -> tuple[bool, bool]:
    prog = program.parse_program(text)
    expr = expression.heuristic_expression(prog)
    _require_valid(expr, prog)
    expr = expression.parse_expression(expression.serialize_expression(expr))
    return (dp_classical.has_model_dp(expr),
            dp_answersets.has_answer_set_dp(expr))


def check_pclique(program_text: str, expr_text: str, k: int) -> bool:
    prog = program.parse_program(program_text)
    expr = expression.parse_expression(expr_text)
    _require_valid(expr, prog, joined=frozenset({"p", "n"}))
    return expression.width(expr) <= 2 * k + k * k


def check_qbf_graphs(text: str) -> tuple[bool, bool]:
    prog = program.parse_program(text)
    closure = graphs.symmetric_closure(graphs.build_dependency_graph(prog))
    rank_ok = graphs.is_cycle_rank_at_most(closure, 2)
    orientations_ok = True
    for orientation in graphs.homogeneous_orientations(prog):
        orientations_ok = graphs.is_cycle_rank_at_most(orientation, 1) \
            and orientations_ok
    return rank_ok, orientations_ok


def solve_cli(argv: list[str], stats: dict, trace_path: str | None = None) -> bool:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code not in (cli.EXIT_OK, cli.EXIT_NEGATIVE):
        raise OperationError(f"aspcw exit {code}: {err.getvalue().strip()}")
    result = json.loads(out.getvalue())
    decision = result["decision"]
    if code != (cli.EXIT_OK if decision else cli.EXIT_NEGATIVE):
        raise OperationError(f"exit {code} disagrees with decision {decision}")
    stats["max_table"] = result["table_sizes"]["max_table"]
    if trace_path is not None:
        stats["trace_bytes"] = os.path.getsize(trace_path)
    return decision


# ---------------------------------------------------------------------------
# Instance sets (set-up)
# ---------------------------------------------------------------------------

def asp_sweep(seed: int, workdir: str) -> list[Instance]:
    """24 rounds of: a 9x7 random program, three QBF(2,2) reductions with
    3, 4 and 5 terms, a 10x8 random program.

    The three kinds take about 0.05, 0.1 and 0.2 s each, and the 1:3:1 mix
    puts the median inside the QBF block and the 90th percentile inside the
    10x8 block, where a different seed barely moves them."""
    seeds = _seeds("asp-sweep", seed)

    def random_program(atoms: int, rules: int) -> Instance:
        p = generators.gen_random_program(atoms, rules, RANDOM_PARTS, next(seeds))
        text = program.serialize_program(p)
        return Instance(f"random-{atoms}x{rules}", text,
                        partial(decide_asp, text), _oracle_has_answer_set(p))

    def qbf(terms: int) -> Instance:
        phi = generators.gen_random_qbf(2, 2, terms, next(seeds))
        p = generators.reduce_qbf_to_asp(phi)
        text = program.serialize_program(p)
        valid = generators.qbf_is_valid(phi)
        if valid != _oracle_has_answer_set(p):
            raise RuntimeError("qbf_is_valid and the oracle disagree on "
                               + generators.serialize_qbf(phi))
        return Instance("qbf-2x2", generators.serialize_qbf(phi) + text,
                        partial(decide_asp, text), valid)

    out = []
    for _ in range(24):
        out += [random_program(9, 7), qbf(3), qbf(4), qbf(5),
                random_program(10, 8)]
    return out


def cli_solve(seed: int, workdir: str) -> list[Instance]:
    """28 rounds of: `solve --mode asp --expr` on three 8-atom and one 9-atom
    program (6 rules), `solve --mode asp --trace` on three 5-atom and one
    6-atom program (5 rules), and `solve --mode classical --auto-expr
    trivial` on one program with 14 or 15 atoms (4 rules).

    About 70% of the operations take near 0.05 s and the rest 0.1-0.3 s, so
    both reported percentiles sit inside a block rather than between two."""
    seeds = _seeds("cli-solve", seed)
    trace_path = os.path.join(workdir, "trace.json")
    out = []

    def write(name: str, text: str) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def solve(kind: str, atoms: int, rules: int) -> None:
        p = generators.gen_random_program(atoms, rules, RANDOM_PARTS, next(seeds))
        inputs = program.serialize_program(p)
        argv = ["solve", "--program", write(f"p{len(out)}.lp", inputs)]
        trace = None
        if kind == "cli-classical":
            argv += ["--mode", "classical", "--auto-expr", "trivial"]
            expected = bool(oracle.enumerate_models(p))
        elif kind == "cli-asp-expr":
            expr_text = expression.serialize_expression(
                expression.trivial_expression(program.parse_program(inputs)))
            argv += ["--mode", "asp",
                     "--expr", write(f"p{len(out)}.expr", expr_text + "\n")]
            inputs += expr_text
            expected = _oracle_has_answer_set(p)
        else:
            trace = trace_path
            argv += ["--mode", "asp", "--auto-expr", "trivial", "--trace", trace]
            expected = _oracle_has_answer_set(p)
        stats: dict = {}
        out.append(Instance(kind, inputs, partial(solve_cli, argv, stats, trace),
                            expected, stats=stats))

    for i in range(28):
        for atoms in (8, 8, 8, 9):
            solve("cli-asp-expr", atoms, 6)
        for atoms in (5, 5, 5, 6):
            solve("cli-trace", atoms, 5)
        solve("cli-classical", 14 + i % 2, 4)
    return out


FIXED_WIDTH_SIZES = (100, 200, 300, 400)


def large_low_width(seed: int, workdir: str) -> list[Instance]:
    """12 rounds of: 18 partitioned-clique reductions (k = 4..6, parts of 2
    or 3 vertices), 6 QBF reductions (6-8 existential and 6-8 universal
    variables) checked against the paper's cycle-rank bounds, and one
    4-atom, 400-rule program; plus one fixed-width program per size.

    The clique checks (a few ms) hold the median and the QBF graph checks
    (about 0.05 s) the 90th percentile, which falls two thirds of the way
    into their block, so 72 of them keep it from moving with the seed; the
    fixed-width programs, the same for every seed, take the largest share
    of the wall time."""
    seeds = _seeds("large-low-width", seed)
    out = []
    for i in range(12):
        if i % 3 == 0:
            n = FIXED_WIDTH_SIZES[i // 3]
            atoms = ", ".join(f"a{j}" for j in range(1, n + 1))
            text = f":- {atoms}.\n" * n
            # The empty interpretation satisfies every rule and is minimal,
            # so it is both a model and an answer set.
            out.append(Instance(f"fixed-width-{n}", text,
                                partial(decide_fixed_width, text), (True, True)))
        for j in range(18):
            k, part_size = 4 + j % 3, 2 + (j // 3) % 2
            g = generators.gen_pclique(k, part_size, 0.4 + 0.1 * (j % 4),
                                       next(seeds))
            p, expr = generators.reduce_pclique_to_asp(g)
            text = program.serialize_program(p)
            expr_text = expression.serialize_expression(expr)
            clique = generators.has_partitioned_clique(g)
            out.append(Instance(
                "pclique", f"{generators.pclique_to_json(g)}clique={clique}\n"
                           f"{text}{expr_text}",
                partial(check_pclique, text, expr_text, k), True))
        for j in range(6):
            n, m = 6 + j % 3, 6 + (i + j) % 3
            phi = generators.gen_random_qbf(n, m, 4 + (i + j) % 5, next(seeds))
            text = program.serialize_program(generators.reduce_qbf_to_asp(phi))
            valid = generators.qbf_is_valid(phi)
            out.append(Instance(
                "qbf-graphs", f"{generators.serialize_qbf(phi)}valid={valid}\n{text}",
                partial(check_qbf_graphs, text), (True, True)))
        p = generators.gen_random_program(4, 400, RANDOM_PARTS, next(seeds))
        text = program.serialize_program(p)
        out.append(Instance("deep-4x400", text, partial(decide_asp, text),
                            _oracle_has_answer_set(p), known_defect=True))
    return out


WORKLOADS = {
    "asp-sweep": asp_sweep,
    "cli-solve": cli_solve,
    "large-low-width": large_low_width,
}

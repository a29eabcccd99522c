"""Expressions far deeper than the interpreter's recursion limit, and
programs far past the brute-force oracle's reach.

The trivial expression of a program with many rules is a left-deep chain of
unions with runs of edge inserts between them, so every tree transform and
both solvers must work without recursion.  Its width grows with the
program, but a decision forgets each label after its last edge insert, so
on a cycle its tables stay small however long the cycle is."""

import copy
import gc
import json
import pickle
import sys
import time
import tracemalloc

import pytest

from aspcw.cli import main
from aspcw.dp_answersets import has_answer_set_dp
from aspcw.dp_classical import has_model_dp
from aspcw.expression import (Introduce, Relabel, evaluate, fold,
                              heuristic_expression, join_labels, node_count,
                              parse_expression, serialize_expression,
                              trivial_expression, validate_against)
from aspcw.generators import (gen_random_program, gen_random_qbf,
                              qbf_is_valid, reduce_qbf_to_asp)
from aspcw.oracle import enumerate_answer_sets, enumerate_models
from aspcw.program import parse_program, serialize_program
from conftest import NodeEvents, table_nodes


def depth(expr):
    return fold(expr, lambda node, *below: 1 + max(below, default=0))


@pytest.fixture(scope="module", params=["random", "constraints"])
def deep(request):
    # The random program has no model; 2000 copies of one constraint keep
    # the empty set as a model and an answer set.
    if request.param == "random":
        program = gen_random_program(4, 2000, (0.2, 0.2, 0.2), 0)
    else:
        program = parse_program(":- a1, a2, a3, a4.\n" * 2000)
    expr = trivial_expression(program)
    assert depth(expr) > 5000 > sys.getrecursionlimit()
    return program, expr


def test_text_round_trip(deep):
    _, expr = deep
    text = serialize_expression(expr)
    assert serialize_expression(parse_expression(text)) == text


def test_equality_hash_repr(deep):
    _, expr = deep
    again = parse_expression(serialize_expression(expr))
    assert again == expr and again is not expr
    assert hash(again) == hash(expr)
    assert repr(again) == repr(expr)
    assert join_labels(expr, {"h", "p", "n"}) != expr


def relabel_chain(n):
    expr = Introduce(1, "x", "atom")
    for k in range(n):
        expr = Relabel(1 + k % 2, 2 - k % 2, expr)
    return expr


@pytest.mark.parametrize("make", [
    lambda: relabel_chain(5000),
    # 4 atoms and 2,996 rules: 3,000 vertices.
    lambda: trivial_expression(gen_random_program(4, 2996, (0.2,) * 3, 0)),
], ids=["relabels", "trivial"])
def test_pickle_and_copy(make):
    expr = make()
    assert depth(expr) > 3000 > sys.getrecursionlimit()
    for twin in (pickle.loads(pickle.dumps(expr)), copy.copy(expr),
                 copy.deepcopy(expr)):
        assert type(twin) is type(expr) and twin is not expr
        assert twin == expr and hash(twin) == hash(expr)
        assert serialize_expression(twin) == serialize_expression(expr)


def test_evaluate_and_validate(deep):
    program, expr = deep
    assert len(evaluate(expr).vertices) == 4 + 2000
    assert validate_against(expr, program) == []


def test_join_and_count(deep):
    program, expr = deep
    joined = join_labels(expr, {"h", "p", "n"})
    assert node_count(joined) == node_count(expr) > 5000
    assert validate_against(joined, program, joined={"h", "p", "n"}) == []


def test_decisions_match_oracle(deep):
    program, expr = deep
    assert has_model_dp(expr) == bool(enumerate_models(program))
    answer_set = bool(enumerate_answer_sets(program))
    assert has_answer_set_dp(expr) == answer_set
    events = NodeEvents()
    assert has_answer_set_dp(expr, trace=events) == answer_set
    events = [(index, op) for index, op, _ in events]
    # One event per table built: a run of edge inserts reports only its
    # top node, a union directly under an edge insert none, and every
    # other node its own.
    assert events == table_nodes(expr, fused=True)
    assert events[-1][0] == node_count(expr)
    assert has_answer_set_dp(heuristic_expression(program)) == answer_set


@pytest.mark.parametrize("n", [100, 101, 1000])
@pytest.mark.parametrize("negative", [False, True])
def test_cycles_past_the_oracle(n, negative):
    # Rules a(i+1) :- a(i), or a(i+1) :- not a(i), around a cycle of n
    # atoms.  The positive cycle's one answer set is the empty set; the
    # negative cycle has an answer set iff n is even.
    body = "not " if negative else ""
    program = parse_program("".join(f"a{i % n + 1} :- {body}a{i}.\n"
                                    for i in range(1, n + 1)))
    expr = trivial_expression(program)
    events = NodeEvents()
    decision = has_answer_set_dp(expr, trace=events)
    assert decision is (not negative or n % 2 == 0)
    assert max(size for _, _, size in events) <= 16
    assert has_model_dp(expr) is True


def cycle(n):
    """a(i+1) :- a(i) for i < n - 1, closed by a0 :- a(n-1)."""
    return parse_program("".join(f"a{i + 1} :- a{i}.\n" for i in range(n - 1))
                         + f"a0 :- a{n - 1}.\n")


def test_validation_memory_within_its_inputs():
    # A 20,000-atom cycle through both builders.  Validation keeps each
    # vertex set from its lowest vertex, so a cycle vertex's row spans a few
    # bits, and checking takes less memory than the program and expression
    # it reads: about 20 MB against 32 MB.  Sets as wide as their highest
    # vertex took over 600 MB here.
    tracemalloc.start()
    try:
        program = cycle(20000)
        for build in (trivial_expression, heuristic_expression):
            expr = build(program)
            inputs = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert validate_against(expr, program) == []
            peak = tracemalloc.get_traced_memory()[1] - inputs
            assert peak <= inputs, (build.__name__, peak, inputs)
            del expr
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", [trivial_expression, heuristic_expression])
def test_validation_time_linear_in_a_cycle(build):
    # Best of three, without the cyclic garbage collector, whose passes
    # depend on what else the process holds.
    def per_atom(n):
        program = cycle(n)
        expr = build(program)
        times = []
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                start = time.perf_counter()
                assert validate_against(expr, program) == []
                times.append(time.perf_counter() - start)
        finally:
            gc.enable()
        return min(times) / n

    assert per_atom(20000) <= 3 * per_atom(2000)


def test_qbf_reductions_decide_like_qbf_is_valid():
    # QBF(3,3,2) reductions: 13 atoms and 18 rules, width 31.  Seeds 0-9
    # give 6 valid and 4 invalid formulas.
    verdicts = []
    for seed in range(10):
        phi = gen_random_qbf(3, 3, 2, seed)
        decision = has_answer_set_dp(trivial_expression(reduce_qbf_to_asp(phi)))
        assert decision == qbf_is_valid(phi)
        verdicts.append(decision)
    assert verdicts.count(True) == 6 and verdicts.count(False) == 4


def test_qbf_reductions_past_the_oracle_decide_like_qbf_is_valid():
    # QBF(5,5,2) reductions: 21 atoms and 28 rules, past what the oracle
    # enumerates in a test.  Seeds 0-3 give 2 valid and 2 invalid formulas.
    verdicts = []
    for seed in range(4):
        phi = gen_random_qbf(5, 5, 2, seed)
        decision = has_answer_set_dp(trivial_expression(reduce_qbf_to_asp(phi)))
        assert decision == qbf_is_valid(phi)
        verdicts.append(decision)
    assert verdicts.count(True) == 2 and verdicts.count(False) == 2


def test_qbf_reduction_tables_keep_undominated_pairs():
    # QBF(5,5,8) seed 0 through the heuristic expression: 21 atoms, valid.
    # Dropping each pair whose Gamma holds another Gamma of the same Q keeps
    # its largest table at 5,040 pairs (27,450 without the drop); building
    # no table for a union under an edge insert keeps it at 2,520.
    phi = gen_random_qbf(5, 5, 8, 0)
    events = NodeEvents()
    decision = has_answer_set_dp(
        heuristic_expression(reduce_qbf_to_asp(phi)), trace=events)
    assert decision == qbf_is_valid(phi)
    assert max(size for _, _, size in events) <= 2520


def test_larger_qbf_reduction_joins_unions_into_edge_runs():
    # QBF(6,6,8) seed 0 through the heuristic expression: 25 atoms.  Its
    # largest union table held 22,770 pairs; the run above each union
    # builds only the pairs that survive it, at most 11,385.
    phi = gen_random_qbf(6, 6, 8, 0)
    events = NodeEvents()
    decision = has_answer_set_dp(
        heuristic_expression(reduce_qbf_to_asp(phi)), trace=events)
    assert decision == qbf_is_valid(phi)
    assert max(size for _, _, size in events) <= 11385


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_expr_trivial_on_cycle(capsys, tmp_path):
    n = 400
    program = tmp_path / "cycle.lp"
    program.write_text("".join(f"a{i % n + 1} :- a{i}.\n"
                               for i in range(1, n + 1)))
    out = tmp_path / "cycle.expr"
    code, _, err = run(capsys, "expr", "trivial", "--program", str(program),
                       "--out", str(out))
    assert code == 0, err
    assert depth(parse_expression(out.read_text())) > sys.getrecursionlimit()


def test_cli_solve_deep(capsys, tmp_path):
    program = tmp_path / "deep.lp"
    program.write_text(serialize_program(
        gen_random_program(4, 400, (0.2, 0.2, 0.2), 0)))
    code, out, err = run(capsys, "solve", "--mode", "asp", "--program",
                         str(program), "--auto-expr", "trivial")
    assert code in (0, 1), err
    assert json.loads(out)["decision"] is (code == 0)

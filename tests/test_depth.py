"""Expressions far deeper than the interpreter's recursion limit, and
programs far past the brute-force oracle's reach.

The trivial expression of a program with many rules is a left-deep chain of
unions with runs of edge inserts between them, so every tree transform and
both solvers must work without recursion.  Its width grows with the
program, but a decision forgets each label after its last edge insert, so
on a cycle its tables stay small however long the cycle is."""

import json
import sys

import pytest

from aspcw.cli import main
from aspcw.dp_answersets import has_answer_set_dp
from aspcw.dp_classical import has_model_dp
from aspcw.expression import (EdgeInsert, evaluate, fold,
                              heuristic_expression, join_labels, node_count,
                              op_label, parse_expression,
                              serialize_expression, trivial_expression,
                              validate_against)
from aspcw.generators import (gen_random_program, gen_random_qbf,
                              qbf_is_valid, reduce_qbf_to_asp)
from aspcw.oracle import enumerate_answer_sets, enumerate_models
from aspcw.program import parse_program, serialize_program


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
    events = []
    assert has_answer_set_dp(
        expr, on_node=lambda index, op, size: events.append((index, op))
    ) == answer_set
    # One event per table built: a run of edge inserts reports only its
    # last node, every other node reports its own.
    indices = [index for index, _ in events]
    assert indices == sorted(set(indices))
    assert indices[-1] == node_count(expr)
    postorder = []
    fold(expr, lambda node, *_: postorder.append(node))
    assert [e for e in events if not e[1].startswith("eta")] == [
        (index, op_label(node)) for index, node in enumerate(postorder, 1)
        if not isinstance(node, EdgeInsert)]
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
    sizes = []
    decision = has_answer_set_dp(
        expr, on_node=lambda index, op, size: sizes.append(size))
    assert decision is (not negative or n % 2 == 0)
    assert max(sizes) <= 16
    assert has_model_dp(expr) is True


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

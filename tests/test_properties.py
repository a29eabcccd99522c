"""Property tests: on small random programs, both builders give expressions
that define the program's signed incidence graph, and both solvers decide
on them what the brute-force oracle decides and what the root check decides
on their full root tables; that both still decide like the oracle when the
labels are permuted and edge inserts name their labels either way round;
that `postorder` and `fold` visit the nodes of random expressions in the
order of a fold over one stack of nodes and markers; and the program text
format round-trips."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from aspcw.dp_answersets import _TABLES as _ASP_TABLES
from aspcw.dp_answersets import has_answer_set_dp
from aspcw.dp_classical import _TABLES as _MODEL_TABLES
from aspcw.dp_classical import has_model_dp
from aspcw.expression import (EDGE_SIGNS, DisjointUnion, EdgeInsert,
                              Introduce, Relabel, fold, heuristic_expression,
                              labels_used, node_count, postorder,
                              trivial_expression, validate_against)
from aspcw.generators import gen_random_program
from aspcw.oracle import enumerate_answer_sets, enumerate_models
from aspcw.program import parse_program, serialize_program
from conftest import full_root_accepts, reference_postorder

programs = st.builds(
    gen_random_program,
    num_atoms=st.integers(1, 5),
    num_rules=st.integers(0, 5),
    part_probabilities=st.sampled_from(
        [(0.25, 0.25, 0.25), (0.4, 0.2, 0.2), (0.1, 0.3, 0.5), (0.1, 0.1, 0.1)]),
    seed=st.integers(0, 2 ** 32 - 1))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(programs)
def test_builders_decide_like_the_oracle(program):
    has_model = bool(enumerate_models(program))
    has_answer_set = bool(enumerate_answer_sets(program))
    for build in (trivial_expression, heuristic_expression):
        expr = build(program)
        assert validate_against(expr, program) == []
        assert has_model_dp(expr) == has_model
        assert has_answer_set_dp(expr) == has_answer_set


@settings(derandomize=True, deadline=None, max_examples=200)
@given(programs)
def test_forgetting_decides_like_the_full_tables(program):
    # The decisions forget dead labels; the full fold keeps them.
    for build in (trivial_expression, heuristic_expression):
        expr = build(program)
        assert has_model_dp(expr) == full_root_accepts(expr, _MODEL_TABLES)
        assert has_answer_set_dp(expr) == full_root_accepts(expr, _ASP_TABLES)


def scrambled(expr, rng):
    """`expr` with its labels permuted at random and i and j swapped on
    about half of its edge inserts: the same graph, under other labels."""
    labels = sorted(labels_used(expr))
    new = dict(zip(labels, rng.sample(labels, len(labels))))

    def rebuild(node, *kids):
        if isinstance(node, Introduce):
            return Introduce(new[node.label], node.vertex, node.kind)
        if isinstance(node, DisjointUnion):
            return DisjointUnion(*kids)
        if isinstance(node, Relabel):
            return Relabel(new[node.old], new[node.new], *kids)
        i, j = new[node.i], new[node.j]
        if rng.random() < 0.5:
            i, j = j, i
        return EdgeInsert(node.sign, i, j, *kids)

    return fold(expr, rebuild)


def test_edge_inserts_decide_either_way_round():
    # 600 builder expressions, each with its labels permuted and about half
    # of its edge inserts naming the rule label first.
    for seed in range(300):
        rng = random.Random(seed)
        program = gen_random_program(
            rng.randint(1, 5), rng.randint(0, 5),
            rng.choice([(0.25, 0.25, 0.25), (0.4, 0.2, 0.2)]), seed)
        has_model = bool(enumerate_models(program))
        has_answer_set = bool(enumerate_answer_sets(program))
        for build in (trivial_expression, heuristic_expression):
            expr = scrambled(build(program), rng)
            assert validate_against(expr, program) == []
            assert has_model_dp(expr) == has_model
            assert has_answer_set_dp(expr) == has_answer_set


def _operators(operands):
    return st.one_of(
        st.builds(DisjointUnion, operands, operands),
        st.builds(Relabel, st.integers(1, 4), st.integers(1, 4), operands),
        st.builds(lambda sign, i, step, child:
                  EdgeInsert(sign, i, i + step, child),
                  st.sampled_from(EDGE_SIGNS), st.integers(1, 3),
                  st.integers(1, 2), operands))


# Random trees of every operator, relabels included; vertex names may
# repeat, which no traversal checks.
expressions = st.recursive(
    st.builds(Introduce, st.integers(1, 4), st.sampled_from("xyz"),
              st.sampled_from(["atom", "rule"])),
    _operators, max_leaves=30)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(expressions)
def test_postorder_is_the_fold_order(expr):
    order = list(map(id, reference_postorder(expr)))
    assert list(map(id, postorder(expr))) == order
    visited = []
    fold(expr, lambda node, *_: visited.append(id(node)))
    assert visited == order
    assert node_count(expr) == len(order)
    # Each result is built from the operands' results, left before right.
    assert fold(expr, lambda node, *kids: (id(node), kids)) == \
        fold_nested(expr)


def fold_nested(expr):
    """(id(node), (operand results...)) built from reference_postorder."""
    results = []
    for node in reference_postorder(expr):
        arity = (0 if isinstance(node, Introduce)
                 else 2 if isinstance(node, DisjointUnion) else 1)
        kids = tuple(results[len(results) - arity:])
        del results[len(results) - arity:]
        results.append((id(node), kids))
    return results[0]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(programs)
def test_program_text_round_trips(program):
    # The text keeps every rule; atoms come back in first-occurrence order,
    # and atoms in no rule are dropped, so a parsed program round-trips.
    parsed = parse_program(serialize_program(program))
    assert parsed.rules == program.rules
    assert set(parsed.atoms) <= set(program.atoms)
    assert parse_program(serialize_program(parsed)) == parsed

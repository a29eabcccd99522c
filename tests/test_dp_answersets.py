import random

import pytest

from aspcw._packed import pack, unpack
from aspcw.dp_answersets import _TABLES, accepts, dp_asp, has_answer_set_dp
from aspcw.dp_classical import dp_classical
from aspcw.errors import ExpressionError
from aspcw.expression import (DisjointUnion, EdgeInsert, Introduce, Relabel,
                              heuristic_expression, parse_expression,
                              trivial_expression)
from aspcw.generators import gen_random_program
from aspcw.oracle import enumerate_answer_sets
from aspcw.program import parse_program
from aspcw.tables import KPair
from conftest import triple


def pair(q, gamma=()):
    return KPair(q, frozenset(gamma))


def random_expr(rng, leaves, labels, names):
    """A random expression over `labels` with runs of up to four relabels
    and edge inserts above each union."""
    if leaves == 1:
        names.append(f"v{len(names)}")
        return Introduce(rng.choice(labels), names[-1],
                         rng.choice(["atom", "rule"]))
    cut = rng.randint(1, leaves - 1)
    expr = DisjointUnion(random_expr(rng, cut, labels, names),
                         random_expr(rng, leaves - cut, labels, names))
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.25:
            expr = Relabel(rng.choice(labels), rng.choice(labels), expr)
        else:
            i, j = rng.sample(labels, 2)
            expr = EdgeInsert(rng.choice("hpn"), i, j, expr)
    return expr


class TestTables:
    def test_atom_introduce(self):
        assert dp_asp(parse_expression("a(1,x)")) == {
            pair(triple({1}, (), ()), {triple((), {1}, ())}),
            pair(triple((), {1}, ())),
        }

    def test_rule_introduce(self):
        assert dp_asp(parse_expression("r(2,s)")) == {
            pair(triple((), (), {2}))}

    def test_union(self):
        table = dp_asp(parse_expression("oplus(a(1,x),r(2,r))"))
        assert pair(triple({1}, (), {2}),
                    {triple((), {1}, {2})}) in table
        assert table == {
            pair(triple({1}, (), {2}), {triple((), {1}, {2})}),
            pair(triple((), {1}, {2})),
        }

    def test_negative_edge_final_table(self):
        table = dp_asp(parse_expression("eta(n,1,2,oplus(a(1,x),r(2,r)))"))
        assert table == {
            pair(triple({1}, (), ()), {triple((), {1}, ())}),
            pair(triple((), {1}, {2})),
        }

    def test_alpha_sign_rejected(self):
        expr = parse_expression("eta(alpha,1,2,oplus(a(1,x),r(2,r)))")
        with pytest.raises(ExpressionError):
            dp_asp(expr)


class TestNegativeEdgeGating:
    """The n-edge update clears U in a pair's subset triples whenever the
    outer candidate hits label i, even if the subset itself does not.  Gating
    each subset triple by its own T component instead is the classic mistake;
    it would wrongly report an answer set for a program like {<- not x}."""

    def test_subset_triple_cleared_by_outer_candidate(self):
        table = dp_asp(parse_expression("eta(n,1,2,oplus(a(1,x),r(2,r)))"))
        witness = {p for p in table if p.q == triple({1}, (), ())}
        assert witness == {
            pair(triple({1}, (), ()), {triple((), {1}, ())})}
        # Own-T gating would have left the subset triple's U at {2} and the
        # decision would flip to True.
        assert has_answer_set_dp(
            parse_expression("eta(n,1,2,oplus(a(1,x),r(2,r)))")) is False

    def test_edge_run_equals_single_edges(self):
        # Atoms x1, x3 (labels 1, 3) and rules on labels 2, 4.  The n edge
        # is gated by the outer candidate's T bit 1, so it clears label 2 in
        # the subset triples that have x1 false as well.
        w = 4
        both = pair(triple({1, 3}, (), {2, 4}),
                    {triple((), {1, 3}, {2, 4}), triple({1}, {3}, {2, 4}),
                     triple({3}, {1}, {2, 4})})
        only3 = pair(triple({3}, {1}, {2, 4}), {triple((), {1, 3}, {2, 4})})
        table = {(pack(p.q, w), frozenset(pack(s, w) for s in p.gamma))
                 for p in (both, only3)}
        run = [("n", 1, 2), ("h", 3, 4), ("p", 1, 4)]
        one_at_a_time = table
        for edge in run:
            one_at_a_time = _TABLES.edge(one_at_a_time, [edge], w)
        at_once = _TABLES.edge(table, run, w)
        assert at_once == one_at_a_time
        assert {pair(unpack(q, w), {unpack(s, w) for s in g})
                for q, g in at_once} == {
            pair(triple({1, 3}, (), ()),
                 {triple((), {1, 3}, ()), triple({1}, {3}, {4}),
                  triple({3}, {1}, ())}),
            pair(triple({3}, {1}, {2}), {triple((), {1, 3}, {2})}),
        }

    def test_oracle_confirms(self):
        p = parse_program(":- not x.")
        assert enumerate_answer_sets(p) == []
        expr = parse_expression("eta(n,1,2,oplus(a(1,x),r(2,r1)))")
        from aspcw.expression import validate_against
        assert validate_against(expr, p) == []
        assert has_answer_set_dp(expr) is False


class TestDecision:
    def test_fact_program(self):
        p = parse_program("a.")
        assert has_answer_set_dp(trivial_expression(p)) is True

    def test_oracle_agreement_sample(self):
        for seed in range(40):
            p = gen_random_program(4, 4, (0.2, 0.2, 0.2), seed)
            expr = trivial_expression(p)
            assert has_answer_set_dp(expr) == bool(enumerate_answer_sets(p))

    def test_projection_matches_classical(self):
        for seed in range(15):
            p = gen_random_program(4, 3, (0.3, 0.2, 0.2), seed)
            expr = trivial_expression(p)
            assert {q for q, _ in dp_asp(expr)} == dp_classical(expr)


class TestBatchedEdgePath:
    """The decision entry point batches runs of edge insertions; the traced
    fold applies them node by node.  Both must produce the same root table."""

    def test_paths_agree(self):
        for seed in range(15):
            p = gen_random_program(4, 4, (0.25, 0.25, 0.25), seed)
            expr = trivial_expression(p)
            trace = []
            traced = dp_asp(expr, trace=trace)
            from_trace = {(q, g) for q, g in
                          ((tp.q, frozenset(tp.gamma)) for tp in trace[-1].pairs)}
            assert from_trace == {(q, g) for q, g in traced}
            decision = any(
                not q.u and all(s.u for s in g) for q, g in traced)
            assert has_answer_set_dp(expr) == decision

    def test_chains_inside_the_tree(self):
        # Runs of edge inserts under unions and relabels, not only at the
        # root as in trivial expressions.
        for seed in range(100):
            rng = random.Random(seed)
            leaves = rng.randint(2, 7)
            labels = range(1, rng.randint(2, 5) + 1)
            expr = random_expr(rng, leaves, labels, [])
            assert dp_asp(expr) == dp_asp(expr, trace=[])

    def test_sparse_labels(self):
        # Packed fields as wide as the largest label, past one machine word.
        for seed in range(40):
            rng = random.Random(seed)
            expr = random_expr(rng, rng.randint(2, 7), [1, 70, 200], [])
            trace = []
            deferred = dp_asp(expr)
            assert deferred == dp_asp(expr, trace=trace)
            assert deferred == {pair(tp.q, tp.gamma) for tp in trace[-1].pairs}

    def test_node_hook_matches_trace(self):
        # on_node sees one table per run of edge inserts, the trace one per
        # node; the decision and the largest table are the same.
        for seed in range(15):
            p = gen_random_program(4, 4, (0.25, 0.25, 0.25), seed)
            for expr in (trivial_expression(p), heuristic_expression(p)):
                sizes = []
                decision = has_answer_set_dp(
                    expr, on_node=lambda index, op, size: sizes.append(size))
                trace = []
                root = dp_asp(expr, trace=trace)
                assert decision == accepts(root, lambda t: t.u)
                assert max(sizes) == max(len(node.pairs) for node in trace)


class TestTrace:
    def test_trace_shape(self):
        trace = []
        dp_asp(parse_expression("eta(n,1,2,oplus(a(1,x),r(2,r)))"), trace=trace)
        assert [node.op for node in trace] == [
            "a(1,x)", "r(2,r)", "oplus", "eta(n,1,2)"]
        final = trace[-1].pairs
        assert {p.q for p in final} == {
            triple({1}, (), ()), triple((), {1}, {2})}

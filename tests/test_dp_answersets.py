import random

import pytest

from aspcw.dp_answersets import dp_asp, has_answer_set_dp
from aspcw.dp_classical import dp_classical
from aspcw.errors import ExpressionError
from aspcw.expression import (DisjointUnion, EdgeInsert, Introduce, Relabel,
                              parse_expression, trivial_expression)
from aspcw.generators import gen_random_program
from aspcw.oracle import enumerate_answer_sets
from aspcw.program import parse_program
from aspcw.tables import KPair
from conftest import triple


def pair(q, gamma=()):
    return KPair(q, frozenset(gamma))


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
        def random_expr(rng, leaves, labels, names):
            if leaves == 1:
                names.append(f"v{len(names)}")
                return Introduce(rng.randint(1, labels), names[-1],
                                 rng.choice(["atom", "rule"]))
            cut = rng.randint(1, leaves - 1)
            expr = DisjointUnion(random_expr(rng, cut, labels, names),
                                 random_expr(rng, leaves - cut, labels, names))
            for _ in range(rng.randint(0, 4)):
                if rng.random() < 0.25:
                    expr = Relabel(rng.randint(1, labels),
                                   rng.randint(1, labels), expr)
                else:
                    i, j = rng.sample(range(1, labels + 1), 2)
                    expr = EdgeInsert(rng.choice("hpn"), i, j, expr)
            return expr

        for seed in range(100):
            rng = random.Random(seed)
            expr = random_expr(rng, rng.randint(2, 7), rng.randint(2, 5), [])
            assert dp_asp(expr) == dp_asp(expr, trace=[])


class TestTrace:
    def test_trace_shape(self):
        trace = []
        dp_asp(parse_expression("eta(n,1,2,oplus(a(1,x),r(2,r)))"), trace=trace)
        assert [node.op for node in trace] == [
            "a(1,x)", "r(2,r)", "oplus", "eta(n,1,2)"]
        final = trace[-1].pairs
        assert {p.q for p in final} == {
            triple({1}, (), ()), triple((), {1}, {2})}

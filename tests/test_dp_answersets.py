import random

import pytest

from aspcw.dp_answersets import _TABLES, _public, dp_asp, has_answer_set_dp
from aspcw.dp_classical import _TABLES as _MODEL_TABLES
from aspcw.dp_classical import dp_classical, has_model_dp
from aspcw.errors import ExpressionError
from aspcw.expression import (DisjointUnion, EdgeInsert, Introduce, Relabel,
                              heuristic_expression, parse_expression,
                              trivial_expression)
from aspcw.generators import gen_random_program
from aspcw.oracle import enumerate_answer_sets
from aspcw.program import parse_program
from aspcw.tables import KPair, decide, fold_tables, unpack
from conftest import full_root_accepts, pack, triple


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


def one_edge_at_a_time(table, run, w):
    for edge in run:
        table = _TABLES.edge(table, [edge], w)
    return table


# The reference fold: the same skeleton, with each run of edge inserts
# applied one edge at a time.
_REFERENCE = _TABLES._replace(edge=one_edge_at_a_time)


class TestBatchedEdgePath:
    """The fold applies a run of edge inserts with one operator call; it
    must build the root table of the reference fold."""

    def test_paths_agree(self):
        for seed in range(15):
            p = gen_random_program(4, 4, (0.25, 0.25, 0.25), seed)
            for expr in (trivial_expression(p), heuristic_expression(p)):
                assert fold_tables(expr, _TABLES) == \
                    fold_tables(expr, _REFERENCE)
                assert has_answer_set_dp(expr) == \
                    full_root_accepts(expr, _TABLES)

    def test_chains_inside_the_tree(self):
        # Runs of edge inserts under unions and relabels, not only at the
        # root as in trivial expressions.
        for seed in range(100):
            rng = random.Random(seed)
            leaves = rng.randint(2, 7)
            labels = range(1, rng.randint(2, 5) + 1)
            expr = random_expr(rng, leaves, labels, [])
            assert fold_tables(expr, _TABLES) == fold_tables(expr, _REFERENCE)

    def test_sparse_labels(self):
        # Packed fields as wide as the largest label, past one machine word.
        for seed in range(40):
            rng = random.Random(seed)
            expr = random_expr(rng, rng.randint(2, 7), [1, 70, 200], [])
            assert fold_tables(expr, _TABLES) == fold_tables(expr, _REFERENCE)

    def test_node_hook_matches_trace(self):
        # A trace does not change the path: it sees the events on_node sees,
        # sizes included, and its last node is the forgetting fold's root.
        # The full fold builds its tables at the same nodes, none smaller
        # than the decision's, and both decide alike.
        for seed in range(15):
            p = gen_random_program(4, 4, (0.25, 0.25, 0.25), seed)
            for expr in (trivial_expression(p), heuristic_expression(p)):
                events, trace = [], []
                decision = has_answer_set_dp(
                    expr, on_node=lambda *event: events.append(event),
                    trace=trace)
                assert [(n.index, n.op, len(n.pairs)) for n in trace] == events
                full = []
                root = dp_asp(expr, trace=full)
                assert [(n.index, n.op) for n in full] == \
                    [(index, op) for index, op, _ in events]
                assert all(len(n.pairs) <= len(f.pairs)
                           for n, f in zip(trace, full))
                assert full[-1].pairs == root
                assert trace[-1].pairs == _public(
                    *fold_tables(expr, _TABLES, forget=True))
                assert decision == full_root_accepts(expr, _TABLES)


class TestForget:
    """The decisions forget dead labels; they must decide what the root
    check decides on the full root table."""

    @staticmethod
    def assert_pruned_equals_full(expr):
        assert has_answer_set_dp(expr) == full_root_accepts(expr, _TABLES)
        assert has_model_dp(expr) == full_root_accepts(expr, _MODEL_TABLES)

    def test_random_expressions(self):
        # Relabels and runs of edge inserts under unions; labels that die
        # inside the tree, or that no edge insert names at all.
        for seed in range(400):
            rng = random.Random(seed)
            labels = range(1, rng.randint(2, 5) + 1)
            self.assert_pruned_equals_full(
                random_expr(rng, rng.randint(2, 8), labels, []))

    def test_sparse_labels(self):
        for seed in range(150):
            rng = random.Random(seed)
            self.assert_pruned_equals_full(
                random_expr(rng, rng.randint(2, 8), [1, 70, 200], []))

    def test_decision_tables_are_forgotten(self):
        # Early edges let every atom label die after its own run, so the
        # decision's largest table stays far below the full fold's 2^atoms.
        p = gen_random_program(9, 7, (0.2, 0.2, 0.2), 5)
        expr = trivial_expression(p)
        pruned, full = [], []
        has_answer_set_dp(expr, on_node=lambda *e: pruned.append(e[2]))
        dp_asp(expr, trace=full)
        assert max(len(n.pairs) for n in full) == 2 ** 9
        assert max(pruned) < 2 ** 9 // 4


class TestRefutation:
    """Under a subtree that holds every rule introduce no U bit comes back,
    so the decisions drop the pairs whose Gamma has a member with an empty
    U; every label is dead at the root, so only cleared entries reach it."""

    def test_no_floor_below_a_missing_rule(self):
        # Below the union with r1, x's pair (x true, {x false}) has a Gamma
        # member with an empty U.  The union adds r1's U bit to it, and the
        # edge keeps it there (x false leaves r1's head unmet), so {x} is
        # an answer set.
        expr = parse_expression(
            "eta(h,1,3,oplus(oplus(a(1,x),a(2,y)),r(3,r1)))")
        assert has_answer_set_dp(expr) is True
        assert has_model_dp(expr) is True

    def test_closed_subtrees_drop_refuted_pairs(self):
        # The decision without the floor keeps every refuted pair.
        no_floor = _TABLES._replace(
            forget=lambda table, tf, u, floor: _TABLES.forget(table, tf, u, 0))
        for seed in range(1, 4):
            expr = trivial_expression(
                gen_random_program(10, 8, (0.2, 0.2, 0.2), seed))
            sizes, kept = [], []
            decision = decide(expr, _TABLES,
                              on_node=lambda *e: sizes.append(e[2]))
            assert decision == decide(expr, no_floor,
                                      on_node=lambda *e: kept.append(e[2]))
            assert all(a <= b for a, b in zip(sizes, kept))
            assert sum(sizes) < sum(kept)

    def test_decision_root_is_cleared(self):
        empty = triple((), (), ())
        for seed in range(300):
            rng = random.Random(seed)
            labels = range(1, rng.randint(2, 5) + 1)
            expr = random_expr(rng, rng.randint(1, 8), labels, [])
            pairs, triples = [], []
            has_answer_set_dp(expr, trace=pairs)
            has_model_dp(expr, trace=triples)
            assert pairs[-1].pairs <= {pair(empty), pair(empty, {empty})}
            assert triples[-1].triples <= {empty}


class TestTrace:
    def test_trace_shape(self):
        trace = []
        dp_asp(parse_expression("eta(n,1,2,oplus(a(1,x),r(2,r)))"), trace=trace)
        assert [node.op for node in trace] == [
            "a(1,x)", "r(2,r)", "oplus", "eta(n,1,2)"]
        final = trace[-1].pairs
        assert {p.q for p in final} == {
            triple({1}, (), ()), triple((), {1}, {2})}

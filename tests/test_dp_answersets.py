import random
import re

import pytest

from aspcw import tables
from aspcw.dp_answersets import _TABLES, dp_asp, has_answer_set_dp
from aspcw.dp_classical import _TABLES as _MODEL_TABLES
from aspcw.dp_classical import dp_classical, has_model_dp
from aspcw.errors import ExpressionError
from aspcw.expression import (DisjointUnion, EdgeInsert, Introduce, Relabel,
                              heuristic_expression, parse_expression,
                              trivial_expression, validate_against)
from aspcw.generators import gen_random_program
from aspcw.oracle import enumerate_answer_sets, enumerate_models
from aspcw.program import parse_program
from aspcw.tables import (UNIT, KPair, _undominated, decide, fold_tables,
                          run_clear, unpack)
from conftest import (RULE_FIRST, NodeEvents, full_root_accepts, pack,
                      random_instance, triple)


def pair(q, gamma=()):
    return KPair(q, frozenset(gamma))


def no_floor(ops):
    """`ops` with a join that always gets floor 0: no pair is refuted or
    accepted under a closed subtree."""
    return ops._replace(join=lambda left, right, run, w, tf, u, floor:
                        ops.join(left, right, run, w, tf, u, 0))


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
            one_at_a_time = edge_run(one_at_a_time, [edge], w)
        at_once = edge_run(table, run, w)
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


def edge_run(table, run, w):
    return _TABLES.join(table, UNIT, run, w, 0, 0, 0)


def unfused_join(left, right, run, w, tf, u, floor):
    """The union, each edge of the run and the forget as separate joins."""
    table = _TABLES.join(left, right, [], w, 0, 0, 0)
    for edge in run:
        table = edge_run(table, [edge], w)
    return _TABLES.join(table, UNIT, [], w, tf, u, floor)


# The reference fold: the same skeleton, with each union, each edge insert
# and each forget applied by its own join.
_REFERENCE = _TABLES._replace(join=unfused_join)


class TestBatchedEdgePath:
    """The fold applies a union, the run of edge inserts above it and the
    forget with one join; it must build the root tables of the reference
    fold, with and without forgetting."""

    @staticmethod
    def assert_same_roots(expr):
        for forget in (False, True):
            assert fold_tables(expr, _TABLES, forget=forget) == \
                fold_tables(expr, _REFERENCE, forget=forget)

    def test_paths_agree(self):
        for seed in range(15):
            p = gen_random_program(4, 4, (0.25, 0.25, 0.25), seed)
            for expr in (trivial_expression(p), heuristic_expression(p)):
                self.assert_same_roots(expr)
                assert has_answer_set_dp(expr) == \
                    full_root_accepts(expr, _TABLES)

    def test_chains_inside_the_tree(self):
        # Runs of edge inserts under unions and relabels, not only at the
        # root as in trivial expressions.
        for seed in range(100):
            rng = random.Random(seed)
            leaves = rng.randint(2, 7)
            labels = range(1, rng.randint(2, 5) + 1)
            self.assert_same_roots(random_expr(rng, leaves, labels, []))

    def test_sparse_labels(self):
        # Packed fields as wide as the largest label, past one machine word.
        for seed in range(40):
            rng = random.Random(seed)
            self.assert_same_roots(
                random_expr(rng, rng.randint(2, 7), [1, 70, 200], []))


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
        pruned, full = NodeEvents(), []
        has_answer_set_dp(expr, trace=pruned)
        dp_asp(expr, trace=full)
        assert max(len(n.pairs) for n in full) == 2 ** 9
        assert max(size for _, _, size in pruned) < 2 ** 9 // 4


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
        for seed in range(1, 4):
            expr = trivial_expression(
                gen_random_program(10, 8, (0.2, 0.2, 0.2), seed))
            events, kept_events = NodeEvents(), NodeEvents()
            decision = decide(expr, _TABLES, events)
            assert decision == decide(expr, no_floor(_TABLES), kept_events)
            sizes = [size for _, _, size in events]
            kept = [size for _, _, size in kept_events]
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


class TestEarlyAccept:
    """Under a closed subtree a pair with an empty U and no Gamma is
    accepted for good, and the join keeps it alone.  It reaches the root as
    the unit pair, so both solvers decide what the fold whose join never
    gets a floor decides."""

    def test_fires_on_an_answer_set_decision(self):
        # The empty set is the answer set of `:- a.` and `:- b, c.`.  In the
        # trivial expression the join of b's run, above every rule, keeps
        # the pair with b false (both rules hold, no Gamma) alone; without
        # the floor it keeps the pair with b true (r2 unmet) too.
        program = parse_program(":- a.\n:- b, c.\n")
        assert enumerate_answer_sets(program) == [frozenset()]
        expr = trivial_expression(program)
        trace, kept = [], []
        assert decide(expr, _TABLES, trace=trace) is True
        assert decide(expr, no_floor(_TABLES), trace=kept) is True
        assert [(n.index, n.op) for n in trace] == \
            [(n.index, n.op) for n in kept]
        assert [(n.op, len(n.pairs), len(m.pairs))
                for n, m in zip(trace, kept) if n.pairs != m.pairs] == \
            [("eta(p,2,5)", 1, 2)]
        (accepted,) = [n for n in trace if n.op == "eta(p,2,5)"]
        assert accepted.pairs == {pair(triple((), (), ()))}

    def test_decisions_match_the_fold_without_floor(self):
        # The criterion 3-4 sweep through the trivial builder, and 200
        # random programs of 2-9 atoms through both builders.
        exprs = [trivial_expression(random_instance(seed))
                 for seed in range(500)]
        for seed in range(200):
            p = gen_random_program(2 + seed % 8, 1 + seed % 7,
                                   (0.2, 0.2, 0.2), seed)
            exprs += [trivial_expression(p), heuristic_expression(p)]
        for ops in (_TABLES, _MODEL_TABLES):
            free = no_floor(ops)
            for expr in exprs:
                assert decide(expr, ops) == decide(expr, free)


class TestDomination:
    """The decisions drop each pair (Q, G2) whose table holds (Q, G1) with
    G1 a subset of G2; TestForget checks that they still decide like the
    full fold."""

    def test_hand_made_table(self):
        q, q2, other = 0b001, 0b010, 0b100
        s, t = 0b1000, 0b10000
        table = {(q, frozenset()), (q, frozenset({s})), (q, frozenset({s, t})),
                 (q2, frozenset({s})), (q2, frozenset({s, t})),
                 (q2, frozenset({t})), (other, frozenset({s, t}))}
        assert _undominated(table) == {
            (q, frozenset()), (q2, frozenset({s})), (q2, frozenset({t})),
            (other, frozenset({s, t}))}
        distinct = {(q, frozenset({s})), (q2, frozenset()), (other, frozenset())}
        assert _undominated(distinct) is distinct

    def test_every_dropped_pair_has_a_dominator(self, monkeypatch):
        calls = []

        def recorded(table):
            kept = _undominated(table)
            calls.append((table, kept))
            return kept

        monkeypatch.setattr(tables, "_undominated", recorded)
        for seed in range(300):
            rng = random.Random(seed)
            labels = range(1, rng.randint(2, 5) + 1)
            has_answer_set_dp(random_expr(rng, rng.randint(2, 8), labels, []))
        for seed in range(40):
            p = gen_random_program(5, 5, (0.25, 0.25, 0.25), seed)
            for expr in (trivial_expression(p), heuristic_expression(p)):
                has_answer_set_dp(expr)
        dropped = 0
        for table, kept in calls:
            assert kept <= table
            for q, g in table:
                dominators = [k for r, k in kept if r == q and k <= g]
                if (q, g) in kept:
                    assert dominators == [g]
                else:
                    assert dominators
                    dropped += 1
        assert dropped


class TestEdgeOrientation:
    """An edge insert is undirected: `run_clear` reads each edge both ways
    round, so the solvers decide alike whichever way round the expression
    names it."""

    @pytest.mark.parametrize("program_text,expr_text", RULE_FIRST)
    def test_rule_label_first(self, program_text, expr_text):
        program = parse_program(program_text)
        expr = parse_expression(expr_text)
        assert validate_against(expr, program) == []
        assert enumerate_answer_sets(program)
        assert has_answer_set_dp(expr) is True
        assert has_model_dp(expr) is True
        # Naming every edge atom label first changes no full table.
        swapped = parse_expression(
            re.sub(r"eta\((\w),(\d+),(\d+),", r"eta(\1,\3,\2,", expr_text))
        assert swapped != expr
        assert dp_asp(swapped) == dp_asp(expr)
        assert dp_classical(swapped) == dp_classical(expr)

    @pytest.mark.parametrize("sign", ["h", "p", "n"])
    def test_run_clear_reads_edges_both_ways(self, sign):
        # Label 1 holds only atoms (T or F set) and label 3 only rules (U
        # set); a p edge is gated on F, h and n edges on T.  A candidate
        # loses what its own bits clear through h and p edges and what its
        # T bits clear through n edges; only n edges go to `outer`.
        w = 4
        cleared = pack(triple((), (), {3}), w)
        for q, gated in ((triple({1}, (), {3}), sign != "p"),
                         (triple((), {1}, {3}), sign == "p")):
            key = pack(q, w)
            clears = []
            for run in ([(sign, 1, 3)], [(sign, 3, 1)]):
                gates, own, n_gates, outer = run_clear(run, w)
                clears.append((own[key & gates], outer[key & n_gates]))
            expected = cleared if gated else 0
            assert clears == [(0, expected) if sign == "n"
                              else (expected, 0)] * 2

    def test_no_op_edge_at_a_mixed_label(self):
        # After the relabel label 1 holds both x and r2, and label 4 is
        # empty: the top edge insert adds no edge, so it must not clear
        # r2's U bit, whichever way round the edge inserts name labels.
        program = parse_program("x.\n:- x.\n")
        assert not enumerate_models(program)
        text = ("eta(h,1,4,rho(3,1,eta(p,1,3,eta(h,1,2,"
                "oplus(oplus(r(2,r1),r(3,r2)),a(1,x))))))")
        swapped = re.sub(r"eta\((\w),(\d+),(\d+),", r"eta(\1,\3,\2,", text)
        for text in (text, swapped):
            expr = parse_expression(text)
            assert validate_against(expr, program) == []
            assert has_model_dp(expr) is False
            assert has_answer_set_dp(expr) is False

    def test_relabel_moves_the_atom_label(self):
        # The atom moves from label 2 to label 3 and the rule from 1 to 2;
        # the edge names the rule label first.
        expr = parse_expression(
            "eta(h,2,3,rho(1,2,rho(2,3,oplus(r(1,r1),a(2,a)))))")
        assert validate_against(expr, parse_program("a.")) == []
        assert has_answer_set_dp(expr) is True
        assert has_model_dp(expr) is True


class TestTrace:
    def test_trace_shape(self):
        trace = []
        dp_asp(parse_expression("eta(n,1,2,oplus(a(1,x),r(2,r)))"), trace=trace)
        assert [node.op for node in trace] == [
            "a(1,x)", "r(2,r)", "oplus", "eta(n,1,2)"]
        final = trace[-1].pairs
        assert {p.q for p in final} == {
            triple({1}, (), ()), triple((), {1}, {2})}

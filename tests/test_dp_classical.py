from aspcw.dp_classical import _TABLES, dp_classical, has_model_dp
from aspcw.errors import ExpressionError
from aspcw.expression import (heuristic_expression, parse_expression,
                              trivial_expression)
from aspcw.generators import gen_random_program
from aspcw.oracle import enumerate_models
from aspcw.program import parse_program
from aspcw.tables import UNIT, _relabel, relabel_fn, unpack
from conftest import (FIG2_MODEL_EVENTS, NodeEvents, eager_trace, label_mask,
                      pack, triple)

import pytest


def edge_run(table, run, w):
    return _TABLES.join(table, UNIT, run, w, 0, 0, 0)


def entry(q, w):
    """The classical table entry of triple `q`: its packed key with no
    Gamma."""
    return pack(q, w), frozenset()


class TestTripleOps:
    """The packed table operators the classical solver runs, on one-entry
    tables read back through pack/unpack: a union is a join with an empty
    run, and an edge run a join against the unit table.  Every entry has
    an empty Gamma, and keeps it."""

    W = 4

    def one(self, table):
        ((key, gamma),) = table
        assert gamma == frozenset()
        return unpack(key, self.W)

    def union(self, a, b):
        return self.one(_TABLES.join({entry(a, self.W)}, {entry(b, self.W)},
                                     [], self.W, 0, 0, 0))

    def relabel(self, q, old, new):
        return self.one(_relabel({entry(q, self.W)},
                                 relabel_fn(old, new, self.W)))

    def edge(self, q, *run):
        return self.one(edge_run({entry(q, self.W)}, list(run), self.W))

    def test_union(self):
        assert self.union(triple({1}, (), ()), triple((), (), {2})) == \
            triple({1}, (), {2})
        assert self.union(triple((), {1}, ()), triple((), (), {2})) == \
            triple((), {1}, {2})
        q = triple({1}, {2}, {3})
        assert self.union(q, triple((), (), ())) == q

    def test_relabel(self):
        assert self.relabel(triple({1}, (), {3}), 3, 2) == triple({1}, (), {2})
        assert self.relabel(triple((), {1}, {2, 3}), 3, 2) == \
            triple((), {1}, {2})
        assert self.relabel(triple({2}, {1}, {3}), 2, 4) == \
            triple({4}, {1}, {3})
        q = triple({1}, (), ())
        assert self.relabel(q, 4, 2) == q
        q = triple({2}, {1}, {2, 3})
        assert self.relabel(q, 2, 2) == q

    def test_edge_update(self):
        q = triple({1}, (), {2})
        assert self.edge(q, ("h", 1, 2)) == triple({1}, (), ())
        assert self.edge(q, ("n", 1, 2)) == triple({1}, (), ())
        assert self.edge(q, ("p", 1, 2)) == q
        q2 = triple((), {1}, {2, 3})
        assert self.edge(q2, ("p", 1, 3)) == triple((), {1}, {2})
        assert self.edge(q2, ("h", 1, 3)) == q2
        assert self.edge(q2, ("h", 1, 2), ("p", 1, 3)) == triple((), {1}, {2})
        assert self.edge(q2, ("p", 1, 2), ("p", 1, 3)) == triple((), {1}, ())

    def test_join_runs_then_forgets(self):
        # Atom label 1 against rule labels 3 and 4: the h edge clears 3
        # where 1 is true.  Labels 1 and 3 die, so the triple with 3 unmet
        # goes and label 1's bits are cleared.
        w = self.W
        left = {entry(triple({1}, (), ()), w), entry(triple((), {1}, ()), w)}
        right = {entry(triple((), (), {3, 4}), w)}
        dead = label_mask({1, 3})
        tf, u = dead | dead << w, dead << 2 * w
        joined = _TABLES.join(left, right, [("h", 1, 3)], w, tf, u, 0)
        assert joined == {entry(triple((), (), {4}), w)}
        # Under a closed subtree the triple whose U the run empties is
        # accepted, and kept alone.
        assert _TABLES.join(left, right, [("h", 1, 3), ("h", 1, 4)], w,
                            tf, u, 1 << 2 * w) == UNIT

    def test_edge_run_equals_single_edges(self):
        # Every triple with disjoint T and F over labels 1-2, and any U over
        # labels 3-4; entries merge as their U bits clear.
        table = {entry(triple(t, f, u), self.W)
                 for t, f in [((), ()), ({1}, ()), ((), {1}), ({2}, {1}),
                              ({1, 2}, ()), ((), {1, 2}), ({1}, {2})]
                 for u in [(), {3}, {4}, {3, 4}]}
        run = [("h", 1, 3), ("p", 2, 4), ("n", 2, 3), ("p", 1, 4)]
        one_at_a_time = table
        for edge in run:
            one_at_a_time = edge_run(one_at_a_time, [edge], self.W)
        assert edge_run(table, run, self.W) == one_at_a_time
        assert len(one_at_a_time) < len(table)


class TestTables:
    def test_atom_introduce(self):
        assert dp_classical(parse_expression("a(1,x)")) == {
            triple({1}, (), ()), triple((), {1}, ())}

    def test_rule_introduce(self):
        assert dp_classical(parse_expression("r(2,s)")) == {
            triple((), (), {2})}

    def test_union_of_atom_and_rule(self):
        table = dp_classical(parse_expression("oplus(a(1,x),r(2,r1))"))
        assert table == {triple({1}, (), {2}), triple((), {1}, {2})}

    def test_full_running_example(self, fig2):
        assert dp_classical(fig2) == {
            triple({1, 3}, (), ()),
            triple({3}, {1}, ()),
            triple({1}, {3}, {2}),
            triple((), {1, 3}, {2}),
        }

    def test_alpha_sign_rejected(self):
        expr = parse_expression("eta(alpha,1,2,oplus(a(1,x),r(2,r1)))")
        with pytest.raises(ExpressionError):
            dp_classical(expr)


class TestDecision:
    def test_running_example_has_model(self, fig2):
        assert has_model_dp(fig2) is True

    def test_unsatisfiable_rule(self):
        p = parse_program(".")
        assert has_model_dp(trivial_expression(p)) is False

    def test_node_callback(self, fig2):
        seen = NodeEvents()
        has_model_dp(fig2, trace=seen)
        assert seen == FIG2_MODEL_EVENTS

    def test_closed_subtree_keeps_one_accepted_triple(self):
        # The edge satisfies the only rule where x is true, in two triples;
        # the rule's label dies there, under every rule, so the decision
        # keeps one of them and nothing else.
        expr = parse_expression(
            "rho(2,1,eta(h,1,3,oplus(oplus(r(3,r),a(1,x)),a(2,y))))")
        trace, full = [], []
        assert has_model_dp(expr, trace=trace) is True
        dp_classical(expr, trace=full)
        assert trace[-2].op == full[-2].op == "eta(h,1,3)"
        accepted = {q for q in full[-2].triples if not q.u}
        assert accepted == {triple({1, 2}, (), ()), triple({1}, {2}, ())}
        assert len(trace[-2].triples) == 1 and trace[-2].triples <= accepted

    def test_oracle_agreement_sample(self):
        for seed in range(40):
            p = gen_random_program(4, 4, (0.2, 0.2, 0.2), seed)
            expr = trivial_expression(p)
            assert has_model_dp(expr) == bool(enumerate_models(p))


class TestTrace:
    def test_trace_matches_table(self, fig2):
        trace = []
        root = dp_classical(fig2, trace=trace)
        assert len(trace) == 11
        assert set(trace[-1].triples) == root
        assert trace[2].op == "oplus"
        assert set(trace[2].triples) == {
            triple({1}, (), {2}), triple((), {1}, {2})}

    def test_trace_nodes_hold_pairs_with_no_gamma(self):
        # A classical table is a pair table whose every Gamma is empty: its
        # nodes' pairs say so, and their triples are the eager classical
        # tables, in the decision's trace and in the full fold's.
        for seed in range(40):
            p = gen_random_program(2 + seed % 6, 1 + seed % 5,
                                   (0.2, 0.2, 0.2), seed)
            for expr in (trivial_expression(p), heuristic_expression(p)):
                for solve, forget in ((has_model_dp, True),
                                      (dp_classical, False)):
                    trace = []
                    solve(expr, trace=trace)
                    assert all(not entry.gamma
                               for node in trace for entry in node.pairs)
                    assert [(n.index, n.op, n.triples) for n in trace] == \
                        eager_trace(expr, _TABLES, forget, "triples")

from aspcw.dp_classical import _TABLES, dp_classical, has_model_dp
from aspcw.errors import ExpressionError
from aspcw.expression import parse_expression, trivial_expression
from aspcw.generators import gen_random_program
from aspcw.oracle import enumerate_models
from aspcw.program import parse_program
from aspcw.tables import relabel_fn, unpack
from conftest import pack, triple

import pytest


class TestTripleOps:
    """The packed table operators the classical solver runs, on one-entry
    tables read back through pack/unpack."""

    W = 4

    def one(self, table):
        (key,) = table
        return unpack(key, self.W)

    def union(self, a, b):
        return self.one(_TABLES.union({pack(a, self.W)}, {pack(b, self.W)}))

    def relabel(self, q, old, new):
        return self.one(_TABLES.relabel({pack(q, self.W)},
                                        relabel_fn(old, new, self.W)))

    def edge(self, q, *run):
        return self.one(_TABLES.edge({pack(q, self.W)}, list(run), self.W))

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

    def test_edge_run_equals_single_edges(self):
        # Every triple with disjoint T and F over labels 1-2, and any U over
        # labels 3-4; entries merge as their U bits clear.
        table = {pack(triple(t, f, u), self.W)
                 for t, f in [((), ()), ({1}, ()), ((), {1}), ({2}, {1}),
                              ({1, 2}, ()), ((), {1, 2}), ({1}, {2})]
                 for u in [(), {3}, {4}, {3, 4}]}
        run = [("h", 1, 3), ("p", 2, 4), ("n", 2, 3), ("p", 1, 4)]
        one_at_a_time = table
        for edge in run:
            one_at_a_time = _TABLES.edge(one_at_a_time, [edge], self.W)
        assert _TABLES.edge(table, run, self.W) == one_at_a_time
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
        seen = []
        has_model_dp(fig2, on_node=lambda i, op, size: seen.append((i, op, size)))
        assert len(seen) == 11
        assert seen[0] == (1, "a(1,x)", 2)
        assert seen[-1][1] == "eta(n,3,2)"
        assert all(size <= 2 ** (3 * 3) for _, _, size in seen)

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

import itertools
import json
import random

import pytest

from aspcw.errors import BoundExceededError
from aspcw.graphs import (Digraph, UGraph, _adjacency_masks, _scc_masks,
                          build_dependency_graph, build_incidence_graph,
                          build_signed_incidence_graph, cycle_rank,
                          digraph_from_json, edge_key,
                          homogeneous_orientations, is_cycle_rank_at_most,
                          join_graph_signs, symmetric_closure,
                          undirected_cycle_rank)
from aspcw.program import Program, make_rule, parse_program


def digraph(vertices, arcs):
    return Digraph(tuple(vertices), frozenset(arcs))


def random_digraph(rng, n, p):
    vertices = tuple(f"v{i}" for i in range(n))
    arcs = {(u, v) for u in vertices for v in vertices
            if u != v and rng.random() < p}
    return Digraph(vertices, frozenset(arcs))


class TestConstruction:
    def test_digraph_rejects_self_loop(self):
        with pytest.raises(ValueError):
            digraph("ab", {("a", "a")})

    def test_digraph_rejects_unknown_vertex(self):
        with pytest.raises(ValueError):
            digraph("ab", {("a", "c")})

    def test_ugraph_rejects_loop_edge(self):
        with pytest.raises(ValueError):
            UGraph(("a",), frozenset({frozenset({"a"})}))


class TestProgramGraphs:
    def test_dependency_running_example(self, example1):
        d = build_dependency_graph(example1)
        assert set(d.vertices) == {"x", "y"}
        assert d.arcs == {("x", "y")}

    def test_dependency_fact_has_no_arcs(self):
        d = build_dependency_graph(parse_program("a."))
        assert d.arcs == frozenset()

    def test_dependency_head_pairs_bidirected(self):
        d = build_dependency_graph(parse_program("a | b."))
        assert d.arcs == {("a", "b"), ("b", "a")}

    def test_signed_incidence_running_example(self, example1):
        g = build_signed_incidence_graph(example1)
        assert set(g.vertices) == {"x", "y", "r1", "r2"}
        assert g.kinds == {"x": "atom", "y": "atom",
                           "r1": "rule", "r2": "rule"}
        assert g.edges == {
            edge_key("x", "r1"): "h",
            edge_key("x", "r2"): "p",
            edge_key("y", "r1"): "n",
            edge_key("y", "r2"): "n",
        }

    def test_incidence_empty_program(self):
        g = build_incidence_graph(Program((), ()))
        assert g.vertices == () and g.edges == frozenset()

    def test_atom_rule_name_clash_rejected(self):
        p = Program(("r1",), (make_rule("r1", head=["r1"]),))
        with pytest.raises(ValueError):
            build_signed_incidence_graph(p)

    def test_join_graph_signs(self, example1):
        g = join_graph_signs(build_signed_incidence_graph(example1), {"p", "n"})
        assert sorted(g.edges.values()) == ["alpha", "alpha", "alpha", "h"]


class TestClosures:
    def test_symmetric_closure_single_arc(self):
        d = symmetric_closure(digraph("ab", {("a", "b")}))
        assert d.arcs == {("a", "b"), ("b", "a")}

    def test_symmetric_closure_idempotent(self):
        d = symmetric_closure(digraph("abc", {("a", "b"), ("b", "c")}))
        assert symmetric_closure(d) == d


class TestCycleRank:
    def test_dag_is_zero(self):
        assert cycle_rank(digraph("abc", {("a", "b"), ("b", "c")})) == 0

    def test_directed_three_cycle(self):
        d = digraph("abc", {("a", "b"), ("b", "c"), ("c", "a")})
        assert cycle_rank(d) == 1

    def test_bidirected_triangle(self):
        arcs = {(u, v) for u, v in itertools.permutations("abc", 2)}
        assert cycle_rank(digraph("abc", arcs)) == 2

    def test_component_maximum(self):
        d = digraph("abcd", {("a", "b"), ("b", "a"), ("c", "d")})
        assert cycle_rank(d) == 1

    def test_bound_exceeded(self):
        d = digraph([f"v{i}" for i in range(20)], set())
        with pytest.raises(BoundExceededError):
            cycle_rank(d)
        assert is_cycle_rank_at_most(d, 0) is True

    def test_undirected_variant(self):
        d = digraph("abcd", {("a", "b"), ("c", "d")})
        assert cycle_rank(d) == 0
        assert undirected_cycle_rank(d) == 1

    def test_zero_iff_acyclic(self):
        rng = random.Random(0)
        for _ in range(30):
            d = random_digraph(rng, 5, 0.3)
            acyclic = cycle_rank(d) == 0
            assert acyclic == is_cycle_rank_at_most(d, 0)

    def test_bounded_variant_matches_exact(self):
        rng = random.Random(1)
        for _ in range(25):
            d = random_digraph(rng, 6, 0.3)
            exact = cycle_rank(d)
            for w in range(4):
                assert is_cycle_rank_at_most(d, w) == (exact <= w)

    def test_subgraph_monotonicity(self):
        rng = random.Random(2)
        for _ in range(10):
            d = random_digraph(rng, 6, 0.35)
            full = cycle_rank(d)
            assert undirected_cycle_rank(d) >= full
            for drop in d.vertices:
                kept = tuple(v for v in d.vertices if v != drop)
                sub = Digraph(kept, frozenset(
                    (u, v) for u, v in d.arcs if drop not in (u, v)))
                assert cycle_rank(sub) <= full


class TestStrongComponents:
    def test_matches_brute_force_reachability(self):
        # Reference: u and v share a component iff each reaches the other
        # inside the induced sub-digraph (reachability by fixpoint).
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 9)
            d = random_digraph(rng, n, rng.choice([0.1, 0.25, 0.4]))
            index = {v: i for i, v in enumerate(d.vertices)}
            arcs = {(index[u], index[v]) for u, v in d.arcs}
            adj = _adjacency_masks(d)
            for _ in range(20):
                mask = rng.getrandbits(n)
                kept = [i for i in range(n) if mask >> i & 1]
                reach = {(i, i) for i in kept}
                reach |= {(u, v) for u, v in arcs
                          if mask >> u & 1 and mask >> v & 1}
                while True:
                    more = {(u, y) for u, v in reach for x, y in reach
                            if v == x} - reach
                    if not more:
                        break
                    reach |= more
                expected = {sum(1 << v for v in kept
                                if (u, v) in reach and (v, u) in reach)
                            for u in kept}
                sccs = _scc_masks(adj, mask)
                assert len(sccs) == len(expected)
                assert set(sccs) == expected


class TestHomogeneousOrientations:
    def test_single_group(self):
        p = parse_program("a.")
        assert len(list(homogeneous_orientations(p))) == 2

    def test_running_example_group_count(self, example1):
        # Groups: (r1,h), (r1,n), (r2,p), (r2,n).
        orientations = list(homogeneous_orientations(example1))
        assert len(orientations) == 16

    def test_orientations_cover_the_incidence_graph(self, example1):
        inc = build_incidence_graph(example1)
        for d in homogeneous_orientations(example1):
            assert d.vertices == inc.vertices
            assert {frozenset(a) for a in d.arcs} == inc.edges

    def test_sampling_fallback(self, example1):
        sampled = list(homogeneous_orientations(
            example1, max_groups=2, samples=5, seed=3))
        assert len(sampled) == 5
        again = list(homogeneous_orientations(
            example1, max_groups=2, samples=5, seed=3))
        assert sampled == again


class TestExport:
    def test_digraph_json_round_trip(self):
        d = digraph_from_json(json.dumps(
            {"vertices": ["a", "b"], "arcs": [["a", "b"]]}))
        assert d == digraph("ab", {("a", "b")})

    @pytest.mark.parametrize("data,field", [
        ({}, "vertices"),
        ([], "vertices"),
        ({"vertices": 5, "arcs": []}, "vertices"),
        ({"vertices": [["a"]], "arcs": []}, "vertices"),
        ({"vertices": ["a"]}, "arcs"),
        ({"vertices": ["a", "b"], "arcs": [5]}, "arcs"),
        ({"vertices": ["a", "b"], "arcs": [["a", "b", "a"]]}, "arcs"),
    ])
    def test_malformed_digraph_json_names_field(self, data, field):
        with pytest.raises(ValueError, match=f"'{field}'"):
            digraph_from_json(json.dumps(data))

    def test_digraph_checks_kept(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            digraph_from_json(json.dumps({"vertices": ["a"], "arcs": [["a", "b"]]}))

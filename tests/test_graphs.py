import inspect
import itertools
import json
import random

import pytest

from aspcw.errors import BoundExceededError
from aspcw.expression import (heuristic_expression, parse_expression,
                              trivial_expression, validate_against)
from aspcw.generators import gen_random_program, gen_random_qbf, reduce_qbf_to_asp
from aspcw import graphs
from aspcw.graphs import (Digraph, _cyclic_components,
                          build_dependency_graph,
                          build_signed_incidence_graph, cycle_rank,
                          digraph_from_json, edge_key,
                          homogeneous_orientations, is_cycle_rank_at_most,
                          symmetric_closure,
                          undirected_cycle_rank)
from aspcw.program import Program, make_rule, parse_program
from conftest import UGraph, build_incidence_graph


def digraph(vertices, arcs):
    return Digraph.from_arcs(vertices, arcs)


def random_digraph(rng, n, p):
    vertices = tuple(f"v{i}" for i in range(n))
    arcs = {(u, v) for u in vertices for v in vertices
            if u != v and rng.random() < p}
    return Digraph.from_arcs(vertices, arcs)


def figure_eight(k):
    """Two k-vertex loops through x, the highest-indexed vertex: deleting
    x is the one way to leave the digraph acyclic."""
    loops = [[f"{name}{i}" for i in range(k)] for name in "ab"]
    arcs = set()
    for loop in loops:
        cycle = loop + ["x"]
        arcs |= set(zip(cycle, cycle[1:] + cycle[:1]))
    return digraph(loops[0] + loops[1] + ["x"], arcs)


# Cycles a and b share no vertex, and h joins them into one strong
# component, so no single deletion breaks every cycle.
JOINED_CYCLES = digraph(["h", "a0", "a1", "a2", "b0", "b1", "b2"],
                        {("a0", "a1"), ("a1", "a2"), ("a2", "a0"),
                         ("b0", "b1"), ("b1", "b2"), ("b2", "b0"),
                         ("a0", "h"), ("h", "b0"), ("b0", "a0")})


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

    # Duplicate ids are checked before any arc; each arc is checked for a
    # self-loop before its endpoints.
    @pytest.mark.parametrize("vertices,arcs,message", [
        ("aba", [("a", "b")], "duplicate vertex ids"),
        ("aa", [("a", "c")], "duplicate vertex ids"),
        ("ab", [("a", "a")], "self-loop on 'a' rejected"),
        ("ab", [("c", "c")], "self-loop on 'c' rejected"),
        ("ab", [("a", "c")], r"arc \('a','c'\) references unknown vertex"),
        ("ab", [("c", "a")], r"arc \('c','a'\) references unknown vertex"),
    ])
    def test_from_arcs_messages(self, vertices, arcs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Digraph.from_arcs(vertices, arcs)


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


# Programs without a signed incidence graph, which parse_program never
# gives: every graph-layer entry point raises ValueError on each, so none
# raises a KeyError or builds an expression with a rule-rule edge or a
# vertex introduced twice.
MALFORMED = {
    "atom-in-two-parts": Program(("a", "b"), (make_rule("r1", ["a"], ["a"]),)),
    "repeated-rule-id": Program(("a", "b"), (
        make_rule("r1", ["a"]), make_rule("r1", [], ["a"], ["b"]))),
    "rule-id-as-atom": Program(("a",), (
        make_rule("r1", ["r2"]), make_rule("r2", ["a"]))),
    "unlisted-atom": Program(("a",), (make_rule("r1", ["a"], ["b"]),)),
}
FACT = "eta(h,1,2,oplus(r(1,r1),a(2,a)))"
ENTRY_POINTS = {
    "incidence-graph": build_signed_incidence_graph,
    "trivial": trivial_expression,
    "heuristic": heuristic_expression,
    "validate": lambda p: validate_against(parse_expression(FACT), p),
    "validate-joined": lambda p: validate_against(
        parse_expression(FACT), p, joined=frozenset({"p", "n"})),
    "orientations": lambda p: next(homogeneous_orientations(p)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("shape", MALFORMED)
def test_program_without_incidence_graph_rejected(shape, entry):
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](MALFORMED[shape])


class TestClosures:
    def test_symmetric_closure_single_arc(self):
        d = symmetric_closure(digraph("ab", {("a", "b")}))
        assert d.arcs == {("a", "b"), ("b", "a")}

    def test_symmetric_closure_idempotent(self):
        d = symmetric_closure(digraph("abc", {("a", "b"), ("b", "c")}))
        assert symmetric_closure(d) == d

    def test_arcs_round_trip(self):
        rng = random.Random(5)
        for _ in range(50):
            vertices = [f"v{i}" for i in range(rng.randint(0, 9))]
            arcs = frozenset(pair for pair in itertools.permutations(vertices, 2)
                             if rng.random() < 0.3)
            assert Digraph.from_arcs(vertices, arcs).arcs == arcs

    def test_symmetric_closure_matches_arc_pairs(self):
        rng = random.Random(6)
        for _ in range(50):
            d = random_digraph(rng, rng.randint(0, 9), rng.random())
            closure = symmetric_closure(d)
            expected = digraph(d.vertices,
                               d.arcs | {(v, u) for u, v in d.arcs})
            assert closure == expected
            assert closure.pred == expected.pred


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
                sub = Digraph.from_arcs(kept, (
                    (u, v) for u, v in d.arcs if drop not in (u, v)))
                assert cycle_rank(sub) <= full

    @pytest.mark.parametrize("density", [0.12, 0.3, 0.6])
    def test_bounded_variant_matches_exact_up_to_twelve(self, density):
        rng = random.Random(int(density * 100))
        for _ in range(40):
            d = random_digraph(rng, rng.randint(1, 12), density)
            exact = cycle_rank(d)
            for w in range(-1, 4):
                assert is_cycle_rank_at_most(d, w) == (exact <= w), (d, w)

    @pytest.mark.parametrize("density", [0.12, 0.3, 0.6])
    def test_bounded_variant_matches_exact_on_symmetric_closures(self,
                                                                 density):
        # Undirected graphs are where the most-connected-first deletion
        # order changes the search most.
        rng = random.Random(int(density * 100) + 7)
        for _ in range(40):
            d = symmetric_closure(
                random_digraph(rng, rng.randint(1, 12), density))
            exact = cycle_rank(d)
            for w in range(-1, 4):
                assert is_cycle_rank_at_most(d, w) == (exact <= w), (d, w)

    def test_bounded_variant_matches_exact_with_self_loops(self):
        # Only a Digraph built directly has self-loops; both checks count
        # a looped vertex as acyclic, also when the loops, and paths
        # between them, survive the trim.
        vertices = ("a", "b", "c")
        for succ in itertools.product(range(8), repeat=3):
            pred = tuple(sum(1 << i for i in range(3) if succ[i] >> j & 1)
                         for j in range(3))
            d = Digraph(vertices, succ, pred)
            exact = cycle_rank(d)
            for w in range(-1, 3):
                assert is_cycle_rank_at_most(d, w) == (exact <= w), (d, w)

    def test_figure_eight_cut_at_highest_vertex(self):
        d = figure_eight(3)
        assert cycle_rank(d) == 1
        assert is_cycle_rank_at_most(d, 1) is True
        assert is_cycle_rank_at_most(d, 0) is False

    def test_disjoint_cycles_joined(self):
        d = JOINED_CYCLES
        assert len(_cyclic_components(d, 0b1111111)) == 1
        assert cycle_rank(d) == 2
        assert is_cycle_rank_at_most(d, 1) is False
        assert is_cycle_rank_at_most(d, 2) is True


def count_calls(monkeypatch, name, limit=100):
    """Count the calls to graphs.<name>; fail once there are over limit."""
    original = getattr(graphs, name)
    calls = []

    def counted(*args):
        calls.append(args)
        assert len(calls) <= limit, f"more than {limit} calls to {name}"
        return original(*args)

    monkeypatch.setattr(graphs, name, counted)
    return calls


class TestOneDeletionPruning:
    # With one deletion left, only vertices that stay in every cyclic
    # component after the deletions tried so far remain candidates. At
    # width 1 the whole trimmed core is cut before it is split.
    def test_figure_eight_tries_three_deletions(self, monkeypatch):
        calls = count_calls(monkeypatch, "_cyclic_components")
        assert is_cycle_rank_at_most(figure_eight(6), 1) is True
        # a0, b0 and x deleted from the whole trimmed digraph, which is
        # never split.
        assert len(calls) == 3

    def test_disjoint_cycles_decided_by_one_deletion(self, monkeypatch):
        calls = count_calls(monkeypatch, "_cyclic_components")
        assert is_cycle_rank_at_most(JOINED_CYCLES, 1) is False
        # Deleting h leaves two disjoint cyclic components, so no
        # candidate is left; the split then gives back the core whole,
        # which is not tried again.
        assert len(calls) == 2

    @pytest.mark.parametrize("k", [3, 10])
    def test_deletions_trimmed_before_search(self, monkeypatch, k):
        # The trim after each deletion starts from the deleted vertex's
        # neighbours and still removes every loop the deletion opened.
        reaches = count_calls(monkeypatch, "_reach")
        assert is_cycle_rank_at_most(figure_eight(k), 1) is True
        # One forward and one backward search each for the b loop left by
        # deleting a0 and the a loop left by deleting b0; deleting x
        # leaves nothing to search, and the whole digraph is not split.
        assert len(reaches) == 4


class TestDeletionOrder:
    # With two or more deletions left, the most-connected vertex is tried
    # first: in the symmetric closure of a QBF reduction's dependency
    # graph that is the saturation atom w, adjacent to every atom.
    def test_qbf_closure_cut_at_saturation_atom_first(self, monkeypatch):
        d = symmetric_closure(build_dependency_graph(
            reduce_qbf_to_asp(gen_random_qbf(6, 6, 6, 1))))
        calls = count_calls(monkeypatch, "_cyclic_components", limit=40)
        assert is_cycle_rank_at_most(d, 2) is True
        assert len(calls) <= 40


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
                cyclic = [s for s in expected if s & (s - 1)]
                assert _cyclic_components(d, mask) == sorted(
                    cyclic, key=lambda s: s & -s)

    def test_acyclic_digraphs_trimmed_without_search(self, monkeypatch):
        # Trimming vertices with no successor or no predecessor, until
        # none is left, empties any DAG before a reachability search.
        rng = random.Random(4)
        reaches = count_calls(monkeypatch, "_reach", limit=0)
        for _ in range(100):
            n = rng.randint(2, 12)
            order = rng.sample(range(n), n)
            vertices = [f"v{i}" for i in range(n)]
            d = digraph(vertices, {(vertices[u], vertices[v])
                                   for u, v in itertools.combinations(order, 2)
                                   if rng.random() < 0.3})
            assert _cyclic_components(d, (1 << n) - 1) == []
        assert reaches == []

    def test_trim_needs_repeating(self, monkeypatch):
        # v0 keeps a predecessor and a successor until v1 and v2 are gone.
        d = digraph(["v0", "v1", "v2"], {("v1", "v0"), ("v0", "v2")})
        reaches = count_calls(monkeypatch, "_reach", limit=0)
        assert _cyclic_components(d, 0b111) == []
        assert reaches == []

    def test_cycle_with_tails_searched_once(self, monkeypatch):
        d = digraph(["t0", "a", "b", "c", "t1", "t2"],
                    {("t0", "a"), ("a", "b"), ("b", "c"), ("c", "a"),
                     ("c", "t1"), ("t1", "t2")})
        reaches = count_calls(monkeypatch, "_reach")
        assert _cyclic_components(d, 0b111111) == [0b1110]
        # One forward and one backward search, from a.
        assert len(reaches) == 2


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

    # Groups in sorted (rule, sign) order, each with its atom: bit i of an
    # assignment points group i from its rule to its atom.
    EXAMPLE1_GROUPS = (("r1", "x"),   # (r1, h)
                       ("r1", "y"),   # (r1, n)
                       ("r2", "y"),   # (r2, n)
                       ("r2", "x"))   # (r2, p)

    def expected_arcs(self, assignment):
        return frozenset((rule, atom) if assignment >> bit & 1 else (atom, rule)
                         for bit, (rule, atom) in enumerate(self.EXAMPLE1_GROUPS))

    def test_enumeration_order_pinned(self, example1):
        orientations = list(homogeneous_orientations(example1))
        assert [d.vertices for d in orientations] == [("x", "y", "r1", "r2")] * 16
        assert [d.arcs for d in orientations] == [
            self.expected_arcs(a) for a in range(16)]

    def test_sampled_order_pinned(self, example1):
        sampled = homogeneous_orientations(example1, max_groups=2, samples=5,
                                           seed=3)
        # random.Random(3).getrandbits(4), five times.
        assert [d.arcs for d in sampled] == [
            self.expected_arcs(a) for a in (3, 9, 8, 2, 5)]

    # Rule ids that sort unlike program order ("r10" before "r9"), and a
    # rule with all three parts.
    ID_ORDER = parse_program("@zeta: a :- b.\n"
                             "@r10: b | c :- a, not d.\n"
                             "@alpha: d :- not c.\n"
                             "@r9: c :- d.\n")

    def id_order_arcs(self, assignment):
        parts = {(r.id, sign): part for r in self.ID_ORDER.rules
                 for sign, part in zip("hpn", (r.head, r.pos_body, r.neg_body))
                 if part}
        return frozenset(
            (rule, atom) if assignment >> bit & 1 else (atom, rule)
            for bit, (rule, sign) in enumerate(sorted(parts))
            for atom in parts[rule, sign])

    def test_group_order_by_rule_id_and_sign(self):
        # Nine groups: (alpha, h), (alpha, n), (r10, h), (r10, n),
        # (r10, p), (r9, h), (r9, p), (zeta, h), (zeta, p).
        enumerated = list(homogeneous_orientations(self.ID_ORDER))
        assert len(enumerated) == 512
        assert [d.arcs for d in enumerated] == [
            self.id_order_arcs(a) for a in range(512)]
        sampled = homogeneous_orientations(self.ID_ORDER, max_groups=8,
                                           samples=40, seed=5)
        rng = random.Random(5)
        assert [d.arcs for d in sampled] == [
            self.id_order_arcs(rng.getrandbits(9)) for _ in range(40)]

    @pytest.mark.parametrize("samples,max_groups", [(0, 14), (-5, 0), (1, -1)])
    def test_vacuous_arguments_rejected(self, example1, samples, max_groups):
        with pytest.raises(ValueError):
            list(homogeneous_orientations(example1, max_groups=max_groups,
                                          samples=samples))

    def test_sampling_fallback(self, example1):
        sampled = list(homogeneous_orientations(
            example1, max_groups=2, samples=5, seed=3))
        assert len(sampled) == 5
        again = list(homogeneous_orientations(
            example1, max_groups=2, samples=5, seed=3))
        assert sampled == again


def rebuilt(d):
    """The same digraph built from its named arcs."""
    return Digraph.from_arcs(d.vertices, d.arcs)


def group_masks(program):
    """Per vertex index: the bits of the (rule, sign) groups with an edge
    at that vertex, in the sorted group order of the assignments."""
    index = {v: i for i, v in enumerate(program.atoms + tuple(
        r.id for r in program.rules))}
    parts = {(r.id, sign): part for r in program.rules
             for sign, part in zip("hpn", (r.head, r.pos_body, r.neg_body))
             if part}
    masks = [0] * len(index)
    for bit, (rule_id, sign) in enumerate(sorted(parts)):
        for v in (rule_id, *parts[rule_id, sign]):
            masks[index[v]] |= 1 << bit
    return masks


# Rules where one atom is in two of the rule's groups, which
# parse_program rejects: a :- a.  and  a | b :- a, not b.  Such a program
# has no signed incidence graph, so it has no orientations either.
TWO_PARTS = {
    "a-head-and-body": Program(
        ("a",), (make_rule("r1", head=["a"], pos_body=["a"]),)),
    "a-and-b-twice": Program(
        ("a", "b"), (make_rule("r1", head=["a", "b"], pos_body=["a"],
                               neg_body=["b"]),)),
}


def rejected_in_two_parts(program):
    """True, after checking that the first next() raises, for a program
    of TWO_PARTS; False for any other."""
    if program not in TWO_PARTS.values():
        return False
    orientations = homogeneous_orientations(program)
    with pytest.raises(ValueError, match="in two parts"):
        next(orientations)
    assert next(orientations, None) is None
    return True


class TestCarriedMasks:
    # Each orientation's OR-ed masks against the same digraph built from
    # its named arcs: the running example (enumerated), a sampled QBF
    # reduction (over 14 groups), and a program whose every atom has edges
    # in three or four groups, so that most orientations point some of an
    # atom's edges each way. The programs of TWO_PARTS are rejected.
    @pytest.fixture(params=["example1", "qbf", "several-groups", *TWO_PARTS])
    def program(self, request, example1):
        return {
            "example1": lambda: example1,
            "qbf": lambda: reduce_qbf_to_asp(gen_random_qbf(6, 6, 6, 1)),
            "several-groups": lambda: parse_program(
                "a | b :- c, not d.\nc :- a, not b.\n"
                "d :- not a, b.\nb :- c, d."),
            **{name: lambda p=p: p for name, p in TWO_PARTS.items()},
        }[request.param]()

    def test_masks_match_rebuilt_digraph(self, program):
        if rejected_in_two_parts(program):
            return
        orientations = list(homogeneous_orientations(program))
        assert orientations
        for o in orientations:
            d = rebuilt(o)
            assert o == d and hash(o) == hash(d)
            assert (o.succ, o.pred) == (d.succ, d.pred)

    def test_live_mask(self, program):
        # The vertices with both a successor and a predecessor: those where
        # the assignment points some, but not all, of their groups away
        # from their rule.
        if rejected_in_two_parts(program):
            return
        masks = group_masks(program)
        g = max(masks).bit_length()
        rng = random.Random(0)
        assignments = (range(1 << g) if g <= 14
                       else [rng.getrandbits(g) for _ in range(64)])
        orientations = list(homogeneous_orientations(program))
        assert len(orientations) == len(assignments)
        for assignment, o in zip(assignments, orientations):
            both = sum(1 << v for v in range(len(o.vertices))
                       if o.succ[v] and o.pred[v])
            by_groups = sum(1 << v for v, gm in enumerate(masks)
                            if 0 != assignment & gm != gm)
            assert both == by_groups

    def test_qbf_reduction_is_sampled(self):
        program = reduce_qbf_to_asp(gen_random_qbf(6, 6, 6, 1))
        assert max(group_masks(program)).bit_length() > 14
        assert len(list(homogeneous_orientations(program))) == 64

    def test_decisions_match_rebuilt_digraph(self):
        verdicts = {w: set() for w in (0, 1, 2)}
        for seed in range(30):
            program = gen_random_program(6, 5, (0.33, 0.33, 0.33), seed)
            for o in homogeneous_orientations(program, max_groups=6,
                                              samples=16, seed=seed):
                exact = cycle_rank(rebuilt(o))
                for w in verdicts:
                    verdict = is_cycle_rank_at_most(o, w)
                    assert verdict == (exact <= w), (o, w)
                    verdicts[w].add(verdict)
        assert all(v == {True, False} for v in verdicts.values())

    def test_still_a_generator_function(self):
        # Callers that count orientations one next() at a time rely on it.
        assert inspect.isgeneratorfunction(homogeneous_orientations)


def strong_components(vertices, arcs):
    """Strong components by a plain search from each vertex: two vertices
    share one when each reaches the other."""
    succ = {v: [] for v in vertices}
    for u, v in arcs:
        succ[u].append(v)
    reached = {}
    for v in vertices:
        seen, stack = {v}, [v]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reached[v] = seen
    components, done = [], set()
    for v in vertices:
        if v not in done:
            component = {w for w in reached[v] if v in reached[w]}
            done |= component
            components.append(component)
    return components


def kahn_acyclic(vertices, arcs):
    """Kahn's algorithm: the digraph is acyclic iff repeatedly deleting a
    vertex with no arc into it deletes every vertex."""
    succ = {v: [] for v in vertices}
    indegree = dict.fromkeys(vertices, 0)
    for u, v in arcs:
        succ[u].append(v)
        indegree[v] += 1
    ready = [v for v in vertices if not indegree[v]]
    deleted = 0
    while ready:
        deleted += 1
        for w in succ[ready.pop()]:
            indegree[w] -= 1
            if not indegree[w]:
                ready.append(w)
    return deleted == len(vertices)


def reference_width_one(d):
    """(cyclic components, cycle rank at most 1) of a digraph with no
    self-loops: rank <= 1 iff every strong component of two or more
    vertices has a vertex whose deletion leaves it acyclic."""
    arcs = d.arcs
    cyclic = [c for c in strong_components(d.vertices, arcs) if len(c) > 1]
    return len(cyclic), all(
        any(kahn_acyclic(c - {v}, [(a, b) for a, b in arcs
                                   if a in c and b in c and v not in (a, b)])
            for v in c)
        for c in cyclic)


class TestWidthOneReference:
    # The width-0 and width-1 verdicts against an independent reference on
    # the orientations the QBF graph checks decide; QBF cores reach 27
    # vertices, past cycle_rank's bound.
    def check(self, orientations):
        counts = {"orientations": 0, "rank two": 0, "two components": 0}
        for o in orientations:
            components, at_most_one = reference_width_one(o)
            assert is_cycle_rank_at_most(o, 0) == (components == 0), o
            assert is_cycle_rank_at_most(o, 1) == at_most_one, o
            counts["orientations"] += 1
            counts["rank two"] += not at_most_one
            counts["two components"] += components > 1
        return counts

    def test_sampled_qbf_reductions(self):
        shapes = itertools.product((6, 7, 8), (6, 7, 8), (4, 6, 8))
        counts = self.check(itertools.chain.from_iterable(
            homogeneous_orientations(reduce_qbf_to_asp(
                gen_random_qbf(n, m, t, seed)))
            for seed, (n, m, t) in enumerate(shapes)))
        assert counts["orientations"] == 27 * 64

    def test_every_orientation_of_small_programs(self):
        # Among them, orientations of cycle rank 2, and cores of two
        # cyclic components, each cut on its own.
        counts = self.check(itertools.chain.from_iterable(
            homogeneous_orientations(
                gen_random_program(4, 4, (0.2, 0.2, 0.2), seed))
            for seed in range(40)))
        assert counts == {"orientations": 7584, "rank two": 90,
                          "two components": 10}


class TestOrientationErrors:
    # Raised at the first next(), never at the call, on both paths.
    @pytest.mark.parametrize("max_groups", [14, 0])
    @pytest.mark.parametrize("program,message", [
        (Program(("a",), (make_rule("r1", head=["b"]),)), "unknown vertex"),
        (Program(("a", "a"), (make_rule("r1", head=["a"]),)),
         "duplicate vertex ids"),
    ])
    def test_bad_program_rejected_at_first_next(self, program, message,
                                                max_groups):
        orientations = homogeneous_orientations(program, max_groups=max_groups)
        with pytest.raises(ValueError, match=message):
            next(orientations)


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

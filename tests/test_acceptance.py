"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS line when it
holds; criteria that compare against the brute-force oracle run over seeded
instance sweeps with fixed time budgets.
"""

import itertools
import time

import pytest

from aspcw.dp_answersets import dp_asp, has_answer_set_dp
from aspcw.dp_classical import dp_classical, has_model_dp
from aspcw.expression import (heuristic_expression, join_labels,
                              node_count, parse_expression,
                              trivial_expression, validate_against, width)
from aspcw.generators import (KPartiteGraph, gen_grid_program, gen_pclique,
                              gen_random_qbf,
                              has_partitioned_clique, qbf_is_valid,
                              reduce_pclique_to_asp, reduce_qbf_to_asp)
from aspcw.graphs import (build_dependency_graph,
                          build_signed_incidence_graph,
                          homogeneous_orientations, is_cycle_rank_at_most,
                          symmetric_closure)
from aspcw.oracle import enumerate_answer_sets, enumerate_models
from aspcw.program import Program, make_rule
from conftest import (NodeEvents, build_incidence_graph,
                      interpretation_triple, random_instance,
                      reduct_interpretation_triple, triple)


@pytest.fixture(scope="module")
def random_500():
    return [random_instance(seed) for seed in range(500)]


def root_labeling(program):
    sinc = build_signed_incidence_graph(program)
    return {v: i + 1 for i, v in enumerate(sinc.vertices)}


def proper_subsets(interp):
    ordered = sorted(interp)
    for r in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, r):
            sub = frozenset(combo)
            if sub != interp:
                yield sub


def test_criterion_01_classical_paper_trace(fig2):
    started = time.monotonic()
    trace = []
    root = dp_classical(fig2, trace=trace)
    tables = {node.op: set(node.triples) for node in trace}
    by_index = [set(node.triples) for node in trace]

    # sigma_6 = 1(x) + 2(r1) through sigma = the full expression.
    assert by_index[2] == {triple({1}, (), {2}), triple((), {1}, {2})}
    assert tables["eta(h,1,2)"] == {
        triple({1}, (), ()), triple((), {1}, {2})}
    assert by_index[5] == {
        triple({1}, (), {3}), triple((), {1}, {2, 3})}
    assert tables["eta(p,1,3)"] == {
        triple({1}, (), {3}), triple((), {1}, {2})}
    assert tables["rho(3,2)"] == {
        triple({1}, (), {2}), triple((), {1}, {2})}
    assert by_index[9] == {
        triple({1, 3}, (), {2}), triple({1}, {3}, {2}),
        triple({3}, {1}, {2}), triple((), {1, 3}, {2})}
    assert root == {
        triple({1, 3}, (), ()), triple({3}, {1}, ()),
        triple({1}, {3}, {2}), triple((), {1, 3}, {2})}
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"criterion 1 (classical paper trace, {elapsed:.3f}s): PASS")


def test_criterion_02_answer_set_paper_trace():
    from aspcw.program import parse_program
    started = time.monotonic()
    expr = parse_expression("eta(n,1,2,oplus(a(1,x),r(2,r)))")
    trace = []
    table = dp_asp(expr, trace=trace)

    def pairs_at(index):
        return {(p.q, frozenset(p.gamma)) for p in trace[index].pairs}

    assert pairs_at(0) == {
        (triple({1}, (), ()), frozenset({triple((), {1}, ())})),
        (triple((), {1}, ()), frozenset()),
    }
    assert pairs_at(2) == {
        (triple({1}, (), {2}), frozenset({triple((), {1}, {2})})),
        (triple((), {1}, {2}), frozenset()),
    }
    assert {(q, g) for q, g in table} == {
        (triple({1}, (), ()), frozenset({triple((), {1}, ())})),
        (triple((), {1}, {2}), frozenset()),
    }
    assert has_answer_set_dp(expr) is False
    assert enumerate_answer_sets(parse_program(":- not x.")) == []
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"criterion 2 (answer-set paper trace, {elapsed:.3f}s): PASS")


def test_criterion_03_classical_oracle_equivalence(random_500):
    started = time.monotonic()
    for program in random_500:
        expr = trivial_expression(program)
        assert has_model_dp(expr) == bool(enumerate_models(program))
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"criterion 3 (500-program classical equivalence, {elapsed:.1f}s): "
          "PASS")


def test_criterion_04_answer_set_oracle_equivalence(random_500):
    started = time.monotonic()
    for program in random_500:
        expr = trivial_expression(program)
        assert has_answer_set_dp(expr) == \
            bool(enumerate_answer_sets(program))
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"criterion 4 (500-program answer-set equivalence, {elapsed:.1f}s): "
          "PASS")


def test_criterion_05_realization_sweeps(random_500):
    for program in random_500[:100]:
        expr = trivial_expression(program)
        labeling = root_labeling(program)
        atoms = program.atoms

        interps = [frozenset(c)
                   for r in range(len(atoms) + 1)
                   for c in itertools.combinations(atoms, r)]
        # Forward and backward at once: with per-vertex labels, the table of
        # triples is exactly the image of the interpretation map.
        expected_f = {interpretation_triple(program, labeling, i)
                      for i in interps}
        assert dp_classical(expr) == expected_f

        expected_g = {
            (interpretation_triple(program, labeling, i),
             frozenset(reduct_interpretation_triple(program, labeling, i, j)
                       for j in proper_subsets(i)))
            for i in interps}
        table = {(q, g) for q, g in dp_asp(expr)}
        assert table == expected_g
        assert {q for q, _ in table} == expected_f
    print("criterion 5 (realization sweeps on 100 instances): PASS")


def test_criterion_06_qbf_reduction_sweep():
    agreements = 0
    for seed in range(200):
        n = seed % 3 + 1
        m = (seed // 3) % 3 + 1
        terms = seed % 4 + 1
        phi = gen_random_qbf(n, m, terms, seed)
        program = reduce_qbf_to_asp(phi)

        valid = qbf_is_valid(phi)
        by_oracle = bool(enumerate_answer_sets(program))
        by_dp = has_answer_set_dp(trivial_expression(program))
        assert valid == by_oracle == by_dp, (seed, valid, by_oracle, by_dp)
        agreements += 1

        dep = build_dependency_graph(program)
        assert is_cycle_rank_at_most(symmetric_closure(dep), 2)
        for orientation in homogeneous_orientations(program):
            assert is_cycle_rank_at_most(orientation, 1)
    assert agreements == 200
    print("criterion 6 (200 QBF reductions, three-way agreement plus "
          "cycle-rank bounds): PASS")


def test_criterion_07_partitioned_clique_sweep():
    parts = (("v1_1", "v2_1"), ("v1_2", "v2_2"))
    crossing = [(u, v) if u <= v else (v, u)
                for u in parts[0] for v in parts[1]]
    graphs = [
        KPartiteGraph(parts, frozenset(
            e for i, e in enumerate(crossing) if mask >> i & 1))
        for mask in range(16)
    ]
    graphs += [gen_pclique(3, 2, (seed % 5) * 0.2 + 0.1, seed)
               for seed in range(20)]
    for g in graphs:
        k = len(g.parts)
        program, expr = reduce_pclique_to_asp(g)
        assert has_partitioned_clique(g) == \
            bool(enumerate_answer_sets(program))
        assert validate_against(expr, program, joined={"p", "n"}) == []
        assert width(expr) <= 2 * k + k * k
    print("criterion 7 (36 partitioned-clique reductions vs oracle): PASS")


def test_criterion_08_label_join_transform():
    for seed in range(50):
        program = random_instance(seed)
        expr = trivial_expression(program)
        joined = join_labels(expr, {"h", "p", "n"})
        assert validate_against(joined, program,
                                joined={"h", "p", "n"}) == []
        assert width(joined) == width(expr)
    print("criterion 8 (label join on 50 programs): PASS")


def test_criterion_09_fixed_width_scaling():
    node_counts = {}
    for n in (4, 8, 16, 32):
        atoms = tuple(f"a{i}" for i in range(1, n + 1))
        rules = tuple(make_rule(f"b{i}", pos_body=atoms)
                      for i in range(1, n + 1))
        program = Program(atoms, rules)
        expr = heuristic_expression(program)
        assert width(expr) == 2

        events = NodeEvents()
        has_model_dp(expr, trace=events)
        max_table = max(size for _, _, size in events)
        assert max_table <= 2 ** (3 * 2)
        node_counts[n] = node_count(expr)
    # Linear growth: 2n introductions, 2n - 1 unions, one edge insertion.
    assert all(count == 4 * n for n, count in node_counts.items())
    print("criterion 9 (fixed-width scaling, tables <= 64, linear node "
          "count): PASS")


def test_criterion_10_grid_family_structure():
    for n in (1, 2, 3, 4):
        program = gen_grid_program(n)
        cells = n * n
        assert len(program.atoms) == cells and len(program.rules) == cells

        inc = build_incidence_graph(program)
        assert len(inc.edges) == cells * cells
        assert inc.edges == {frozenset({a, r.id})
                             for a in program.atoms for r in program.rules}

        def coords(name, prefix):
            t = int(name[len(prefix):]) - 1
            return t // n, t % n

        h_edges = {(a, r.id) for r in program.rules for a in r.head}
        grid_edges = set()
        for (t, u) in itertools.combinations(range(cells), 2):
            (r1, c1), (r2, c2) = (t // n, t % n), (u // n, u % n)
            if abs(r1 - r2) + abs(c1 - c2) == 1:
                grid_edges.add((t + 1, u + 1))
        got = {tuple(sorted((coords(a, "a")[0] * n + coords(a, "a")[1] + 1,
                             coords(r, "r")[0] * n + coords(r, "r")[1] + 1)))
               for a, r in h_edges}
        assert got == {tuple(sorted(e)) for e in grid_edges}
        # One head edge per grid edge, not two.
        assert len(h_edges) == len(grid_edges)
    print("criterion 10 (grid family structural checks): PASS")

import json
import random

import pytest

from aspcw.errors import BoundExceededError, ParseError
from aspcw.expression import validate_against, width
from aspcw.generators import (KPartiteGraph, Literal, QbfEA, gen_grid_program,
                              gen_pclique, gen_random_program, gen_random_qbf,
                              has_partitioned_clique, parse_qbf,
                              pclique_to_json, qbf_is_valid,
                              reduce_pclique_to_asp, reduce_qbf_to_asp,
                              serialize_qbf)
from aspcw.graphs import edge_key
from aspcw.program import (make_rule, parse_program, serialize_program,
                           validate_program)
from conftest import build_incidence_graph


class TestQbf:
    def test_example_formula_valid(self, ea_formula):
        assert qbf_is_valid(ea_formula) is True

    def test_single_existential_literal(self):
        phi = QbfEA(("x1",), (), ((Literal("x1", False),),))
        assert qbf_is_valid(phi) is True

    def test_universal_blocks(self):
        phi = QbfEA(("x1",), ("y1",),
                    ((Literal("x1", False), Literal("y1", False)),))
        assert qbf_is_valid(phi) is False

    def test_invariants(self):
        with pytest.raises(ValueError):
            QbfEA(("x1", "x1"), (), ())
        with pytest.raises(ValueError):
            QbfEA(("x1",), (), ((Literal("y9", False),),))
        with pytest.raises(ValueError):
            QbfEA(("x1",), (), ((),))

    def test_text_round_trip(self, ea_formula):
        assert parse_qbf(serialize_qbf(ea_formula)) == ea_formula

    def test_parse_format(self):
        phi = parse_qbf("exists x1 x2\nforall y1\nterm x1 -y1\n")
        assert phi.existential == ("x1", "x2")
        assert phi.terms == ((Literal("x1", False), Literal("y1", True)),)

    @pytest.mark.parametrize("text,line,message", [
        ("exists x1\nforall y1\nterm x1 z9\n", 3, "undeclared variable 'z9'"),
        ("exists x1\n% comment\nforall y1 x1\n", 3,
         "duplicate variable declaration"),
        ("exists x1\nterm\n", 2, "term size 0 outside 1..3"),
        ("exists x1 x2\nterm x1 x2 -x1 -x2\n", 2, "term size 4 outside 1..3"),
    ])
    def test_parse_errors_name_the_line(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_qbf(text)
        assert (err.value.line, err.value.col) == (line, 1)
        assert str(err.value) == f"line {line}, col 1: {message}"

    def test_accepted_names_round_trip(self):
        # Every variable name parse_qbf accepts is an atom name: the
        # reduction's program, unless it refuses a clash, is written and
        # read back as it is.
        rng = random.Random(0)
        accepted = refused = 0
        for _ in range(2000):
            name = "".join(rng.choices("aBgnotwxz_019-", k=rng.randint(1, 5)))
            try:
                phi = parse_qbf(f"exists {name}\nforall y1\nterm {name} -y1\n")
            except ParseError:
                refused += 1
                continue
            try:
                program = reduce_qbf_to_asp(phi)
            except ValueError:
                continue
            accepted += 1
            assert parse_program(serialize_program(program)) == program
        assert accepted > 100 and refused > 100

    def test_term_before_its_declaration(self):
        phi = parse_qbf("term x1 -y1\nexists x1\nforall y1\n")
        assert phi.existential == ("x1",) and phi.universal == ("y1",)


class TestQbfReduction:
    def test_example_term_rules(self, ea_formula):
        p = reduce_qbf_to_asp(ea_formula)
        by_id = {r.id: r for r in p.rules}
        assert by_id["term1"] == make_rule("term1", head=["w"],
                                           pos_body=["x1", "z2"])
        assert by_id["term2"] == make_rule("term2", head=["w"],
                                           pos_body=["v2", "y2"])
        assert by_id["goal"] == make_rule("goal", neg_body=["w"])

    def test_minimal_instance(self):
        phi = QbfEA(("x1",), (), ((Literal("x1", False),),))
        p = reduce_qbf_to_asp(phi)
        assert p.atoms == ("x1", "v1", "w")
        assert [r.id for r in p.rules] == ["choice_x1", "term1", "goal"]
        assert p.rules[0] == make_rule("choice_x1", head=["x1", "v1"])

    def test_saturation_rules(self):
        phi = QbfEA((), ("y1",), ((Literal("y1", False),),))
        by_id = {r.id: r for r in reduce_qbf_to_asp(phi).rules}
        assert by_id["choice_y1"].head == {"y1", "z1"}
        assert by_id["sat_y1"] == make_rule("sat_y1", head=["y1"],
                                            pos_body=["w"])
        assert by_id["sat_z1"] == make_rule("sat_z1", head=["z1"],
                                            pos_body=["w"])
        assert by_id["both_y1"] == make_rule("both_y1", head=["w"],
                                             pos_body=["y1", "z1"])

    def test_name_collision_rejected(self):
        phi = QbfEA(("v1",), (), ((Literal("v1", False),),))
        with pytest.raises(ValueError):
            reduce_qbf_to_asp(phi)

    @pytest.mark.parametrize("name", ["goal", "term1", "choice_x1",
                                      "choice_y1", "sat_y1", "sat_z1",
                                      "both_y1", "w", "z1"])
    def test_rule_id_and_atom_collisions_rejected(self, name):
        phi = QbfEA((name,), ("y1",),
                    ((Literal(name, False), Literal("y1", True)),))
        with pytest.raises(ValueError, match=repr([name])):
            reduce_qbf_to_asp(phi)

    def test_reduced_programs_validate(self):
        for seed in range(20):
            phi = gen_random_qbf(2, 2, 3, seed)
            assert validate_program(reduce_qbf_to_asp(phi)) == []


class TestPartitionedClique:
    def two_partite(self, edges):
        parts = (("v1_1", "v2_1"), ("v1_2", "v2_2"))
        return KPartiteGraph(parts, frozenset(edges))

    def test_single_edge_clique(self):
        g = self.two_partite({("v1_1", "v1_2")})
        assert has_partitioned_clique(g) is True

    def test_no_crossing_edges(self):
        assert has_partitioned_clique(self.two_partite(set())) is False

    def test_complete_k_partite(self):
        g = gen_pclique(3, 2, 1.0, seed=0)
        assert has_partitioned_clique(g) is True

    def test_bound_exceeded(self):
        g = gen_pclique(7, 8, 0.5, seed=0)
        with pytest.raises(BoundExceededError):
            has_partitioned_clique(g)

    def test_generator_deterministic(self):
        assert gen_pclique(3, 2, 0.5, 7) == gen_pclique(3, 2, 0.5, 7)

    def test_invariants(self):
        with pytest.raises(ValueError):
            KPartiteGraph((("a",), ("b", "c")), frozenset())
        with pytest.raises(ValueError):
            KPartiteGraph((("a", "b"),), frozenset({("a", "b")}))

    @pytest.mark.parametrize("k,part_size", [(0, 1), (1, 0), (-1, 2), (2, -1)])
    def test_sizes_checked(self, k, part_size):
        with pytest.raises(ValueError):
            gen_pclique(k, part_size, 0.5, 0)

    def test_json_round_trip(self):
        g = gen_pclique(3, 2, 0.5, seed=1)
        data = json.loads(pclique_to_json(g))
        assert KPartiteGraph(tuple(tuple(p) for p in data["parts"]),
                             frozenset(tuple(e) for e in data["edges"])) == g

    def test_reduction_width_bound(self):
        g = gen_pclique(2, 2, 0.5, seed=2)
        program, expr = reduce_pclique_to_asp(g)
        assert validate_program(program) == []
        assert width(expr) <= 2 * 2 + 2 ** 2
        assert validate_against(expr, program, joined={"p", "n"}) == []

    def test_complete_graph_reduces_to_facts(self):
        g = gen_pclique(3, 2, 1.0, seed=0)
        program, expr = reduce_pclique_to_asp(g)
        assert [r.id for r in program.rules] == ["part1", "part2", "part3"]
        assert all(not r.pos_body and not r.neg_body for r in program.rules)
        assert validate_against(expr, program, joined={"p", "n"}) == []

    def test_constraint_shape(self):
        g = self.two_partite(set())
        program, _ = reduce_pclique_to_asp(g)
        by_id = {r.id: r for r in program.rules}
        r = by_id["ne_v1_1_v1_2"]
        assert r.head == frozenset()
        assert r.pos_body == {"v1_1", "v1_2"}
        assert r.neg_body == {"v2_1", "v2_2"}


class TestGrid:
    def test_single_cell(self):
        p = gen_grid_program(1)
        (r,) = p.rules
        assert r.head == frozenset() and r.pos_body == {"a1"}

    def test_two_by_two_head_edges(self):
        p = gen_grid_program(2)
        assert len(p.atoms) == 4 and len(p.rules) == 4
        h_edges = sum(len(r.head) for r in p.rules)
        assert h_edges == 4

    def test_every_atom_in_every_rule(self):
        for n in (2, 3):
            p = gen_grid_program(n)
            for r in p.rules:
                assert r.head | r.pos_body == set(p.atoms)
                assert not r.neg_body

    def test_complete_bipartite_incidence(self):
        p = gen_grid_program(3)
        inc = build_incidence_graph(p)
        want = {frozenset(edge_key(a, r.id))
                for a in p.atoms for r in p.rules}
        assert inc.edges == want


class TestRandomInstances:
    def test_program_deterministic(self):
        a = gen_random_program(5, 5, (0.2, 0.2, 0.2), 11)
        b = gen_random_program(5, 5, (0.2, 0.2, 0.2), 11)
        assert a == b

    def test_zero_probabilities(self):
        p = gen_random_program(4, 3, (0.0, 0.0, 0.0), 0)
        assert all(not r.head and not r.pos_body and not r.neg_body
                   for r in p.rules)

    def test_programs_validate(self):
        for seed in range(50):
            p = gen_random_program(5, 5, (0.25, 0.25, 0.25), seed)
            assert validate_program(p) == []

    def test_probabilities_checked(self):
        with pytest.raises(ValueError):
            gen_random_program(3, 3, (0.5, 0.5, 0.5), 0)

    @pytest.mark.parametrize("probabilities", [
        (-1, 0.5, 0), (0.2, -0.1, 0.2), (1.5, -0.6, 0), (0, 0, float("nan")),
    ])
    def test_probabilities_outside_unit_interval(self, probabilities):
        with pytest.raises(ValueError, match="between 0 and 1"):
            gen_random_program(2, 1, probabilities, 0)

    @pytest.mark.parametrize("atoms,rules", [(0, 2), (-1, 2), (3, -1)])
    def test_sizes_checked(self, atoms, rules):
        with pytest.raises(ValueError):
            gen_random_program(atoms, rules, (0.2, 0.2, 0.2), 0)

    def test_smallest_sizes(self):
        assert gen_random_program(1, 0, (0.2, 0.2, 0.2), 0).rules == ()
        g = gen_pclique(1, 1, 0.5, 0)
        assert g.parts == (("v1_1",),) and not g.edges

    def test_qbf_deterministic_and_valid_shape(self):
        a = gen_random_qbf(3, 2, 4, 9)
        assert a == gen_random_qbf(3, 2, 4, 9)
        assert len(a.terms) == 4
        for term in a.terms:
            assert 1 <= len(term) <= 3
            assert len({l.var for l in term}) == len(term)

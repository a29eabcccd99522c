import copy
import pickle

import pytest

from aspcw.dp_answersets import dp_asp, has_answer_set_dp
from aspcw.dp_classical import dp_classical, has_model_dp
from aspcw.errors import ExpressionError, ParseError, SignConflictError
from aspcw.expression import (DisjointUnion, EdgeInsert, Introduce, Relabel,
                              evaluate, fold, heuristic_expression,
                              join_labels, labeled_expression, node_count,
                              op_label, parse_expression, postorder,
                              serialize_expression, trivial_expression,
                              validate_against, width)
from aspcw.generators import (gen_pclique, gen_random_program,
                              reduce_pclique_to_asp)
from aspcw.graphs import ALPHA, build_signed_incidence_graph, edge_key
from aspcw.program import Program, parse_program
from conftest import (EXAMPLE1_LABELING, EXAMPLE1_TEXT, FIG2_TEXT, NodeEvents,
                      reference_parse_expression)


def knn_expression(n, sign="p"):
    expr = Introduce(1, "a1", "atom")
    for i in range(2, n + 1):
        expr = DisjointUnion(expr, Introduce(1, f"a{i}", "atom"))
    for i in range(1, n + 1):
        expr = DisjointUnion(expr, Introduce(2, f"b{i}", "rule"))
    return EdgeInsert(sign, 1, 2, expr)


class TestParse:
    def test_single_introduce(self):
        expr = parse_expression("a(1,x)")
        assert expr == Introduce(1, "x", "atom")

    def test_fig2_structure(self, fig2):
        assert isinstance(fig2, EdgeInsert)
        assert fig2.sign == "n" and (fig2.i, fig2.j) == (3, 2)
        assert width(fig2) == 3
        assert node_count(fig2) == 11

    def test_round_trip(self, fig2):
        assert parse_expression(serialize_expression(fig2)) == fig2

    def test_self_edge_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("eta(h,1,1,a(1,x))")

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("oplus(a(1,x),a(2,x))")

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("a(1,x) a(2,y)")

    def test_bad_sign_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("eta(q,1,2,a(1,x))")

    @pytest.mark.parametrize("text,line,col", [
        ("", 1, 1),
        ("a(0,x)", 1, 1),
        ("a(1,x", 1, 1),
        ("oplus(a(1,x))", 1, 13),
        ("oplus(a(1,x),", 1, 14),
        ("rho(1,2)", 1, 1),
        ("foo(1,x)", 1, 1),
        ("a(1,x))", 1, 7),
        ("a(1,x) $", 1, 8),
        ("eta(h,1,2,a(1,x)", 1, 17),
        ("oplus(a(1,x),\n  a(2,x))", 2, 3),
        ("oplus(a(1,x),\n  a(2,y)) )", 2, 11),
        ("eta(h,1,2,\n a(1,x)", 2, 8),
        ("oplus(a(1,y),\n rho(0,1,a(1,x)))", 2, 2),
    ])
    def test_malformed_expression_names_position(self, text, line, col):
        with pytest.raises(ParseError) as info:
            parse_expression(text)
        assert (info.value.line, info.value.col) == (line, col)
        assert str(info.value).startswith(f"line {line}, col {col}: ")


# Valid texts whose prefixes and single-character deletions make up the
# malformed corpus: every operator, spaces and line breaks between tokens,
# a numeric vertex name, labels that a deletion turns to 0, an alpha sign
# and vertex names that a deletion makes equal.
CORPUS = [
    FIG2_TEXT,
    "oplus(a(1,x),\n  rho(10, 1, eta( alpha ,1,10,oplus(r(10,r1),a(1,7)))))",
    " eta(h,2,1,oplus(oplus(r(1,r1),r(1,r12)),\n\ta(2,x_1)))\n",
]


def parse_outcome(parse, text):
    """What `parse` makes of `text`: the expression's text, or the
    ParseError's message, line and column."""
    try:
        return serialize_expression(parse(text))
    except ParseError as exc:
        return str(exc), exc.line, exc.col


def corpus_variants(text):
    return ([text[:k] for k in range(len(text))]
            + [text[:k] + text[k + 1:] for k in range(len(text))])


class TestParseCorpus:
    @pytest.mark.parametrize("text", CORPUS)
    def test_prefixes_and_deletions_fail_alike(self, text):
        # Each text cut short or missing one character gives what the
        # parser that tries one pattern per operator head gives: the same
        # expression, or the same error at the same line and column.
        variants = corpus_variants(text)
        assert [parse_outcome(parse_expression, v) for v in variants] == \
            [parse_outcome(reference_parse_expression, v) for v in variants]
        assert parse_outcome(parse_expression, text) == \
            serialize_expression(reference_parse_expression(text))

    def test_corpus_reaches_every_error(self):
        errors = {outcome[0].split(": ", 1)[1].split(", found")[0]
                  for text in CORPUS for v in corpus_variants(text)
                  if type(outcome := parse_outcome(parse_expression, v))
                  is tuple}
        assert {"expected an expression", "expected ','", "expected ')'",
                "labels are positive integers", "bad edge sign 'lpha'",
                "vertex 'r1' introduced more than once"} <= errors


NODES = [
    Introduce(1, "x", "atom"),
    DisjointUnion(Introduce(1, "x", "atom"), Introduce(2, "r1", "rule")),
    Relabel(2, 1, Introduce(2, "r1", "rule")),
    EdgeInsert("h", 1, 2, DisjointUnion(Introduce(1, "x", "atom"),
                                        Introduce(2, "r1", "rule"))),
]


class TestRecords:
    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_fields_cannot_change(self, node):
        for name in type(node).__slots__:
            with pytest.raises(AttributeError):
                setattr(node, name, 1)
            with pytest.raises(AttributeError):
                delattr(node, name)
        with pytest.raises(AttributeError):
            node.other = 1
        assert not hasattr(node, "__dict__")

    def test_repr(self):
        assert [repr(node) for node in NODES] == [
            "Introduce(label=1, vertex='x', kind='atom')",
            "parse_expression('oplus(a(1,x),r(2,r1))')",
            "parse_expression('rho(2,1,r(2,r1))')",
            "parse_expression('eta(h,1,2,oplus(a(1,x),r(2,r1)))')"]

    def test_equality_and_hash(self):
        x = Introduce(1, "x", "atom")
        assert x == Introduce(1, "x", "atom") and x != Introduce(2, "x", "atom")
        assert hash(x) == hash((1, "x", "atom"))
        for node in NODES[1:]:
            again = parse_expression(serialize_expression(node))
            assert again == node and again is not node
            assert hash(node) == hash(tuple(map(op_label, postorder(node))))
            assert node != x and x != node
        assert NODES[1] != DisjointUnion(Introduce(2, "r1", "rule"),
                                         Introduce(1, "x", "atom"))
        assert NODES[2] != Relabel(2, 3, Introduce(2, "r1", "rule"))

    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_pickle_and_copy(self, node):
        for twin in (pickle.loads(pickle.dumps(node)), copy.copy(node),
                     copy.deepcopy(node)):
            assert type(twin) is type(node) and twin == node
            assert hash(twin) == hash(node) and repr(twin) == repr(node)

    def test_constructors_validate(self):
        for make in (lambda: Introduce(0, "x", "atom"),
                     lambda: Introduce(1, "x", "clause"),
                     lambda: Relabel(0, 1, NODES[0]),
                     lambda: EdgeInsert("q", 1, 2, NODES[0]),
                     lambda: EdgeInsert("h", 2, 2, NODES[0]),
                     lambda: EdgeInsert("h", 0, 2, NODES[0])):
            with pytest.raises(ExpressionError):
                make()


class TestEvaluate:
    def test_fig2_gives_running_example_graph(self, example1, fig2):
        g = evaluate(fig2)
        assert validate_against(fig2, example1) == []
        assert g.labels == EXAMPLE1_LABELING

    def test_complete_bipartite(self):
        g = evaluate(knn_expression(3))
        atoms = [f"a{i}" for i in range(1, 4)]
        rules = [f"b{i}" for i in range(1, 4)]
        assert set(g.edges) == {edge_key(a, b) for a in atoms for b in rules}
        assert set(g.edges.values()) == {"p"}

    def test_complete_graph_by_iteration(self):
        expr = Introduce(1, "v1", "atom")
        for i in range(2, 5):
            expr = Relabel(2, 1, EdgeInsert(
                "alpha", 1, 2, DisjointUnion(expr, Introduce(2, f"v{i}", "atom"))))
        g = evaluate(expr)
        assert len(g.edges) == 6
        assert set(g.labels.values()) == {1}

    def test_duplicate_introduction_rejected(self):
        expr = DisjointUnion(Introduce(1, "x", "atom"), Introduce(2, "x", "atom"))
        with pytest.raises(ExpressionError):
            evaluate(expr)

    def test_sign_conflict(self):
        base = DisjointUnion(Introduce(1, "x", "atom"), Introduce(2, "r", "rule"))
        with pytest.raises(SignConflictError):
            evaluate(EdgeInsert("p", 1, 2, EdgeInsert("h", 1, 2, base)))

    # The first error in post-order is raised, by evaluate and by
    # validate_against alike; a conflict names the first clashing pair in
    # introduce order (u over the insert's first label, then v), not in
    # name order.
    X, R = Introduce(1, "x", "atom"), Introduce(2, "r", "rule")
    BICLIQUE = ("rho(3,1,rho(4,1,rho(5,1,rho(6,2,rho(7,2,eta(n,5,6,eta(n,4,6,"
                "eta(h,4,7,oplus(oplus(oplus(a(3,c),a(4,b)),a(5,a)),"
                "oplus(r(6,s),r(7,q)))))))))))")

    @pytest.mark.parametrize("expr, error, message", [
        (DisjointUnion(EdgeInsert("p", 1, 2, EdgeInsert(
            "h", 1, 2, DisjointUnion(X, R))), Introduce(3, "x", "atom")),
         SignConflictError,
         "edge ('r', 'x') already has sign 'h', insert of 'p' conflicts"),
        (EdgeInsert("p", 1, 2, EdgeInsert("h", 1, 2, DisjointUnion(
            DisjointUnion(X, R), Introduce(3, "x", "atom")))),
         ExpressionError, "vertex 'x' introduced more than once"),
        (parse_expression(f"eta(p,1,2,{BICLIQUE})"), SignConflictError,
         "edge ('b', 's') already has sign 'n', insert of 'p' conflicts"),
        (parse_expression(f"eta(p,2,1,{BICLIQUE})"), SignConflictError,
         "edge ('b', 's') already has sign 'n', insert of 'p' conflicts"),
    ], ids=["conflict-first", "repeat-first", "biclique", "biclique-rules-first"])
    def test_first_error_in_post_order(self, expr, error, message):
        for check in (evaluate, lambda e: validate_against(e, Program((), ()))):
            with pytest.raises(error) as err:
                check(expr)
            assert type(err.value) is error and str(err.value) == message

    def test_repeated_insert_idempotent(self):
        base = DisjointUnion(Introduce(1, "x", "atom"), Introduce(2, "r", "rule"))
        once = evaluate(EdgeInsert("h", 1, 2, base))
        twice = evaluate(EdgeInsert("h", 1, 2, EdgeInsert("h", 1, 2, base)))
        assert once.edges == twice.edges

    def test_identity_relabel(self, fig2):
        assert evaluate(Relabel(1, 1, fig2)).edges == evaluate(fig2).edges

    def test_operators_act_on_their_own_operand(self):
        # x carries label 1 in the left operand; the relabel and the edge
        # insert inside the right operand must not reach it.
        g = evaluate(parse_expression(
            "oplus(a(1,x), eta(h,1,2, oplus(rho(3,1,a(3,y)), r(2,r))))"))
        assert set(g.edges) == {edge_key("r", "y")}
        assert g.labels == {"x": 1, "y": 1, "r": 2}


class TestValidate:
    def test_fig2_against_empty_program(self, fig2):
        problems = validate_against(fig2, Program((), ()))
        extra_vertices = {p for p in problems if p.startswith("extra vertex")}
        assert extra_vertices == {f"extra vertex {v}"
                                  for v in ("x", "y", "r1", "r2")}

    def test_missing_edge_insert(self, example1, fig2):
        # Dropping the outermost (n-signed) insert loses both n-edges.
        problems = validate_against(fig2.child, example1)
        assert sorted(problems) == [
            "missing edge r1--y (n)", "missing edge r2--y (n)"]

    def test_all_mismatch_kinds_in_order(self):
        # Vertices, then kinds, then edges; each group sorted.
        prog = parse_program("@r1: x | z :- y, not w.\n")
        expr = parse_expression(
            "eta(p,4,5,eta(p,3,4,eta(p,1,4,oplus(oplus(oplus(oplus(oplus("
            "a(1,x),a(2,z)),r(3,y)),r(4,r1)),a(5,q)),a(6,b)))))")
        assert validate_against(expr, prog) == [
            "missing vertex w",
            "extra vertex b",
            "extra vertex q",
            "vertex y: kind rule, expected atom",
            "missing edge r1--w (n)",
            "missing edge r1--z (h)",
            "extra edge q--r1 (p)",
            "edge r1--x: sign p, expected h",
        ]

    def test_wrong_sign_reported(self, example1):
        expr = parse_expression(FIG2_TEXT.replace("eta(n,", "eta(p,"))
        problems = validate_against(expr, example1)
        assert any("sign p, expected n" in p for p in problems)


class TestJoinLabels:
    def test_join_all_signs(self, example1, fig2):
        joined = join_labels(fig2, {"h", "p", "n"})
        assert validate_against(joined, example1, joined={"h", "p", "n"}) == []
        assert width(joined) == width(fig2)
        assert set(evaluate(joined).edges.values()) == {"alpha"}
        assert evaluate(joined).edges.keys() == evaluate(fig2).edges.keys()

    @pytest.mark.parametrize("signs", [{"q"}, {"alpha"}, {"h", "", "p"}])
    def test_non_signs_rejected_by_both(self, example1, fig2, signs):
        with pytest.raises(ValueError, match="cannot join non-signs"):
            join_labels(fig2, signs)
        with pytest.raises(ValueError, match="cannot join non-signs"):
            validate_against(fig2, example1, joined=signs)

    def test_join_absent_sign_is_identity(self):
        expr = knn_expression(2, sign="h")
        assert join_labels(expr, {"p"}) == expr

    def test_partial_join_counts(self, fig2):
        def count_alpha(node):
            if isinstance(node, Introduce):
                return 0
            if isinstance(node, DisjointUnion):
                return count_alpha(node.left) + count_alpha(node.right)
            extra = int(isinstance(node, EdgeInsert) and node.sign == "alpha")
            return extra + count_alpha(node.child)

        assert count_alpha(join_labels(fig2, {"p", "n"})) == 2
        assert count_alpha(join_labels(fig2, {"h", "p", "n"})) == 3

    def test_join_rejects_bad_input(self, fig2):
        with pytest.raises(ValueError):
            join_labels(fig2, set())
        with pytest.raises(ValueError):
            join_labels(fig2, {"alpha"})


class TestBuilders:
    def test_trivial_running_example(self, example1):
        expr = trivial_expression(example1)
        assert width(expr) == 4
        assert validate_against(expr, example1) == []

    def test_trivial_single_atom(self):
        expr = trivial_expression(Program(("x",), ()))
        assert expr == Introduce(1, "x", "atom")

    def test_trivial_forced_shape(self):
        expr = trivial_expression(parse_program(":- not x."))
        assert width(expr) == 2
        assert isinstance(expr, EdgeInsert) and expr.sign == "n"

    def test_trivial_empty_program_rejected(self):
        with pytest.raises(ValueError):
            trivial_expression(Program((), ()))

    def test_heuristic_twin_collapse(self):
        # Every atom in the positive body of every rule: two twin classes.
        atoms = tuple(f"a{i}" for i in range(1, 5))
        from aspcw.program import make_rule
        rules = tuple(make_rule(f"b{i}", pos_body=atoms) for i in range(1, 5))
        p = Program(atoms, rules)
        expr = heuristic_expression(p)
        assert width(expr) == 2
        assert validate_against(expr, p) == []

    def test_heuristic_single_vertex(self):
        assert width(heuristic_expression(Program(("x",), ()))) == 1

    def test_builders_validate_on_random_programs(self):
        for seed in range(25):
            p = gen_random_program(4, 4, (0.25, 0.25, 0.25), seed)
            trivial = trivial_expression(p)
            heuristic = heuristic_expression(p)
            assert validate_against(trivial, p) == []
            assert validate_against(heuristic, p) == []
            assert width(heuristic) <= width(trivial)


def introduces(expr):
    """The introduce leaves of `expr`, in post-order."""
    out = []
    fold(expr, lambda node, *_: out.append(node)
         if isinstance(node, Introduce) else None)
    return out


def op_labels(expr):
    out = []
    fold(expr, lambda node, *_: out.append(op_label(node)))
    return out


def in_vertex_order(expr, vertices):
    """`expr` with its introduces unioned left-deep in `vertices` order and
    every edge insert above the whole union, in sorted order."""
    leaf = {node.vertex: node for node in introduces(expr)}
    edges = []
    fold(expr, lambda node, *_: edges.append((node.i, node.j, node.sign))
         if isinstance(node, EdgeInsert) else None)
    out = leaf[vertices[0]]
    for v in vertices[1:]:
        out = DisjointUnion(out, leaf[v])
    for i, j, sign in sorted(edges):
        out = EdgeInsert(sign, i, j, out)
    return out


def rules_then_atoms(program):
    sinc = build_signed_incidence_graph(program)
    rules = [v for v in sinc.vertices if sinc.kinds[v] == "rule"]
    atoms = [v for v in sinc.vertices if sinc.kinds[v] == "atom"]
    return rules + atoms


BUILDER_PROGRAMS = [parse_program(EXAMPLE1_TEXT)] + [
    gen_random_program(5, 4, (0.25, 0.25, 0.25), seed) for seed in range(12)]

PCLIQUE_REDUCTIONS = [reduce_pclique_to_asp(gen_pclique(3, 2, 0.5, seed))
                      for seed in range(6)]


@pytest.mark.parametrize("build", [trivial_expression, heuristic_expression])
class TestBuilderOrder:
    def test_rules_introduced_before_atoms(self, build):
        for p in BUILDER_PROGRAMS:
            order = [node.vertex for node in introduces(build(p))]
            assert order == rules_then_atoms(p)

    def test_order_changes_no_size_or_table(self, build):
        # The expression with its introduces in vertex order and all of its
        # edge inserts above the union has the same width, nodes, root
        # tables and decisions.
        for p in BUILDER_PROGRAMS:
            expr = build(p)
            ref = in_vertex_order(expr, build_signed_incidence_graph(p).vertices)
            assert validate_against(expr, p) == validate_against(ref, p) == []
            assert width(expr) == width(ref)
            assert node_count(expr) == node_count(ref)
            assert sorted(op_labels(expr)) == sorted(op_labels(ref))
            assert dp_classical(expr) == dp_classical(ref)
            assert dp_asp(expr) == dp_asp(ref)
            assert has_model_dp(expr) == has_model_dp(ref)
            assert has_answer_set_dp(expr) == has_answer_set_dp(ref)


def test_pclique_rules_introduced_before_atoms():
    for program, expr in PCLIQUE_REDUCTIONS:
        order = [node.vertex for node in introduces(expr)]
        assert order == rules_then_atoms(program)


def edge_runs(expr):
    """The runs of edge inserts in a left-deep union of introduces, as
    {number of introduces below the run: [(i, j, sign), ...] bottom first}."""
    below = len(introduces(expr))
    runs = {}
    while True:
        run = []
        while isinstance(expr, EdgeInsert):
            run.append((expr.i, expr.j, expr.sign))
            expr = expr.child
        if run:
            runs[below] = run[::-1]
        if isinstance(expr, Introduce):
            return runs
        assert isinstance(expr.right, Introduce)
        expr, below = expr.left, below - 1


def quotient_pairs(graph, label):
    pairs = {(min(label[u], label[v]), max(label[u], label[v])): s
             for (u, v), s in graph.edges.items()}
    return [(i, j, s) for (i, j), s in sorted(pairs.items())]


def assert_edges_placed_early(expr, graph):
    """Each quotient pair gets exactly one edge insert, in the run directly
    above the union that brings in the last vertex of its later label;
    each run is in sorted order."""
    order = introduces(expr)
    label = {node.vertex: node.label for node in order}
    last = {node.label: p for p, node in enumerate(order, 1)}
    runs = edge_runs(expr)
    placed = [edge for below in sorted(runs) for edge in runs[below]]
    assert sorted(placed) == quotient_pairs(graph, label)
    for below, run in runs.items():
        assert run == sorted(run)
        assert all(max(last[i], last[j]) == below for i, j, _ in run)


class TestQuotientExpression:
    """`labeled_expression`: the quotient of the signed incidence graph by
    a label map, one edge insert per adjacent label pair."""
    # Atoms a1, a2 are twins (head of r1, negative body of r2); so are
    # atoms b1, b2 (positive body of r2).
    PROGRAM = parse_program("a1 | a2.\n:- b1, b2, not a1, not a2.\n")
    GRAPH = build_signed_incidence_graph(PROGRAM)
    LABEL = {"a1": 3, "a2": 3, "b1": 1, "b2": 1, "r1": 4, "r2": 2}

    def test_twin_labels_rebuild_the_graph(self):
        got = evaluate(labeled_expression(self.PROGRAM, self.LABEL))
        assert set(got.vertices) == {"a1", "a2", "b1", "b2", "r1", "r2"}
        assert got.kinds == self.GRAPH.kinds
        assert got.edges == self.GRAPH.edges == {
            edge_key("a1", "r1"): "h", edge_key("a2", "r1"): "h",
            edge_key("a1", "r2"): "n", edge_key("a2", "r2"): "n",
            edge_key("b1", "r2"): "p", edge_key("b2", "r2"): "p"}
        assert got.labels == self.LABEL

    def test_one_edge_insert_per_quotient_pair(self):
        # Rules r1, r2 come first, then a1, a2, b1, b2: labels 3 and 4 are
        # complete once a2 is in (4 introduces), label 1 once b2 is (6).
        expr = labeled_expression(self.PROGRAM, self.LABEL)
        assert edge_runs(expr) == {4: [(2, 3, "n"), (3, 4, "h")],
                                   6: [(1, 2, "p")]}
        assert_edges_placed_early(expr, self.GRAPH)
        assert width(expr) == 4

    def test_twin_rules_are_read_under_each_label(self):
        # Three twin rules: under three labels each gives its own two edge
        # inserts; under one label they give one between the two classes.
        p = parse_program(":- a, b.\n" * 3)
        trivial, heuristic = trivial_expression(p), heuristic_expression(p)
        assert validate_against(trivial, p) == validate_against(heuristic, p) == []
        inserts = [sum(map(len, edge_runs(e).values())) for e in (trivial, heuristic)]
        assert inserts == [6, 1] and width(heuristic) == 2

    @pytest.mark.parametrize("build", [trivial_expression, heuristic_expression])
    def test_builders_insert_the_sorted_quotient_pairs(self, build):
        for p in BUILDER_PROGRAMS:
            expr = build(p)
            assert_edges_placed_early(expr, build_signed_incidence_graph(p))

    def test_pclique_inserts_the_sorted_quotient_pairs(self):
        for program, expr in PCLIQUE_REDUCTIONS:
            joined = build_signed_incidence_graph(program)
            joined.edges = {e: ALPHA if s in {"p", "n"} else s
                            for e, s in joined.edges.items()}
            assert_edges_placed_early(expr, joined)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty graph"):
            labeled_expression(Program((), ()), {})


class TestBuilderLabels:
    def test_trivial_label_is_vertex_position(self):
        for p in BUILDER_PROGRAMS:
            vertices = build_signed_incidence_graph(p).vertices
            expr = trivial_expression(p)
            assert {node.vertex: node.label for node in introduces(expr)} == \
                {v: i + 1 for i, v in enumerate(vertices)}
            assert width(expr) == len(vertices)

    def test_heuristic_classes_numbered_by_first_appearance(self):
        for p in BUILDER_PROGRAMS:
            vertices = build_signed_incidence_graph(p).vertices
            expr = heuristic_expression(p)
            label = {node.vertex: node.label for node in introduces(expr)}
            first = list(dict.fromkeys(label[v] for v in vertices))
            assert first == list(range(1, width(expr) + 1))


def test_rule_unions_cost_one_pair():
    # Rules unioned after the atoms would each copy the atoms' 2^atoms pairs
    # (2044 here); unioned first, each costs one pair.  Every atom union
    # lies directly under its atom's edge run, so the decision builds no
    # table for it: the rule unions, at every other node from the third,
    # are the only unions it reports.
    atoms, rules = 8, 6
    p = gen_random_program(atoms, rules, (0.25, 0.25, 0.25), seed=3)
    events = NodeEvents()
    has_answer_set_dp(trivial_expression(p), trace=events)
    unions = [(index, size) for index, op, size in events if op == "oplus"]
    assert unions == [(2 * k + 1, 1) for k in range(1, rules)]

"""Trace files and trace nodes against tables unpacked at each event.

A trace node keeps its table packed and unpacks it on access, and
`solve --trace` writes the file straight from the packed tables.  Over one
sweep (random programs of 1-10 atoms, QBF(2,2) reductions, QBF(1,2)
reductions without an answer set and a 4-atom, 400-rule program), in both
modes, through both builders and through an expression file, the file
must be byte for byte what `conftest.reference_trace_json` writes from the
eagerly unpacked tables, and `.pairs` / `.triples` of decision and full
traces must equal those tables.  An object with only `append` must get
the nodes a list gets, and the last of them must be the root the fold
returns.  A builder expression with its labels spread far apart must
decide alike and trace the same tables, in its own labels."""

import pytest

from aspcw.cli import main
from aspcw.dp_answersets import _TABLES, dp_asp, has_answer_set_dp
from aspcw.dp_classical import _TABLES as _MODEL_TABLES
from aspcw.dp_classical import dp_classical, has_model_dp
from aspcw.expression import (DisjointUnion, EdgeInsert, Introduce, Relabel,
                              fold, labels_used, op_label, postorder)
from aspcw.graphs import bits
from aspcw.tables import KPair, KTriple, fold_tables, trace_json
from conftest import (TRACE_SWEEP, NodeEvents, built, eager_trace,
                      reference_trace_json, table_nodes)

MODES = {
    "classical": ("triples", has_model_dp, dp_classical, _MODEL_TABLES),
    "asp": ("pairs", has_answer_set_dp, dp_asp, _TABLES),
}


@pytest.mark.parametrize("build", ["trivial", "heuristic", "expr"])
@pytest.mark.parametrize("mode", list(MODES))
def test_trace_file_matches_reference(capsys, tmp_path, mode, build):
    field, _, _, ops = MODES[mode]
    program_file, trace_file = tmp_path / "p.lp", tmp_path / "t.json"
    decisions = set()
    for text in TRACE_SWEEP:
        expr, expr_text = built(text, build)
        program_file.write_text(text)
        argv = ["solve", "--mode", mode, "--program", str(program_file)]
        if expr_text is None:
            argv += ["--auto-expr", build]
        else:
            (tmp_path / "p.expr").write_text(expr_text)
            argv += ["--expr", str(tmp_path / "p.expr")]
        code = main(argv)
        plain = capsys.readouterr()
        assert main(argv + ["--trace", str(trace_file)]) == code
        assert capsys.readouterr() == plain
        assert trace_file.read_text() == reference_trace_json(
            eager_trace(expr, ops, True, field), field)
        decisions.add(code)
    assert decisions == {0, 1}


# The decision's traces through both builders, and the full fold's (which
# unpacks up to 173,062 Gamma members in one trace here) through one.
@pytest.mark.parametrize("build,forget", [("trivial", True),
                                          ("heuristic", True),
                                          ("heuristic", False)])
@pytest.mark.parametrize("mode", list(MODES))
def test_trace_nodes_unpack_eager_tables(mode, build, forget):
    field, decide, full, ops = MODES[mode]
    for text in TRACE_SWEEP:
        expr, _ = built(text, build)
        trace = []
        (decide if forget else full)(expr, trace=trace)
        assert [(n.index, n.op, getattr(n, field)) for n in trace] == \
            eager_trace(expr, ops, forget, field)


class Sink:
    """A trace sink that is no list: it keeps each node's index, op and
    table."""

    def __init__(self):
        self.nodes = []

    def append(self, node):
        self.nodes.append((node.index, node.op, node.table))


@pytest.mark.parametrize("forget", [True, False])
@pytest.mark.parametrize("build", ["trivial", "heuristic"])
@pytest.mark.parametrize("mode", list(MODES))
def test_sink_gets_the_nodes_a_list_gets(mode, build, forget):
    # `trace` is the fold's one observer.  A sink gets what a list gets,
    # and the last node is the root: the fold reports every node but the
    # edge inserts below the top of a run, and the decision's fold skips
    # the unions directly under an edge insert too.  No table the
    # forgetting fold builds is larger than the full fold's at its node.
    ops = MODES[mode][3]
    for text in TRACE_SWEEP:
        expr, _ = built(text, build)
        listed, sink = [], Sink()
        root = fold_tables(expr, ops, listed, forget)
        assert fold_tables(expr, ops, sink, forget) == root
        assert sink.nodes == [(n.index, n.op, n.table) for n in listed]
        assert listed[-1] == root
        assert [(n.index, n.op) for n in listed] == \
            table_nodes(expr, fused=forget)
        if forget:
            full = NodeEvents()
            fold_tables(expr, ops, full)
            sizes = {index: size for index, _, size in full}
            assert all(len(n.table) <= sizes[n.index] for n in listed)


def spread(expr, name):
    """`expr` with each label l renamed name[l]."""
    def rebuild(node, *kids):
        if isinstance(node, Introduce):
            return Introduce(name[node.label], node.vertex, node.kind)
        if isinstance(node, DisjointUnion):
            return DisjointUnion(*kids)
        if isinstance(node, Relabel):
            return Relabel(name[node.old], name[node.new], *kids)
        return EdgeInsert(node.sign, name[node.i], name[node.j], *kids)

    return fold(expr, rebuild)


def renamed(table, name):
    """Public entries with each label l renamed name[l]."""
    def triple(t):
        return KTriple(*[sum(1 << (name[b + 1] - 1) for b in bits(m))
                         for m in t])

    return frozenset(
        KPair(triple(e.q), frozenset(map(triple, e.gamma)))
        if type(e) is KPair else triple(e) for e in table)


@pytest.mark.parametrize("build", ["trivial", "heuristic"])
@pytest.mark.parametrize("mode", list(MODES))
def test_spread_labels_trace_in_their_labels(mode, build):
    # The fold numbers sparse labels 1..k in order, so label l, spread to
    # 997 * l + 3, traces as l did: the same decision and tables, and the
    # trace file written in the spread labels.
    field, decide, full, _ = MODES[mode]
    for text in TRACE_SWEEP[:24]:
        expr, _ = built(text, build)
        name = {l: 997 * l + 3 for l in labels_used(expr)}
        far = spread(expr, name)
        trace, far_trace = [], []
        assert decide(far, trace=far_trace) == decide(expr, trace=trace)
        ops = [op_label(node) for node in postorder(far)]
        spread_trace = [(n.index, ops[n.index - 1],
                         renamed(getattr(n, field), name)) for n in trace]
        assert [(n.index, n.op, getattr(n, field))
                for n in far_trace] == spread_trace
        assert trace_json(far_trace, field) == \
            reference_trace_json(spread_trace, field)
        if len(name) <= 8:
            assert full(far) == renamed(full(expr), name)

"""Trace files and trace nodes against tables unpacked at each event.

A trace node keeps its table packed and unpacks it on access, and
`solve --trace` writes the file straight from the packed tables.  Over one
sweep (random programs of 1-10 atoms, QBF(2,2) reductions, QBF(1,2)
reductions without an answer set and a 4-atom, 400-rule program), in both
modes, through both builders and through an expression file, the file
must be byte for byte what `conftest.reference_trace_json` writes from the
eagerly unpacked tables, and `.pairs` / `.triples` of decision and full
traces must equal those tables."""

import pytest

from aspcw.cli import main
from aspcw.dp_answersets import _TABLES, dp_asp, has_answer_set_dp
from aspcw.dp_classical import _TABLES as _MODEL_TABLES
from aspcw.dp_classical import dp_classical, has_model_dp
from aspcw.expression import (heuristic_expression, parse_expression,
                              serialize_expression, trivial_expression)
from aspcw.generators import (gen_random_program, gen_random_qbf,
                              reduce_qbf_to_asp)
from aspcw.program import parse_program, serialize_program
from conftest import eager_trace, reference_trace_json

PARTS = (0.2, 0.2, 0.2)

SWEEP = (
    [serialize_program(gen_random_program(atoms, 1 + (atoms + seed) % 6,
                                          PARTS, seed))
     for atoms in range(1, 11) for seed in (0, 1)]
    + [serialize_program(reduce_qbf_to_asp(gen_random_qbf(2, 2, terms, seed)))
       for terms in (3, 4, 5) for seed in (1, 2, 3)]
    # Seeds 1 and 3 give invalid formulas: negative decisions.
    + [serialize_program(reduce_qbf_to_asp(gen_random_qbf(1, 2, 2, seed)))
       for seed in (1, 3)]
    + [serialize_program(gen_random_program(4, 400, PARTS, 0))])

MODES = {
    "classical": ("triples", has_model_dp, dp_classical, _MODEL_TABLES),
    "asp": ("pairs", has_answer_set_dp, dp_asp, _TABLES),
}


def built(text: str, build: str):
    """The expression `solve` gets with --auto-expr `build`, or, for
    "expr", from a file holding the trivial expression, with that text."""
    program = parse_program(text)
    if build == "heuristic":
        return heuristic_expression(program), None
    expr = trivial_expression(program)
    if build == "trivial":
        return expr, None
    expr_text = serialize_expression(expr) + "\n"
    return parse_expression(expr_text), expr_text


@pytest.mark.parametrize("build", ["trivial", "heuristic", "expr"])
@pytest.mark.parametrize("mode", list(MODES))
def test_trace_file_matches_reference(capsys, tmp_path, mode, build):
    field, _, _, ops = MODES[mode]
    program_file, trace_file = tmp_path / "p.lp", tmp_path / "t.json"
    decisions = set()
    for text in SWEEP:
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
            eager_trace(expr, ops, forget=True), field)
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
    for text in SWEEP:
        expr, _ = built(text, build)
        trace = []
        (decide if forget else full)(expr, trace=trace)
        assert [(n.index, n.op, getattr(n, field)) for n in trace] == \
            eager_trace(expr, ops, forget=forget)

import json
import os
import random

import pytest

from aspcw import expression
from aspcw.cli import main
from aspcw.dp_answersets import has_answer_set_dp
from aspcw.dp_classical import has_model_dp
from aspcw.expression import Introduce
from aspcw.tables import TraceNode, trace_json
from conftest import (EXAMPLE1_TEXT, FIG2_MODEL_EVENTS, FIG2_TEXT,
                      RULE_FIRST, TRACE_SWEEP, NodeEvents, built, pack,
                      reference_trace_json, triple)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def example1_file(tmp_path):
    return write(tmp_path, "example1.lp", EXAMPLE1_TEXT)


@pytest.fixture
def fig2_file(tmp_path):
    return write(tmp_path, "fig2.expr", FIG2_TEXT)


class TestSolve:
    def test_classical_positive(self, capsys, example1_file, fig2_file):
        code, out, _ = run(capsys, "solve", "--mode", "classical",
                           "--program", example1_file, "--expr", fig2_file)
        payload = json.loads(out)
        assert code == 0
        assert payload["decision"] is True
        assert payload["width"] == 3
        assert payload["table_sizes"]["node_count"] == 11

    def test_asp_negative(self, capsys, tmp_path):
        program = write(tmp_path, "p.lp", ":- not x.\n")
        expr = write(tmp_path, "p.expr", "eta(n,1,2,oplus(a(1,x),r(2,r1)))")
        code, out, _ = run(capsys, "solve", "--mode", "asp",
                           "--program", program, "--expr", expr)
        assert code == 1
        assert json.loads(out)["decision"] is False

    def test_auto_expr(self, capsys, example1_file):
        # The running example has classical models but no answer set: the
        # reduct with respect to either model drops both rules.
        code, out, _ = run(capsys, "solve", "--mode", "asp",
                           "--program", example1_file,
                           "--auto-expr", "trivial")
        assert code == 1
        payload = json.loads(out)
        assert payload["decision"] is False
        assert payload["width"] == 4

    def test_mismatched_expression(self, capsys, tmp_path, fig2_file):
        program = write(tmp_path, "other.lp", "a.\n")
        code, out, _ = run(capsys, "solve", "--mode", "classical",
                           "--program", program, "--expr", fig2_file)
        assert code == 3
        assert json.loads(out)["mismatches"]

    @pytest.mark.parametrize("program_text,expr_text", RULE_FIRST)
    @pytest.mark.parametrize("mode", ["asp", "classical"])
    def test_rule_label_first(self, capsys, tmp_path, mode, program_text,
                              expr_text):
        # An edge insert is undirected: both programs validate and have an
        # answer set with the rule label named first.
        files = ["--program", write(tmp_path, "p.lp", program_text),
                 "--expr", write(tmp_path, "p.expr", expr_text)]
        code, out, _ = run(capsys, "validate", *files)
        assert code == 0 and json.loads(out)["ok"] is True
        code, out, _ = run(capsys, "solve", "--mode", mode, *files)
        assert code == 0 and json.loads(out)["decision"] is True

    def test_trace_file(self, capsys, tmp_path, example1_file, fig2_file):
        trace = tmp_path / "trace.json"
        code, _, _ = run(capsys, "solve", "--mode", "classical",
                         "--program", example1_file, "--expr", fig2_file,
                         "--trace", str(trace))
        assert code == 0
        nodes = json.loads(trace.read_text())["nodes"]
        assert [(n["index"], n["op"], len(n["triples"])) for n in nodes] == \
            FIG2_MODEL_EVENTS

    @pytest.mark.parametrize("mode,program_text,expr_text", [
        ("classical", EXAMPLE1_TEXT, FIG2_TEXT),
        ("asp", EXAMPLE1_TEXT, FIG2_TEXT),
        ("asp", "a :- not b.\nb :- not a.\n:- b.\n", None),
    ])
    def test_trace_keeps_payload(self, capsys, tmp_path, mode, program_text,
                                 expr_text):
        argv = ["solve", "--mode", mode,
                "--program", write(tmp_path, "p.lp", program_text)]
        if expr_text is None:
            argv += ["--auto-expr", "trivial"]
        else:
            argv += ["--expr", write(tmp_path, "p.expr", expr_text)]
        plain = run(capsys, *argv)
        traced = run(capsys, *argv, "--trace", str(tmp_path / "t.json"))
        assert traced == plain


    def test_trace_reports_node_events(self, capsys, tmp_path):
        # Over the trace tests' sweep, in both modes and through both
        # builders and an expression file: the trace file lists one table
        # per node the decision reports, `table_sizes` is the same with and
        # without --trace, node_count is the last index and max_table the
        # largest table.
        trace = tmp_path / "t.json"
        for mode, decide, field in (("classical", has_model_dp, "triples"),
                                    ("asp", has_answer_set_dp, "pairs")):
            for build in "trivial", "heuristic", "expr":
                for text in TRACE_SWEEP:
                    expr, expr_text = built(text, build)
                    events = NodeEvents()
                    decide(expr, trace=events)
                    argv = ["solve", "--mode", mode, "--program",
                            write(tmp_path, "p.lp", text)]
                    if expr_text is None:
                        argv += ["--auto-expr", build]
                    else:
                        argv += ["--expr",
                                 write(tmp_path, "p.expr", expr_text)]
                    plain = run(capsys, *argv)
                    code, out, _ = run(capsys, *argv, "--trace", str(trace))
                    assert (code, out) == plain[:2]
                    nodes = json.loads(trace.read_text())["nodes"]
                    assert [(n["index"], n["op"], len(n[field]))
                            for n in nodes] == events
                    sizes = json.loads(out)["table_sizes"]
                    assert sizes["max_table"] == \
                        max(len(n[field]) for n in nodes)
                    assert sizes["node_count"] == nodes[-1]["index"]

    def test_triple_json_lists_sorted_labels(self):
        # Each field is its labels in increasing order, as sorting the label
        # sets gives them, for labels up to and past one machine word.
        rng = random.Random(0)
        for _ in range(300):
            fields = [rng.sample([1, 2, 3, 63, 64, 65, 200],
                                 rng.randint(0, 4)) for _ in range(3)]
            q = triple(*fields)
            text = trace_json(
                [TraceNode(1, Introduce(1, "x", "atom"),
                           {(pack(q, 200), frozenset())}, 200)],
                "triples")
            assert json.loads(text)["nodes"][0]["triples"] == \
                [[sorted(labels) for labels in fields]]
            assert text == reference_trace_json([(1, "a(1,x)", {q})],
                                                "triples")

    def test_unwritable_trace_fails_before_decision(self, capsys, monkeypatch,
                                                    tmp_path, example1_file,
                                                    fig2_file):
        calls = []
        monkeypatch.setattr("aspcw.cli.has_model_dp",
                            lambda *args, **kwargs: calls.append(args))
        code, out, err = run(capsys, "solve", "--mode", "classical",
                             "--program", example1_file, "--expr", fig2_file,
                             "--trace", str(tmp_path / "nodir" / "t.json"))
        assert code == 3 and out == "" and calls == []
        assert err.startswith("aspcw: [Errno 2]")

    def test_failed_decision_leaves_trace_empty(self, capsys, monkeypatch,
                                                tmp_path, example1_file,
                                                fig2_file):
        def decide(expr, trace=None):
            raise MemoryError()

        argv = ["solve", "--mode", "classical", "--program", example1_file,
                "--expr", fig2_file, "--trace", str(tmp_path / "t.json")]
        for old in "old", None:
            if old is None:
                # A file that holds an older trace, written by a solve.
                monkeypatch.undo()
                assert run(capsys, *argv)[0] == 0
                assert (tmp_path / "t.json").stat().st_size > 0
            else:
                (tmp_path / "t.json").write_text(old)
            monkeypatch.setattr("aspcw.cli.has_model_dp", decide)
            code, out, _ = run(capsys, *argv)
            assert code == 3 and out == ""
            assert (tmp_path / "t.json").read_bytes() == b""

    def test_shorter_trace_over_longer_one(self, capsys, tmp_path,
                                           example1_file, fig2_file):
        # A trace written over a longer one, or over a file that holds
        # more, is byte for byte the trace written to a new file.
        fresh, trace = tmp_path / "fresh.json", tmp_path / "t.json"
        argv = ["solve", "--program", example1_file]
        short = argv + ["--mode", "classical", "--expr", fig2_file]
        long = argv + ["--mode", "asp", "--auto-expr", "trivial"]
        assert run(capsys, *short, "--trace", str(fresh))[0] == 0
        run(capsys, *long, "--trace", str(trace))
        assert trace.stat().st_size > fresh.stat().st_size
        assert run(capsys, *short, "--trace", str(trace))[0] == 0
        assert trace.read_bytes() == fresh.read_bytes()
        trace.write_bytes(b"x" * 100_000)
        assert run(capsys, *short, "--trace", str(trace))[0] == 0
        assert trace.read_bytes() == fresh.read_bytes()

    def test_trace_to_a_device(self, capsys, example1_file, fig2_file):
        argv = ["solve", "--mode", "classical", "--program", example1_file,
                "--expr", fig2_file]
        plain = run(capsys, *argv)
        assert run(capsys, *argv, "--trace", os.devnull) == plain


class TestOracle:
    def test_models(self, capsys, example1_file):
        code, out, _ = run(capsys, "oracle", "--mode", "models",
                           "--program", example1_file)
        assert code == 0
        assert ["x", "y"] in json.loads(out)["sets"]

    def test_answersets(self, capsys, tmp_path):
        program = write(tmp_path, "p.lp", ":- not x.\n")
        code, out, _ = run(capsys, "oracle", "--mode", "answersets",
                           "--program", program)
        assert code == 0
        assert json.loads(out)["sets"] == []


class TestValidate:
    def test_ok(self, capsys, example1_file, fig2_file):
        code, out, _ = run(capsys, "validate", "--program", example1_file,
                           "--expr", fig2_file)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_mismatch(self, capsys, tmp_path, fig2_file):
        program = write(tmp_path, "other.lp", "a.\n")
        code, out, _ = run(capsys, "validate", "--program", program,
                           "--expr", fig2_file)
        assert code == 3
        assert json.loads(out)["mismatches"]

    @pytest.mark.parametrize("signs", ["q", "alpha", "h,,p"])
    def test_join_rejects_non_signs(self, capsys, example1_file, fig2_file,
                                    signs):
        code, out, err = run(capsys, "validate", "--program", example1_file,
                             "--expr", fig2_file, "--join", signs)
        assert code == 3 and out == ""
        assert err.startswith("aspcw: cannot join non-signs")


class TestMeasure:
    def test_cyclerank(self, capsys, tmp_path):
        graph = write(tmp_path, "g.json", json.dumps(
            {"vertices": ["a", "b", "c"],
             "arcs": [["a", "b"], ["b", "c"], ["c", "a"]]}))
        code, out, _ = run(capsys, "measure", "cyclerank", "--graph", graph)
        assert code == 0
        assert json.loads(out)["value"] == 1

    def test_uncyclerank(self, capsys, tmp_path):
        graph = write(tmp_path, "g.json", json.dumps(
            {"vertices": ["a", "b"], "arcs": [["a", "b"]]}))
        code, out, _ = run(capsys, "measure", "uncyclerank", "--graph", graph)
        assert code == 0
        assert json.loads(out)["value"] == 1

    def test_homogeneous(self, capsys, example1_file):
        code, out, _ = run(capsys, "measure", "homogeneous",
                           "--program", example1_file)
        payload = json.loads(out)
        assert code == 0
        assert payload["orientations"] == 16
        assert payload["all_cycle_rank_at_most_one"] is True


class TestGen:
    def test_grid(self, capsys, tmp_path):
        out_file = tmp_path / "grid.lp"
        code, _, _ = run(capsys, "gen", "grid", "--n", "2",
                         "--out", str(out_file))
        assert code == 0
        from aspcw.program import parse_program
        assert len(parse_program(out_file.read_text()).rules) == 4

    def test_qbf_pipeline(self, capsys, tmp_path):
        qbf_file = tmp_path / "phi.qbf"
        code, _, _ = run(capsys, "gen", "random-qbf", "--n", "2", "--m", "1",
                         "--terms", "2", "--seed", "5",
                         "--out", str(qbf_file))
        assert code == 0
        prog_file = tmp_path / "phi.lp"
        code, _, _ = run(capsys, "gen", "qbf2asp", "--qbf", str(qbf_file),
                         "--out", str(prog_file))
        assert code == 0
        assert "goal" in prog_file.read_text() or ":- not w." in prog_file.read_text()

    @pytest.mark.parametrize("text,message", [
        # A variable named like a rule id of the reduction.
        ("exists goal\nforall y\nterm goal y\n",
         "variable names ['goal'] collide with reduction atoms or rule ids"),
        # Names the program grammar cannot write.
        ("exists X1\nterm X1\n",
         "line 1, col 1: variable name 'X1' is not an atom name"),
        ("exists x\nforall not\nterm x not\n",
         "line 2, col 1: variable name 'not' is not an atom name"),
    ])
    def test_qbf2asp_refuses_what_solve_would(self, capsys, tmp_path, text,
                                              message):
        out_file = tmp_path / "phi.lp"
        code, out, err = run(capsys, "gen", "qbf2asp",
                             "--qbf", write(tmp_path, "phi.qbf", text),
                             "--out", str(out_file))
        assert (code, out, err) == (3, "", f"aspcw: {message}\n")
        assert not out_file.exists()

    def test_pclique_outputs(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        program = tmp_path / "g.lp"
        expr = tmp_path / "g.expr"
        code, _, _ = run(capsys, "gen", "pclique", "--k", "2",
                         "--part-size", "2", "--seed", "0",
                         "--out-graph", str(graph),
                         "--out-program", str(program),
                         "--out-expr", str(expr))
        assert code == 0
        code, out, _ = run(capsys, "validate", "--program", str(program),
                           "--expr", str(expr), "--join", "p,n")
        assert code == 0 and json.loads(out)["ok"] is True

    @pytest.mark.parametrize("argv", [
        ["random-program", "--atoms", "-1", "--rules", "2"],
        ["random-program", "--atoms", "0", "--rules", "2"],
        ["random-program", "--atoms", "2", "--rules", "-1"],
        ["pclique", "--k", "0", "--part-size", "1"],
        ["pclique", "--k", "2", "--part-size", "0"],
        ["grid", "--n", "0"],
        ["random-qbf", "--n", "1", "--m", "1", "--terms", "-1"],
        ["random-qbf", "--n", "-2", "--m", "2", "--terms", "2"],
        ["random-qbf", "--n", "2", "--m", "-1", "--terms", "2"],
    ])
    def test_bad_sizes_exit_3(self, capsys, argv):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 3 and out == ""
        assert err.startswith("aspcw: ") and "must be at least" in err

    @pytest.mark.parametrize("density", ["7", "-0.5"])
    def test_bad_density_exits_3(self, capsys, density):
        code, out, err = run(capsys, "gen", "pclique", "--k", "2",
                             "--part-size", "1", "--density", density)
        assert code == 3 and out == ""
        assert err.startswith("aspcw: ") and "between 0 and 1" in err

    @pytest.mark.parametrize("probability", [
        ["--head-p", "-1", "--pos-p", "0.5"], ["--neg-p", "1.5"],
    ])
    def test_bad_probability_exits_3(self, capsys, probability):
        code, out, err = run(capsys, "gen", "random-program", "--atoms", "2",
                             "--rules", "1", *probability)
        assert code == 3 and out == ""
        assert err.startswith("aspcw: ") and "between 0 and 1" in err

    def test_random_program(self, capsys, tmp_path):
        out_file = tmp_path / "r.lp"
        code, _, _ = run(capsys, "gen", "random-program", "--atoms", "4",
                         "--rules", "4", "--seed", "3", "--out", str(out_file))
        assert code == 0
        from aspcw.program import parse_program, validate_program
        assert validate_program(parse_program(out_file.read_text())) == []


class TestExprCommands:
    def test_trivial_then_solve(self, capsys, tmp_path, example1_file):
        expr_file = tmp_path / "t.expr"
        code, _, _ = run(capsys, "expr", "trivial", "--program", example1_file,
                         "--out", str(expr_file))
        assert code == 0
        code, out, _ = run(capsys, "solve", "--mode", "classical",
                           "--program", example1_file,
                           "--expr", str(expr_file))
        assert code == 0 and json.loads(out)["decision"] is True

    def test_join(self, capsys, tmp_path, fig2_file):
        out_file = tmp_path / "joined.expr"
        code, _, _ = run(capsys, "expr", "join", "--expr", fig2_file,
                         "--labels", "h,p,n", "--out", str(out_file))
        assert code == 0
        assert "eta(alpha," in out_file.read_text()


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "oracle", "--mode", "models",
                           "--program", "/nonexistent.lp")
        assert code == 3
        assert "aspcw:" in err

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--mode", "bogus", "--program", "x",
                  "--auto-expr", "trivial"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: aspcw solve")
        assert "invalid choice: 'bogus'" in err

    def test_bad_program_text(self, capsys, tmp_path):
        bad = write(tmp_path, "bad.lp", "a :- a.\n")
        code, _, err = run(capsys, "oracle", "--mode", "models",
                           "--program", bad)
        assert code == 3 and "aspcw:" in err

    @pytest.mark.parametrize("argv,name,text", [
        (["solve", "--mode", "asp", "--auto-expr", "trivial", "--program"],
         "bad.lp", "x.\n@s:"),
        (["oracle", "--mode", "models", "--program"], "bad.lp", "@s:"),
        (["validate", "--program", "ok.lp", "--expr"], "bad.expr", "oplus(a(1,x)"),
        (["measure", "cyclerank", "--graph"], "bad.json", "{}"),
        (["gen", "qbf2asp", "--qbf"], "bad.qbf", "exists x\nbogus y\n"),
        (["expr", "join", "--labels", "h", "--expr"], "bad.expr", "eta(h,1)"),
    ])
    def test_malformed_file_exits_cleanly(self, capsys, tmp_path, argv, name,
                                          text):
        write(tmp_path, "ok.lp", "x.\n")
        code, out, err = run(capsys, *argv, write(tmp_path, name, text))
        assert code == 3 and out == ""
        assert err.startswith("aspcw: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_expression_syntax_error_names_position(self, capsys, tmp_path,
                                                   example1_file):
        expr = write(tmp_path, "bad.expr", "oplus(a(1,x),\n  foo(2,y))\n")
        code, out, err = run(capsys, "validate", "--program", example1_file,
                             "--expr", expr)
        assert code == 3 and out == ""
        assert err == ("aspcw: line 2, col 3: expected an expression, "
                       "found 'foo(2,y))\\n'\n")

    @pytest.mark.parametrize("options", [
        ["--samples", "0"],
        ["--samples", "-5", "--max-groups", "0"],
        ["--max-groups", "-1"],
    ])
    def test_vacuous_homogeneous_exits_3(self, capsys, example1_file, options):
        code, out, err = run(capsys, "measure", "homogeneous",
                             "--program", example1_file, *options)
        assert code == 3 and out == ""
        assert err.startswith("aspcw: ") and "samples" in err

    @pytest.mark.parametrize("error", [MemoryError, OverflowError,
                                       RecursionError])
    def test_resource_error(self, capsys, monkeypatch, example1_file,
                            fig2_file, error):
        def decide(expr, trace=None):
            raise error()

        monkeypatch.setattr("aspcw.cli.has_model_dp", decide)
        code, out, err = run(capsys, "solve", "--mode", "classical",
                             "--program", example1_file, "--expr", fig2_file)
        assert code == 3 and out == ""
        assert err == f"aspcw: out of resources ({error.__name__})\n"

    def test_huge_label_solves(self, capsys, tmp_path):
        # The fold numbers the labels 2 and 4e19 as 1 and 2, so the solve
        # costs what the expression with those labels costs, and its trace
        # is that expression's, in the labels written.
        big = 40000000000000000000
        program = write(tmp_path, "x.lp", "x.\n")
        outs, traces = [], []
        for name, (i, j) in ("big", (big, 2)), ("dense", (2, 1)):
            trace = tmp_path / f"{name}.json"
            code, out, err = run(
                capsys, "solve", "--mode", "asp", "--program", program,
                "--expr", write(tmp_path, f"{name}.expr",
                                f"eta(h,{i},{j},oplus(r({j},r1),a({i},x)))"),
                "--trace", str(trace))
            assert code == 0 and err == ""
            outs.append(json.loads(out))
            traces.append(json.loads(trace.read_text())["nodes"])
        assert outs[0] == outs[1] and outs[0]["width"] == 2
        name = {1: 2, 2: big}
        assert traces[0] == [
            {"index": n["index"], "op": m["op"],
             "pairs": [{"gamma": [[[name[l] for l in labels] for labels in s]
                                  for s in pair["gamma"]],
                        "q": [[name[l] for l in labels]
                              for labels in pair["q"]]}
                       for pair in n["pairs"]]}
            for n, m in zip(traces[1], traces[0])]
        assert traces[0][-1]["op"] == f"eta(h,{big},2)"

    @pytest.mark.parametrize("expr_text,width", [
        ("eta(h,100000000,2,oplus(r(2,r1),a(100000000,x)))", 2),
        ("rho(5,9,oplus(a(5,x),r(7,r1)))", 3),
        ("oplus(a(1,x),rho(3,1,r(3,r1)))", 2),
    ])
    @pytest.mark.parametrize("mode", ["asp", "classical"])
    def test_width_counts_the_labels(self, capsys, monkeypatch, tmp_path,
                                     mode, expr_text, width):
        # The payload's width is the expression's label count, read off
        # the decision's trace nodes: sparse labels count once each, and
        # so does a label that only a relabel names. No parsed program has
        # the graph of an expression with no edge insert, so validation is
        # passed over; the decision does not read the program.
        monkeypatch.setattr("aspcw.expression.validate_against",
                            lambda expr, program: [])
        code, out, err = run(capsys, "solve", "--mode", mode,
                             "--program", write(tmp_path, "x.lp", "x.\n"),
                             "--expr", write(tmp_path, "w.expr", expr_text))
        assert code in (0, 1) and err == ""
        assert json.loads(out)["width"] == width == expression.width(
            expression.parse_expression(expr_text))

import json

import pytest

from aspcw.cli import main
from aspcw.dp_answersets import has_answer_set_dp
from aspcw.expression import trivial_expression
from aspcw.program import parse_program
from conftest import EXAMPLE1_TEXT, FIG2_TEXT


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

    def test_trace_file(self, capsys, tmp_path, example1_file, fig2_file):
        trace = tmp_path / "trace.json"
        code, _, _ = run(capsys, "solve", "--mode", "classical",
                         "--program", example1_file, "--expr", fig2_file,
                         "--trace", str(trace))
        assert code == 0
        nodes = json.loads(trace.read_text())["nodes"]
        assert len(nodes) == 11
        assert nodes[-1]["op"] == "eta(n,3,2)"

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
        # The trivial expression ends in a run of five edge inserts; the
        # trace file lists one table per on_node event.
        text = "a :- not b.\nb :- not a.\n:- b.\n"
        events = []
        has_answer_set_dp(trivial_expression(parse_program(text)),
                          on_node=lambda *event: events.append(event))
        trace = tmp_path / "t.json"
        code, out, _ = run(capsys, "solve", "--mode", "asp", "--program",
                           write(tmp_path, "p.lp", text),
                           "--auto-expr", "trivial", "--trace", str(trace))
        assert code == 0
        nodes = json.loads(trace.read_text())["nodes"]
        assert [(n["index"], n["op"], len(n["pairs"])) for n in nodes] == events
        sizes = json.loads(out)["table_sizes"]
        assert sizes["max_table"] == max(len(n["pairs"]) for n in nodes)
        assert sizes["node_count"] == nodes[-1]["index"]


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
        capsys.readouterr()

    def test_bad_program_text(self, capsys, tmp_path):
        bad = write(tmp_path, "bad.lp", "a :- a.\n")
        code, _, err = run(capsys, "oracle", "--mode", "models",
                           "--program", bad)
        assert code == 3 and "aspcw:" in err

    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    def test_resource_error(self, capsys, monkeypatch, example1_file,
                            fig2_file, error):
        def decide(expr, on_node=None):
            raise error()

        monkeypatch.setattr("aspcw.cli.has_model_dp", decide)
        code, out, err = run(capsys, "solve", "--mode", "classical",
                             "--program", example1_file, "--expr", fig2_file)
        assert code == 3 and out == ""
        assert err == f"aspcw: out of resources ({error.__name__})\n"

import json
import pathlib
import time
from collections import Counter

import pytest

import gctl.cli
import gctl.evidence
import gctl.flat_checker
import gctl.hier_checker
from gctl.cli import main
from gctl.gen import random_shsm
from gctl.hsm import flatten
from gctl.modelfile import kripke_to_model, parse_model, render_model

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
FIG2 = str(MODELS / "fig2.gctl")
RETRY = str(MODELS / "retry.gctl")


class TestCheck:
    def test_fig2_both_engines_agree(self, capsys):
        code = main(["check", "--model", FIG2, "--formula", "E F p3",
                     "--engine", "both"])
        out = capsys.readouterr().out
        assert code == 0
        assert "holds" in out

    def test_retry_fails_with_counterexample(self, capsys):
        code = main(["check", "--model", RETRY, "--formula",
                     "A G ((t1 & fail) -> A F abort)", "--witnesses", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "Try1.Fail" in out and "Abort" not in out.split("traces:")[1]

    def test_empty_formula_usage_error(self, capsys):
        code = main(["check", "--model", FIG2, "--formula", "  "])
        assert code == 2

    def test_json_format(self, capsys):
        code = main(["check", "--model", RETRY, "--formula",
                     "A G ((t1 & fail) -> A F abort)", "--witnesses", "1",
                     "--format", "json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] is False
        assert doc["engine"] == "hier"
        trace = doc["traces"][0]
        assert trace["states"][0] == "Start"
        assert isinstance(trace["loop_start"], int)
        assert set(doc["stats"]) == {"flat_states", "copies", "millis"}

    def test_engine_auto_picks_flat_for_single_machine(self, tmp_path, capsys):
        flat = tmp_path / "flat.gctl"
        assert main(["flatten", "--model", FIG2, "--output", str(flat)]) == 0
        capsys.readouterr()
        code = main(["check", "--model", str(flat), "--formula", "E F p3",
                     "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["engine"] == "flat"
        assert doc["stats"]["flat_states"] == 14

    def test_budget_exceeded(self, capsys):
        code = main(["check", "--model", FIG2, "--formula", "E F p3",
                     "--engine", "flat", "--budget", "5"])
        assert code == 4

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("GCTL_BUDGET", "5")
        code = main(["check", "--model", FIG2, "--formula", "E F p3",
                     "--engine", "flat"])
        assert code == 4
        monkeypatch.setenv("GCTL_BUDGET", "100")
        code = main(["check", "--model", FIG2, "--formula", "E F p3",
                     "--engine", "flat"])
        assert code == 0

    @pytest.mark.parametrize("env, flag", [
        ("abc", None), ("1e3", None), ("-1", None), (None, "-1"),
        (None, "abc"), ("100", "-5")])
    def test_bad_budget_usage_error(self, capsys, monkeypatch, env, flag):
        if env is not None:
            monkeypatch.setenv("GCTL_BUDGET", env)
        extra = [] if flag is None else [f"--budget={flag}"]
        for engine in ("flat", "hier"):
            code = main(["check", "--model", FIG2, "--formula", "E F p3",
                         "--engine", engine, *extra])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert "budget" in captured.err.lower()

    def test_missing_model(self, capsys):
        code = main(["check", "--model", "/nonexistent.gctl",
                     "--formula", "true"])
        assert code == 2

    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["check", "--model", FIG2, "--formula", "E F p3",
                     "--format", "json", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["result"] is True

    def test_deterministic_output(self, capsys):
        args = ["check", "--model", FIG2, "--formula", "E>1 [true U p1]",
                "--witnesses", "2", "--format", "json"]
        main(args)
        first = json.loads(capsys.readouterr().out)
        main(args)
        second = json.loads(capsys.readouterr().out)
        first["stats"].pop("millis")
        second["stats"].pop("millis")
        assert first == second


    @pytest.mark.parametrize("n", ["100000000", "-1"])
    def test_witness_bound_usage_error(self, capsys, n):
        code = main(["check", "--model", FIG2, "--formula", "E>1 F p1",
                     "--witnesses", n])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "--witnesses" in captured.err

    def test_crash_exits_internal(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(gctl.cli, "check_hier", boom)
        code = main(["check", "--model", FIG2, "--formula", "E F p3"])
        err = capsys.readouterr().err
        assert code == 5
        assert err.count("\n") == 1 and "injected fault" in err

    def test_millis_covers_trace_extraction(self, capsys, monkeypatch):
        extract = gctl.evidence.extract_evidences

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return extract(*args, **kwargs)

        monkeypatch.setattr(gctl.evidence, "extract_evidences", slow)
        code = main(["check", "--model", FIG2, "--formula", "E>1 [true U p1]",
                     "--witnesses", "2", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and len(doc["traces"]) == 2
        assert doc["stats"]["millis"] >= 50.0

    @staticmethod
    def _subformula_rows(out):
        """(milliseconds, subformula text) per row of a text report."""
        rows = out.split("subformulas:\n", 1)[1].splitlines()
        return [(float(ms), text) for ms, text in
                (row.split(" ms  ", 1) for row in rows
                 if row.startswith("  ") and " ms  " in row)]

    def test_engines_list_subformulas_in_labelling_order(self, capsys):
        texts = {}
        for engine in ("flat", "hier"):
            assert main(["check", "--model", RETRY, "--formula",
                         "A<=1 [!abort U success]", "--engine", engine]) == 0
            texts[engine] = [text for _ms, text in
                             self._subformula_rows(capsys.readouterr().out)]
        assert texts["flat"] == texts["hier"]
        # The violation families are labelled before the A<=1 U row.
        rows = texts["flat"]
        assert rows[-1] == "A<=1 [!abort U success]"
        assert "E>1 G (!abort & !success)" in rows[:-1]

    def test_subformula_time_covers_its_grade0_pass(self, capsys,
                                                     monkeypatch):
        grade0_pass = gctl.hier_checker.grade0_pass

        def slow(*args, **kwargs):
            time.sleep(0.02)
            return grade0_pass(*args, **kwargs)

        monkeypatch.setattr(gctl.hier_checker, "grade0_pass", slow)
        assert main(["check", "--model", FIG2, "--formula", "E>1 G true",
                     "--engine", "hier"]) == 0
        rows = dict((text, ms) for ms, text in
                    self._subformula_rows(capsys.readouterr().out))
        assert rows["E>1 G true"] >= 20.0


class TestTraceWork:
    """Flattening, flat and hierarchical checking done per `check` request.
    Hierarchical requests read their traces off a check_hier run (the
    verdict's own when it labels the trace forms) and never flatten."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        checking = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                checking.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    checking.pop()
            return wrapper

        def analysis(fn):
            def wrapper(*args, **kwargs):
                calls["analysis" if "check_flat" in checking
                      else "reanalysis"] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gctl.cli, "flatten",
                            counted("flatten", gctl.cli.flatten))
        monkeypatch.setattr(gctl.cli, "check_hier",
                            counted("check_hier", gctl.cli.check_hier))
        for module in (gctl.cli, gctl.evidence):
            monkeypatch.setattr(module, "check_flat",
                                counted("check_flat", module.check_flat))
        for name in ("globally_analysis", "until_analysis"):
            monkeypatch.setattr(gctl.flat_checker, name,
                                analysis(getattr(gctl.flat_checker, name)))
        return calls

    def _check(self, model, formula, *extra, witnesses="2"):
        path = {"fig2": FIG2, "retry": RETRY}.get(model, model)
        return main(["check", "--model", path, "--formula", formula,
                     "--witnesses", witnesses, "--format", "json", *extra])

    @pytest.mark.parametrize("model, formula, code", [
        ("fig2", "E>3 X p1", 1),
        ("fig2", "E G false", 1),
        ("fig2", "A G true", 0),
        ("retry", "A<=1 [!abort U success]", 0),
    ])
    def test_no_trace_no_flattening(self, calls, capsys, model, formula,
                                    code):
        assert self._check(model, formula) == code
        assert json.loads(capsys.readouterr().out)["traces"] == []
        assert calls["flatten"] == 0 and calls["check_flat"] == 0

    @pytest.mark.parametrize("model, formula, code", [
        ("fig2", "E>1 [true U p1]", 0),
        ("fig2", "E>1 G true", 0),
        ("retry", "A G ((t1 & fail) -> A F abort)", 1),
        ("retry", "A [true U ack]", 1),
        ("retry", "A [!abort U success]", 1),
    ])
    def test_traced_request_flattens_and_checks_once(self, calls, capsys,
                                                     model, formula, code):
        assert self._check(model, formula) == code
        assert json.loads(capsys.readouterr().out)["traces"]
        assert calls["flatten"] == 0 and calls["check_flat"] == 0
        # A satisfied E root of grade >= 1 is its own trace form for two
        # traces, so the verdict's check_hier run is reused; the dual forms
        # of these A formulas need a run of their own.
        assert calls["check_hier"] == (1 if code == 0 else 2)
        assert calls["reanalysis"] == 0

    @pytest.mark.parametrize("formula", ["A [true U ack]",
                                         "A [!abort U success]"])
    def test_failed_grade0_forall_until_trace_from_the_verdict_run(
            self, calls, capsys, formula):
        # The verdict run labels the grade-0 violation families of A U,
        # which are the trace forms for one counterexample.
        assert self._check("retry", formula, "--engine", "hier",
                           witnesses="1") == 1
        assert len(json.loads(capsys.readouterr().out)["traces"]) == 1
        assert calls["check_hier"] == 1
        assert calls["flatten"] == 0 and calls["check_flat"] == 0

    def test_traces_beyond_any_flattening(self, calls, capsys, tmp_path):
        # About 3 * 10^12 flat states.
        model = random_shsm(40, 1, 1, 2, 2, seed=1, scope_labels=False)
        path = tmp_path / "deep.gctl"
        path.write_text(render_model(model))
        assert self._check(str(path), "E>2 F p1", "--engine", "hier",
                           witnesses="3") == 0
        assert len(json.loads(capsys.readouterr().out)["traces"]) == 3
        assert calls["flatten"] == 0 and calls["check_flat"] == 0

    @pytest.mark.parametrize("engine", ["hier", "flat"])
    def test_graded_forall_until_traces_from_the_verdict_run(
            self, calls, capsys, engine):
        # The verdict run labels the two violation families of A<=1 U, which
        # are the trace forms for two counterexamples.
        assert self._check("fig2", "A<=1 [true U p1]", "--engine",
                           engine) == 1
        assert len(json.loads(capsys.readouterr().out)["traces"]) == 2
        if engine == "hier":
            assert calls["check_hier"] == 1
            assert calls["flatten"] == 0 and calls["check_flat"] == 0
        else:
            assert calls["check_hier"] == 0
            assert calls["flatten"] == 1 and calls["check_flat"] == 1
        assert calls["reanalysis"] == 0

    def test_flat_engine_reuses_its_flattening(self, calls, capsys):
        assert self._check("fig2", "E>1 [true U p1]", "--engine", "flat") == 0
        assert len(json.loads(capsys.readouterr().out)["traces"]) == 2
        assert calls["flatten"] == 1 and calls["check_flat"] == 1
        assert calls["reanalysis"] == 0


class TestFlatten:
    def test_fig2_roundtrip(self, tmp_path, capsys, fig2_flat):
        out = tmp_path / "flat.gctl"
        assert main(["flatten", "--model", FIG2, "--output", str(out)]) == 0
        reparsed = parse_model(out.read_text())
        assert len(reparsed.machines) == 1
        ks = flatten(reparsed)
        assert ks.n_states == 14
        assert ks.n_transitions == fig2_flat.n_transitions
        # graph equal modulo the dot -> underscore renaming
        rename = {n: n.replace(".", "_") for n in fig2_flat.names}
        want = {(rename[fig2_flat.names[s]], rename[fig2_flat.names[t]])
                for s, t in fig2_flat.edge_set()}
        got = {(ks.names[s], ks.names[t]) for s, t in ks.edge_set()}
        assert want == got

    def test_single_machine_identity(self, tmp_path, capsys):
        src = tmp_path / "one.gctl"
        src.write_text("""
        machine M
          init a;
          node a [p];
          node b;
          edge a -> b;
          edge b -> a;
        end
        """)
        out = tmp_path / "flat.gctl"
        assert main(["flatten", "--model", str(src), "--output", str(out)]) == 0
        reparsed = parse_model(out.read_text())
        m = reparsed.machines[0]
        assert m.vertices == ["a", "b"]
        assert m.initial == "a"
        assert m.label("a") == {"p"}


class TestValidateCmd:
    def test_fig2_valid_restricted(self, capsys):
        assert main(["validate", "--model", FIG2, "--restricted"]) == 0
        assert "valid SHSM" in capsys.readouterr().out

    def test_sink_invalid_then_repaired(self, tmp_path, capsys):
        src = tmp_path / "sink.gctl"
        src.write_text("""
        machine M
          init a;
          out z;
          node a;
          node z;
          edge a -> z;
        end
        """)
        assert main(["validate", "--model", str(src)]) == 3
        capsys.readouterr()
        assert main(["validate", "--model", str(src),
                     "--repair-self-loops"]) == 0


class TestGen:
    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.gctl", tmp_path / "b.gctl"
        main(["gen", "--machines", "3", "--seed", "11", "--output", str(a)])
        main(["gen", "--machines", "3", "--seed", "11", "--output", str(b)])
        assert a.read_text() == b.read_text()
        other = tmp_path / "c.gctl"
        main(["gen", "--machines", "3", "--seed", "12", "--output", str(other)])
        assert a.read_text() != other.read_text()

    @pytest.mark.parametrize("args, code", [
        (["--machines", "0"], 2),
        (["--machines", "-1"], 2),
        (["--machines", "3", "--exits", "0"], 2),
        (["--exits", "-1"], 2),
        (["--nodes", "-1"], 2),
        (["--boxes", "-1"], 2),
        (["--props", "-1"], 2),
        (["--machines", "1", "--exits", "0"], 0),
        (["--boxes", "0", "--exits", "0"], 0),
        (["--machines", "2", "--nodes", "0", "--boxes", "0", "--props", "0",
          "--exits", "0"], 0),
    ])
    def test_argument_bounds(self, tmp_path, capsys, args, code):
        out = tmp_path / "m.gctl"
        assert main(["gen", *args, "--output", str(out)]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err.count("\n") == 1 and not out.exists()
        else:
            assert main(["validate", "--model", str(out)]) == 0

    def test_generated_validates(self, tmp_path, capsys):
        out = tmp_path / "m.gctl"
        assert main(["gen", "--machines", "4", "--boxes", "2", "--exits", "2",
                     "--seed", "5", "--output", str(out)]) == 0
        assert main(["validate", "--model", str(out), ]) == 0

    def test_deep_family_is_exponential(self, tmp_path, capsys):
        out = tmp_path / "deep.gctl"
        assert main(["gen", "--machines", "15", "--nodes", "1", "--boxes", "2",
                     "--exits", "1", "--seed", "1", "--output", str(out)]) == 0
        from gctl.hsm import flat_size
        assert flat_size(parse_model(out.read_text())) >= 2 ** 14


class TestBench:
    def test_equal_verdicts_and_table(self, capsys):
        code = main(["bench", "--model", FIG2, "--formula", "E F p1",
                     "--repeat", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hier" in out and "flat" in out

    def test_zero_repeat_usage_error(self, capsys):
        assert main(["bench", "--model", FIG2, "--formula", "E F p1",
                     "--repeat", "0"]) == 2

    def test_csv(self, capsys):
        code = main(["bench", "--model", FIG2, "--formula", "E F p1",
                     "--repeat", "1", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "engine,verdict,best_ms,mean_ms,worst_ms"

    def test_hier_beats_flat_on_deep_family(self, tmp_path, capsys):
        model = tmp_path / "deep.gctl"
        main(["gen", "--machines", "12", "--nodes", "1", "--boxes", "2",
              "--exits", "1", "--props", "1", "--plain-boxes", "--seed", "4",
              "--output", str(model)])
        capsys.readouterr()
        code = main(["bench", "--model", str(model), "--formula", "E F p0",
                     "--repeat", "2", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        times = {}
        for line in out.splitlines()[1:]:
            engine, _verdict, best, _mean, _worst = line.split(",")
            times[engine] = float(best)
        assert times["hier"] < times["flat"]


class TestModelFormat:
    def test_render_parse_roundtrip(self, fig2_model):
        text = render_model(fig2_model)
        again = parse_model(text)
        assert render_model(again) == text

    def test_comments_and_whitespace(self):
        model = parse_model("""
        // a comment
        machine M
          init a;   // trailing comment
          node a [p, q];
          edge a -> a;
        end
        """)
        assert model.machines[0].label("a") == {"p", "q"}

    def test_kripke_export_sanitizes_names(self, fig2_flat):
        model = kripke_to_model(fig2_flat)
        assert all("." not in v for v in model.machines[0].vertices)

    def test_forward_reference_rejected(self):
        from gctl.errors import ModelSyntaxError
        with pytest.raises(ModelSyntaxError):
            parse_model("""
            machine A
              init a;
              node a;
              box b expands B;
              edge a -> b;
            end
            machine B
              init c;
              node c;
              edge c -> c;
            end
            """)

    def test_garbage_raises_typed_errors_only(self):
        import random

        from gctl.errors import ModelSyntaxError
        rng = random.Random(77)
        words = ["machine", "end", "init", "out", "node", "box", "edge",
                 "expands", "M", "a", "z", "->", ";", "[p]", "a.z", "//x", "\n"]
        for _ in range(2000):
            text = " ".join(rng.choice(words)
                            for _ in range(rng.randint(0, 20)))
            try:
                parse_model(text)
            except ModelSyntaxError:
                pass

    def test_stray_semicolons_ignored(self):
        model = parse_model("machine M\n;\n  init a;;\n  node a;\n"
                            "  edge a -> a;\nend\n")
        assert model.machines[0].initial == "a"

    def test_missing_semicolon_reported(self):
        from gctl.errors import ModelSyntaxError
        with pytest.raises(ModelSyntaxError) as err:
            parse_model("machine M\n  init a;\n  node a\nend\n")
        assert "missing ';'" in str(err.value)

    def test_merged_statements_rejected(self):
        from gctl.errors import ModelSyntaxError
        with pytest.raises(ModelSyntaxError):
            parse_model("machine M\n  init a\n  node a;\nend\n")

    # One case per error the parser raises: (model text, message, line).
    ERRORS = {
        "missing_semicolon_before_end": (
            "machine M\n  init a;\n  node a\nend\n",
            "statement 'node a' is missing ';'", 3),
        "missing_semicolon_at_eof": (
            "machine M\n  init a;\n  node a;\n  edge a\n   -> a",
            "statement 'edge a -> a' is missing ';'", 4),
        "invalid_name": (
            "machine M\n  init a;\n  node a [p, 2q];\n  edge a -> a;\nend\n",
            "invalid proposition '2q'", 3),
        "no_init": (
            "// header\nmachine M\n  node a;\n  edge a -> a;\nend\n",
            "machine M has no 'init'", 2),
        "undeclared_edge_end": (
            "machine M\n  init a;\n  node a;\n  edge a -> b;\nend\n",
            "edge references undeclared vertex 'b'", 4),
        "duplicate_machine": (
            "machine M\n  init a;\n  node a;\n  edge a -> a;\nend\n"
            "machine M\n  init b;\n  node b;\n  edge b -> b;\nend\n",
            "duplicate machine id 'M'", 6),
        "end_outside_block": (
            "machine M\n  init a;\n  node a;\n  edge a -> a;\nend\nend\n",
            "'end' outside a machine block", 6),
        "statement_outside_block": (
            "\n  node a;\nmachine M\n  init a;\nend\n",
            "statement 'node a' outside a machine block", 2),
        "missing_end": (
            "\nmachine M\n  init a;\n  node a;\n  edge a -> a;\n",
            "machine M is missing 'end'", 2),
        "no_machines": (
            "// only a comment\n;\n", "no machines in model", 1),
        "two_inits": (
            "machine M\n  init a;\n  node a;\n  init a;\nend\n",
            "machine M has two 'init' lines", 4),
        "malformed_box": (
            "machine M\n  init a;\n  node a;\n  box b M;\nend\n",
            "expected 'box <vertex> expands <machine-id> [props]'", 4),
        "unknown_box_target": (
            "machine A\n  init a;\n  node a;\n  box b expands B;\nend\n",
            "box 'b' expands unknown machine 'B' "
            "(machines must be declared bottom-up)", 4),
        "malformed_edge": (
            "machine M\n  init a;\n  node a;\n  edge a a;\nend\n",
            "expected 'edge <src>[.exit] -> <dst>'", 4),
        "unknown_statement": (
            "machine M\n  init a;\n  state a;\nend\n",
            "unknown statement 'state'", 3),
        "vertex_declared_twice": (
            "machine M\n  init a;\n  node a;\n  node a [p];\nend\n",
            "vertex 'a' declared twice", 4),
        "malformed_node": (
            "machine M\n  init a;\n  node a b;\nend\n",
            "expected '<vertex> [props]'", 3),
    }

    @pytest.mark.parametrize("case", sorted(ERRORS))
    def test_error_message_and_line(self, case):
        from gctl.errors import ModelSyntaxError
        text, message, line = self.ERRORS[case]
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(text)
        assert str(err.value) == f"line {line}: {message}"
        assert err.value.line == line

    @pytest.mark.parametrize("text, message, line", [
        ("machine M\n  init a;\n  node\nend;\n  edge a -> a;\nend\n",
         "statement 'node' is missing ';'", 3),
        ("machine M\n  init a;\n  node a [p,\n  end ];\n",
         "statement 'node a [p,' is missing ';'", 3),
        ("machine\nend;\n  init a;\n  node a;\nend\n",
         "statement 'machine' is missing ';'", 1),
    ])
    def test_line_starting_block_word_ends_statement(self, text, message,
                                                     line):
        from gctl.errors import ModelSyntaxError
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(text)
        assert str(err.value) == f"line {line}: {message}"

    def test_keywords_are_not_reserved(self):
        model = parse_model("machine end\n  init end; node end [node];\n"
                            "  edge end -> end;\nend\n")
        assert model.machines[0].name == "end"
        assert model.machines[0].label("end") == {"node"}

    @pytest.mark.parametrize("spec", [
        (4, 2, 3, 2, 3, 11, True),
        (4, 2, 3, 2, 3, 11, False),
        (6, 3, 2, 3, 4, 12, True),
        (1500, 1, 1, 1, 1, 13, False),
    ])
    def test_render_parse_roundtrip_random(self, spec):
        *shape, seed, scoped = spec
        model = random_shsm(*shape, seed, scope_labels=scoped)
        assert parse_model(render_model(model)) == model

import contextlib
import json
import os
import pathlib
import subprocess
import sys
import time
from collections import Counter

import pytest

import gctl.cli
import gctl.evidence
import gctl.flat_checker
import gctl.formula
import gctl.hier_checker
import gctl.hsm
from gctl.cli import main
from gctl.errors import ValidationError
from gctl.gen import random_shsm
from gctl.hsm import flat_size, flatten, validate_shsm
from gctl.modelfile import kripke_to_model, parse_model, render_model

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
FIG2 = str(MODELS / "fig2.gctl")
RETRY = str(MODELS / "retry.gctl")
SRC = MODELS.parent / "src"


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

    def test_hier_beats_flat_on_deep_family(self, tmp_path, capsys):
        model = tmp_path / "deep.gctl"
        main(["gen", "--machines", "12", "--nodes", "1", "--boxes", "2",
              "--exits", "1", "--props", "1", "--plain-boxes", "--seed", "4",
              "--output", str(model)])
        capsys.readouterr()
        best = {}
        for engine in ("hier", "flat"):
            for _ in range(2):
                code = main(["check", "--model", str(model), "--formula",
                             "E F p0", "--engine", engine, "--format", "json"])
                assert code == 0
                millis = json.loads(capsys.readouterr().out)["stats"]["millis"]
                best[engine] = min(best.get(engine, millis), millis)
        assert best["hier"] < best["flat"]

    def test_millis_covers_trace_extraction(self, capsys, monkeypatch):
        extract = gctl.cli.traces_for

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return extract(*args, **kwargs)

        monkeypatch.setattr(gctl.cli, "traces_for", slow)
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

    def test_json_report_renders_no_subformula(self, capsys, monkeypatch):
        # The JSON report prints no subformula, so none is rendered.
        rendered = []
        render = gctl.formula.render

        def counted(g):
            rendered.append(g)
            return render(g)

        for module in (gctl.formula, gctl.cli, gctl.hier_checker):
            monkeypatch.setattr(module, "render", counted)
        args = ["check", "--model", RETRY, "--formula",
                "A<=1 [!abort U success]", "--witnesses", "2"]
        for engine in ("flat", "hier"):
            assert main([*args, "--engine", engine, "--format", "json"]) == 0
            assert rendered == []
        assert main([*args, "--engine", "hier"]) == 0
        assert self._subformula_rows(capsys.readouterr().out) and rendered

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


def _nested(depth):
    """Formula shapes of the given depth: that many nodes on the longest
    path from the root to an atom, or one fewer nested parentheses."""
    inner = depth - 1
    return {
        "conjunction": " & ".join(["p1"] * depth),
        "AG": "A G " * inner + "p1",
        "or_chain": " | ".join(["p1"] * depth),
        "implies_chain": " -> ".join(["p1"] * depth),
        "EU": "E [p1 U " * inner + "p2" + "]" * inner,
        "parentheses": "(" * inner + "p1" + ")" * inner,
    }


def _check_from_below(frames, argv):
    """`main` called from `frames` further stack frames down, as a program
    that embeds gctl might call it."""
    if frames:
        return _check_from_below(frames - 1, argv)
    return main(argv)


class TestFormulaDepth:
    @pytest.mark.parametrize("engine", ["flat", "hier"])
    @pytest.mark.parametrize("shape", _nested(1))
    def test_checks_at_the_bound(self, capsys, shape, engine):
        formula = _nested(gctl.formula.MAX_DEPTH)[shape]
        code = _check_from_below(150, [
            "check", "--model", FIG2, "--formula", formula, "--engine",
            engine, "--witnesses", "2"])
        assert code in (0, 1), capsys.readouterr().err

    @pytest.mark.parametrize("depth", [gctl.formula.MAX_DEPTH + 1, 5000])
    @pytest.mark.parametrize("shape", _nested(1))
    def test_usage_error_past_the_bound(self, capsys, shape, depth):
        code = main(["check", "--model", FIG2, "--formula",
                     _nested(depth)[shape], "--engine", "both"])
        assert code == 2
        assert (f"deeper than the maximum depth {gctl.formula.MAX_DEPTH}"
                in capsys.readouterr().err)


class TestTraceWork:
    """Flattening, flat and hierarchical checking done per `check` request.
    Each engine runs once, on f and its trace forms together, whatever the
    verdict; hierarchical requests read their traces off that check_hier
    run and never flatten."""

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
        assert calls["check_hier"] == 1
        assert calls["reanalysis"] == 0

    @pytest.mark.parametrize("formula, code", [("E X p1", 1),
                                               ("A G true", 0)])
    def test_untraced_verdict_takes_one_run(self, calls, capsys, formula,
                                            code):
        # A failing E formula and a holding A formula have no traces; their
        # trace forms are labelled by the verdict's run all the same.
        assert self._check("fig2", formula, "--engine", "hier",
                           witnesses="3") == code
        assert json.loads(capsys.readouterr().out)["traces"] == []
        assert calls["check_hier"] == 1
        assert calls["flatten"] == 0 and calls["check_flat"] == 0

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
        # Two traces of E F p1 need the boosted E>1 form, which the one
        # check_flat run labels next to the formula itself.
        for formula in ("E>1 [true U p1]", "E F p1"):
            calls.clear()
            assert self._check("fig2", formula, "--engine", "flat") == 0
            assert len(json.loads(capsys.readouterr().out)["traces"]) == 2
            assert calls["flatten"] == 1 and calls["check_flat"] == 1
            assert calls["reanalysis"] == 0

    def test_trace_form_equal_to_the_formula_labelled_once(
            self, monkeypatch, capsys):
        # Two traces of E>1 [true U p1] are read off the formula itself.
        runs = []
        check_hier = gctl.cli.check_hier

        def recorded(model, *formulas):
            verdict, w = check_hier(model, *formulas)
            runs.append(w)
            return verdict, w

        monkeypatch.setattr(gctl.cli, "check_hier", recorded)
        assert self._check("fig2", "E>1 [true U p1]", "--engine",
                           "hier") == 0
        out = json.loads(capsys.readouterr().out)
        [w] = runs
        assert [st.op for st in w.stats] == ["true", "p1", "E>1 [true U p1]"]
        del out["stats"]["millis"]
        assert out == {
            "engine": "hier", "formula": "E>1 [true U p1]", "result": True,
            "stats": {"copies": 4, "flat_states": None},
            "traces": [
                {"loop_start": None,
                 "states": ["in3", "b3^0.in2", "b3^0.b2^0.in1",
                            "b3^0.b2^0.z1"]},
                {"loop_start": None,
                 "states": ["in3", "in3", "b3^0.in2", "b3^0.b2^0.in1",
                            "b3^0.b2^0.z1"]}]}

    PQ_MODEL = """
    machine Leaf
      init a;
      out z;
      node a [p];
      node b [p];
      node d;
      node z [q];
      edge a -> b;
      edge a -> z;
      edge b -> b;
      edge b -> d;
      edge d -> z;
    end
    machine Top
      init s;
      node s [p];
      node t [q];
      box l1 expands Leaf;
      box l2 expands Leaf [q];
      edge s -> l1;
      edge s -> l2;
      edge l1.z -> t;
      edge l2.z -> s;
      edge t -> t;
    end
    """

    @pytest.mark.parametrize("formula, code, passes", [
        ("A [p U q]", 1, ["G", "U"]), ("E F p", 0, ["U"])])
    def test_one_path_pass_per_form_at_its_highest_grade(
            self, monkeypatch, capsys, tmp_path, formula, code, passes):
        # Three traces need the trace forms at grade 2; the formula's own
        # grade-0 forms are read off their counts.
        runs = []
        check_hier = gctl.cli.check_hier

        def recorded(model, *formulas):
            verdict, w = check_hier(model, *formulas)
            runs.append(w)
            return verdict, w

        monkeypatch.setattr(gctl.cli, "check_hier", recorded)
        model = tmp_path / "pq.gctl"
        model.write_text(self.PQ_MODEL)
        assert self._check(str(model), formula, "--engine", "hier",
                           witnesses="3") == code
        assert len(json.loads(capsys.readouterr().out)["traces"]) == 3
        [w] = runs
        assert [st.kind for st in w.stats
                if st.kind in ("G", "U", "G0", "U0")] == passes
        assert [(st.op, st.grade) for st in w.stats if st.kind == "lower"] \
            == [(text, 0) for text in {
                "A [p U q]": ["E G (p & !q)", "E [(p & !q) U (!p & !q)]"],
                "E F p": ["E [true U p]"]}[formula]]


class TestOneRun:
    """`check` labels f and its trace forms as the roots of one run per
    engine, and reads every engine's verdict off its own run."""

    def test_divergence_exits_5_with_one_line(self, monkeypatch, capsys):
        check_hier = gctl.cli.check_hier

        def disagreeing(model, *formulas):
            verdict, w = check_hier(model, *formulas)
            holds = w.holds
            w.holds = lambda g, s: not holds(g, s)
            return verdict, w

        monkeypatch.setattr(gctl.cli, "check_hier", disagreeing)
        for witnesses in ("0", "2"):
            code = main(["check", "--model", FIG2, "--formula", "E F p3",
                         "--engine", "both", "--witnesses", witnesses])
            captured = capsys.readouterr()
            assert code == 5
            assert captured.out == ""
            assert captured.err == "engine divergence: flat=True hier=False\n"

    @pytest.mark.parametrize("model, formula", [
        ("fig2", "E>1 [true U p1]"), ("fig2", "A<=1 [true U p1]"),
        ("fig2", "E F (p1 & E X p2)"), ("retry", "A [!abort U success]"),
        ("retry", "A G ((t1 & fail) -> A F abort)"), ("retry", "E>2 F ack"),
    ])
    @pytest.mark.parametrize("engine", ["flat", "hier", "both"])
    def test_text_report_lists_only_forms_of_the_roots(
            self, capsys, fig2_flat, retry_flat, model, formula, engine):
        path, ks = {"fig2": (FIG2, fig2_flat),
                    "retry": (RETRY, retry_flat)}[model]
        code = main(["check", "--model", path, "--formula", formula,
                     "--engine", engine, "--witnesses", "3"])
        assert code in (0, 1)
        rows = [text for _ms, text in
                TestCheck._subformula_rows(capsys.readouterr().out)]
        # What a run of each root alone labels.
        f = gctl.formula.parse_formula(formula)
        alone = {gctl.formula.render(g)
                 for root in (f, *gctl.evidence.trace_forms(f, 3))
                 for g in gctl.flat_checker.check_flat(ks, root).index}
        assert rows and set(rows) == alone and len(rows) == len(alone)


class TestSinkCheckOnce:
    """Validation's reachable-sink report is found once per model and
    read again by `flatten`."""

    @pytest.mark.parametrize("argv", [
        ["check", "--formula", "E F p3", "--engine", "flat"],
        ["check", "--formula", "E F p3", "--engine", "both",
         "--witnesses", "2"],
        ["flatten"],
    ])
    def test_one_sink_search_per_request(self, monkeypatch, capsys, argv):
        calls = Counter()
        search = gctl.hsm._flat_sink_problems

        def counted(model):
            calls["sinks"] += 1
            return search(model)

        monkeypatch.setattr(gctl.hsm, "_flat_sink_problems", counted)
        assert main([*argv, "--model", FIG2]) == 0
        capsys.readouterr()
        assert calls["sinks"] == 1

    def test_flatten_unvalidated_model_rejects_same_sinks(self):
        text = """
        machine A
          init a; out z;
          node a; node z;
          edge a -> z;
        end
        """
        problems = validate_shsm(parse_model(text))
        assert problems
        with pytest.raises(ValidationError) as caught:
            flatten(parse_model(text))
        assert caught.value.problems == problems


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


class TestUnreadableInput:
    """A model or formula file that cannot be read as UTF-8 text is a
    usage error under every command that reads one, as a missing file is,
    and never an internal error."""

    @pytest.fixture(params=["directory", "not_utf8"])
    def unreadable(self, request, tmp_path):
        if request.param == "directory":
            return str(tmp_path)
        path = tmp_path / "input.gctl"
        path.write_bytes(b"\xff\xfe machine M")
        return str(path)

    @pytest.mark.parametrize("command", [["check", "--formula", "true"],
                                         ["validate"], ["flatten"]])
    def test_model(self, unreadable, command, capsys):
        code = main([*command, "--model", unreadable])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"{unreadable}:" in captured.err

    def test_formula_file(self, unreadable, capsys):
        code = main(["check", "--model", FIG2, "--formula-file", unreadable])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"{unreadable}:" in captured.err


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

    @pytest.mark.parametrize("command", [
        ["validate"], *(["check", "--formula", "E [!r U r]", "--engine", e]
                        for e in ("flat", "hier", "both"))])
    def test_output_listed_twice_invalid(self, tmp_path, capsys, command):
        # Listed twice, z would take two exit ordinals, and the engines
        # would disagree on the verdict.
        src = tmp_path / "twice.gctl"
        src.write_text("""
        machine M1
          init i; out z, z;
          node i [p]; node z [q];
          edge i -> z;
        end
        machine Top
          init a;
          node a; node c [r];
          box b expands M1;
          edge a -> b; edge b.z -> c; edge c -> c;
        end
        """)
        assert main([*command, "--model", str(src)]) == 3
        captured = capsys.readouterr()
        assert "invalid: machine M1: output vertex 'z' listed twice\n" in \
            captured.out + captured.err


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

    @pytest.mark.parametrize("args", [
        (0, 1, 1, 1, 1), (1, -1, 1, 1, 1), (2, 1, -1, 1, 1), (1, 1, 1, -1, 1),
        (1, 1, 1, 1, -1), (3, 1, 0, 2, 2)])
    def test_library_rejects_bad_counts(self, args):
        with pytest.raises(ValueError):
            random_shsm(*args, seed=0)

    @pytest.mark.parametrize("args", [
        (1, 1, 0, 2, 2), (3, 1, 0, 0, 2), (2, 0, 0, 0, 0), (1, 0, 0, 0, 0)])
    def test_library_zero_exits_without_lower_boxes(self, args):
        assert validate_shsm(random_shsm(*args, seed=0)) == []

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

    def test_models_and_formulas_share_identifier_syntax(self, tmp_path,
                                                        capsys):
        # Every character an identifier may hold, in a proposition of the
        # model and an atom of the formula.
        model = tmp_path / "ident.gctl"
        model.write_text("machine M\n  init a;\n  node a;\n"
                         "  node b [p^1@x+y];\n  edge a -> b;\n"
                         "  edge b -> b;\nend\n")
        assert main(["check", "--model", str(model),
                     "--formula", "E F p^1@x+y"]) == 0
        assert "result  : holds" in capsys.readouterr().out

    def test_kripke_export_sanitizes_names(self, fig2_flat):
        model = kripke_to_model(fig2_flat)
        assert all("." not in v for v in model.machines[0].vertices)

    def test_kripke_export_keeps_clashing_names_apart(self, tmp_path,
                                                      capsys):
        # The flat state a.b and the vertex a_b both sanitize to a_b.
        source = tmp_path / "clash.gctl"
        source.write_text("""
        machine M1
          init b; out b; node b [p]; edge b -> b;
        end
        machine M2
          init a_b; node a_b [q]; box a expands M1;
          edge a_b -> a; edge a.b -> a_b;
        end
        """)
        flat = tmp_path / "flat.gctl"
        assert main(["flatten", "--model", str(source),
                     "--output", str(flat)]) == 0
        ks = flatten(parse_model(source.read_text()))
        exported = parse_model(flat.read_text())
        assert validate_shsm(exported) == []
        again = flatten(exported)
        assert (again.n_states, again.n_transitions) == (ks.n_states,
                                                         ks.n_transitions)
        machine = exported.machines[0]
        names = kripke_to_model(ks).machines[0].vertices
        assert len(set(names)) == ks.n_states
        assert [machine.label(v) for v in names] == ks.labels
        codes = [main(["check", "--model", str(path), "--formula", "E F q"])
                 for path in (source, flat)]
        assert codes[0] in (0, 1) and codes[0] == codes[1]
        capsys.readouterr()

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


DEEP_LEVELS = 300       # machines in the chain below
DEEP_LIMIT = 200        # recursion limit the chain's rows run under


@contextlib.contextmanager
def _recursion_limit(limit):
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


class TestExitCodes:
    """Rows that exited 5 (internal error): the flat paths on a plain chain
    deeper than the recursion limit, and an --output that is a directory.
    `{deep}` is the chain, `{dir}` a directory and `{file}` a new file in
    it; "hier" expects the exit code of `E F p0` under --engine hier."""

    ROWS = [
        (["check", "--model", "{deep}", "--formula", "E F p0",
          "--engine", "flat"], "hier"),
        (["check", "--model", "{deep}", "--formula", "E F p0",
          "--engine", "both"], "hier"),
        (["flatten", "--model", "{deep}", "--output", "{file}"], 0),
        (["check", "--model", FIG2, "--formula", "true",
          "--output", "{dir}"], 2),
        (["flatten", "--model", FIG2, "--output", "{dir}"], 2),
        (["gen", "--output", "{dir}"], 2),
    ]

    @pytest.fixture(scope="class")
    def deep(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("deep") / "chain.gctl"
        path.write_text(render_model(random_shsm(
            DEEP_LEVELS, 1, 1, 1, 2, seed=1, scope_labels=False)))
        return str(path)

    @pytest.fixture(scope="class")
    def hier_code(self, deep):
        with _recursion_limit(DEEP_LIMIT):
            code = main(["check", "--model", deep, "--formula", "E F p0",
                         "--engine", "hier"])
        assert code in (0, 1)
        return code

    @pytest.mark.parametrize("argv, expected", ROWS,
                             ids=[" ".join(r[0][:1] + r[0][-2:])
                                  for r in ROWS])
    def test_row(self, argv, expected, deep, hier_code, tmp_path, capsys):
        fill = {"{deep}": deep, "{dir}": str(tmp_path),
                "{file}": str(tmp_path / "out.gctl")}
        argv = [fill.get(a, a) for a in argv]
        capsys.readouterr()
        with _recursion_limit(DEEP_LIMIT):
            code = main(argv)
        captured = capsys.readouterr()
        assert code == (hier_code if expected == "hier" else expected), \
            captured.err
        if expected == 2:
            assert captured.out == "" and captured.err == \
                f"cannot write {tmp_path}: Is a directory\n"
        if argv[0] == "flatten" and expected == 0:
            states = flat_size(parse_model(pathlib.Path(deep).read_text()))
            assert captured.err.startswith(f"// {states} states")
            flat = parse_model((tmp_path / "out.gctl").read_text())
            assert len(flat.machines[0].vertices) == states

    # A flat dead end the initial state cannot reach: valid, and kept in
    # the flattening.  Every row but validate and hier exited 3.
    UNREACHABLE_SINK = """
    machine A
      init a;
      node a [p]; node u;
      edge a -> a;
    end
    """

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["check", "--formula", "p"],
        *(["check", "--formula", "p", "--engine", engine]
          for engine in ("hier", "flat", "both")),
        ["flatten", "--output", "{file}"]],
        ids=" ".join)
    def test_unreachable_dead_end(self, argv, tmp_path, capsys):
        model = tmp_path / "sink.gctl"
        model.write_text(self.UNREACHABLE_SINK)
        out = tmp_path / "out.gctl"
        argv = [argv[0], "--model", str(model),
                *(str(out) if a == "{file}" else a for a in argv[1:])]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        if argv[0] == "check":
            assert "result  : holds" in captured.out
        if argv[0] == "flatten":
            flat = parse_model(out.read_text())
            assert flat.machines[0].vertices == ["a", "u"]

    @pytest.mark.parametrize("command", [
        ["check", "--model", FIG2, "--formula", "true"],
        ["flatten", "--model", FIG2], ["gen"]])
    def test_output_in_missing_directory(self, command, tmp_path, capsys):
        path = tmp_path / "missing" / "out"
        code = main([*command, "--output", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == \
            f"cannot write {path}: No such file or directory\n"


class TestProcess:
    """`python -m gctl.cli` as its own process: the exit code reaches the
    shell through sys.exit, and the reports reach the real streams."""

    @staticmethod
    def _run(*argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "gctl.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)

    @pytest.mark.parametrize("formula, code, stream, text", [
        ("E F p3", 0, "stdout", "result  : holds"),
        ("A G p3", 1, "stdout", "result  : fails"),
        ("E F (", 2, "stderr", "syntax error"),
    ])
    def test_check(self, formula, code, stream, text):
        done = self._run("check", "--model", FIG2, "--formula", formula)
        assert done.returncode == code, done.stderr
        assert text in getattr(done, stream)

    def test_validate_flat_sink(self, tmp_path):
        model = tmp_path / "sink.gctl"
        model.write_text("machine M\n  init a;\n  node a;\nend\n")
        done = self._run("validate", "--model", str(model))
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr.startswith("invalid: flat sink")

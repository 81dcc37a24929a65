import random
import re

import pytest

from gctl.evidence import (EXISTS_PATH, FORALL_PATH, EvidenceTrace,
                           all_pairwise_distinct, counterexamples_for,
                           extract_evidences, serialize_trace, trace_forms,
                           traces_distinct, traces_for, validate_trace)
from gctl.flat_checker import check_flat
from gctl.formula import (And, Atom, ExistsG, ExistsU, ExistsX, ForallG,
                          ForallU, ForallX, Not, TrueF, normalize,
                          parse_formula, render)
from gctl.gen import random_formula, random_kripke, random_shsm
from gctl.hier_checker import check_hier
from gctl.hsm import flatten
from gctl.kripke import KripkeStructure
from gctl.modelfile import parse_model


@pytest.fixture
def diamond():
    return KripkeStructure(
        ["s0", "a", "b", "t"],
        0, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 3)],
        [{"p"}, {"p"}, {"p"}, {"p", "q"}])


def _traced(ks, f, n):
    """The flat table of f and its trace forms, labelled as roots of one
    run as `check` labels them."""
    return check_flat(ks, f, *trace_forms(f, n))


def _evidences(ks, s, form, n):
    return extract_evidences(check_flat(ks, form), s, form, n)


class TestExtract:
    def test_diamond_two_until_evidences(self, diamond):
        evs = _evidences(diamond, 0, ExistsU(2, Atom("p"), Atom("q")), 2)
        assert [e.states for e in evs] == [["s0", "a", "t"], ["s0", "b", "t"]]
        assert all(e.kind == "finite" for e in evs)

    def test_self_loop_lasso(self):
        ks = KripkeStructure(["s0"], 0, [(0, 0)], [{"p"}])
        evs = _evidences(ks, 0, ExistsG(0, Atom("p")), 1)
        assert evs[0].kind == "lasso"
        assert evs[0].states == ["s0"] and evs[0].loop_start == 0

    def test_next_evidences(self):
        ks = KripkeStructure(["s0", "u", "v"], 0,
                             [(0, 1), (0, 2), (1, 1), (2, 2)],
                             [set(), {"p"}, {"p"}])
        evs = _evidences(ks, 0, ExistsX(1, Atom("p")), 2)
        assert [e.states for e in evs] == [["s0", "u"], ["s0", "v"]]

    def test_too_many_requested(self, diamond):
        with pytest.raises(ValueError):
            _evidences(diamond, 0, ExistsU(2, Atom("p"), Atom("q")), 3)

    def test_limit_is_grade_plus_one(self, diamond):
        with pytest.raises(ValueError):
            _evidences(diamond, 0, ExistsU(0, Atom("p"), Atom("q")), 2)

    def test_zero_returns_empty(self, diamond):
        assert _evidences(diamond, 0, ExistsU(1, Atom("p"), Atom("q")), 0) == []

    def test_pumped_lassos_distinct(self):
        # Branching self-loop: witnesses loop 0, 1, 2 times before diverging.
        ks = KripkeStructure(["s0", "s1"], 0, [(0, 0), (0, 1), (1, 1)],
                             [{"p"}] * 2)
        evs = _evidences(ks, 0, ExistsG(2, Atom("p")), 3)
        assert all_pairwise_distinct(evs)
        for e in evs:
            assert validate_trace(ks, e) == []


class TestDeepStructures:
    def test_long_chain_extraction_is_iterative(self):
        n = 5000
        names = [f"s{i}" for i in range(n)]
        edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 1)]
        labels = [{"p"}] * (n - 1) + [{"p", "q"}]
        chain = KripkeStructure(names, 0, edges, labels)
        form = ExistsU(0, Atom("p"), Atom("q"))
        table = check_flat(chain, form)
        evs = extract_evidences(table, 0, form, 1)
        assert len(evs[0].states) == n
        assert validate_trace(chain, evs[0], table) == []


class TestCounterexamples:
    def test_failed_forall_next_two_witnesses(self):
        ks = KripkeStructure(["s0", "u", "v"], 0,
                             [(0, 1), (0, 2), (1, 1), (2, 2)],
                             [{"p"}, set(), set()])
        f = ForallX(0, Atom("p"))
        cexs = counterexamples_for(_traced(ks, f, 2), 0, f, 2)
        assert [c.states for c in cexs] == [["s0", "u"], ["s0", "v"]]

    def test_failed_forall_globally(self):
        ks = KripkeStructure(["s0", "a", "b"], 0,
                             [(0, 1), (0, 2), (1, 1), (2, 2)],
                             [{"p"}, set(), set()])
        f = ForallG(1, Atom("p"))
        cexs = counterexamples_for(_traced(ks, f, 2), 0, f, 2)
        assert len(cexs) == 2
        assert all_pairwise_distinct(cexs)
        for c in cexs:
            assert validate_trace(ks, c) == []

    def test_zero_limit(self):
        ks = KripkeStructure(["s0"], 0, [(0, 0)], [set()])
        f = ForallG(0, Atom("p"))
        assert counterexamples_for(_traced(ks, f, 0), 0, f, 0) == []

    def test_holding_formula_rejected(self):
        ks = KripkeStructure(["s0"], 0, [(0, 0)], [{"p"}])
        f = ForallG(0, Atom("p"))
        with pytest.raises(ValueError, match="formula holds"):
            counterexamples_for(_traced(ks, f, 1), 0, f, 1)

    def test_retry_counterexample_narrative(self, retry_flat):
        f = parse_formula("A G ((t1 & fail) -> A F abort)")
        cexs = counterexamples_for(_traced(retry_flat, f, 1),
                                   retry_flat.initial, f, 1)
        assert len(cexs) == 1
        states = cexs[0].states
        assert states[:5] == ["Start", "Try1.Send", "Try1.Wait",
                              "Try1.Timeout", "Try1.Fail"]
        assert "Success" in states
        assert "Abort" not in states
        assert validate_trace(retry_flat, cexs[0]) == []

    def test_failed_forall_until_mixes_families(self):
        # One forever-violation and one exit-violation.
        ks = KripkeStructure(["s0", "u", "v", "w"], 0,
                             [(0, 1), (0, 2), (1, 1), (2, 3), (3, 3)],
                             [{"p"}, {"p"}, set(), {"q"}])
        f = ForallU(1, Atom("p"), Atom("q"))
        cexs = counterexamples_for(_traced(ks, f, 2), 0, f, 2)
        assert len(cexs) == 2
        kinds = {c.kind for c in cexs}
        assert kinds == {"lasso", "finite"}
        assert all_pairwise_distinct(cexs)


class TestTraceForms:
    p, q = Atom("p"), Atom("q")

    def test_no_trace_applies(self):
        for text in ("p & q", "!E X p", "E X p | A G p", "!A G p",
                     "!!E X p"):
            assert trace_forms(parse_formula(text), 3) == []

    def test_satisfied_exists_boosted(self):
        assert trace_forms(parse_formula("E F p"), 3) == [
            ExistsU(2, TrueF(), self.p)]
        assert trace_forms(parse_formula("E>4 G p"), 3) == [
            ExistsG(4, self.p)]

    def test_failed_forall_duals(self):
        assert trace_forms(parse_formula("A X p"), 2) == [
            ExistsX(1, Not(self.p))]
        assert trace_forms(parse_formula("A<=3 G p"), 2) == [
            ExistsU(3, TrueF(), Not(self.p))]
        assert trace_forms(parse_formula("A F p"), 1) == [
            ExistsG(0, Not(self.p))]
        stay = And(self.p, Not(self.q))
        assert trace_forms(parse_formula("A<=1 [p U q]"), 3) == [
            ExistsG(2, stay), ExistsU(2, stay, And(Not(self.p), Not(self.q)))]

    @pytest.mark.parametrize("text, traces", [
        ("E X p", 0), ("E X !p", 1), ("A X !p", 0), ("A G p", 1)])
    def test_traces_only_for_a_satisfied_exists_or_failed_forall(
            self, text, traces):
        # p holds on the initial state only.
        ks = KripkeStructure(["s0", "s1"], 0, [(0, 1), (1, 1)],
                             [{"p"}, set()])
        f = parse_formula(text)
        assert len(traces_for(_traced(ks, f, 3), 0, f, 3)) == traces

    def test_unlabelled_form_is_named(self, fig2_model, fig2_flat):
        # Views of a run that labels p1 alone, not the forms asked for.
        p1 = Atom("p1")
        exists, forall = parse_formula("E>1 F p1"), parse_formula("A G !p1")
        for view in (check_flat(fig2_flat, p1),
                     check_hier(fig2_model, p1)[1]):
            s = view.initial
            for call, form in (
                    (lambda: traces_for(view, s, exists, 3),
                     trace_forms(exists, 3)[0]),
                    (lambda: extract_evidences(view, s, exists, 1),
                     normalize(exists)),
                    (lambda: counterexamples_for(view, s, forall, 2),
                     trace_forms(forall, 2)[0])):
                with pytest.raises(ValueError, match=re.escape(render(form))):
                    call()
        # Views of a run that labels an A U and an atom, whose rows are
        # flags with no capped count.
        both = parse_formula("A<=0 [true U p3] & E>1 F p1")
        for view in (check_flat(fig2_flat, both),
                     check_hier(fig2_model, both)[1]):
            for form in (parse_formula("A [true U p3]"), p1):
                with pytest.raises(ValueError, match=re.escape(
                        f"no capped count: {render(form)}")):
                    view.count(form, view.initial)

    def test_counterexamples_reuse_given_table(self, monkeypatch):
        ks = KripkeStructure(["s0", "u", "v", "w"], 0,
                             [(0, 1), (0, 2), (1, 1), (2, 3), (3, 3)],
                             [{"p"}, {"p"}, set(), {"q"}])
        f = ForallU(1, Atom("p"), Atom("q"))
        forms = trace_forms(f, 2)
        table = check_flat(ks, *forms)

        def refuse(*args):
            raise AssertionError("check_flat called again")

        monkeypatch.setattr("gctl.evidence.check_flat", refuse)
        cexs = counterexamples_for(table, 0, f, 2)
        assert len(cexs) == 2 and all_pairwise_distinct(cexs)
        for c in cexs:
            assert validate_trace(ks, c, table) == []


class TestValidate:
    # The shortest evidence of E[true U p3] at fig2's initial state.
    REACH_P3 = ["in3", "b3^0.in2", "b3^0.b2^0.in1", "b3^0.b2^0.z1",
                "b3^0.b2^1.in1", "b3^0.b2^1.z1", "b3^0.z2", "b3^1.in2"]

    @pytest.mark.parametrize("states, evidence_len, problems", [
        (REACH_P3, 8, []),
        ([], 0, ["evidence length 0 out of range"]),
        (["in3"], 0, ["evidence length 0 out of range"]),
        (REACH_P3, 9, ["evidence length 9 out of range"]),
    ])
    def test_evidence_length_in_range(self, fig2_flat, states, evidence_len,
                                      problems):
        form = parse_formula("E[true U p3]")
        trace = EvidenceTrace("finite", states, None, form, evidence_len)
        assert validate_trace(fig2_flat, trace) == problems

    # An evidence longer than the trace's states: a lasso's runs into its
    # loop, as E X from Success to its own loop; a finite one is cut short.
    @pytest.mark.parametrize("states, loop, evidence_len, problems", [
        (["Success"], 0, 2, []),
        (["Try1.Ack", "Success"], None, 3,
         ["evidence length 3 out of range"]),
    ])
    def test_evidence_longer_than_states(self, retry_flat, states, loop,
                                         evidence_len, problems):
        trace = EvidenceTrace("finite" if loop is None else "lasso", states,
                              loop, parse_formula("E X E G !abort"),
                              evidence_len)
        assert validate_trace(retry_flat, trace) == problems

    # Retry's run to success, and its run to abort.
    SUCCEED = ["Start", "Try1.Send", "Try1.Wait", "Try1.Ack", "Success"]
    ABORT = ["Start", "Try1.Send", "Try1.Wait", "Try1.Timeout", "Try1.Fail",
             "Try2.Send", "Try2.Wait", "Try2.Timeout", "Try2.Fail", "Abort"]

    # One row per rejection, each on a trace that passes every other check;
    # the last two pass them all.  A lasso has a loop start, a finite trace
    # none.
    @pytest.mark.parametrize("model, states, loop, formula, problem", [
        ("fig2", ["in3", "b3^9.in2"], None, "E[true U p3]",
         "unknown state 'b3^9.in2'"),
        ("fig2", ["in3", "z3"], None, "E[true U p3]",
         "missing transition in3 -> z3"),
        ("retry", ["Success"], 1, "E G !abort", "loop start 1 out of range"),
        ("retry", SUCCEED, 0, "E G !abort", "lasso does not close"),
        ("retry", SUCCEED[1:4], None, "E X wait",
         "next evidence must have exactly two states"),
        ("retry", SUCCEED[1:3], None, "E X ack",
         "successor does not satisfy the operand"),
        ("retry", SUCCEED[:3], None, "E[!abort U success]",
         "until evidence does not end in a target state"),
        ("retry", SUCCEED, None, "E[t1 U success]",
         "state Start fails the until guard"),
        ("retry", SUCCEED, None, "E G !abort",
         "globally evidence must be a lasso"),
        ("retry", ABORT, 9, "E G !abort", "state Abort fails the invariant"),
        ("fig2", ["z3"], None, "p3", "unsupported evidence formula p3"),
        ("retry", SUCCEED, 4, "E G !abort", None),
        ("retry", SUCCEED[1:3], None, "E X wait", None),
    ])
    def test_rejects(self, request, model, states, loop, formula, problem):
        trace = EvidenceTrace("finite" if loop is None else "lasso", states,
                              loop, parse_formula(formula), len(states))
        ks = request.getfixturevalue(f"{model}_flat")
        assert validate_trace(ks, trace) == ([] if problem is None
                                             else [problem])

    def test_rejects_finite_trace_with_loop_start(self, retry_flat):
        trace = EvidenceTrace("finite", ["Try1.Ack", "Success"], 1,
                              parse_formula("E F success"), 2)
        assert validate_trace(retry_flat, trace) == \
            ["finite trace with a loop start"]


class TestSerialization:
    def test_finite(self):
        t = EvidenceTrace("finite", ["a", "b.c", "d"], None,
                          ExistsU(0, TrueF(), Atom("p")), 3)
        assert serialize_trace(t) == "a,b.c,d"

    def test_lasso(self):
        t = EvidenceTrace("lasso", ["a", "b", "c"], 1,
                          ExistsG(0, Atom("p")), 3)
        assert serialize_trace(t) == "a,(b,c)*"

    def test_all_loop(self):
        t = EvidenceTrace("lasso", ["a", "b"], 0, ExistsG(0, Atom("p")), 2)
        assert serialize_trace(t) == "(a,b)*"


class TestDistinctness:
    def test_prefix_not_distinct(self):
        f = ExistsU(1, TrueF(), Atom("p"))
        a = EvidenceTrace("finite", ["x", "y"], None, f, 2)
        b = EvidenceTrace("finite", ["x", "y", "z"], None, f, 3)
        assert not traces_distinct(a, b)

    def test_same_lasso_unrolled_not_distinct(self):
        f = ExistsG(0, Atom("p"))
        a = EvidenceTrace("lasso", ["x", "y"], 0, f, 2)
        b = EvidenceTrace("lasso", ["x", "y", "x", "y"], 0, f, 4)
        assert not traces_distinct(a, b)

    def test_diverging_lassos_distinct(self):
        f = ExistsG(0, Atom("p"))
        a = EvidenceTrace("lasso", ["x", "y"], 0, f, 2)
        b = EvidenceTrace("lasso", ["x", "z"], 0, f, 2)
        assert traces_distinct(a, b)

    @pytest.mark.parametrize("states, distinct", [
        (["x", "y", "z", "y"], False),   # a prefix of x,y,z,y,z,...
        (["x", "y", "z", "z"], True),
    ])
    @pytest.mark.parametrize("lasso_first", [True, False])
    def test_lasso_against_finite(self, states, distinct, lasso_first):
        lasso = EvidenceTrace("lasso", ["x", "y", "z"], 1,
                              ExistsG(0, Atom("p")), 3)
        finite = EvidenceTrace("finite", states, None,
                               ExistsU(1, TrueF(), Atom("p")), len(states))
        pair = (lasso, finite) if lasso_first else (finite, lasso)
        assert traces_distinct(*pair) == distinct


def _normal(trace):
    """A lasso in normal form: its loop has minimal period, and the state
    before the loop is not the loop's last state."""
    loop = trace.states[trace.loop_start:]
    k = len(loop)
    return all(loop != loop[:p] * (k // p) for p in range(1, k)
               if k % p == 0) \
        and (trace.loop_start == 0 or
             trace.states[trace.loop_start - 1] != trace.states[-1])


class TestLassoNormalForm:
    """The count-guided walk emits lassos in normal form by construction,
    and a counterexample extended past its violating state stays normal as
    far as its evidence prefix allows; nothing normalizes them afterwards."""

    @staticmethod
    def _walk_formula(rng, atoms):
        """A random formula, or half the time a graded E G one, whose
        evidences are all lassos."""
        if rng.random() < 0.5:
            return random_formula(rng, atoms, depth=3)
        return ExistsG(rng.randint(0, 3), random_formula(rng, atoms, depth=2))

    @staticmethod
    def _forall_formula(rng, atoms):
        """A random A formula whose final operand is a path formula, so a
        counterexample is often extended by an explaining lasso."""
        inner = random_formula(rng, atoms, depth=2)
        while not isinstance(inner, EXISTS_PATH + FORALL_PATH):
            inner = random_formula(rng, atoms, depth=2)
        op = rng.choice(FORALL_PATH)
        if op is ForallU:
            return op(rng.randint(0, 2), random_formula(rng, atoms, depth=1),
                      inner)
        return op(rng.randint(0, 2), inner)

    @staticmethod
    def _cases(hierarchical, seed, formula):
        """300 seeded (view, f, n) cases, each view labelling f and its
        trace forms."""
        rng = random.Random(seed)
        for case in range(300):
            n = rng.randint(1, 4)
            if hierarchical:
                model = random_shsm(rng.randint(1, 4), rng.randint(1, 3),
                                    rng.randint(1, 2), rng.randint(1, 2), 3,
                                    case + 500, scope_labels=case % 2 == 0)
                f = formula(rng, ["p0", "p1", "p2"])
                _, view = check_hier(model, f, *trace_forms(f, n))
            else:
                ks = random_kripke(rng.randint(2, 8), case + 500)
                f = formula(rng, ["p", "q", "r"])
                view = check_flat(ks, f, *trace_forms(f, n))
            yield view, f, n

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_walk_lassos_are_normal(self, hierarchical):
        lassos = 0
        for view, f, n in self._cases(hierarchical, 28, self._walk_formula):
            for g in trace_forms(f, n):
                take = min(n, view.count(g, view.initial))
                for t in extract_evidences(view, view.initial, g, take):
                    if t.kind == "lasso":
                        assert _normal(t), (render(g), t.states, t.loop_start)
                        lassos += 1
        assert lassos > 150

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_counterexample_lassos_are_normal(self, hierarchical):
        extended = 0
        for view, f, n in self._cases(hierarchical, 35, self._forall_formula):
            for t in traces_for(view, view.initial, f, n):
                if t.kind == "lasso":
                    assert _normal(t), (render(f), t.states, t.loop_start)
                    extended += len(t.states) > t.evidence_len
        assert extended > 5

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_counterexample_rotated_back(self, hierarchical):
        # The evidence M1_in,M1_v2 ends in the loop's last state: the
        # explaining lasso from M1_v2 steps back to M1_in.
        model = random_shsm(1, 3, 1, 1, 3, 3936)
        f = parse_formula("A<=2 X (A F p2 & E>2 X p1)")
        forms = trace_forms(f, 2)
        if hierarchical:
            _, view = check_hier(model, f, *forms)
        else:
            view = check_flat(flatten(model), f, *forms)
        assert [serialize_trace(t) for t in
                traces_for(view, view.initial, f, 2)] == \
            ["M1_in,M1_v0", "(M1_in,M1_v2)*"]

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_counterexample_evidence_runs_into_loop(self, hierarchical):
        # The E X evidence a,a is explained by the loop at a: one state.
        model = parse_model("machine M\n init a;\n node a;\n"
                            "edge a -> a;\nend\n")
        f = parse_formula("A X A F p")
        if hierarchical:
            _, view = check_hier(model, f, *trace_forms(f, 1))
        else:
            view = check_flat(flatten(model), f, *trace_forms(f, 1))
        [t] = traces_for(view, view.initial, f, 1)
        assert (serialize_trace(t), t.evidence_len) == ("(a)*", 2)
        assert validate_trace(flatten(model), t) == []


class TestRandomizedReplay:
    def test_every_trace_replays_and_sets_are_distinct(self):
        rng = random.Random(12)
        done = 0
        for seed in range(150):
            ks = random_kripke(rng.randint(2, 6), seed + 900)
            grade = rng.choice([0, 1, 2, 3])
            form = rng.choice([
                ExistsG(grade, Atom("p")),
                ExistsU(grade, Atom("p"), Atom("q")),
                ExistsU(grade, TrueF(), Atom("q")),
                ExistsX(grade, Not(Atom("p"))),
            ])
            table = check_flat(ks, form)
            avail = table.count_row(form)[0]
            if not avail:
                continue
            evs = extract_evidences(table, 0, form, avail)
            assert all_pairwise_distinct(evs)
            for e in evs:
                assert validate_trace(ks, e, table) == []
            again = extract_evidences(table, 0, form, avail)
            assert [e.states for e in again] == [e.states for e in evs]
            done += 1
        assert done > 60

"""Traces read off the checked hierarchy, against the flattening.

The states of a `check_hier` run, which is its own state view, must carry
the flat engine's labels and capped counts, and traces walked on them must
replay on the flattening, be pairwise distinct and number as many as the
flat counts allow.  Its successors come in the flattening's order, so they
are the very traces the flat walk gives.
"""

import pathlib
import random

import pytest

from gctl.cli import main
from gctl.evidence import (all_pairwise_distinct, serialize_trace,
                           trace_forms, traces_for, validate_trace)
from gctl.flat_checker import check_flat
from gctl.formula import (ExistsF, ExistsG, ExistsU, ExistsX, ForallF,
                          ForallG, ForallU, ForallX, normalize, parse_formula,
                          subformulas_bottom_up)
from gctl.gen import random_formula, random_shsm
from gctl.hier_checker import check_hier
from gctl.hsm import flatten
from gctl.modelfile import parse_model

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
PATH_ROOTS = (ExistsX, ExistsG, ExistsF, ExistsU,
              ForallX, ForallG, ForallF, ForallU)
COUNTED = (ExistsX, ExistsG, ExistsU)


def _reachable(view):
    seen = {view.initial}
    stack = [view.initial]
    while stack:
        for t in view.succ(stack.pop()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _hier_traces(model, f, n):
    """The view of one check_hier run with f and its trace forms as roots,
    as `check` makes it, and the traces read off it."""
    view = check_hier(model, f, *trace_forms(f, n))[1]
    return view, traces_for(view, view.initial, f, n)


class TestAgainstFlattening:
    def test_seeded_models(self):
        rng = random.Random(31)
        traced = 0
        for case in range(250):
            model = random_shsm(machines=rng.randint(2, 4),
                                nodes=rng.randint(1, 2),
                                exits=rng.randint(1, 3),
                                boxes=rng.randint(1, 2), props=3,
                                seed=case + 40_000,
                                scope_labels=rng.random() < 0.5)
            f = random_formula(rng, ["p0", "p1", "p2"], depth=3,
                               grades=(0, 1, 2, 3))
            while not isinstance(f, PATH_ROOTS):
                f = random_formula(rng, ["p0", "p1", "p2"], depth=3,
                                   grades=(0, 1, 2, 3))
            ks = flatten(model)
            verdict = check_flat(ks, f).root_row()[ks.initial]
            # Traces exist where an E root holds or an A root fails.
            traced_verdict = verdict == isinstance(normalize(f), COUNTED)
            for n in (1, 2, 3, 5):
                forms = trace_forms(f, n)
                table = check_flat(ks, f, *forms)
                view, traces = _hier_traces(model, f, n)
                where = (case, str(f), n)
                subs = {g for root in (f, *forms)
                        for g in subformulas_bottom_up(normalize(root))}
                for s in _reachable(view):
                    i = ks.index_of(view.name(s))
                    for g in subs:
                        assert view.holds(g, s) == table.row(g)[i], where
                        if isinstance(g, COUNTED):
                            assert view.count(g, s) == \
                                table.count_row(g)[i], where
                want = 0
                for g in forms if traced_verdict else ():
                    # The A U families are drawn in turn.
                    want += min(n - want, table.count_row(g)[ks.initial])
                assert len(traces) == want, where
                assert all_pairwise_distinct(traces), where
                for t in traces:
                    assert validate_trace(ks, t, table) == [], where
                # The same traces from the flat walk.
                flat = traces_for(table, ks.initial, f, n)
                assert [(t.states, t.loop_start) for t in traces] == \
                    [(t.states, t.loop_start) for t in flat], where
                if not traces:
                    break
                traced += len(traces)
        assert traced > 800


SCOPED = """
machine Inner
  init a;
  out z;
  node a;
  node z [q];
  edge a -> a;
  edge a -> z;
  edge z -> z;
end

machine Top
  init a@p;
  node a@p;
  box b expands Inner [p];
  node c@p [q];
  edge a@p -> b;
  edge a@p -> c@p;
  edge b.z -> c@p;
  edge c@p -> c@p;
end
"""


class TestScopedNames:
    def test_names_with_at_signs_replay(self):
        # Under scope p the reduction renames Inner's `a` to `a@p`, the name
        # of a Top vertex; names come from positions, not from suffixes.
        model = parse_model(SCOPED)
        ks = flatten(model)
        for text in ("E>1 F (p & q)", "A<=1 G !(p & q)"):
            f = parse_formula(text)
            _view, traces = _hier_traces(model, f, 3)
            assert len(traces) == 3 and all_pairwise_distinct(traces)
            for t in traces:
                assert t.states[:2] == ["a@p", "b.a"]
                assert validate_trace(ks, t) == []


class TestExtendedCounterexamples:
    """A failed A formula's counterexample runs on past the violating state
    with the inner witness that explains it, the same on either engine."""

    RETRY_LASSO = ("Start,Try1.Send,Try1.Wait,Try1.Timeout,Try1.Fail,"
                   "Try2.Send,Try2.Wait,Try2.Ack,(Success)*")
    REACH_P3 = ("b3^0.in2,b3^0.b2^0.in1,b3^0.b2^0.z1,b3^0.b2^1.in1,"
                "b3^0.b2^1.z1,b3^0.z2,b3^1.in2")

    @pytest.mark.parametrize("engine", ["hier", "flat"])
    @pytest.mark.parametrize("name, formula, n, expected", [
        # The inner E G !abort, explained by its lasso.
        ("retry", "A G ((t1 & fail) -> A F abort)", 1,
         [(RETRY_LASSO, 5)]),
        # The inner E F p3, explained by its finite E U evidence.
        ("fig2", "A G !E F p3", 2,
         [("in3," + REACH_P3, 2), ("in3,in3," + REACH_P3, 3)]),
    ])
    def test_explained_suffix(self, capsys, engine, name, formula, n,
                              expected):
        path = MODELS / f"{name}.gctl"
        assert main(["check", "--model", str(path), "--formula", formula,
                     "--witnesses", str(n), "--engine", engine]) == 1
        lines = capsys.readouterr().out.split("traces:\n", 1)[1].splitlines()
        assert [line.strip() for line in lines] == [t for t, _ in expected]
        f = parse_formula(formula)
        model = parse_model(path.read_text())
        if engine == "flat":
            view = check_flat(flatten(model), f, *trace_forms(f, n))
        else:
            view = check_hier(model, f, *trace_forms(f, n))[1]
        traces = traces_for(view, view.initial, f, n)
        assert [(serialize_trace(t), t.evidence_len) for t in traces] \
            == expected

import contextlib
import copy
import gc
import io
import random
import sys
import weakref
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gctl.hier_checker
import gctl.hsm
from gctl.cli import main
from gctl.errors import CapacityError
from gctl.evidence import trace_forms, traces_for
from gctl.flat_checker import check_flat
from gctl.formula import (And, Atom, ExistsG, ExistsU, ExistsX, ForallF,
                          ForallG, Implies, TrueF, normalize, parse_formula,
                          render)
from gctl.gen import random_formula, random_shsm
from gctl.hier_checker import (WorkMachine, _from_shsm, check_hier,
                               compute_nsc, grade0_pass, graded_next_pass,
                               scope_pass)
from gctl.hsm import (Machine, Shsm, flatten, is_hsm, repair_top_exit_loops,
                      validate_shsm)
from gctl.kripke import KripkeStructure
from gctl.modelfile import parse_model, render_model


def _flat_verdict(model, f):
    ks = flatten(model)
    return check_flat(ks, f).root_row()[ks.initial]


def _to_shsm(w):
    """The working model w as a model (vertices renamed unique), plus a
    lookup from new vertex name to (machine index, vertex position) for
    reading flags."""
    machines = []
    lookup = {}
    for mi, m in enumerate(w.machines):
        a = m.adj
        rename = {pos: f"{v}~m{mi}" for pos, v in enumerate(a.names)}
        for pos, new in rename.items():
            lookup[new] = (mi, pos)
        labels = {rename[pos]: lab for pos, lab in enumerate(a.labels)}
        expand = {rename[pos]: 0 if t is None else t + 1
                  for pos, t in enumerate(m.expand)}
        edges = [(rename[u], None, rename[v])
                 for u, vs in enumerate(a.succ) for v in vs]
        for b, vss in enumerate(a.exit_succ):
            if vss is None:
                continue
            target = w.machines[m.expand[b]].adj
            for o, vs in enumerate(vss):
                z_name = f"{target.names[target.outs[o]]}~m{m.expand[b]}"
                edges.extend((rename[b], z_name, rename[v]) for v in vs)
        machines.append(Machine(
            f"M{mi}", list(rename.values()), rename[a.entry],
            [rename[p] for p in a.outs], labels, expand, edges))
    return Shsm(machines), lookup


class TestCheckHier:
    def test_scoped_model_is_not_reduced(self, monkeypatch, fig2_model):
        def refuse(*args):
            raise AssertionError("reduce_to_hsm called")

        monkeypatch.setattr(gctl.hier_checker, "reduce_to_hsm", refuse)
        monkeypatch.setattr(gctl.hsm, "reduce_to_hsm", refuse)
        scoped = random_shsm(5, 3, 3, 3, 3, 2, scope_labels=True)
        for model, text in ((fig2_model, "E>1 F (p3 & p1)"),
                            (fig2_model, "A<=1 G !p2"),
                            (scoped, "E>1 [p0 U E>2 G !p2]")):
            f = parse_formula(text)
            assert check_hier(model, f)[0] == _flat_verdict(model, f), text

    def test_working_model_freed_without_collection(self, fig2_model):
        # Nothing left in a reference cycle keeps the working model alive
        # after its last use, so a run's memory is freed when it returns.
        gc.disable()
        try:
            _verdict, w = check_hier(fig2_model,
                                     parse_formula("E F p1 & E>1 F p1"))
            ref = weakref.ref(w)
            del w
            assert ref() is None
        finally:
            gc.enable()

    def test_fig2_reach_p1(self, fig2_model):
        verdict, _ = check_hier(fig2_model, ExistsU(0, TrueF(), Atom("p1")))
        assert verdict

    def test_retry_property_fails(self, retry_model):
        f = ForallG(0, Implies(And(Atom("t1"), Atom("fail")),
                               ForallF(0, Atom("abort"))))
        verdict, _ = check_hier(retry_model, f)
        assert not verdict

    def test_trivially_true(self, fig2_model):
        verdict, _ = check_hier(fig2_model, TrueF())
        assert verdict

    def test_flat_input(self):
        model = random_shsm(1, 4, 1, 0, 2, 3)
        f = parse_formula("E>1 [p0 U p1]")
        v, _ = check_hier(model, f)
        assert v == _flat_verdict(model, f)


class TestGradedNextPass:
    def _two_exit_model(self):
        text = """
        machine A
          init ia;
          out z1, z2;
          node ia;
          node z1;
          node z2;
          edge ia -> z1;
          edge ia -> z2;
          edge z1 -> z1;
          edge z2 -> z2;
        end
        machine B
          init ib;
          node ib;
          node u [p];
          node v [p];
          node w;
          box b expands A;
          edge ib -> b;
          edge b.z1 -> u;
          edge b.z1 -> v;
          edge b.z2 -> w;
          edge u -> u;
          edge v -> v;
          edge w -> w;
        end
        """
        return parse_model(text)

    def test_box_rewired_to_exit_counts(self):
        model = self._two_exit_model()
        w = _from_shsm(model)
        scope_pass(w, Atom("p"), "th1")
        graded_next_pass(w, ExistsX(1, Atom("p")), "psi", "th1")
        top = w.top
        box_pos = next(p for p, t in enumerate(top.expand) if t is not None)
        target = w.machines[top.expand[box_pos]]
        z1, z2 = target.adj.outs
        # z1 sees two satisfying successors (capped at 2), z2 none.
        assert target.counts["psi"][z1] == 2
        assert target.counts["psi"][z2] == 0
        assert target.flags["psi"][z1]
        assert not target.flags["psi"][z2]

    def test_no_boxes_no_copies(self):
        model = random_shsm(1, 3, 1, 0, 2, 1)
        w = _from_shsm(model)
        scope_pass(w, Atom("p0"), "th1")
        graded_next_pass(w, ExistsX(2, Atom("p0")), "psi", "th1")
        assert len(w.machines) == 1

    def test_grade0_equals_classical_next(self, fig2_model):
        f = ExistsX(0, Atom("p1"))
        v, _ = check_hier(fig2_model, f)
        assert v == _flat_verdict(fig2_model, f)


class TestGrade0Summary:
    """A machine's grade-0 exit summary, read under every set y of
    continuing exits, equals the flat engine's E U / E G on the flattening
    of that machine alone, where exit o steps to a fresh state satisfying
    the form exactly when bit o of y is set."""

    FORMS = {"U": ExistsU(0, Atom("th1"), Atom("th2")),
             "G": ExistsG(0, Atom("th1"))}

    @staticmethod
    def _flattening(machines, mi, y):
        """The flat states reachable from the vertices of machine mi, and
        the state a step into each vertex lands on.  A state is the stack
        of (machine, position) frames down to a node, labelled by the
        node's th1 and th2 rows; exit o of mi steps to fresh state o, which
        loops and is labelled th1 and th2 when bit o of y is set."""
        outs = len(machines[mi].adj.outs)
        labels = [{"th1", "th2"} if y >> o & 1 else set()
                  for o in range(outs)]
        edges = [(o, o) for o in range(outs)]
        states = {}
        todo = []

        def enter(frames, m, pos):
            while machines[m].expand[pos] is not None:
                frames += ((m, pos),)
                m = machines[m].expand[pos]
                pos = machines[m].adj.entry
            frames += ((m, pos),)
            if frames not in states:
                states[frames] = len(labels)
                labels.append({key for key in ("th1", "th2")
                               if machines[m].flags[key][pos]})
                todo.append(frames)
            return states[frames]

        entered = [enter((), mi, pos)
                   for pos in range(len(machines[mi].adj.names))]
        while todo:
            frames = todo.pop()
            m, pos = frames[-1]
            a = machines[m].adj
            step = [enter(frames[:-1], m, v) for v in a.succ[pos]]
            o = a.ordinal[pos]
            if o is not None and len(frames) == 1:
                step.append(o)
            elif o is not None:
                parent, box = frames[-2]
                step += [enter(frames[:-2], parent, v)
                         for v in machines[parent].adj.exit_succ[box][o]]
            edges += [(states[frames], t) for t in step]
        names = [str(i) for i in range(len(labels))]
        return KripkeStructure(names, 0, edges, labels), entered

    def test_every_exit_mask_matches_flat_engine(self):
        rng = random.Random(20)
        checked = 0
        for case in range(60):
            model = random_shsm(rng.randint(2, 4), rng.randint(1, 3),
                                rng.randint(1, 3), rng.randint(1, 2), 2,
                                seed=case + 9000, scope_labels=False)
            machines = _from_shsm(model).machines
            for m in machines:
                m.flags["th1"] = [rng.random() < 0.7 for _ in m.adj.names]
                m.flags["th2"] = [rng.random() < 0.15 for _ in m.adj.names]
            for kind, f in self.FORMS.items():
                summaries = gctl.hier_checker._per_class(
                    machines, range(len(machines)), lambda mi, done:
                    gctl.hier_checker._grade0_summary(
                        machines, done, mi, kind == "U", "th1", "th2"))
                for mi, m in enumerate(machines):
                    inside = 1 << len(m.adj.outs)
                    for y in range(inside):
                        ks, entered = self._flattening(machines, mi, y)
                        row = check_flat(ks, f).root_row()
                        assert [x & (y | inside) != 0
                                for x in summaries[mi]] == \
                            [row[s] for s in entered], (case, kind, mi, y)
                        checked += 1
        assert checked > 500


class TestComputeNsc:
    def test_pure_two_cycle_is_sink(self):
        model = parse_model("""
        machine P
          init a;
          node a [p];
          node b [p];
          edge a -> b;
          edge b -> a;
        end
        """)
        w = _from_shsm(model)
        scope_pass(w, Atom("p"), 0)
        grade0_pass(w, ExistsG(0, Atom("p")), "S", 0, None)
        infos = compute_nsc(w, "S", None, range(len(w.machines)))
        assert not infos[-1].nsc

    def test_branch_inside_box_detected(self):
        model = parse_model("""
        machine N1
          init i1;
          out z1;
          node i1 [p];
          node mid [p];
          node side [p];
          node z1 [p];
          edge i1 -> mid;
          edge mid -> z1;
          edge mid -> side;
          edge side -> side;
          edge z1 -> z1;
        end
        machine N2
          init i2;
          node i2 [p];
          box bb expands N1;
          edge i2 -> bb;
          edge bb.z1 -> bb;
        end
        """)
        w = _from_shsm(model)
        scope_pass(w, Atom("p"), 0)
        grade0_pass(w, ExistsG(0, Atom("p")), "S", 0, None)
        infos = compute_nsc(w, "S", None, range(len(w.machines)))
        assert w.top.adj.entry in infos[-1].nsc

    def test_empty_sat_set_empty_nsc(self, fig2_model):
        w = _from_shsm(fig2_model)
        for m in w.machines:
            m.flags["S"] = m.flags["th1"] = [False] * len(m.adj.names)
        infos = compute_nsc(w, "S", "th1", range(len(w.machines)))
        assert all(not info.nsc for info in infos)


class TestGradedGuPass:
    def test_lasso_machine_matches_flat(self):
        model = parse_model("""
        machine L
          init s0;
          node s0 [p];
          node s1 [p];
          node s2 [p];
          edge s0 -> s1;
          edge s0 -> s2;
          edge s1 -> s1;
          edge s2 -> s2;
        end
        """)
        assert check_hier(model, ExistsG(1, Atom("p")))[0]
        assert not check_hier(model, ExistsG(2, Atom("p")))[0]

    def test_branching_cycle_any_grade(self):
        model = parse_model("""
        machine N1
          init i1;
          out z1;
          node i1 [p];
          node mid [p];
          node side [p];
          node z1 [p];
          edge i1 -> mid;
          edge mid -> z1;
          edge mid -> side;
          edge side -> side;
          edge z1 -> z1;
        end
        machine N2
          init i2;
          node i2 [p];
          box bb expands N1;
          edge i2 -> bb;
          edge bb.z1 -> bb;
        end
        """)
        assert check_hier(model, ExistsG(5, Atom("p")))[0]

    def test_zero_context_zero_labels(self):
        # No satisfying exits anywhere: grade-1 until with unreachable target.
        model = parse_model("""
        machine M
          init a;
          node a [p];
          edge a -> a;
        end
        """)
        assert not check_hier(model, ExistsU(1, Atom("p"), Atom("q")))[0]

    def test_mutual_boxes_through_unreachable_exits(self):
        # Two boxes feed each other only through an exit their shared target
        # cannot reach from its entry: no flat cycle exists between them,
        # but the exit-pair labels reference each other's machine, so the
        # labeling must not chase the full context around that loop.
        model = parse_model("""
        machine A
          init ia;
          out z1, z2;
          node ia [p];
          node z1 [p];
          node z2 [p];
          edge ia -> z1;
          edge z1 -> z1;
          edge z2 -> z2;
        end
        machine T
          init it;
          node it [p];
          node w [p, q];
          box b expands A;
          box v expands A;
          edge it -> b;
          edge b.z1 -> v;
          edge v.z1 -> w;
          edge b.z2 -> v;
          edge v.z2 -> b;
          edge w -> w;
        end
        """)
        from gctl.formula import Not
        for k in (0, 1, 2):
            for f in (ExistsG(k, Atom("p")),
                      ExistsU(k, Atom("p"), Atom("q")),
                      ExistsG(k, Not(Atom("q")))):
                assert check_hier(model, f)[0] == _flat_verdict(model, f), \
                    (k, f)
        # per-vertex flags agree with the flat truth at every state,
        # including the box interiors no run can reach
        f = ExistsU(1, Atom("p"), Atom("q"))
        root = normalize(f)
        _, w = check_hier(model, f)
        specialized, lookup = _to_shsm(w)
        ks = flatten(specialized)
        table = check_flat(ks, root)
        for s in range(ks.n_states):
            mi, pos = lookup[ks.names[s].split(".")[-1]]
            assert w.machines[mi].flags[w.index[root]][pos] == \
                table.root_row()[s], ks.names[s]

    def test_exit_loop_with_continuation_saturates(self):
        # The inner entry/exit cycle is forced locally but the exit has a
        # continuation outside, making the cycle branch in context.
        model = parse_model("""
        machine M1
          init i1;
          out z1;
          node i1 [p];
          node z1 [p];
          edge i1 -> z1;
          edge z1 -> i1;
        end
        machine M2
          init i2;
          node i2 [p];
          node w [p];
          box b expands M1;
          edge i2 -> b;
          edge b.z1 -> w;
          edge w -> w;
        end
        """)
        for grade in (1, 3, 6):
            f = ExistsG(grade, Atom("p"))
            assert check_hier(model, f)[0] == _flat_verdict(model, f)


class TestCountCopies:
    def test_single_graded_operator_bound(self, fig2_model):
        f = ExistsU(1, TrueF(), Atom("p1"))
        _, w = check_hier(fig2_model, f)
        k_bar = 1 + 2
        d = 1
        for st in w.stats:
            if st.kind in ("G", "U"):
                assert st.context_factor <= k_bar ** d

    def test_no_graded_operators_single_copy(self, retry_model):
        _, w = check_hier(retry_model, ExistsX(0, Atom("fail")))
        for st in w.stats:
            assert st.context_factor <= 2  # grade 0: at most (0+2)^d
        assert len(w.machines) <= 2 * len(retry_model.machines) + 2

    def test_randomized_growth_bound(self):
        rng = random.Random(9)
        for seed in range(20):
            model = random_shsm(3, 2, 2, 2, 2, seed + 300)
            grade = rng.choice([1, 2, 3])
            f = rng.choice([ExistsG(grade, Atom("p0")),
                            ExistsU(grade, Atom("p0"), Atom("p1"))])
            _, w = check_hier(model, f)
            k_bar = grade + 2
            d = model.max_exits()
            for st in w.stats:
                if st.kind in ("G", "U"):
                    assert st.context_factor <= k_bar ** d
                    assert st.grade0_factor <= 2 ** d


class TestCopyStatistics:
    """Copies made by each pass, recorded before the grade-0 pass became a
    worklist fixpoint: how a fixpoint is reached must not change which
    contexts are demanded."""

    MODELS = {"fig2": "fig2_model", "retry": "retry_model"}
    # (model: fixture name or random_shsm arguments, formula, verdict,
    #  machines after the check, per pass (grade0_factor, context_factor,
    #  machines_after)).  An A<=k U row lists the passes of its violation
    #  families' subformulas, boolean ones included.  In scoped rows an atom
    #  that a box label carries makes its copies in its own scope pass.
    PINNED = [
        ("fig2", "E>1 [true U p1]", True, 4,
         [(1, 1, 3), (1, 1, 3), (1, 2, 4)]),
        ("fig2", "A<=1 G !p1", False, 4,
         [(1, 1, 3), (1, 1, 3), (1, 2, 4), (1, 1, 4)]),
        ("retry", "A<=1 [!abort U success]", True, 2,
         [(1, 1, 2)] * 9),
        ("retry", "E>2 X (E G !abort)", False, 3,
         [(1, 1, 2), (1, 1, 2), (2, 1, 3), (1, 1, 3)]),
        ((4, 2, 3, 2, 3, 1253, False), "A<=3 F p2", True, 6,
         [(1, 1, 4), (1, 1, 4), (2, 1, 6), (1, 1, 6)]),
        ((3, 1, 3, 2, 3, 1235, True),
         "E>3 [p1 U E>2 [A X true U E>3 F p2]]", False, 6,
         [(1, 1, 3)] * 6 + [(2, 3, 6), (1, 1, 6), (1, 1, 6)]),
        ((4, 2, 3, 2, 3, 1107, True), "E>1 X E>3 G (true & p0)", False, 10,
         [(1, 1, 4), (1, 2, 7), (1, 1, 7), (2, 2, 10), (1, 1, 10)]),
        ((4, 2, 2, 2, 3, 1088, True),
         "A<=2 X E>1 [E>2 [p2 U p0] U A [true U true]]", True, 9,
         [(1, 1, 4), (1, 2, 7), (2, 2, 9)] + [(1, 1, 9)] * 11),
        ((4, 1, 3, 2, 3, 1111, False), "A F (p1 | A<=3 G p2)", False, 6,
         [(1, 1, 4)] * 5 + [(1, 2, 5), (1, 1, 5), (2, 1, 6), (1, 1, 6)]),
        ((3, 2, 1, 2, 3, 1261, False),
         "A<=2 [A<=2 G A<=2 [p1 U p0] U p0]", False, 4,
         [(1, 1, 3)] * 14 + [(1, 2, 4)] + [(1, 1, 4)] * 3),
        ((8, 1, 1, 2, 2, 1, False), "E>2 F (p1 & E>1 X p0)", False, 10,
         [(1, 1, 8), (1, 1, 8), (1, 1, 8), (1, 2, 10), (1, 1, 10),
          (1, 1, 10)]),
        ((5, 3, 3, 3, 3, 2, True), "E>1 [p0 U E>2 G !p2]", False, 22,
         [(1, 2, 9), (1, 2, 13), (1, 1, 13), (2, 2, 19), (3, 2, 22)]),
    ]

    def _model(self, request, spec):
        if isinstance(spec, str):
            return request.getfixturevalue(self.MODELS[spec])
        m, nodes, exits, boxes, props, seed, scoped = spec
        return random_shsm(m, nodes, exits, boxes, props, seed,
                           scope_labels=scoped)

    def test_pinned_cases(self, request):
        for spec, text, verdict, machines, passes in self.PINNED:
            model = self._model(request, spec)
            got, w = check_hier(model, parse_formula(text))
            assert (got, len(w.machines)) == (verdict, machines), (spec, text)
            assert [(st.grade0_factor, st.context_factor, st.machines_after)
                    for st in w.stats] == passes, (spec, text)

    def test_copies_only_for_second_contexts(self, request, monkeypatch):
        # Each pass labels a machine in place under its first context, so
        # every copy made is one the final working model keeps.
        made = []
        shell_copy = WorkMachine.shell_copy

        def counted(self):
            made.append(self.source)
            return shell_copy(self)

        monkeypatch.setattr(WorkMachine, "shell_copy", counted)
        for spec, text, *_ in self.PINNED:
            model = self._model(request, spec)
            made.clear()
            _, w = check_hier(model, parse_formula(text))
            assert len(made) == len(w.machines) - len(model.machines), \
                (spec, text)
        # Boolean operators over atoms that no box carries copy nothing.
        for spec, text in (("fig2", "p1 & !(p1 | true)"),
                           ("retry", "fail -> (abort | !success)"),
                           ((4, 2, 3, 2, 3, 1253, False), "(p0 | !p1) -> p2")):
            model = self._model(request, spec)
            made.clear()
            _, w = check_hier(model, parse_formula(text))
            assert made == [] and len(w.machines) == len(model.machines), \
                (spec, text)

    def test_unexpanded_machine_left_out_by_every_pass(self):
        # No box expands Bottom, so no pass labels it, whatever its kind.
        model = parse_model("""
        machine Bottom
          init b;
          out b;
          node b [p];
        end
        machine Top
          init t;
          node t [p];
          edge t -> t;
        end
        """)
        for text in ("true", "p", "E X p"):
            verdict, w = check_hier(model, parse_formula(text))
            assert (verdict, [model.machines[m.source].name
                              for m in w.machines]) == (True, ["Top"]), text


class TestSharedKernels:
    """Copies of one input machine with equal operand rows and equal box
    targets share the grade-0 summary, the branching-cycle analysis and
    the graded dag of every context."""

    # Box b1 carries r and b2 does not, so the scope pass of r copies M1;
    # the operand p and the exit contexts of both boxes are equal.
    MODEL = """
    machine M1
      init i;
      out z;
      node i [p];
      node z [p];
      edge i -> z;
      edge z -> i;
    end
    machine M2
      init a;
      node a;
      node c [p, q];
      box b1 expands M1 [r];
      box b2 expands M1;
      edge a -> b1;
      edge a -> b2;
      edge b1.z -> c;
      edge b2.z -> c;
      edge c -> c;
    end
    """

    def _run(self, monkeypatch, text, shared):
        """check_hier's verdict, its working model, and how often each
        kernel ran per (kernel, input machine, context)."""
        runs = Counter()
        machines_of = {}
        classes_of = gctl.hier_checker._classes
        stacked = gctl.hier_checker._stacked
        summary = gctl.hier_checker._grade0_summary
        nsc_one = gctl.hier_checker._nsc_one

        def classes(machines, keys):
            found = classes_of(machines, keys) if shared else \
                list(range(len(machines)))
            machines_of[id(found)] = found, machines
            return found

        def counted_stacked(solver, classes):
            machines = machines_of[id(classes)][1]

            def run(mi, context):
                runs[solver.__name__, machines[mi].source, context] += 1
                return solver(mi, context)
            return stacked(run, classes)

        def counted_summary(machines, summaries, mi, *args):
            runs["summary", machines[mi].source, None] += 1
            return summary(machines, summaries, mi, *args)

        def counted_nsc(machines, infos, mi, *args):
            runs["nsc", machines[mi].source, None] += 1
            return nsc_one(machines, infos, mi, *args)

        monkeypatch.setattr(gctl.hier_checker, "_classes", classes)
        monkeypatch.setattr(gctl.hier_checker, "_stacked", counted_stacked)
        monkeypatch.setattr(gctl.hier_checker, "_grade0_summary",
                            counted_summary)
        monkeypatch.setattr(gctl.hier_checker, "_nsc_one", counted_nsc)
        verdict, w = check_hier(parse_model(self.MODEL), parse_formula(text))
        monkeypatch.undo()
        return verdict, w, runs

    @pytest.mark.parametrize("text", ["r & E>1 G p", "r & E>1 [p U q]",
                                      "r & E [p U q]"])
    def test_kernel_once_per_class(self, monkeypatch, text):
        verdict, w, runs = self._run(monkeypatch, text, shared=True)
        assert [m.source for m in w.machines].count(0) == 2
        kernels = {"summary", "dag", "nsc"} if "E>1" in text else \
            {"summary"}
        m1 = {key: n for key, n in runs.items() if key[1] == 0}
        assert {key[0] for key in m1} == kernels
        assert set(m1.values()) == {1}
        # Each copy of M1 its own class: every kernel runs for both.
        unshared, w2, runs2 = self._run(monkeypatch, text, shared=False)
        assert {key: n for key, n in runs2.items() if key[1] == 0} == \
            {key: 2 for key in m1}
        assert verdict == unshared
        assert [(m.source, m.flags, m.counts) for m in w.machines] == \
            [(m.source, m.flags, m.counts) for m in w2.machines]


class TestAdjacencyBuiltOnce:
    """Each input machine's edges are indexed once per model: validation
    and every check of the model read the same index, however many
    passes, copies and contexts a check makes."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        adjacency = gctl.hsm._adjacency

        def counted_adjacency(model, m):
            built.append(m.name)
            return adjacency(model, m)

        monkeypatch.setattr(gctl.hsm, "_adjacency", counted_adjacency)
        return built

    def test_once_per_input_machine(self, built, fig2_model):
        scoped = (5, 3, 3, 3, 3, 2)
        for model, text in (
                (parse_model(render_model(fig2_model)), "A<=1 G !p1"),
                (random_shsm(*scoped), "E>1 [p0 U E>2 G !p2]"),
                (random_shsm(*scoped), "A<=2 [p0 U E>1 X p2] & E G !p1")):
            built.clear()
            assert validate_shsm(model) == []
            assert built == [m.name for m in model.machines]
            _, w = check_hier(model, parse_formula(text))
            check_hier(model, parse_formula("E>1 X !p1"))
            assert built == [m.name for m in model.machines]
            assert len(w.machines) > len(built)
            assert any(st.kind != "bool" for st in w.stats)
            # Every copy reads its input machine's one index.
            for m in w.machines:
                assert m.adj is model.adjacency[m.source]

    def test_cli_reports_structure_once(self, monkeypatch, tmp_path, built,
                                        fig2_model):
        # The CLI validates the model, then both engines index it: the
        # structural report is found once and the index built once.
        reports = []
        structure_problems = gctl.hsm._structure_problems

        def counted(model):
            reports.append(model)
            return structure_problems(model)

        monkeypatch.setattr(gctl.hsm, "_structure_problems", counted)
        path = tmp_path / "fig2.gctl"
        path.write_text(render_model(fig2_model))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["check", "--model", str(path), "--formula",
                         "E>1 F p1", "--engine", "both",
                         "--witnesses", "2"]) == 0
        assert len(reports) == 1
        assert built == [m.name for m in fig2_model.machines]

    def test_repaired_model_gets_its_own_index(self, built):
        model = parse_model("""
        machine A
          init i; out z;
          node i; node z;
          edge i -> z; edge z -> z;
        end
        machine B
          init j; out y;
          node j; node y;
          box b expands A;
          edge j -> b; edge b.z -> y;
        end
        """)
        assert validate_shsm(model) == [
            "flat sink: machine B vertex 'y' has no outgoing edge"]
        repaired = repair_top_exit_loops(model)
        assert validate_shsm(repaired) == []
        assert built == ["A", "B", "A", "B"]
        assert repaired.adjacency is not model.adjacency
        y = model.machines[1].vertices.index("y")
        assert (model.adjacency[1].succ[y], repaired.adjacency[1].succ[y]) \
            == ([], [y])



class TestCheckLeavesModelUnchanged:
    """Every copy shares its input machine's vertex list and its index's
    lists, so no pass and no trace walk may change one in place: a model
    reads the same after any number of checks."""

    def test_checks_and_traces_change_nothing(self, fig2_model, retry_model):
        rng = random.Random(3)
        models = [fig2_model, retry_model] + [
            random_shsm(rng.randint(2, 5), 2, 2, 2, 3, rng.randrange(10**6),
                        scope_labels=rng.random() < 0.5) for _ in range(6)]
        traced = 0
        for model in models:
            assert validate_shsm(model) == []
            before = copy.deepcopy((model.machines, model.adjacency))
            atoms = sorted(model.all_propositions())
            for _ in range(5):
                f = random_formula(rng, atoms, 3)
                root = normalize(f)
                forms = [g for g in trace_forms(f, 3) if g != root]
                _, w = check_hier(model, reduce(And, [f, *forms]))
                view = w
                traced += bool(traces_for(view, view.initial, f, 3))
            assert (model.machines, model.adjacency) == before
        assert traced

class TestCopyBudget:
    """A pass may make at most `COPY_BUDGET` machine copies."""

    @pytest.mark.parametrize("text, kind", [
        ("E>1 X p0", "X"), ("E [p0 U p1]", "U0"), ("E>1 G p0", "G")])
    def test_budget_is_inclusive(self, monkeypatch, text, kind):
        model = random_shsm(3, 2, 2, 2, 2, 3, scope_labels=False)
        f = parse_formula(text)
        verdict, w = check_hier(model, f)
        last = w.stats[-1]
        assert last.kind == kind
        # The pass copies some machine more than once.
        assert max(last.grade0_factor, last.context_factor) > 1
        need = max(st.machines_after for st in w.stats)
        assert need > len(model.machines)
        monkeypatch.setattr(gctl.hier_checker, "COPY_BUDGET", need)
        got, w2 = check_hier(model, f)
        assert (got, len(w2.machines)) == (verdict, len(w.machines))
        monkeypatch.setattr(gctl.hier_checker, "COPY_BUDGET", need - 1)
        with pytest.raises(CapacityError):
            check_hier(model, f)

    def test_scope_pass_within_budget(self, monkeypatch):
        # An atom that box labels carry copies machines in its scope pass.
        model = random_shsm(5, 3, 3, 3, 3, 2, scope_labels=True)
        f = parse_formula("p0")
        verdict, w = check_hier(model, f)
        assert [(st.kind, st.context_factor) for st in w.stats] == \
            [("scope", 2)]
        need = len(w.machines)
        assert need > len(model.machines)
        monkeypatch.setattr(gctl.hier_checker, "COPY_BUDGET", need)
        assert check_hier(model, f)[0] == verdict
        monkeypatch.setattr(gctl.hier_checker, "COPY_BUDGET", need - 1)
        with pytest.raises(CapacityError):
            check_hier(model, f)


class TestDeepHierarchy:
    """Copy construction walks the machine list, so a hierarchy deeper than
    the interpreter's recursion limit checks."""

    @pytest.mark.parametrize("text, grade", [("E X p1", 0), ("E>1 X p1", 1)])
    def test_next_on_3000_levels(self, text, grade):
        model = random_shsm(3000, 1, 1, 2, 2, seed=1, scope_labels=False)
        assert len(model.machines) > sys.getrecursionlimit()
        _verdict, w = check_hier(model, parse_formula(text))
        bound = (grade + 2) ** model.max_exits()
        per_source = Counter(m.source for m in w.machines)
        assert max(per_source.values()) <= bound
        assert len(w.machines) <= bound * len(model.machines)

    @pytest.fixture(scope="class")
    def generated(self):
        """With scope labels off and on: a 3000-level model, and a 12-level
        one from the same generator with its flattening."""
        cases = []
        for scoped in (False, True):
            shallow = random_shsm(12, 1, 1, 2, 2, seed=1, scope_labels=scoped)
            cases.append((scoped, random_shsm(3000, 1, 1, 2, 2, seed=1,
                                              scope_labels=scoped),
                          shallow, flatten(shallow)))
        return cases

    @pytest.mark.parametrize("operator", [
        "E X p1", "E G p1", "E F p1", "E [p0 U p1]",
        "A X p1", "A G p1", "A F p1", "A [p0 U p1]"])
    def test_every_operator_on_3000_levels(self, generated, operator):
        for scoped, deep, shallow, ks in generated:
            assert len(deep.machines) > sys.getrecursionlimit()
            assert is_hsm(deep) is not scoped
            for grade in (0, 1):
                f = parse_formula(operator.replace("E ", f"E>{grade} ")
                                  .replace("A ", f"A<={grade} "))
                check_hier(deep, f)
                assert check_hier(shallow, f)[0] == \
                    check_flat(ks, f).root_row()[ks.initial], (scoped, grade)

    @pytest.mark.parametrize("text, verdict", [
        ("E F p", True), ("E>1 F p", False), ("E G true", True),
        ("E>1 G true", False), ("A<=1 G !p", True)])
    def test_graded_counts_through_a_3000_level_chain(self, text, verdict):
        # One path runs from the top down through every level to the
        # bottom exit p and back up, so a graded count at the top is
        # computed through all levels.
        levels = 3000
        lines = ["machine M1\n init a1;\n out z1;\n node a1;\n node z1 [p];\n"
                 " edge a1 -> z1;\nend\n"]
        for i in range(2, levels + 1):
            lines.append(f"machine M{i}\n init a{i};\n out z{i};\n"
                         f" node a{i};\n box b{i} expands M{i - 1};\n"
                         f" node z{i};\n edge a{i} -> b{i};\n"
                         f" edge b{i}.z{i - 1} -> z{i};\nend\n")
        lines.append(f"machine Top\n init a;\n node a;\n"
                     f" box b expands M{levels};\n node z;\n edge a -> b;\n"
                     f" edge b.z{levels} -> z;\n edge z -> z;\nend\n")
        model = parse_model("".join(lines))
        assert check_hier(model, parse_formula(text))[0] is verdict


class TestForallUntilGraded:
    def test_matches_flat_on_fixtures(self, fig2_model, retry_model):
        from gctl.formula import ForallU
        for model in (fig2_model, retry_model):
            atom_pool = sorted(model.all_propositions())[:2]
            a, b = Atom(atom_pool[0]), Atom(atom_pool[-1])
            for k in (1, 2):
                f = ForallU(k, a, b)
                assert check_hier(model, f)[0] == _flat_verdict(model, f)

    def test_randomized(self):
        from gctl.formula import ForallU
        rng = random.Random(31)
        for seed in range(40):
            model = random_shsm(machines=rng.randint(2, 3),
                                nodes=rng.randint(1, 2),
                                exits=rng.randint(1, 2),
                                boxes=rng.randint(1, 2),
                                props=2, seed=seed + 5500)
            f = ForallU(rng.randint(1, 3), Atom("p0"), Atom("p1"))
            assert check_hier(model, f)[0] == _flat_verdict(model, f), seed


class TestEngineEquivalence:
    def test_random_models_and_formulas(self):
        rng = random.Random(42)
        for case in range(120):
            model = random_shsm(machines=rng.randint(1, 4),
                                nodes=rng.randint(1, 3),
                                exits=rng.randint(1, 2),
                                boxes=rng.randint(1, 2),
                                props=3, seed=case)
            f = random_formula(rng, ["p0", "p1", "p2"], depth=3)
            assert check_hier(model, f)[0] == _flat_verdict(model, f), \
                (case, render(f))

    @settings(max_examples=60, deadline=None)
    @given(model_seed=st.integers(min_value=0, max_value=10_000),
           formula_seed=st.integers(min_value=0, max_value=10_000),
           machines=st.integers(min_value=1, max_value=4),
           exits=st.integers(min_value=1, max_value=2))
    def test_equivalence_property(self, model_seed, formula_seed, machines,
                                  exits):
        model = random_shsm(machines=machines, nodes=2, exits=exits, boxes=2,
                            props=2, seed=model_seed)
        f = random_formula(random.Random(formula_seed), ["p0", "p1"], depth=3)
        assert check_hier(model, f)[0] == _flat_verdict(model, f)

    def test_whole_formula_fuzz(self):
        # Whole formulas over models with up to 3 exits, scope labels on and
        # off: the verdict, and the root flag of every flat state reachable
        # in the checked hierarchy, equal the flat engine's.
        rng = random.Random(4242)
        for case in range(1000):
            model = random_shsm(machines=rng.randint(2, 4),
                                nodes=rng.randint(1, 2),
                                exits=rng.randint(1, 3),
                                boxes=rng.randint(1, 2), props=3,
                                seed=case + 90_000,
                                scope_labels=rng.random() < 0.5)
            f = random_formula(rng, ["p0", "p1", "p2"], depth=3,
                               grades=(0, 1, 2, 3))
            ks = flatten(model)
            row = check_flat(ks, f).root_row()
            verdict, w = check_hier(model, f)
            where = (case, render(f))
            assert verdict == row[ks.initial], where
            view = w
            seen = {view.initial}
            stack = [view.initial]
            while stack:
                s = stack.pop()
                assert view.holds(f, s) == row[ks.index_of(view.name(s))], \
                    where + (view.name(s),)
                for t in view.succ(s):
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)

    def test_context_uniformity(self):
        rng = random.Random(7)
        for case in range(25):
            model = random_shsm(machines=rng.randint(2, 3),
                                nodes=rng.randint(1, 2),
                                exits=rng.randint(1, 2),
                                boxes=rng.randint(1, 2),
                                props=2, seed=case + 7000)
            f = random_formula(rng, ["p0", "p1"], depth=2)
            root = normalize(f)
            _, w = check_hier(model, f)
            specialized, lookup = _to_shsm(w)
            ks = flatten(specialized)
            table = check_flat(ks, root)
            row = table.root_row()
            for s in range(ks.n_states):
                mi, pos = lookup[ks.names[s].split(".")[-1]]
                assert w.machines[mi].flags[w.index[root]][pos] == row[s], \
                    (case, render(f), ks.names[s])


class TestCoincidingEdges:
    """Edges that reach the same flat state count once, as in the
    flattening."""

    REENTRY = """
    machine M1
      init in;
      out z;
      node in [p];
      node z;
      edge in -> z;
      edge z -> in;
    end
    machine M2
      init s;
      node s;
      node t [p];
      box b expands M1;
      edge s -> b;
      edge b.z -> b;
      %s
      edge t -> t;
    end
    """

    def _agree(self, model, text):
        f = parse_formula(text)
        assert check_hier(model, f)[0] == _flat_verdict(model, f), text

    def test_exit_reentering_its_own_box(self):
        # b.z -> b and M1's own z -> in both land on the flat state b.in.
        model = parse_model(self.REENTRY % "edge b.z -> t;")
        self._agree(model, "E F E>2 X p")
        self._agree(model, "E>1 G true")
        assert not _flat_verdict(model, parse_formula("E F E>2 X p"))
        model = parse_model(self.REENTRY % "")
        self._agree(model, "E>1 G true")
        self._agree(model, "E F E>2 X p")
        assert not _flat_verdict(model, parse_formula("E>1 G true"))

    def test_repeated_edges(self):
        model = parse_model("""
        machine M1
          init a;
          out z;
          node a;
          node z [p];
          edge a -> z;
          edge a -> z;
        end
        machine M2
          init s;
          node s;
          node t [p];
          box b expands M1;
          edge s -> b;
          edge b.z -> t;
          edge b.z -> t;
          edge t -> t;
        end
        """)
        for text in ("E F E>1 X p", "E>1 F p", "E F E>1 G p"):
            self._agree(model, text)

import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gctl.hier_checker
from gctl.errors import CapacityError
from gctl.flat_checker import check_flat
from gctl.formula import (And, Atom, ExistsG, ExistsU, ExistsX, ForallF,
                          ForallG, Implies, TrueF, normalize, parse_formula,
                          render)
from gctl.gen import random_formula, random_shsm
from gctl.hier_checker import (HierView, _bool_pass, _from_shsm,
                               check_hier, compute_nsc,
                               grade0_pass, graded_next_pass)
from gctl.hsm import flatten
from gctl.modelfile import parse_model


def _flat_verdict(model, f):
    ks = flatten(model)
    return check_flat(ks, f).root_row()[ks.initial]


class TestCheckHier:
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
        w = _from_shsm(model, 1000)
        _bool_pass(w, lambda m, p: "p" in m.labels[p], "th1")
        w2 = graded_next_pass(w, 1, "th1", "psi")
        top = w2.top
        box_pos = next(p for p in range(top.n) if top.expand[p] is not None)
        target = w2.machines[top.expand[box_pos]]
        # z1 sees two satisfying successors (capped at 2), z2 none.
        assert target.counts["psi"][target.outs[0]] == 2
        assert target.counts["psi"][target.outs[1]] == 0
        assert target.flags["psi"][target.outs[0]]
        assert not target.flags["psi"][target.outs[1]]

    def test_no_boxes_no_copies(self):
        model = random_shsm(1, 3, 1, 0, 2, 1)
        w = _from_shsm(model, 1000)
        _bool_pass(w, lambda m, p: "p0" in m.labels[p], "th1")
        w2 = graded_next_pass(w, 2, "th1", "psi")
        assert len(w2.machines) == 1

    def test_grade0_equals_classical_next(self, fig2_model):
        f = ExistsX(0, Atom("p1"))
        v, _ = check_hier(fig2_model, f)
        assert v == _flat_verdict(fig2_model, f)


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
        w = _from_shsm(model, 100)
        _bool_pass(w, lambda m, pos: "p" in m.labels[pos], 0)
        w2 = grade0_pass(w, "G", 0, None, "S")
        infos = compute_nsc(w2, "S")
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
        w = _from_shsm(model, 100)
        _bool_pass(w, lambda m, pos: "p" in m.labels[pos], 0)
        w2 = grade0_pass(w, "G", 0, None, "S")
        infos = compute_nsc(w2, "S")
        assert w2.top.entry in infos[-1].nsc_nodes

    def test_empty_sat_set_empty_nsc(self, fig2_model):
        w = _from_shsm(fig2_model, 100)
        _bool_pass(w, lambda m, pos: False, "S")
        _bool_pass(w, lambda m, pos: False, "th1")
        infos = compute_nsc(w, "S", until_mode=True, th1_key="th1")
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
        specialized, lookup = w.to_shsm()
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
    #  families' subformulas, boolean ones included.
    PINNED = [
        ("fig2", "E>1 [true U p1]", True, 4,
         [(1, 1, 3), (1, 1, 3), (1, 2, 4)]),
        ("fig2", "A<=1 G !p1", False, 4,
         [(1, 1, 3), (1, 1, 3), (1, 1, 3), (1, 1, 3), (1, 2, 4), (1, 1, 4)]),
        ("retry", "A<=1 [!abort U success]", True, 2,
         [(1, 1, 2)] * 9),
        ("retry", "E>2 X (E G !abort)", False, 3,
         [(1, 1, 2), (1, 1, 2), (2, 1, 3), (1, 1, 3)]),
        ((4, 2, 3, 2, 3, 1253, False), "A<=3 F p2", True, 8,
         [(1, 1, 4), (1, 1, 4), (4, 1, 8), (1, 1, 8)]),
        ((3, 1, 3, 2, 3, 1235, True),
         "E>3 [p1 U E>2 [A X true U E>3 F p2]]", False, 6,
         [(1, 1, 3)] * 6 + [(2, 3, 6), (1, 1, 6), (1, 1, 6)]),
        ((4, 2, 3, 2, 3, 1107, True), "E>1 X E>3 G (true & p0)", False, 10,
         [(1, 1, 7), (1, 1, 7), (1, 1, 7), (2, 2, 10), (1, 1, 10)]),
        ((4, 2, 2, 2, 3, 1088, True),
         "A<=2 X E>1 [E>2 [p2 U p0] U A [true U true]]", True, 9,
         [(1, 1, 7), (1, 1, 7), (2, 2, 9)] + [(1, 1, 9)] * 11),
        ((4, 1, 3, 2, 3, 1111, False), "A F (p1 | A<=3 G p2)", False, 7,
         [(1, 1, 4)] * 5 + [(1, 2, 5)] + [(1, 1, 5)] * 5
         + [(2, 1, 7), (1, 1, 7)]),
        ((3, 2, 1, 2, 3, 1261, False),
         "A<=2 [A<=2 G A<=2 [p1 U p0] U p0]", False, 5,
         [(1, 1, 3)] * 8 + [(2, 1, 4)] + [(1, 1, 4)] * 5
         + [(1, 2, 5)] + [(1, 1, 5)] * 3),
        ((8, 1, 1, 2, 2, 1, False), "E>2 F (p1 & E>1 X p0)", False, 10,
         [(1, 1, 8), (1, 1, 8), (1, 1, 8), (1, 2, 10), (1, 1, 10),
          (1, 1, 10)]),
        ((5, 3, 3, 3, 3, 2, True), "E>1 [p0 U E>2 G !p2]", False, 24,
         [(1, 1, 13), (1, 1, 13), (1, 1, 13), (3, 2, 22), (3, 1, 24)]),
    ]

    def test_pinned_cases(self, request):
        for spec, text, verdict, machines, passes in self.PINNED:
            if isinstance(spec, str):
                model = request.getfixturevalue(self.MODELS[spec])
            else:
                m, nodes, exits, boxes, props, seed, scoped = spec
                model = random_shsm(m, nodes, exits, boxes, props, seed,
                                    scope_labels=scoped)
            got, w = check_hier(model, parse_formula(text))
            assert (got, len(w.machines)) == (verdict, machines), (spec, text)
            assert [(st.grade0_factor, st.context_factor, st.machines_after)
                    for st in w.stats] == passes, (spec, text)


class TestAdjacencyBuiltOnce:
    """Each input machine's edges are indexed once per check, however many
    passes, copies and contexts the check makes."""

    def test_once_per_reduced_machine(self, monkeypatch, fig2_model):
        built = []
        inputs = []
        adjacency = gctl.hier_checker._adjacency
        from_shsm = gctl.hier_checker._from_shsm

        def counted_adjacency(*args):
            built.append(args[1].name)
            return adjacency(*args)

        def recorded_from_shsm(model, copy_budget):
            inputs.append(model)
            return from_shsm(model, copy_budget)

        monkeypatch.setattr(gctl.hier_checker, "_adjacency",
                            counted_adjacency)
        monkeypatch.setattr(gctl.hier_checker, "_from_shsm",
                            recorded_from_shsm)
        scoped = random_shsm(5, 3, 3, 3, 3, 2, scope_labels=True)
        for model, text in ((fig2_model, "A<=1 G !p1"),
                            (scoped, "E>1 [p0 U E>2 G !p2]"),
                            (scoped, "A<=2 [p0 U E>1 X p2] & E G !p1")):
            built.clear()
            inputs.clear()
            _, w = check_hier(model, parse_formula(text))
            assert len(inputs) == 1
            assert built == [m.name for m in inputs[0].machines]
            assert len(w.machines) > len(built)
            assert any(st.kind != "bool" for st in w.stats)
            # Every copy reads its input machine's one index.
            first = {}
            for m in w.machines:
                assert first.setdefault(m.source, m.adj) is m.adj


class TestCopyBudget:
    """A pass may make at most `copy_budget` machine copies."""

    @pytest.mark.parametrize("text, kind", [
        ("E>1 X p0", "X"), ("E [p0 U p1]", "U0"), ("E>1 G p0", "G")])
    def test_budget_is_inclusive(self, text, kind):
        model = random_shsm(3, 2, 2, 2, 2, 3, scope_labels=False)
        f = parse_formula(text)
        verdict, w = check_hier(model, f)
        last = w.stats[-1]
        assert last.kind == kind
        # The pass copies some machine more than once.
        assert max(last.grade0_factor, last.context_factor) > 1
        need = max(st.machines_after for st in w.stats)
        assert need > len(model.machines)
        got, w2 = check_hier(model, f, copy_budget=need)
        assert (got, len(w2.machines)) == (verdict, len(w.machines))
        with pytest.raises(CapacityError):
            check_hier(model, f, copy_budget=need - 1)


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
            view = HierView(model, w)
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
            specialized, lookup = w.to_shsm()
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

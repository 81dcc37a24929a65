import dataclasses
import random

import pytest

from gctl.cli import main
from gctl.errors import CapacityError, ValidationError
from gctl.formula import TrueF
from gctl.gen import random_shsm
from gctl.hier_checker import check_hier
from gctl.hsm import (Machine, Shsm, flat_size, flatten, is_hsm,
                      reduce_to_hsm, repair_top_exit_loops, restrict_ap,
                      validate_shsm)
from gctl.modelfile import parse_model, render_model

FIG3_EDGES = {
    ("in3", "in3"), ("in3", "b3^0.in2"),
    ("b3^0.in2", "b3^0.in2"), ("b3^0.in2", "b3^0.b2^0.in1"),
    ("b3^0.b2^0.in1", "b3^0.b2^0.in1"), ("b3^0.b2^0.in1", "b3^0.b2^0.z1"),
    ("b3^0.b2^0.z1", "b3^0.b2^0.z1"), ("b3^0.b2^0.z1", "b3^0.b2^1.in1"),
    ("b3^0.b2^1.in1", "b3^0.b2^1.in1"), ("b3^0.b2^1.in1", "b3^0.b2^1.z1"),
    ("b3^0.b2^1.z1", "b3^0.b2^1.z1"), ("b3^0.b2^1.z1", "b3^0.z2"),
    ("b3^0.z2", "b3^0.z2"), ("b3^0.z2", "b3^1.in2"),
    ("b3^1.in2", "b3^1.in2"), ("b3^1.in2", "b3^1.b2^0.in1"),
    ("b3^1.b2^0.in1", "b3^1.b2^0.in1"), ("b3^1.b2^0.in1", "b3^1.b2^0.z1"),
    ("b3^1.b2^0.z1", "b3^1.b2^0.z1"), ("b3^1.b2^0.z1", "b3^1.b2^1.in1"),
    ("b3^1.b2^1.in1", "b3^1.b2^1.in1"), ("b3^1.b2^1.in1", "b3^1.b2^1.z1"),
    ("b3^1.b2^1.z1", "b3^1.b2^1.z1"), ("b3^1.b2^1.z1", "b3^1.z2"),
    ("b3^1.z2", "b3^1.z2"), ("b3^1.z2", "z3"),
    ("z3", "z3"),
}

FIG3_LABELS = {
    "in3": set(), "z3": {"p3", "p2", "p1"},
    "b3^0.in2": set(), "b3^0.z2": {"p2", "p1"},
    "b3^0.b2^0.in1": set(), "b3^0.b2^0.z1": {"p1"},
    "b3^0.b2^1.in1": {"p2"}, "b3^0.b2^1.z1": {"p2", "p1"},
    "b3^1.in2": {"p3"}, "b3^1.z2": {"p3", "p2", "p1"},
    "b3^1.b2^0.in1": {"p3"}, "b3^1.b2^0.z1": {"p3", "p1"},
    "b3^1.b2^1.in1": {"p3", "p2"}, "b3^1.b2^1.z1": {"p3", "p2", "p1"},
}


class TestValidate:
    def test_fixture_valid_and_restricted(self, fig2_model):
        assert validate_shsm(fig2_model) == []
        assert validate_shsm(fig2_model, restricted=True) == []

    def test_self_expansion_rejected(self):
        m = Machine("M", ["i", "b", "z"], "i", ["z"],
                    {v: frozenset() for v in "ibz"},
                    {"i": 0, "b": 1, "z": 0},
                    [("i", None, "b"), ("b", "z", "z"), ("z", None, "z")])
        assert validate_shsm(Shsm([m])) == [
            "machine M: vertex 'b' expands to machine 1, which is not "
            "strictly lower than 1"]

    def test_hsm_restricted_vacuously(self, retry_model):
        stripped = Shsm([
            Machine(m.name, list(m.vertices), m.initial, list(m.outputs),
                    {v: (frozenset() if m.is_box(v) else m.label(v))
                     for v in m.vertices},
                    dict(m.expand), list(m.edges))
            for m in retry_model.machines])
        assert is_hsm(stripped)
        assert validate_shsm(stripped, restricted=True) == []

    def test_plain_edge_from_box_rejected(self):
        inner = Machine("A", ["i", "z"], "i", ["z"],
                        {"i": frozenset(), "z": frozenset()},
                        {"i": 0, "z": 0},
                        [("i", None, "z"), ("z", None, "z")])
        outer = Machine("B", ["j", "b"], "j", [],
                        {"j": frozenset(), "b": frozenset()},
                        {"j": 0, "b": 1},
                        [("j", None, "b"), ("b", None, "j")])
        problems = validate_shsm(Shsm([inner, outer]))
        assert any("plain edge from box" in p for p in problems)

    def test_flat_sink_reported(self):
        m = Machine("M", ["i", "z"], "i", ["z"],
                    {"i": frozenset(), "z": frozenset()},
                    {"i": 0, "z": 0}, [("i", None, "z")])
        problems = validate_shsm(Shsm([m]))
        assert any("flat sink" in p for p in problems)

    def test_flat_sinks_listed_per_box_in_order(self):
        # Boxes b1 and b2 expand A, whose s is stuck and whose exits each
        # box covers one of; box c of the top machine never leaves B.
        model = parse_model("""
        machine A
          init i; out y, z;
          node i; node s; node y; node z;
          edge i -> s; edge i -> y; edge i -> z;
        end
        machine B
          init j;
          node j; node t; node k;
          box b2 expands A; box b1 expands A;
          edge j -> b2; edge j -> t; edge b2.z -> b1; edge b1.y -> k;
          edge k -> k;
        end
        machine C
          init a;
          node a; node u;
          box c expands B;
          edge a -> c; edge a -> u;
        end
        """)
        inside = "flat sink: machine {} vertex {!r} has no continuation " \
            "inside box {!r} of machine {}"
        assert validate_shsm(model) == [
            inside.format("A", "s", "b1", "B"),
            inside.format("A", "z", "b1", "B"),
            inside.format("A", "s", "b2", "B"),
            inside.format("A", "y", "b2", "B"),
            "flat sink: machine C vertex 'u' has no outgoing edge",
            inside.format("B", "t", "c", "C"),
        ]

    def test_output_listed_twice(self):
        model = parse_model("""
        machine M1
          init i; out z, y, z, z;
          node i; node y; node z;
          edge i -> z; edge i -> y; edge y -> y; edge z -> z;
        end
        """)
        assert validate_shsm(model) == [
            "machine M1: output vertex 'z' listed twice"]

    @staticmethod
    def _machine(name, vertices, edges, initial=None, outputs=(),
                 expand=None, labels=None):
        return Machine(name, vertices, initial or vertices[0], list(outputs),
                       labels or {}, expand or {}, edges)

    # A bottom machine with one exit, for the rows whose top machine boxes it.
    LEAF = ("A", ["i", "z"], [("i", None, "z"), ("z", None, "z")], "i", ["z"])

    # Each row has one fault, reported once.
    @pytest.mark.parametrize("machines, problem", [
        ([], "model has no machines"),
        ([("M", ["i", "a", "a"], [("i", None, "a"), ("a", None, "a")])],
         "machine M: duplicate vertex names"),
        ([LEAF, ("B", ["j", "z"], [("j", None, "z"), ("z", None, "z")])],
         "machine B: vertex 'z' already used in machine A"),
        ([("M", ["i"], [("i", None, "i")], "i", ["y"])],
         "machine M: output vertex 'y' undeclared"),
        ([("M", ["i", "b"], [("i", None, "b")], "i", [], {"b": 2})],
         "machine M: vertex 'b' expands to missing machine 2"),
        ([LEAF, ("B", ["j", "b"], [("j", None, "b"), ("b", "z", "j")], "b",
                 [], {"b": 1})],
         "machine B: 'b' is an initial/output vertex and cannot be a box"),
        ([("M", ["i", "z"], [("i", "z", "z"), ("z", None, "z")])],
         "machine M: exit edge from non-box vertex 'i'"),
    ])
    def test_structure_problem(self, machines, problem):
        model = Shsm([self._machine(*m) for m in machines])
        assert validate_shsm(model) == [problem]

    def test_check_exits_3_on_structure_problem(self, tmp_path, capsys):
        m = self._machine("M", ["i", "z"],
                          [("i", "z", "z"), ("z", None, "z")])
        path = tmp_path / "bad.gctl"
        path.write_text(render_model(Shsm([m])))
        assert main(["check", "--model", str(path), "--formula", "true"]) == 3
        assert capsys.readouterr().err == \
            "invalid: machine M: exit edge from non-box vertex 'i'\n"

    def test_restricted_label_clash(self):
        leaf = self._machine(*self.LEAF, labels={"z": frozenset({"p"})})
        top = self._machine("B", ["j", "b"],
                            [("j", None, "b"), ("b", "z", "j")],
                            expand={"b": 1}, labels={"b": frozenset({"p"})})
        model = Shsm([leaf, top])
        assert validate_shsm(model) == []
        assert validate_shsm(model, restricted=True) == [
            "restricted: ancestor 'b' and descendant 'z' share ['p']"]

    def test_restricted_clashes_in_machine_order(self):
        # Box c reaches B before A, but the report lists A's clash first.
        leaf = self._machine(*self.LEAF, labels={"z": frozenset({"p"})})
        mid = self._machine("B", ["j", "b", "y"],
                            [("j", None, "b"), ("b", "z", "y"),
                             ("y", None, "y")], outputs=["y"],
                            expand={"b": 1}, labels={"y": frozenset({"p"})})
        top = self._machine("C", ["k", "c"],
                            [("k", None, "c"), ("c", "y", "k")],
                            expand={"c": 2}, labels={"c": frozenset({"p"})})
        assert validate_shsm(Shsm([leaf, mid, top]), restricted=True) == [
            "restricted: ancestor 'c' and descendant 'z' share ['p']",
            "restricted: ancestor 'c' and descendant 'y' share ['p']"]

    def test_sinks_match_reachable_flat_sinks(self):
        # Oracle: walk the flat states of the checked hierarchy from the
        # initial one and look for a state without successors.
        rng = random.Random(7)
        checked = 0
        for _ in range(3000):
            model = random_shsm(rng.randint(1, 4), rng.randint(0, 2),
                                rng.randint(1, 2), rng.randint(0, 2), 1,
                                rng.randrange(10**6))
            machines = list(model.machines)
            for _ in range(rng.randint(0, 3)):
                i = rng.randrange(len(machines))
                edges = list(machines[i].edges)
                if edges:
                    del edges[rng.randrange(len(edges))]
                machines[i] = dataclasses.replace(machines[i], edges=edges)
            model = Shsm(machines)
            problems = validate_shsm(model)
            if not all(p.startswith("flat sink: ") for p in problems):
                continue
            view = check_hier(model, TrueF())[1]
            seen, stack, sink = {view.initial}, [view.initial], False
            while stack and not sink:
                succ = view.succ(stack.pop())
                sink = not succ
                stack.extend(t for t in succ if t not in seen)
                seen.update(succ)
            assert bool(problems) == sink, problems
            checked += 1
        assert checked == 3000

    def test_repair_fixes_top_exit_sink(self):
        m = Machine("M", ["i", "z"], "i", ["z"],
                    {"i": frozenset(), "z": frozenset()},
                    {"i": 0, "z": 0}, [("i", None, "z")])
        model = repair_top_exit_loops(Shsm([m]))
        assert validate_shsm(model) == []

    @pytest.mark.parametrize("machines", [
        # An edge to an undeclared vertex.
        [Machine("M", ["a"], "a", [], {}, {}, [("a", None, "b")])],
        # An undeclared initial vertex.
        [Machine("M", ["a"], "x", [], {}, {}, [("a", None, "a")])],
        # A box that expands its own machine.
        [Machine("M", ["a", "b"], "a", [], {}, {"b": 1},
                 [("a", None, "b"), ("b", "z", "a")])],
    ])
    def test_index_refuses_structurally_invalid_models(self, machines):
        # Checking and flattening an unvalidated model raise validation's
        # own report instead of failing inside the index.
        problems = validate_shsm(Shsm(machines))
        assert problems
        for run in (lambda model: check_hier(model, TrueF()), flatten,
                    flat_size):
            with pytest.raises(ValidationError) as raised:
                run(Shsm(machines))
            assert raised.value.problems == problems


class TestIsHsm:
    def test_scoped_fixture(self, fig2_model):
        assert not is_hsm(fig2_model)

    def test_labels_erased(self, fig2_model):
        assert is_hsm(restrict_ap(fig2_model, set()))

    def test_single_machine(self):
        m = Machine("M", ["i"], "i", [], {"i": frozenset({"p"})}, {"i": 0},
                    [("i", None, "i")])
        assert is_hsm(Shsm([m]))


class TestFlatten:
    def test_fixture_states_and_labels(self, fig2_flat):
        assert fig2_flat.n_states == 14
        got = {fig2_flat.names[s]: set(fig2_flat.labels[s])
               for s in range(fig2_flat.n_states)}
        assert got == FIG3_LABELS

    def test_fixture_edges_exact(self, fig2_flat):
        got = {(fig2_flat.names[s], fig2_flat.names[t])
               for s, t in fig2_flat.edge_set()}
        assert got == FIG3_EDGES

    def test_initial_state(self, fig2_flat):
        assert fig2_flat.names[fig2_flat.initial] == "in3"

    def test_single_machine_identity(self):
        m = Machine("M", ["a", "b"], "a", [],
                    {"a": frozenset({"p"}), "b": frozenset()},
                    {"a": 0, "b": 0},
                    [("a", None, "b"), ("b", None, "a")])
        ks = flatten(Shsm([m]))
        assert ks.names == ["a", "b"]
        assert ks.edge_set() == {(0, 1), (1, 0)}
        assert ks.labels[0] == {"p"}

    def test_two_boxes_double_the_bottom(self):
        bottom = Machine("A", ["i", "z"], "i", ["z"],
                         {"i": frozenset(), "z": frozenset()},
                         {"i": 0, "z": 0},
                         [("i", None, "z"), ("z", None, "z")])
        top = Machine("B", ["j", "b1", "b2"], "j", [],
                      {v: frozenset() for v in ["j", "b1", "b2"]},
                      {"j": 0, "b1": 1, "b2": 1},
                      [("j", None, "j"), ("j", None, "b1"),
                       ("b1", "z", "b2"), ("b2", "z", "j")])
        ks = flatten(Shsm([bottom, top]))
        assert ks.n_states == 1 + 2 + 2

    def test_budget(self, fig2_model):
        with pytest.raises(CapacityError):
            flatten(fig2_model, budget=10)

    def test_totality_enforced(self):
        m = Machine("M", ["i", "z"], "i", ["z"],
                    {"i": frozenset(), "z": frozenset()},
                    {"i": 0, "z": 0}, [("i", None, "z")])
        with pytest.raises(ValidationError):
            flatten(Shsm([m]))

    def test_flat_size_matches(self, fig2_model):
        assert flat_size(fig2_model) == 14

    def test_matches_hier_view(self, fig2_model, retry_model):
        # Oracle: the flat states of the checked hierarchy, walked from the
        # initial one by frames, carry the flattening's names, and their
        # successors come in the flattening's order.  Shuffled vertex lists
        # put initial vertices and outputs anywhere in their machines.
        rng = random.Random(11)
        models = [fig2_model, retry_model]
        for case in range(120):
            model = random_shsm(rng.randint(1, 5), rng.randint(0, 2),
                                rng.randint(1, 3), rng.randint(0, 3), 2,
                                seed=case, scope_labels=case % 2 == 0)
            models += [model, Shsm([
                dataclasses.replace(m, vertices=rng.sample(
                    m.vertices, len(m.vertices))) for m in model.machines])]
        for case, model in enumerate(models):
            ks = flatten(model)
            assert ks.n_states == flat_size(model), case
            view = check_hier(model, TrueF())[1]
            assert view.name(view.initial) == ks.names[ks.initial], case
            seen, stack = {view.initial}, [view.initial]
            while stack:
                s = stack.pop()
                succ = view.succ(s)
                assert [view.name(t) for t in succ] == \
                    [ks.names[t] for t in ks.succ[ks.index_of(view.name(s))]]
                stack.extend(t for t in succ if t not in seen)
                seen.update(succ)


def _canon(ks, strip=False):
    def name(n):
        if not strip:
            return n
        return ".".join(part.split("@", 1)[0] for part in n.split("."))

    names = [name(n) for n in ks.names]
    order = sorted(range(ks.n_states), key=lambda s: names[s])
    remap = {s: i for i, s in enumerate(order)}
    return (
        [(names[s], ks.labels[s]) for s in order],
        sorted((remap[s], remap[t]) for s, t in ks.edge_set()),
        remap[ks.initial],
    )


class TestReduce:
    def test_fixture_reduction_isomorphic(self, fig2_model):
        red = reduce_to_hsm(fig2_model, {"p1", "p2", "p3"})
        assert is_hsm(red.model)
        assert _canon(flatten(red.model), strip=True) == _canon(flatten(fig2_model))

    def test_hsm_input_single_context(self, retry_model):
        stripped = restrict_ap(retry_model, {"fail", "abort"})
        plain = Shsm([
            Machine(m.name, list(m.vertices), m.initial, list(m.outputs),
                    {v: (frozenset() if m.is_box(v) else m.label(v))
                     for v in m.vertices},
                    dict(m.expand), list(m.edges))
            for m in stripped.machines])
        red = reduce_to_hsm(plain, {"fail", "abort"})
        assert len(red.model.machines) == len(plain.machines)
        assert _canon(flatten(red.model), strip=True) == _canon(flatten(plain))

    def test_empty_ap_one_copy_per_machine(self, fig2_model):
        red = reduce_to_hsm(restrict_ap(fig2_model, set()), set())
        assert len(red.model.machines) == len(fig2_model.machines)

    def test_index_mapping_monotone(self, fig2_model):
        red = reduce_to_hsm(fig2_model, {"p1", "p2", "p3"})
        for (i, p), target in red.index.items():
            for (j, p2), target2 in red.index.items():
                if i < j:
                    assert target < target2

    def test_randomized_reduction_isomorphic(self):
        for seed in range(15):
            model = random_shsm(3, 2, 2, 2, 3, seed)
            ap = {"p0", "p1"}
            red = reduce_to_hsm(restrict_ap(model, ap), ap)
            assert is_hsm(red.model)
            assert _canon(flatten(red.model), strip=True) == \
                _canon(flatten(restrict_ap(model, ap)))

    def test_hierarchy_deeper_than_recursion_limit(self):
        model = random_shsm(1500, 1, 1, 1, 2, 1)
        red = reduce_to_hsm(model, {"p0", "p1"})
        assert validate_shsm(red.model) == []
        assert flat_size(red.model) == flat_size(model)

    def test_flat_names_are_bounded_sequences(self, fig2_model):
        ks = flatten(fig2_model)
        for n in ks.names:
            assert 1 <= len(n.split(".")) <= fig2_model.h


class TestRestrictAp:
    def test_drops_propositions(self, fig2_model):
        r = restrict_ap(fig2_model, {"p1"})
        assert r.all_propositions() == {"p1"}

    def test_keeps_structure(self, fig2_model):
        r = restrict_ap(fig2_model, {"p1"})
        assert [m.name for m in r.machines] == [m.name for m in fig2_model.machines]
        assert flat_size(r) == flat_size(fig2_model)

    def test_empty(self, fig2_model):
        assert restrict_ap(fig2_model, set()).all_propositions() == set()

"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import pytest

from gctl.evidence import (all_pairwise_distinct, counterexamples_for,
                           extract_evidences, trace_forms, validate_trace)
from gctl.flat_checker import check_flat, oracle_check
from gctl.formula import (And, Atom, ExistsG, ExistsU, ExistsX, Not, TrueF,
                          parse_formula, render)
from gctl.gen import random_formula, random_kripke, random_shsm
from gctl.hier_checker import check_hier
from gctl.hsm import flat_size, flatten
from test_hsm import FIG3_EDGES, FIG3_LABELS


def _report(number, text):
    print(f"\nPASS criterion {number}: {text}")


class TestAcceptance:
    def test_criterion_1_three_level_fixture(self, fig2_model):
        started = time.perf_counter()
        ks = flatten(fig2_model)
        assert ks.n_states == 14
        labels = {ks.names[s]: set(ks.labels[s]) for s in range(ks.n_states)}
        assert labels["z3"] == {"p3", "p2", "p1"}
        assert labels["b3^0.b2^1.in1"] == {"p2"}
        assert labels == FIG3_LABELS
        edges = {(ks.names[s], ks.names[t]) for s, t in ks.edge_set()}
        assert edges == FIG3_EDGES
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        _report(1, f"three-level fixture flattens to 14 states, labels and "
                   f"edges exact ({elapsed * 1000:.0f} ms)")

    def test_criterion_2_retry_fixture(self, retry_model):
        started = time.perf_counter()
        f = parse_formula("A G ((t1 & fail) -> A F abort)")
        verdict, _ = check_hier(retry_model, f)
        assert verdict is False
        ks = flatten(retry_model)
        table = check_flat(ks, And(f, *trace_forms(f, 1)))
        assert not table.row(f)[ks.initial]
        cexs = counterexamples_for(table, ks.initial, f, 1)
        assert len(cexs) == 1
        states = cexs[0].states
        assert states[:5] == ["Start", "Try1.Send", "Try1.Wait",
                              "Try1.Timeout", "Try1.Fail"]
        assert "Success" in states
        assert "Abort" not in states
        assert validate_trace(ks, cexs[0]) == []
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        _report(2, "retry fixture fails and the counterexample walks "
                   "Start, Try1.Send/Wait/Timeout/Fail to Success "
                   f"({elapsed * 1000:.0f} ms)")

    def test_criterion_3_oracle_triangle(self):
        started = time.perf_counter()
        cases = 0
        for seed in range(500):
            rng = random.Random(seed)
            ks = random_kripke(rng.randint(1, 6), seed + 10_000)
            f = random_formula(rng, ["p", "q", "r"], depth=3,
                               grades=(0, 1, 2, 3))
            assert check_flat(ks, f).root_row() == oracle_check(ks, f), \
                (seed, render(f))
            cases += 1
        elapsed = time.perf_counter() - started
        assert cases >= 500
        assert elapsed < 60.0
        _report(3, f"flat engine agrees with the enumeration oracle on "
                   f"{cases} random cases ({elapsed:.1f} s)")

    def test_criterion_4_and_5_engine_equivalence_and_growth(self):
        started = time.perf_counter()
        cases = 0
        worst_factor = 0
        for seed in range(500):
            rng = random.Random(seed)
            model = random_shsm(machines=rng.randint(1, 4),
                                nodes=rng.randint(1, 2),
                                exits=rng.randint(1, 2),
                                boxes=rng.randint(1, 2),
                                props=3, seed=seed + 20_000)
            assert max(len(m.vertices) for m in model.machines) <= 7
            f = random_formula(rng, ["p0", "p1", "p2"], depth=3,
                               grades=(0, 1, 2, 3))
            ks = flatten(model)
            flat_verdict = check_flat(ks, f).root_row()[ks.initial]
            hier_verdict, w = check_hier(model, f)
            assert flat_verdict == hier_verdict, (seed, render(f))
            cases += 1

            d = model.max_exits()
            for st in w.stats:
                if st.kind in ("G", "U", "X"):
                    assert st.context_factor <= (st.grade + 2) ** d, (
                        seed, render(f), st)
                    worst_factor = max(worst_factor, st.context_factor)
        elapsed = time.perf_counter() - started
        assert cases >= 500
        assert elapsed < 300.0
        _report(4, f"hierarchical and flat verdicts agree on {cases} random "
                   f"models ({elapsed:.1f} s)")
        _report(5, f"per-operator copy growth stayed within (k+2)^d "
                   f"(worst factor seen: {worst_factor})")

    def test_criterion_6_hierarchy_beats_flattening(self):
        model = random_shsm(machines=15, nodes=1, exits=1, boxes=2, props=1,
                            seed=1, scope_labels=False)
        assert flat_size(model) >= 2 ** 14

        started = time.perf_counter()
        verdict_h, _ = check_hier(model, parse_formula("E F p0"))
        hier_time = time.perf_counter() - started

        started = time.perf_counter()
        ks = flatten(model)
        verdict_f = check_flat(ks, parse_formula("E F p0")).root_row()[ks.initial]
        flat_time = time.perf_counter() - started

        assert verdict_h == verdict_f
        assert hier_time < 2.0
        assert hier_time < flat_time
        _report(6, f"15-level family: {flat_size(model)} flat states; "
                   f"hierarchical check {hier_time * 1000:.1f} ms vs "
                   f"flatten+check {flat_time * 1000:.1f} ms")

    def test_criterion_7_grade_independent_runtime(self):
        ks = random_kripke(10_000, 99, out_degree=3)
        # The first check of a process runs slower, and a slow phase of the
        # host would land on one grade if grades were timed one after the
        # other: warm up once, then take the best of rounds over all grades.
        check_flat(ks, ExistsU(1, Atom("p"), Atom("q")))
        times = {k: float("inf") for k in (1, 10, 1000)}
        for _ in range(3):
            for k in times:
                started = time.perf_counter()
                check_flat(ks, ExistsU(k, Atom("p"), Atom("q")))
                times[k] = min(times[k], time.perf_counter() - started)
        ratio = max(times.values()) / min(times.values())
        assert ratio < 2.0, times
        _report(7, "checking E>k [p U q] on 10^4 states for k in "
                   f"{{1, 10, 1000}} varies only {ratio:.2f}x "
                   f"({', '.join(f'{v * 1000:.0f}ms' for v in times.values())})")

    def test_criterion_8_trace_validity(self, retry_flat):
        failures = 0
        checked = 0
        rng = random.Random(123)
        for seed in range(300):
            ks = random_kripke(rng.randint(2, 6), seed + 30_000)
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
            traces = extract_evidences(table, 0, form, avail)
            checked += len(traces)
            if not all_pairwise_distinct(traces):
                failures += 1
            for t in traces:
                if validate_trace(ks, t, table):
                    failures += 1
        f = parse_formula("A G ((t1 & fail) -> A F abort)")
        table = check_flat(retry_flat, And(f, *trace_forms(f, 1)))
        for t in counterexamples_for(table, retry_flat.initial, f, 1):
            checked += 1
            if validate_trace(retry_flat, t):
                failures += 1
        assert checked > 150
        assert failures == 0
        _report(8, f"{checked} emitted traces all replay as pairwise "
                   "distinct evidences (zero failures)")

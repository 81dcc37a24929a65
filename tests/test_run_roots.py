"""One run labels several roots: `check_flat(ks, f, *more)` and
`check_hier(model, f, *more)` decide f, and every root's flags and capped
counts equal those of a run of that root alone, under both engines.  `check`
runs f with its trace forms this way."""

import random

import pytest

from gctl.evidence import trace_forms
from gctl.flat_checker import check_flat
from gctl.formula import (ExistsG, ExistsU, ExistsX, ForallU, TrueF,
                          normalize, parse_formula, render)
from gctl.gen import random_formula, random_shsm
from gctl.hier_checker import check_hier
from gctl.hsm import flatten

WITNESSES = 3
COUNTED = (ExistsX, ExistsG, ExistsU)
FORMULAS = {
    "fig2": ["E>1 [true U p1]", "A<=1 [true U p1]", "E F (p1 & E X p2)",
             "A G E F p3", "E>2 G true", "p1 | E X p2"],
    "retry": ["A [!abort U success]", "A G ((t1 & fail) -> A F abort)",
              "E>2 F ack", "A<=1 X !abort", "E G !success"],
}


def _random_cases(count):
    """(model, formula) on seeded models, scope labels on in every other
    case, with a path operator at the root of most formulas."""
    atoms = ["p0", "p1", "p2"]
    for seed in range(count):
        rng = random.Random(seed)
        model = random_shsm(rng.randint(1, 3), rng.randint(0, 2),
                            rng.randint(1, 2), rng.randint(1, 2), 3,
                            seed + 52_000, scope_labels=seed % 2 == 0)
        f = random_formula(rng, atoms, depth=2)
        k = rng.randint(0, 2)
        f = [f, ExistsU(k, TrueF(), f), ExistsG(k, f),
             ForallU(k, random_formula(rng, atoms, depth=1), f)][seed % 4]
        yield model, f


def _cases(fig2_model, retry_model):
    for name, model in (("fig2", fig2_model), ("retry", retry_model)):
        for text in FORMULAS[name]:
            yield model, parse_formula(text)
    yield from _random_cases(40)


def _states(view):
    """Name -> state, for every state reachable from the initial one."""
    seen = {view.name(view.initial): view.initial}
    stack = [view.initial]
    while stack:
        for t in view.succ(stack.pop()):
            if view.name(t) not in seen:
                seen[view.name(t)] = t
                stack.append(t)
    return seen


def _labels(view, states, g):
    """g's flag and, for an E X / E G / E U form, capped count by name."""
    counted = isinstance(normalize(g), COUNTED)
    return {name: (view.holds(g, s), view.count(g, s) if counted else None)
            for name, s in states.items()}


def test_roots_run_together_as_alone(fig2_model, retry_model):
    traced = 0
    for model, f in _cases(fig2_model, retry_model):
        forms = trace_forms(f, WITNESSES)
        traced += bool(forms)
        ks = flatten(model)
        table = check_flat(ks, f, *forms)
        verdict, w = check_hier(model, f, *forms)
        expected = check_flat(ks, f).root_row()[ks.initial]
        assert table.root_row()[ks.initial] == verdict == expected, render(f)
        states = _states(w)
        for g in (f, *forms):
            alone = check_flat(ks, g)
            assert table.row(g) == alone.row(g), (render(f), render(g))
            if isinstance(normalize(g), COUNTED):
                assert table.count_row(g) == alone.count_row(g), \
                    (render(f), render(g))
            w_alone = check_hier(model, g)[1]
            assert _labels(w, states, g) == \
                _labels(w_alone, _states(w_alone), g), (render(f), render(g))
    assert traced >= 30


@pytest.mark.parametrize("engine", ["flat", "hier"])
def test_first_root_decides(fig2_model, fig2_flat, engine):
    # The verdict is f's even when a later root fails where f holds.
    f, other = parse_formula("E F p3"), parse_formula("E G false")
    if engine == "flat":
        run = check_flat(fig2_flat, f, other)
    else:
        run = check_hier(fig2_model, f, other)[1]
    assert run.holds(f, run.initial)
    assert not run.holds(other, run.initial)

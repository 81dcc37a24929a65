"""One path pass per operator and operands: `evaluate` counts a path form
only at the highest grade a run labels it with, and reads every lower grade
off those capped counts with `graded_rows`.  Each decider's rows must equal
those of labelling every subformula alone."""

import random
from functools import reduce

from gctl.evidence import trace_forms
from gctl.flat_checker import ORACLE_MAX_STATES, check_flat, oracle_table
from gctl.formula import (PATH, And, Atom, ExistsG, ExistsU, ExistsX,
                          ForallU, TrueF, children, graded_rows, render)
from gctl.gen import random_formula, random_shsm
from gctl.hier_checker import check_hier
from gctl.hsm import flat_size, flatten

ATOMS = ["p0", "p1"]


def _repeating(rng):
    """A conjunction that repeats one path operator and its operands at two
    or three grades, 0 among them, in random order, next to an A<=k U and
    the trace forms of up to four counterexamples of it."""
    left, right = (random_formula(rng, ATOMS, depth=1) for _ in range(2))
    grades = [0, *rng.sample(range(1, 4), rng.randint(1, 2))]
    rng.shuffle(grades)
    make = rng.choice([lambda k: ExistsX(k, left),
                       lambda k: ExistsG(k, left),
                       lambda k: ExistsU(k, left, right)])
    forall = ForallU(rng.randint(0, 2), left, right)
    forms = [make(k) for k in grades] + [forall] + \
        trace_forms(forall, rng.randint(2, 4))
    rng.shuffle(forms)
    return reduce(And, forms)


def _shared(index):
    """The path forms of an `evaluate` index read off a higher grade."""
    top = {}
    for g in index:
        if isinstance(g, PATH):
            key = type(g), children(g)
            top[key] = max(top.get(key, 0), g.grade)
    return [g for g in index
            if isinstance(g, PATH) and top[type(g), children(g)] > g.grade]


def _cases(count):
    """(seed, model, its flattening, formula) on flattenings of at most
    ORACLE_MAX_STATES states, scope labels on in every other case."""
    seed = 0
    while count:
        rng = random.Random(seed)
        model = random_shsm(rng.randint(1, 3), rng.randint(0, 2),
                            rng.randint(1, 2), rng.randint(1, 2), 2,
                            seed + 31_000, scope_labels=seed % 2 == 0)
        seed += 1
        if flat_size(model) <= ORACLE_MAX_STATES:
            count -= 1
            yield seed - 1, model, flatten(model), _repeating(rng)


def _reachable(view):
    """State name -> state, for every state reachable on a view."""
    found = {view.name(view.initial): view.initial}
    stack = [view.initial]
    while stack:
        for t in view.succ(stack.pop()):
            name = view.name(t)
            if name not in found:
                found[name] = t
                stack.append(t)
    return found


def test_graded_rows():
    # Counts capped at 4 (grade 3) read at grades 1 and 0.
    count = [0, 1, 2, 3, 4]
    assert graded_rows(ExistsG(1, Atom("p0")), count) == \
        ([False, False, True, True, True], [0, 1, 2, 2, 2])
    assert graded_rows(ExistsU(0, TrueF(), Atom("p0")), count) == \
        ([False, True, True, True, True], [0, 1, 1, 1, 1])


def test_flat_and_oracle_rows_equal_each_form_alone():
    shared = 0
    for seed, _model, ks, f in _cases(60):
        for label in (check_flat, oracle_table):
            table = label(ks, f)
            shared += len(_shared(table.index))
            for g in table.index:
                alone = label(ks, g)
                assert table.row(g) == alone.row(g), (seed, render(g))
                if isinstance(g, PATH):
                    assert table.count_row(g) == alone.count_row(g), \
                        (seed, render(g))
    assert shared >= 200


def test_hier_rows_equal_each_form_alone():
    shared = 0
    for seed, model, ks, f in _cases(60):
        table = check_flat(ks, f)
        _verdict, w = check_hier(model, f)
        shared += len(_shared(w.index))
        view = w
        states = _reachable(view)
        for g in w.index:
            alone = check_hier(model, g)[1]
            alone_states = _reachable(alone)
            assert alone_states.keys() == states.keys(), seed
            for name, s in states.items():
                t = alone_states[name]
                assert view.holds(g, s) == alone.holds(g, t) == \
                    table.row(g)[ks.index_of(name)], (seed, render(g), name)
                if isinstance(g, PATH):
                    assert view.count(g, s) == alone.count(g, t) == \
                        table.count(g, ks.index_of(name)), \
                        (seed, render(g), name)
    assert shared >= 100

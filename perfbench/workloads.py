"""Seeded inputs and reference outputs for the three benchmark workloads.

Every model and formula comes from ``gctl.gen`` with the workload seed
passed in; the program under test only ever sees the generated model files
and formula text.  Model shapes are fixed per workload and only their
structure and labels vary with the seed, so the amount of work per run
stays the same from seed to seed.

References never come from the engine a workload exercises:

* ``hier_check`` and ``witness_traces`` run ``--engine hier``; their
  verdicts and expected trace counts come from flattening plus the flat
  engine.
* ``flat_check`` runs ``--engine flat``; its verdicts come from
  ``check_hier`` on the same one-machine model, which counts with a
  different algorithm.
"""

import random
from dataclasses import dataclass, field

from gctl.flat_checker import check_flat
from gctl.formula import (And, ExistsF, ExistsG, ExistsU, ExistsX, ForallF,
                          ForallG, ForallU, ForallX, Not, TrueF, normalize,
                          parse_formula, render, subformulas_bottom_up)
from gctl.gen import random_formula, random_kripke, random_shsm
from gctl.hier_checker import check_hier
from gctl.hsm import flatten
from gctl.modelfile import kripke_to_model, render_model

WORKLOADS = ("hier_check", "flat_check", "witness_traces")
WITNESSES = 3
# gctl check arguments after --model and --formula.
ARGV = {
    "hier_check": ["--engine", "hier", "--format", "json"],
    "flat_check": ["--engine", "flat", "--format", "json"],
    "witness_traces": ["--engine", "hier", "--witnesses", str(WITNESSES),
                       "--format", "json"],
}

ATOMS = ("p0", "p1", "p2")
EXISTS_PATH = (ExistsX, ExistsG, ExistsU)
FORALL_PATH = (ForallX, ForallG, ForallF, ForallU)
TEMPORAL = EXISTS_PATH + (ExistsF,) + FORALL_PATH

# hier_check: plain deep models (the flattening doubles per level, the
# hierarchical check does not) and scoped wide ones that go through
# reduce_to_hsm.  Tuples are (machines, nodes, exits, boxes, scope labels).
# Deep flattenings stay at 12-25k states so the flat engine can supply the
# reference verdicts of a seed in seconds.  How much a scoped model costs
# depends on which scope sets its labels demand, so there are twice as many
# of them: a run averages over more of that seed-to-seed variation.
# Formulas have one to three temporal operators, so a run is not swayed by
# one rare deep formula.
HIER_SHAPES = (
    (12, 1, 1, 2, False),
    (12, 1, 1, 2, False),
    (13, 1, 1, 2, False),
    (13, 1, 1, 2, False),
    (6, 3, 2, 2, True),
    (5, 5, 3, 3, True),
    (5, 8, 2, 4, True),
    (5, 6, 3, 3, True),
    (7, 4, 2, 2, True),
    (6, 4, 2, 3, True),
    (4, 8, 3, 4, True),
    (6, 3, 3, 2, True),
)
HIER_FORMULAS = 16
HIER_TEMPORAL = (1, 3)

# flat_check: random Kripke structures, out-degree 3, 3-4k states (small
# enough that a run completes more than 100 requests).  Each model gets one
# conjunction of each size in FLAT_CONJUNCTS, and the root operator of every
# conjunct is fixed by its slot, cycling through TEMPORAL; only atoms and
# grades come from the seed.  So every seed asks for the same operator mix
# and a run's cost does not hinge on how many long conjunctions it drew.
FLAT_STATES = (3000, 3000, 3500, 3500, 4000, 4000)
FLAT_CONJUNCTS = (3, 4, 5, 6)

# witness_traces: hierarchical models of 2k to 3*10^4 flat states, two of
# each shape.  The slowest tenth of the requests, which sets the 90th
# percentile, falls on the largest shapes; with two models of each, it is
# spread over more models and varies less from seed to seed.
WITNESS_SHAPES = (
    (10, 1, 1, 2, False),
    (11, 1, 1, 2, False),
    (12, 1, 1, 2, False),
    (9, 3, 2, 2, True),
    (6, 6, 3, 3, True),
    (6, 8, 3, 4, True),
) * 2
# Requests per model and kind, each drawn from its own stream of candidate
# roots: satisfied E formulas give evidences, failing A formulas give
# counterexamples (one of them an A U), and failing E or holding A
# formulas give no trace.  Every candidate has exactly one temporal
# operator, its root, so the cost of a request depends on the model more
# than on the formula and the mix is the same from seed to seed.
WITNESS_QUOTA = {"evidence": 2, "counterexample": 1, "counterexample_au": 1,
                 "none": 1}
WITNESS_ROOTS = {
    "evidence": (ExistsX, ExistsG, ExistsF, ExistsU),
    "counterexample": (ForallX, ForallG, ForallF),
    "counterexample_au": (ForallU,),
    "none": TEMPORAL,
}
WITNESS_CANDIDATES = 24     # per model and kind


@dataclass
class Model:
    name: str
    text: str
    model: object          # gctl.hsm.Shsm as generated, before rendering


@dataclass
class Request:
    rid: str
    model: str             # Model.name
    formula: str
    argv: list             # gctl arguments after --model/--formula
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    models: list
    candidates: list       # (model name, formula text[, kind]), in draw order


def _rng(seed, *salt):
    value = seed
    for s in salt:
        value = value * 1_000_003 + s
    return random.Random(value)


def _temporal_ops(f):
    return sum(isinstance(g, TEMPORAL) for g in subformulas_bottom_up(f))


def _hier_model(name, shape, seed):
    machines, nodes, exits, boxes, scoped = shape
    model = random_shsm(machines, nodes, exits, boxes, len(ATOMS), seed,
                        scope_labels=scoped)
    return Model(name, render_model(model), model)


def generate(workload, seed):
    """Models and candidate formulas of a workload; same seed, same inputs."""
    if workload == "hier_check":
        models = [_hier_model(f"h{i}", shape, seed * 100 + i)
                  for i, shape in enumerate(HIER_SHAPES)]
        candidates = []
        for i, m in enumerate(models):
            rng = _rng(seed, 1, i)
            drawn = []
            while len(drawn) < HIER_FORMULAS:
                f = random_formula(rng, ATOMS, depth=3, grades=(0, 1, 2, 3))
                low, high = HIER_TEMPORAL
                if low <= _temporal_ops(f) <= high:
                    drawn.append(render(f))
            candidates.extend((m.name, text) for text in drawn)
        return Workload(workload, models, candidates)
    if workload == "flat_check":
        models = []
        candidates = []
        for i, n in enumerate(FLAT_STATES):
            ks = random_kripke(n, seed * 100 + i, props=ATOMS, out_degree=3)
            model = kripke_to_model(ks)
            models.append(Model(f"k{i}", render_model(model), model))
            rng = _rng(seed, 2, i)
            slot = i
            for size in FLAT_CONJUNCTS:
                parts = []
                for _ in range(size):
                    root = TEMPORAL[slot % len(TEMPORAL)]
                    slot += 1
                    f = random_formula(rng, ATOMS, depth=1, grades=(1, 2, 3))
                    while not isinstance(f, root):
                        f = random_formula(rng, ATOMS, depth=1,
                                           grades=(1, 2, 3))
                    parts.append(f)
                conj = parts[0]
                for p in parts[1:]:
                    conj = And(conj, p)
                candidates.append((models[-1].name, render(conj)))
        return Workload(workload, models, candidates)
    if workload == "witness_traces":
        models = [_hier_model(f"w{i}", shape, seed * 100 + i)
                  for i, shape in enumerate(WITNESS_SHAPES)]
        candidates = []
        for i, m in enumerate(models):
            for k, (kind, roots) in enumerate(WITNESS_ROOTS.items()):
                rng = _rng(seed, 3, i, k)
                drawn = 0
                while drawn < WITNESS_CANDIDATES:
                    f = random_formula(rng, ATOMS, depth=2,
                                       grades=(0, 1, 2, 3))
                    if isinstance(f, roots) and _temporal_ops(f) == 1:
                        candidates.append((m.name, render(f), kind))
                        drawn += 1
        return Workload(workload, models, candidates)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def trace_forms(formula_text, verdict, witnesses=WITNESSES):
    """Path formulas the emitted traces must witness, or [] when the CLI
    emits no trace for this formula and verdict."""
    f = parse_formula(formula_text)
    boosted = max(getattr(f, "grade", 0), witnesses - 1)
    root = normalize(f)
    if verdict and isinstance(root, EXISTS_PATH):
        if isinstance(root, ExistsU):
            return [ExistsU(boosted, root.left, root.right)]
        if isinstance(root, ExistsG):
            return [ExistsG(boosted, root.child)]
        return [ExistsX(boosted, root.child)]
    if not verdict and isinstance(f, FORALL_PATH):
        if isinstance(f, ForallX):
            return [ExistsX(boosted, Not(normalize(f.child)))]
        if isinstance(f, ForallG):
            return [ExistsU(boosted, TrueF(), Not(normalize(f.child)))]
        if isinstance(f, ForallF):
            return [ExistsG(boosted, Not(normalize(f.child)))]
        left, right = normalize(f.left), normalize(f.right)
        stay = And(left, Not(right))
        leave = And(Not(left), Not(right))
        return [ExistsG(boosted, stay), ExistsU(boosted, stay, leave)]
    return []


def expected_trace_count(ks, table, forms, witnesses=WITNESSES):
    """Distinct traces the flat engine's counts say exist, capped at the
    number asked for; two forms are the A U families, drawn in turn."""
    want = witnesses
    total = 0
    for form in forms:
        avail = table.count_row(form)[ks.initial]
        take = min(want, avail)
        total += take
        want -= take
    return total


def _kind(formula_text, verdict):
    f = parse_formula(formula_text)
    if verdict and isinstance(normalize(f), EXISTS_PATH):
        return "evidence"
    if not verdict and isinstance(f, ForallU):
        return "counterexample_au"
    if not verdict and isinstance(f, FORALL_PATH):
        return "counterexample"
    return "none"


def _flat_verdict(ks, formula_text):
    return check_flat(ks, parse_formula(formula_text)).root_row()[ks.initial]


def _flat_reference(ks, formula_text, with_traces, verdict):
    expect = {"exit": 0 if verdict else 1, "result": verdict}
    if with_traces:
        forms = trace_forms(formula_text, verdict)
        count = 0
        if forms:
            conj = forms[0]
            for g in forms[1:]:
                conj = And(conj, g)
            count = expected_trace_count(ks, check_flat(ks, conj), forms)
        expect["traces"] = count
    return expect


def compute_references(work):
    """The request list of a workload with its expected outputs."""
    argv = ARGV[work.name]
    by_name = {m.name: m for m in work.models}
    requests = []
    if work.name == "flat_check":
        for j, (mname, text) in enumerate(work.candidates):
            verdict, _w = check_hier(by_name[mname].model, parse_formula(text))
            rid = f"{mname}/f{j % len(FLAT_CONJUNCTS)}"
            requests.append(Request(rid, mname, text, argv,
                                    {"exit": 0 if verdict else 1,
                                     "result": verdict}))
        return requests
    for m in work.models:
        ks = flatten(m.model)
        if work.name == "hier_check":
            texts = [t for name, t in work.candidates if name == m.name]
            for j, text in enumerate(texts):
                expect = _flat_reference(ks, text, False,
                                         _flat_verdict(ks, text))
                requests.append(Request(f"{m.name}/f{j}", m.name, text, argv,
                                        expect))
            continue
        for kind, quota in WITNESS_QUOTA.items():
            texts = [t for name, t, k in work.candidates
                     if name == m.name and k == kind]
            chosen = 0
            for text in texts:
                verdict = _flat_verdict(ks, text)
                if _kind(text, verdict) != kind:
                    continue
                requests.append(Request(f"{m.name}/{kind}{chosen}", m.name,
                                        text, argv,
                                        _flat_reference(ks, text, True,
                                                        verdict)))
                chosen += 1
                if chosen == quota:
                    break
    return requests

"""Seeded random models, structures and formulas.

Used by the model generator command and by the randomized test suites.
Everything is deterministic for a fixed seed.
"""

import random

from .formula import (And, Atom, ExistsF, ExistsG, ExistsU, ExistsX, ForallF,
                      ForallG, ForallU, ForallX, Implies, Not, Or, TrueF)
from .hsm import Machine, Shsm
from .kripke import KripkeStructure


def random_shsm(machines: int, nodes: int, exits: int, boxes: int,
                props: int, seed: int, scope_labels: bool = True) -> Shsm:
    """A valid model with total flattening and all exits reachable.

    Machine i has `nodes` plain vertices, `exits` outputs (self-looped so
    no flat state is a sink) and, above the bottom level, `boxes` boxes
    expanding to machine i-1 (keeping the flat size exponential in the
    number of machines).  Raises ValueError on counts no such model has.
    """
    if machines < 1 or min(nodes, exits, boxes, props) < 0:
        raise ValueError("a model needs machines >= 1 and nonnegative "
                         "nodes, exits, boxes and props")
    if exits < 1 and machines > 1 and boxes > 0:
        raise ValueError("exits must be at least 1 when boxes expand to "
                         "lower machines (machines > 1 and boxes > 0)")
    rng = random.Random(seed)
    prop_names = [f"p{i}" for i in range(props)]
    result = []
    for i in range(1, machines + 1):
        name = f"M{i}"
        entry = f"{name}_in"
        plain_nodes = [f"{name}_v{j}" for j in range(nodes)]
        outs = [f"{name}_z{j}" for j in range(exits)]
        box_names = [f"{name}_b{j}" for j in range(boxes)] if i > 1 else []
        vertices = [entry] + plain_nodes + box_names + outs
        labels = {}
        expand = {}
        for v in vertices:
            expand[v] = 0
            labels[v] = frozenset(
                p for p in prop_names if rng.random() < 0.35)
        for v in box_names:
            expand[v] = i - 1
            if not scope_labels:
                labels[v] = frozenset()
        labels[entry] = frozenset(p for p in prop_names if rng.random() < 0.35)

        target_outs = result[i - 2].outputs if i > 1 else []
        edges = []

        def connect(src, dst):
            if expand[src] > 0:
                edges.append((src, rng.choice(target_outs), dst))
            else:
                edges.append((src, None, dst))

        # Spanning connections: every vertex reachable from the entry.
        placed = [entry]
        others = plain_nodes + box_names + outs
        rng.shuffle(others)
        for v in others:
            connect(rng.choice(placed), v)
            placed.append(v)
        # Extra density.
        extra = rng.randrange(0, 2 + len(vertices))
        for _ in range(extra):
            src = rng.choice(vertices)
            dst = rng.choice(vertices)
            connect(src, dst)
        # Totality: every plain vertex keeps an outgoing edge; exits loop.
        has_plain_out = {u for u, z, v in edges if z is None}
        for z in outs:
            if z not in has_plain_out:
                edges.append((z, None, z))
                has_plain_out.add(z)
        for v in [entry] + plain_nodes:
            if v not in has_plain_out:
                edges.append((v, None, rng.choice(vertices)))
        # Each box exit continues somewhere.
        covered = {(u, z) for u, z, v in edges if z is not None}
        for b in box_names:
            for z in target_outs:
                if (b, z) not in covered:
                    edges.append((b, z, rng.choice(vertices)))
        # Dedupe, preserving order.
        result.append(Machine(name, vertices, entry, outs, labels, expand,
                              list(dict.fromkeys(edges))))
    return Shsm(result)


def random_kripke(states: int, seed: int, props=("p", "q", "r"),
                  density: float = 0.35, out_degree: int = None) -> KripkeStructure:
    """A total random structure with the given number of states.

    With `out_degree` set, each state gets that many random successors
    (sparse mode for large structures); otherwise each possible edge is
    drawn independently with probability `density`.
    """
    rng = random.Random(seed)
    edges = []
    for s in range(states):
        if out_degree is not None:
            targets = [rng.randrange(states) for _ in range(out_degree)]
        else:
            targets = [t for t in range(states) if rng.random() < density]
        if not targets:
            targets = [rng.randrange(states)]
        edges.extend((s, t) for t in targets)
    labels = [frozenset(p for p in props if rng.random() < 0.4)
              for _ in range(states)]
    return KripkeStructure([f"s{i}" for i in range(states)], 0, edges, labels)


# The operators random_formula draws from, with their operand counts; all
# but the Boolean ones take a grade.
_BOOLEAN = (Not, And, Or, Implies)
_OPERATORS = ((Not, 1), (And, 2), (Or, 2), (Implies, 2),
              (ExistsX, 1), (ExistsG, 1), (ExistsF, 1), (ExistsU, 2),
              (ForallX, 1), (ForallG, 1), (ForallF, 1), (ForallU, 2))


def random_formula(rng: random.Random, atom_names, depth: int = 3,
                   grades=(0, 1, 2, 3)):
    """A random formula of bounded operator depth over the given atoms."""
    atom_names = list(atom_names) or ["p"]
    if depth <= 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.7:
            return Atom(rng.choice(atom_names))
        return TrueF()
    op, arity = _OPERATORS[rng.randrange(len(_OPERATORS))]
    grade = rng.choice(grades)
    operands = [random_formula(rng, atom_names, depth - 1, grades)
                for _ in range(arity)]
    return op(*operands) if op in _BOOLEAN else op(grade, *operands)

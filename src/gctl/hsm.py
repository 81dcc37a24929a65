"""Hierarchical state machines with scope-dependent properties.

A model is an ordered list of machines; box vertices expand to strictly
lower machines.  Propositions on a box hold on every state nested inside it
(its scope).  A model whose boxes all carry empty labels is a plain
hierarchical machine (HSM); `reduce_to_hsm` rewrites the general form into
an HSM by specializing each machine per inherited scope set (the checker
does not: it labels scoped atoms by a pass instead).
"""

from dataclasses import dataclass, field
from functools import cached_property

from .errors import CapacityError, ValidationError
from .kripke import KripkeStructure

DEFAULT_FLAT_BUDGET = 2**22


@dataclass
class Machine:
    name: str
    vertices: list
    initial: str
    outputs: list
    labels: dict                  # vertex -> frozenset of propositions
    expand: dict                  # vertex -> 0 (node) or 1-based machine index
    edges: list = field(default_factory=list)  # (src, exit-or-None, dst)

    def is_box(self, v):
        return self.expand.get(v, 0) > 0

    def label(self, v):
        return self.labels.get(v, frozenset())


@dataclass
class Shsm:
    machines: list                # bottom-up; machines[-1] is top-level

    @property
    def h(self):
        return len(self.machines)

    def machine(self, index):
        """1-based accessor matching the expansion mapping."""
        return self.machines[index - 1]

    @cached_property
    def structure_problems(self):
        """The structural problems validation reports: names, expansions
        and edges that do not fit together.  Found on first use and then
        shared by validation and the index, which refuses such a model."""
        return _structure_problems(self)

    @cached_property
    def adjacency(self):
        """Per machine, in list order, its `Adjacency`, built on first use
        and then shared by validation and every check: a model is not
        changed once indexed.  Only a structurally valid model is indexed;
        another raises ValidationError with validation's problems."""
        if self.structure_problems:
            raise ValidationError(self.structure_problems)
        return [_adjacency(self, m) for m in self.machines]

    @cached_property
    def sink_problems(self):
        """The reachable flat sinks that validation reports and `flatten`
        rejects, found on first use off `adjacency` and then shared by both,
        under the same rule."""
        return _flat_sink_problems(self)

    @property
    def top(self):
        return self.machines[-1]

    def max_exits(self):
        return max((len(m.outputs) for m in self.machines), default=0)

    def all_propositions(self):
        props = set()
        for m in self.machines:
            for lab in m.labels.values():
                props |= lab
        return frozenset(props)


@dataclass
class Adjacency:
    """Edges of one input machine by vertex position, one edge per flat
    transition, and the indexes the checker's passes read.  It is the one
    place where vertex names become positions: every later pass reads a
    vertex's name, expansion and label, and the machine's entry and outputs
    here.  Its lists are shared by every copy of the machine and never
    changed; box exits are indexed forward only, in `exit_succ`.

    The branching-cycle graph numbers its states: a node or box keeps its
    position, and the exit state b.z with z the o-th output of the machine
    b expands is `bz_base[b] + o`, past the last position."""

    names: list               # the machine's vertex list, shared
    succ: list                # plain successors per vertex
    exit_succ: list           # per box: successors per exit ordinal; None for nodes
    ordinal: list             # exit ordinal per vertex, None for non-exits
    bz_base: list             # first exit-state id per box, None for nodes
    bz_of: list               # (box pos, exit ordinal) per exit-state id - n
    expand: list              # 0-based machine index per box, None for nodes
    labels: list              # frozenset per vertex
    entry: int                # position of the initial vertex
    outs: list                # positions of the outputs, declaration order


def _adjacency(model: Shsm, m: Machine) -> Adjacency:
    """Index the edges of machine m, keeping one edge per flat transition,
    the rule `flatten` reads here: drop repeats, and an exit b.z -> b when
    the boxed machine steps from z to its initial vertex itself."""
    n = len(m.vertices)
    pos_of = {v: i for i, v in enumerate(m.vertices)}
    expand = [m.expand[v] - 1 if m.expand.get(v, 0) else None
              for v in m.vertices]
    succ = [[] for _ in range(n)]
    exit_succ = [None] * n
    bz_base = [None] * n
    bz_of = []
    for pos, t in enumerate(expand):
        if t is not None:
            k = len(model.machines[t].outputs)
            exit_succ[pos] = [[] for _ in range(k)]
            bz_base[pos] = n + len(bz_of)
            bz_of += [(pos, o) for o in range(k)]
    for u, z, v in dict.fromkeys(m.edges):
        pu, pv = pos_of[u], pos_of[v]
        if z is None:
            succ[pu].append(pv)
        else:
            target = model.machines[expand[pu]]
            if v == u and (z, None, target.initial) in target.edges:
                continue
            o = target.outputs.index(z)
            exit_succ[pu][o].append(pv)
    outs = [pos_of[z] for z in m.outputs]
    ordinal = [None] * n
    for o, z in enumerate(outs):
        ordinal[z] = o
    return Adjacency(m.vertices, succ, exit_succ, ordinal,
                     bz_base, bz_of, expand, [m.label(v) for v in m.vertices],
                     pos_of[m.initial], outs)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_shsm(model: Shsm, restricted: bool = False) -> list:
    """Itemized invariant report (empty list = valid).

    With `restricted`, additionally checks that labels of a box are disjoint
    from the labels of everything nested below it.  Also reports the flat
    sink states reachable from the initial one, the only dead ends a valid
    model rules out; `flatten` rejects exactly these.
    """
    if model.structure_problems:
        return list(model.structure_problems)
    problems = _restricted_label_problems(model) if restricted else []
    return problems + model.sink_problems


def _structure_problems(model):
    """Names, expansions and edges that do not fit together; the model can
    be indexed exactly when there are none."""
    if not model.machines:
        return ["model has no machines"]
    problems = []
    seen = {}
    for i, m in enumerate(model.machines, start=1):
        where = f"machine {m.name}"
        vset = set(m.vertices)
        if len(vset) != len(m.vertices):
            problems.append(f"{where}: duplicate vertex names")
        for z in dict.fromkeys(z for k, z in enumerate(m.outputs)
                               if z in m.outputs[:k]):
            problems.append(f"{where}: output vertex {z!r} listed twice")
        for v in dict.fromkeys(m.vertices):
            if v in seen:
                problems.append(
                    f"{where}: vertex {v!r} already used in machine {seen[v]}")
            seen[v] = m.name
        if m.initial not in vset:
            problems.append(f"{where}: initial vertex {m.initial!r} undeclared")
        for z in m.outputs:
            if z not in vset:
                problems.append(f"{where}: output vertex {z!r} undeclared")
        for v in m.vertices:
            e = m.expand.get(v, 0)
            if e < 0 or e > model.h:
                problems.append(f"{where}: vertex {v!r} expands to missing machine {e}")
            elif e >= i:
                problems.append(
                    f"{where}: vertex {v!r} expands to machine {e}, "
                    f"which is not strictly lower than {i}")
            if e > 0 and (v == m.initial or v in m.outputs):
                problems.append(
                    f"{where}: {v!r} is an initial/output vertex and cannot be a box")
        for u, z, v in m.edges:
            if u not in vset or v not in vset:
                problems.append(f"{where}: edge ({u!r}, {v!r}) references undeclared vertices")
                continue
            e = m.expand.get(u, 0)
            if z is None:
                if e != 0:
                    problems.append(
                        f"{where}: plain edge from box {u!r} (needs an exit: {u}.z -> ...)")
            else:
                if e == 0:
                    problems.append(f"{where}: exit edge from non-box vertex {u!r}")
                elif 1 <= e <= model.h and z not in model.machine(e).outputs:
                    problems.append(
                        f"{where}: edge {u}.{z} uses {z!r}, not an output of machine "
                        f"{model.machine(e).name}")
    return problems


def _reach(starts, edges):
    """Flags by position, set where `starts` reach along `edges`, one
    successor list per position: the hierarchy's one reachability search."""
    seen = [False] * len(edges)
    stack = list(starts)
    while stack:
        i = stack.pop()
        if not seen[i]:
            seen[i] = True
            stack.extend(edges[i])
    return seen


def _descendants(adjs, start):
    """Machine indices reachable from machine `start` through expansion,
    `start` included, in index order, read off the edge indexes `adjs`."""
    seen = _reach([start], [[t for t in a.expand if t is not None]
                            for a in adjs])
    return [j for j, r in enumerate(seen) if r]


def _restricted_label_problems(model):
    problems = []
    machines, adjs = model.machines, model.adjacency
    for m, a in zip(machines, adjs):
        for u, lab, t in zip(m.vertices, a.labels, a.expand):
            if t is None or not lab:
                continue
            for j in _descendants(adjs, t):
                for v, vlab in zip(machines[j].vertices, adjs[j].labels):
                    clash = lab & vlab
                    if clash:
                        problems.append(
                            f"restricted: ancestor {u!r} and descendant {v!r} "
                            f"share {sorted(clash)}")
    return problems


def _flat_sink_problems(model):
    """Reachable flat sink states, read off the edge index without building
    the flattening.

    A flat state ends at a node; it is a sink exactly when the node has no
    plain successor and the enclosing box (if any) has no exit successor
    through it.  The one exit edge the index drops leaves an exit with a
    plain edge, which is never a sink.  Bottom-up, one `_reach` per machine
    finds the positions its entry reaches, a box stepping on through the
    exits its target's own search reached.
    """
    machines, adjs = model.machines, model.adjacency
    # Per machine: the reachable positions, whether each output is among
    # them, and the reachable nodes without a plain successor, in name order.
    reached, reach_out, stuck = [], [], []
    for m, a in zip(machines, adjs):
        seen = _reach([a.entry], [
            succ if t is None else
            [w for ws, r in zip(exits, reach_out[t]) if r for w in ws]
            for succ, exits, t in zip(a.succ, a.exit_succ, a.expand)])
        reached.append(seen)
        reach_out.append([seen[z] for z in a.outs])
        stuck.append(sorted((v for v, r in enumerate(seen) if r and
                             a.exit_succ[v] is None and not a.succ[v]),
                            key=m.vertices.__getitem__))

    # Walking down from the top machine, a box its machine reaches enters
    # its target.  Inside a box a stuck node continues only as an exit the
    # box has an edge from.  Problems are listed by machine, then by box.
    top = len(machines) - 1
    entered = [False] * top + [True]
    problems = [[] for _ in machines]
    for i in range(top, -1, -1):
        if not entered[i]:
            continue
        m, a = machines[i], adjs[i]
        if i == top:
            problems[i] += [f"flat sink: machine {m.name} vertex "
                            f"{m.vertices[v]!r} has no outgoing edge"
                            for v in stuck[i]]
        for b in sorted((b for b, r in enumerate(reached[i])
                         if r and a.exit_succ[b] is not None),
                        key=m.vertices.__getitem__):
            t = a.expand[b]
            entered[t] = True
            target, ordinal = machines[t], adjs[t].ordinal
            problems[i] += [
                f"flat sink: machine {target.name} vertex "
                f"{target.vertices[u]!r} has no continuation inside box "
                f"{m.vertices[b]!r} of machine {m.name}"
                for u in stuck[t]
                if ordinal[u] is None or not a.exit_succ[b][ordinal[u]]]
    return [p for listed in problems for p in listed]


def is_hsm(model: Shsm) -> bool:
    """True when no box carries a label."""
    for m in model.machines:
        for v in m.vertices:
            if m.is_box(v) and m.label(v):
                return False
    return True


def repair_top_exit_loops(model: Shsm) -> Shsm:
    """Add self-loops on output vertices of the top machine that would be
    flat sinks.  Returns a new model; never touches lower machines."""
    top = model.top
    has_out = {u for u, z, v in top.edges if z is None}
    new_edges = list(top.edges)
    for z in top.outputs:
        if z not in has_out:
            new_edges.append((z, None, z))
    repaired = Machine(top.name, list(top.vertices), top.initial,
                       list(top.outputs), dict(top.labels), dict(top.expand),
                       new_edges)
    return Shsm(model.machines[:-1] + [repaired])


# ---------------------------------------------------------------------------
# Flattening
# ---------------------------------------------------------------------------


def _block_offsets(model: Shsm) -> list:
    """Per machine, bottom-up: by vertex position, the offset of the
    vertex's block in the machine's flattening, then its size.  A node's
    block is its one state, a box's a copy of its target's flattening."""
    offsets = []
    for a in model.adjacency:
        offset = [0]
        for t in a.expand:
            offset.append(offset[-1] + (1 if t is None else offsets[t][-1]))
        offsets.append(offset)
    return offsets


def flat_size(model: Shsm) -> int:
    """Number of states of the flattening, computed without building it:
    the end of the top machine's block offsets, as `flatten` numbers them."""
    return _block_offsets(model)[-1][-1]


def flatten(model: Shsm, budget: int = DEFAULT_FLAT_BUDGET) -> KripkeStructure:
    """Expand the hierarchy into the equivalent flat Kripke structure.

    States are the complete well-formed vertex sequences, named by joining
    the sequence with dots; a state inherits the labels of every vertex in
    its sequence.  States are numbered by block offsets and written, with
    their edges, off one explicit stack of box instances: no recursion.
    A model with a reachable flat sink is rejected with the problems
    validation reports; unreachable states are kept, dead ends or not.
    """
    offsets = _block_offsets(model)
    size = offsets[-1][-1]
    if budget is not None and size > budget:
        raise CapacityError(
            f"flattening needs {size} states, over the budget of {budget}")
    if model.sink_problems:
        raise ValidationError(model.sink_problems)
    # Per machine, with ids within its flattening: its initial vertex and
    # outputs, the id a step into each vertex lands on, its nodes and boxes,
    # and the flat edges its own edges make, read off the shared index.
    starts, exits, parts = [], [], []
    for m, a, offset in zip(model.machines, model.adjacency, offsets):
        starts.append(offset[a.entry])
        exits.append([offset[z] for z in a.outs])
        entry = [o if t is None else o + starts[t]
                 for o, t in zip(offset, a.expand)]
        nodes, boxes, local = [], [], []
        for p, (v, t, label) in enumerate(zip(m.vertices, a.expand,
                                              a.labels)):
            if t is None:
                nodes.append((offset[p], v, label))
                local += [(offset[p], entry[w]) for w in a.succ[p]]
            else:
                boxes.append((offset[p], t, v + ".", label))
                local += [(offset[p] + x, entry[w]) for x, ws in
                          zip(exits[t], a.exit_succ[p]) for w in ws]
        parts.append((nodes, boxes, local))
    names, labels, edges = [None] * size, [None] * size, []
    # Box instances: (machine, first id, name prefix, inherited labels).
    stack = [(model.h - 1, 0, "", frozenset())]
    while stack:
        i, base, prefix, inherited = stack.pop()
        nodes, boxes, local = parts[i]
        for o, v, label in nodes:
            names[base + o] = prefix + v
            labels[base + o] = label | inherited
        stack += [(t, base + o, prefix + v, inherited | label)
                  for o, t, v, label in boxes]
        edges += [(base + u, base + w) for u, w in local]
    return KripkeStructure(names, starts[-1], edges, labels)


# ---------------------------------------------------------------------------
# Reduction of scope labels to plain hierarchy
# ---------------------------------------------------------------------------


@dataclass
class ReducedHsm:
    model: Shsm
    index: dict     # (original 1-based machine index, frozenset scope) -> new index


def restrict_ap(model: Shsm, ap) -> Shsm:
    """Drop every proposition outside `ap` from all labels."""
    ap = frozenset(ap)
    machines = []
    for m in model.machines:
        labels = {v: m.label(v) & ap for v in m.vertices}
        machines.append(Machine(m.name, list(m.vertices), m.initial,
                                list(m.outputs), labels, dict(m.expand),
                                list(m.edges)))
    return Shsm(machines)


def _scope_suffix(scope):
    return "@" + "+".join(sorted(scope)) if scope else ""


def reduce_to_hsm(model: Shsm, ap) -> ReducedHsm:
    """Build an HSM whose flattening coincides with the input's.

    Each machine is copied once per inherited scope set actually reached
    from the top level; scope propositions move into the node labels of the
    copy, and box labels are erased.  Vertices of the copy for scope P are
    renamed ``v@p1+p2``.
    """
    ap = frozenset(ap)
    # The (index, scope) pairs reached from the top level, collected on an
    # explicit stack, so hierarchies of any depth reduce.
    demanded = set()
    stack = [(model.h, frozenset())]
    while stack:
        key = stack.pop()
        if key in demanded:
            continue
        demanded.add(key)
        i, scope = key
        m = model.machine(i)
        stack += [(m.expand[v], scope | (m.label(v) & ap))
                  for v in m.vertices if m.expand.get(v, 0)]
    order = sorted(demanded, key=lambda key: (key[0], sorted(key[1])))
    new_index = {key: pos + 1 for pos, key in enumerate(order)}

    machines = []
    for i, scope in order:
        m = model.machine(i)
        sfx = _scope_suffix(scope)
        rename = {v: v + sfx for v in m.vertices}
        labels = {}
        expand = {}
        for v in m.vertices:
            e = m.expand.get(v, 0)
            if e:
                labels[rename[v]] = frozenset()
                expand[rename[v]] = new_index[(e, scope | (m.label(v) & ap))]
            else:
                labels[rename[v]] = m.label(v) | scope
                expand[rename[v]] = 0
        edges = []
        for u, z, v in m.edges:
            if z is None:
                edges.append((rename[u], None, rename[v]))
            else:
                inner_scope = scope | (m.label(u) & ap)
                edges.append((rename[u], z + _scope_suffix(inner_scope), rename[v]))
        machines.append(Machine(
            m.name + sfx, [rename[v] for v in m.vertices], rename[m.initial],
            [rename[z] for z in m.outputs], labels, expand, edges))
    return ReducedHsm(Shsm(machines), dict(new_index))

"""Graded-CTL checking directly on the hierarchy.

Subformulas are processed bottom-up; after each pass every vertex of the
(possibly specialized) machine set uniformly satisfies or falsifies the
subformula, no matter which box sequence leads to it.  Passes that depend
on context create machine copies keyed by per-exit information:

  * grade-0 G/U passes copy per set of exits whose continuation satisfies
    the subformula (at most 2^d copies per machine);
  * graded passes copy per map from exits to capped evidence counts
    (at most (k+2)^d copies per machine).

Box rewiring picks the copy matching the counts of each box's actual exit
successors, so flags can be read off vertices afterwards.
"""

from dataclasses import dataclass, field
from functools import cache

from . import flat_checker
from .errors import CapacityError
from .formula import (And, Atom, ExistsG, ExistsU, ExistsX, ForallU, Not,
                      TrueF, evaluate, normalize, render)
from .formula import atoms as formula_atoms
from .hsm import Machine, Shsm, is_hsm, reduce_to_hsm, restrict_ap

DEFAULT_COPY_BUDGET = 250_000


@dataclass
class Adjacency:
    """Edges of one input machine and the indexes the passes read, built
    once and shared by every copy of the machine.

    The branching-cycle graph numbers its states: a node or box keeps its
    position, and the exit state b.z with z the o-th output of the machine
    b expands is `bz_base[b] + o`, past the last position."""

    succ: list                # plain successors per vertex
    pred: list                # plain predecessors per vertex
    exit_succ: list           # per box: successors per exit ordinal; None for nodes
    exit_pred: list           # exit-state ids with an edge to each vertex
    ordinal: list             # exit ordinal per vertex, None for non-exits
    bz_base: list             # first exit-state id per box, None for nodes
    bz_of: list               # (box pos, exit ordinal) per exit-state id - n


def _adjacency(model: Shsm, m: Machine, pos_of) -> Adjacency:
    """Index the edges of input machine m, keeping one edge per flat
    transition as flattening does: drop repeats, and an exit b.z -> b when
    the boxed machine steps from z to its initial vertex itself."""
    n = len(m.vertices)
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    exit_succ = [None] * n
    bz_base = [None] * n
    bz_of = []
    for pos, v in enumerate(m.vertices):
        e = m.expand.get(v, 0)
        if e:
            k = len(model.machine(e).outputs)
            exit_succ[pos] = [[] for _ in range(k)]
            bz_base[pos] = n + len(bz_of)
            bz_of += [(pos, o) for o in range(k)]
    exit_pred = [()] * n
    for u, z, v in dict.fromkeys(m.edges):
        pu, pv = pos_of[u], pos_of[v]
        if z is None:
            succ[pu].append(pv)
            pred[pv].append(pu)
        else:
            target = model.machine(m.expand[u])
            if v == u and (z, None, target.initial) in target.edges:
                continue
            o = target.outputs.index(z)
            exit_succ[pu][o].append(pv)
            exit_pred[pv] += (bz_base[pu] + o,)
    ordinal = [None] * n
    for o, z in enumerate(m.outputs):
        ordinal[pos_of[z]] = o
    return Adjacency(succ, pred, exit_succ, exit_pred, ordinal, bz_base,
                     bz_of)


@dataclass
class WorkMachine:
    """One machine of the working model; flags are positional over
    vertices."""

    source: int               # position of the input machine this copies
    name: str
    vertices: list
    labels: list              # frozenset per vertex
    expand: list              # None for nodes, working-list index for boxes
    entry: int
    outs: list                # positions of output vertices, declaration order
    adj: Adjacency
    flags: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def n(self):
        return len(self.vertices)

    def shell_copy(self, name, flags, counts):
        """A copy sharing this machine's lists, with flags and counts by key
        added: passes assign new flag, count and expansion lists and never
        change one in place."""
        return WorkMachine(self.source, name, self.vertices, self.labels,
                           self.expand, self.entry, self.outs, self.adj,
                           {**self.flags, **flags}, {**self.counts, **counts})

    def count(self, key, pos):
        """Capped evidence count at vertex pos of the E X / E G / E U form
        flagged by key; grade-0 G and U passes keep only flags, whose cap
        is 1."""
        counts = self.counts.get(key)
        return int(self.flags[key][pos]) if counts is None else counts[pos]


@dataclass
class PassStats:
    op: str
    kind: str
    grade: int
    grade0_factor: int
    context_factor: int
    machines_after: int


@dataclass
class SpecializedHsm:
    """Working model owned by one checking run: current machine list
    (expansion targets always precede their machines) plus per-pass
    statistics."""

    machines: list
    stats: list = field(default_factory=list)
    copy_budget: int = DEFAULT_COPY_BUDGET
    index: dict = field(default_factory=dict)   # subformula -> flag key
    millis: list = field(default_factory=list)  # per flag key, from evaluate
    reduction: dict = None   # ReducedHsm.index of a scope-labelled input

    @property
    def top(self):
        return self.machines[-1]

    def flag_of_entry(self, key):
        return self.top.flags[key][self.top.entry]

    def to_shsm(self):
        """Materialize as a plain model (vertices renamed unique), plus a
        lookup from new vertex name to (machine index, vertex position) for
        reading flags."""
        machines = []
        lookup = {}
        for mi, m in enumerate(self.machines):
            rename = {pos: f"{v}~m{mi}" for pos, v in enumerate(m.vertices)}
            for pos, new in rename.items():
                lookup[new] = (mi, pos)
            labels = {rename[pos]: m.labels[pos] for pos in range(m.n)}
            expand = {rename[pos]: (0 if m.expand[pos] is None else m.expand[pos] + 1)
                      for pos in range(m.n)}
            edges = [(rename[u], None, rename[v])
                     for u, vs in enumerate(m.adj.succ) for v in vs]
            for b, vss in enumerate(m.adj.exit_succ):
                if vss is None:
                    continue
                target = self.machines[m.expand[b]]
                for o, vs in enumerate(vss):
                    z_name = f"{target.vertices[target.outs[o]]}~m{m.expand[b]}"
                    edges.extend((rename[b], z_name, rename[v]) for v in vs)
            machines.append(Machine(
                m.name, [rename[p] for p in range(m.n)], rename[m.entry],
                [rename[p] for p in m.outs], labels, expand, edges))
        return Shsm(machines), lookup


def _from_shsm(model: Shsm, copy_budget) -> SpecializedHsm:
    machines = []
    for source, m in enumerate(model.machines):
        pos_of = {v: i for i, v in enumerate(m.vertices)}
        expand = [None if m.expand.get(v, 0) == 0 else m.expand[v] - 1
                  for v in m.vertices]
        machines.append(WorkMachine(
            source, m.name, list(m.vertices),
            [m.label(v) for v in m.vertices], expand, pos_of[m.initial],
            [pos_of[z] for z in m.outputs], _adjacency(model, m, pos_of)))
    return SpecializedHsm(machines, copy_budget=copy_budget)


def _specialize(w, top_context, label, op, kind, grade, grade0_factor):
    """Copy each machine once per context demanded of it, rewire every box
    to the copy of its own context and record the pass statistics.

    `label(mi, g)` gives machine mi's flags and counts by key under context
    g, and the context of each box (anything for nodes).  Expansion targets
    precede their machines, so walking from the top machine down reaches a
    machine only once all its contexts are known."""
    machines = w.machines
    demanded = [{} for _ in machines]    # per machine: context -> ordinal
    demanded[-1][top_context] = 0
    made = []                            # (machine, ordinal, copy, contexts)
    for mi in range(len(machines) - 1, -1, -1):
        m = machines[mi]
        for g, i in demanded[mi].items():
            if len(made) >= w.copy_budget:
                raise CapacityError(
                    f"machine copies exceed budget {w.copy_budget}")
            flags, counts, contexts = label(mi, g)
            made.append((mi, i, m.shell_copy(
                f"{m.name}~{i}" if i else m.name, flags, counts), contexts))
            for t, c in zip(m.expand, contexts):
                if t is not None:
                    demanded[t].setdefault(c, len(demanded[t]))
    # Copies of one machine sit together, in the machines' order, so
    # expansion targets still precede their machines.
    first = [0]
    for d in demanded:
        first.append(first[-1] + len(d))
    new_machines = [None] * len(made)
    for mi, i, copy, contexts in made:
        copy.expand = [None if t is None else first[t] + demanded[t][c]
                       for t, c in zip(copy.expand, contexts)]
        new_machines[first[mi] + i] = copy
    out = SpecializedHsm(new_machines, w.stats, w.copy_budget)
    out.stats.append(PassStats(op, kind, grade, grade0_factor,
                               max(map(len, demanded)), len(new_machines)))
    return out


# ---------------------------------------------------------------------------
# Graded next pass
# ---------------------------------------------------------------------------


def graded_next_pass(w: SpecializedHsm, grade: int, th1_key, psi_key,
                     op="E X") -> SpecializedHsm:
    """Label vertices with 'at least grade+1 successors satisfy th1'.

    Output vertices also see the exit successors of the enclosing box, so
    machines are copied per capped exit-count map and boxes rewired to the
    copy matching their own successors.
    """
    cap = grade + 1
    machines = w.machines

    @cache
    def successor_hits(mi):
        """Per vertex, how many of its successors inside the machine
        satisfy th1, and per box its capped exit-count context; the same
        for every context of the machine.  A step into a box lands on its
        target's entry."""
        m = machines[mi]
        hit = [m.flags[th1_key][v] if t is None else
               machines[t].flags[th1_key][machines[t].entry]
               for v, t in enumerate(m.expand)]
        return ([sum(hit[v] for v in vs) for vs in m.adj.succ],
                [None if vss is None else
                 tuple(min(cap, sum(hit[v] for v in vs)) for vs in vss)
                 for vss in m.adj.exit_succ])

    def label(mi, g):
        m = machines[mi]
        internal, box_g = successor_hits(mi)
        counts = [0 if t is not None else
                  min(cap, internal[pos] + (0 if o is None else g[o]))
                  for pos, (t, o) in enumerate(zip(m.expand, m.adj.ordinal))]
        return ({psi_key: [c >= cap for c in counts]}, {psi_key: counts},
                box_g)

    top_context = (0,) * len(machines[-1].outs)
    return _specialize(w, top_context, label, op, "X", grade, 1)


# ---------------------------------------------------------------------------
# Grade-0 globally / until pass
# ---------------------------------------------------------------------------


def _grade0_solutions(machines, kind, th1_key, th2_key):
    """Per (machine, continuing exits) satisfaction of the classical E G /
    E U form.  Exit sets are bit masks over exit ordinals.  Returns a
    memoized solver giving (flag per vertex, continuing-exit mask per box).

    E U is a least fixpoint, grown from th2 vertices and th1 exits that
    continue; E G a greatest one, shrunk as vertices lose their last
    satisfying successor.  Each change is pushed to the predecessors, and a
    box solves its target again only when its own exit mask changes."""
    until = kind == "U"

    @cache
    def solve(mi, y):
        m = machines[mi]
        a = m.adj
        n = m.n
        expand = m.expand
        th1 = m.flags[th1_key]
        val = [not until] * n
        mask = [0] * n
        # Satisfying successors of each exit state: E G counts down from
        # all of them, E U up from none.
        live = [0] * len(a.bz_of)
        stack = []
        if until:
            th2 = m.flags[th2_key]
            for pos, o in enumerate(a.ordinal):
                if expand[pos] is None and (th2[pos] or th1[pos] and (
                        o is not None and y >> o & 1)):
                    val[pos] = True
                    stack.append(pos)
        else:
            for i, (b, o) in enumerate(a.bz_of):
                live[i] = len(a.exit_succ[b][o])
                if live[i]:
                    mask[b] |= 1 << o
            # Satisfying successors of each node, a continuing exit counted.
            support = [len(vs) for vs in a.succ]
            for pos, o in enumerate(a.ordinal):
                if o is not None and y >> o & 1:
                    support[pos] += 1
                if expand[pos] is None and not (th1[pos] and support[pos]):
                    val[pos] = False
                    stack.append(pos)
        for pos, t in enumerate(expand):
            if t is not None and \
                    solve(t, mask[pos])[0][machines[t].entry] != val[pos]:
                val[pos] = until
                stack.append(pos)
        while stack:
            v = stack.pop()
            for u in a.pred[v]:
                if until:
                    if not val[u] and th1[u]:
                        val[u] = True
                        stack.append(u)
                else:
                    support[u] -= 1
                    if val[u] and not support[u]:
                        val[u] = False
                        stack.append(u)
            for bz in a.exit_pred[v]:
                i = bz - n
                live[i] += 1 if until else -1
                if live[i] == int(until):
                    b, o = a.bz_of[i]
                    mask[b] ^= 1 << o
                    t = expand[b]
                    if val[b] != until and \
                            solve(t, mask[b])[0][machines[t].entry] == until:
                        val[b] = until
                        stack.append(b)
        return val, mask

    return solve


def grade0_pass(w: SpecializedHsm, kind, th1_key, th2_key, psi_key,
                op="E0") -> SpecializedHsm:
    """Classical (grade-0) hierarchical pass: specialize machines per set of
    continuing exits so the flag becomes context-free."""
    solve = _grade0_solutions(w.machines, kind, th1_key, th2_key)

    def label(mi, y):
        flags, mask = solve(mi, y)
        return {psi_key: flags}, {}, mask

    out = _specialize(w, 0, label, op, f"{kind}0", 0, 1)
    stats = out.stats[-1]
    stats.grade0_factor, stats.context_factor = stats.context_factor, 1
    return out


# ---------------------------------------------------------------------------
# Non-sink-cycle analysis
# ---------------------------------------------------------------------------

@dataclass
class NscInfo:
    """Branching-cycle analysis of one machine inside the satisfying set.

    States are numbered as in `Adjacency`; `edges` links those in the
    satisfying set as evidences may step.  `nsc` holds the states from
    which a branching cycle (unboundedly many distinct evidences) is
    reachable; the other satisfying states are listed in `order`, one per
    strongly connected component and successors' components first, with
    the members of each cycle in `cycles`.  The per-exit summaries let the
    enclosing machine judge cycles that run through a box of this
    machine."""

    edges: list
    nsc: set
    nsc_nodes: set
    order: list
    cycles: dict              # first member -> members of a forced cycle
    path_exists: list
    branch_on_path: list
    interior_exits: list
    internal_outdeg: list


def compute_nsc(w: SpecializedHsm, s_key, until_mode=False, th1_key=None):
    """Bottom-up branching-cycle analysis for every machine.

    s_key flags the grade-0 satisfying set; in until mode edges leaving
    states that fail th1 are suppressed, matching the evidence graph.
    """
    machines = w.machines
    infos = []
    for mi, m in enumerate(machines):
        infos.append(_nsc_one(machines, infos, mi, s_key, until_mode, th1_key))
    return infos


def _within(vs, present):
    """The states of vs in the satisfying set: vs itself when all are."""
    kept = [v for v in vs if present[v]]
    return vs if len(kept) == len(vs) else kept


def _reach(starts, edges):
    seen = [False] * len(edges)
    stack = list(starts)
    while stack:
        i = stack.pop()
        if not seen[i]:
            seen[i] = True
            stack.extend(edges[i])
    return seen


def _nsc_one(machines, infos, mi, s_key, until_mode, th1_key):
    m = machines[mi]
    a = m.adj
    n = m.n
    expand = m.expand
    present = m.flags[s_key] + [False] * len(a.bz_of)
    size = len(present)
    for pos, t in enumerate(expand):
        if t is not None:
            target = machines[t]
            ts = target.flags[s_key]
            present[pos] = ts[target.entry]
            for o, z in enumerate(target.outs):
                present[a.bz_base[pos] + o] = ts[z]

    n_out = len(m.outs)
    # States outside the set have no edges.  Many copies lie wholly outside
    # it, and their analysis is empty.
    edges = [()] * size
    if not any(present):
        return NscInfo(edges, set(), set(), [], {}, [False] * n_out,
                       [False] * n_out, [()] * n_out, [0] * n_out)
    th1 = m.flags[th1_key] if until_mode else None
    boxes = []
    entering = set()    # boxes entering their target where it saturates
    for pos, t in enumerate(expand):
        if not present[pos]:
            continue
        if t is None:
            if th1 is None or th1[pos]:
                edges[pos] = _within(a.succ[pos], present)
        else:
            boxes.append(pos)
            if machines[t].entry in infos[t].nsc_nodes:
                entering.add(pos)
            base = a.bz_base[pos]
            edges[pos] = [base + o
                          for o, reach in enumerate(infos[t].path_exists)
                          if reach and present[base + o]]
    for i, (b, o) in enumerate(a.bz_of, n):
        if present[i]:
            target = machines[expand[b]]
            if th1 is None or target.flags[th1_key][target.outs[o]]:
                edges[i] = _within(a.exit_succ[b][o], present)

    def branching(i):
        """A node with two steps, or an exit state with two steps counting
        those the boxed machine takes from its exit itself."""
        if i < n:
            return expand[i] is None and len(edges[i]) >= 2
        b, o = a.bz_of[i - n]
        return len(edges[i]) + infos[expand[b]].internal_outdeg[o] >= 2

    def branch_through(b, o):
        """A branching state on an entry-to-exit-o path through box b."""
        info_t = infos[expand[b]]
        return info_t.branch_on_path[o] or any(
            info_t.internal_outdeg[o2] + len(edges[a.bz_base[b] + o2]) >= 2
            for o2 in info_t.interior_exits[o])

    def branching_cycle(comp):
        members = set(comp)
        return any(branching(i) or (i < n and expand[i] is not None and any(
            bz in members and branch_through(i, bz - a.bz_base[i])
            for bz in edges[i])) for i in comp)

    # Components come successors first.  One reaches a branching cycle when
    # one of its edges leads to one, when a box in it enters its target at
    # such a state, or when it is a cycle with a branching state.
    nsc = set()
    order = []
    cycles = {}
    for comp in flat_checker.tarjan_scc(size, edges):
        if not present[comp[0]]:
            continue
        cyclic = len(comp) > 1 or comp[0] in edges[comp[0]]
        for i in comp:
            if i in entering or not nsc.isdisjoint(edges[i]):
                break
        else:
            if not (cyclic and branching_cycle(comp)):
                order.append(comp[0])
                if cyclic:
                    cycles[comp[0]] = comp
                continue
        nsc.update(comp)
    nsc_nodes = {i for i in nsc if i < n and expand[i] is None}

    # Summaries for the enclosing machine, all relative to entry paths.
    path_exists = [False] * n_out
    branch_on_path = [False] * n_out
    interior_exits = [()] * n_out
    internal_outdeg = [len(edges[z]) for z in m.outs]
    if present[m.entry] and m.entry not in nsc:
        rev = [[] for _ in range(size)]
        for i, succ in enumerate(edges):
            for j in succ:
                rev[j].append(i)
        fwd = _reach([m.entry], edges)
        branchy = [i for i in range(size) if fwd[i] and branching(i)]
        for o, z in enumerate(m.outs):
            if not fwd[z]:
                continue
            path_exists[o] = True
            bwd_plus = _reach(rev[z], rev)
            branch_on_path[o] = any(bwd_plus[i] for i in branchy) or any(
                fwd[b] and bwd_plus[bz] and branch_through(b, bz - a.bz_base[b])
                for b in boxes for bz in edges[b])
            interior_exits[o] = {o2 for o2, z2 in enumerate(m.outs)
                                 if fwd[z2] and bwd_plus[z2]}

    return NscInfo(edges, nsc, nsc_nodes, order, cycles, path_exists,
                   branch_on_path, interior_exits, internal_outdeg)


# ---------------------------------------------------------------------------
# Graded globally / until pass
# ---------------------------------------------------------------------------


def graded_gu_pass(w: SpecializedHsm, grade: int, mode: str, th1_key,
                   th2_key, psi_key, op="E GU") -> SpecializedHsm:
    """Label vertices with 'at least grade+1 distinct evidences' for
    G th1 (mode 'G') or th1 U th2 (mode 'U').

    First the grade-0 form is specialized so membership in the satisfying
    set is per-vertex; vertices reaching a branching cycle inside that set
    saturate; the remaining acyclic part is labeled per exit-count context
    through one dag per demanded (machine, context) pair, which also fixes
    the box rewiring.
    """
    psi1_key = ("g0", psi_key)
    w = grade0_pass(w, mode, th1_key, th2_key, psi1_key, op=op)
    grade0_factor = w.stats.pop().grade0_factor

    cap = grade + 1
    machines = w.machines
    until = mode == "U"
    infos = compute_nsc(w, psi1_key, until_mode=until, th1_key=th1_key)

    @cache
    def dag(mi, g):
        """Capped evidence counts of machine mi's states under the exit
        context g, its entry's count and each box's exit context."""
        m = machines[mi]
        a = m.adj
        info = infos[mi]
        n = m.n
        expand = m.expand
        edges = info.edges
        labels = [0] * len(edges)

        def bz_value(b, o):
            bz = a.bz_base[b] + o
            return cap if bz in info.nsc else labels[bz]

        # Saturated states (cap) are never successors of the others, which
        # are labelled here after their successors.
        for i in info.order:
            cycle = info.cycles.get(i)
            if cycle is not None:
                # A surviving cycle is forced; context continuations on one
                # of its exits let it branch after any number of turns.
                rich = any(j < n and expand[j] is None and
                           a.ordinal[j] is not None and g[a.ordinal[j]] >= 1
                           for j in cycle)
                for j in cycle:
                    labels[j] = cap if rich else 1
                continue
            ext = 0
            for j in edges[i]:
                ext += labels[j]
            if i >= n:
                labels[i] = min(cap, ext)
            elif expand[i] is None:
                o = a.ordinal[i]
                ext = min(cap, ext + (0 if o is None else g[o]))
                labels[i] = max(int(m.flags[th2_key][i]), ext) if until else ext
            else:
                # Only exits reachable from the target's entry influence its
                # entry label; masking the rest keeps the label dependencies
                # acyclic (an unreachable exit pair may feed back into this
                # machine without forming any flat cycle).
                reach = infos[expand[i]].path_exists
                labels[i] = dag(expand[i], tuple(
                    bz_value(i, o) if r else 0
                    for o, r in enumerate(reach)))[1]
        # Box rewiring contexts carry every exit's count, including exits
        # the target cannot reach from its entry (their flat states still
        # exist and their flags must come out right).
        box_g = [None if t is None else
                 tuple(bz_value(pos, o) for o in range(len(machines[t].outs)))
                 for pos, t in enumerate(expand)]
        entry_label = cap if m.entry in info.nsc else labels[m.entry]
        return labels, entry_label, box_g

    def label(mi, g):
        labels, _entry, box_g = dag(mi, g)
        nsc_nodes = infos[mi].nsc_nodes
        # Labels of states outside the satisfying set stay 0.
        counts = [0 if t is not None else cap if pos in nsc_nodes
                  else labels[pos]
                  for pos, t in enumerate(machines[mi].expand)]
        return ({psi_key: [c >= cap for c in counts]}, {psi_key: counts},
                box_g)

    top_context = (0,) * len(machines[-1].outs)
    return _specialize(w, top_context, label, op, mode, grade, grade0_factor)


# ---------------------------------------------------------------------------
# Full hierarchical check
# ---------------------------------------------------------------------------


def _bool_pass(w, compute, key):
    for m in w.machines:
        m.flags[key] = [compute(m, pos) for pos in range(m.n)]


def check_hier(model: Shsm, f, copy_budget: int = DEFAULT_COPY_BUDGET):
    """Check f on the hierarchical model without flattening it.

    Returns (verdict at the initial state, the specialized working model).
    Scope-labeled models are first reduced to plain hierarchy over the
    formula's atoms.
    """
    root = normalize(f)
    reduction = None
    if not is_hsm(model):
        ap = formula_atoms(root)
        reduced = reduce_to_hsm(restrict_ap(model, ap), ap)
        model, reduction = reduced.model, reduced.index
    w = _from_shsm(model, copy_budget)

    def boolean(flag):
        """A hook labelling every vertex with `flag(g, *operands)(m, pos)`."""
        def op(g, i, *operands):
            _bool_pass(w, flag(g, *operands), i)
            w.stats.append(PassStats(render(g), "bool", 0, 1, 1,
                                     len(w.machines)))
        return op

    def next_op(g, i, child):
        nonlocal w
        w = graded_next_pass(w, g.grade, child, i, op=render(g))

    def globally_until(kind):
        def op(g, i, th1, th2=None):
            nonlocal w
            if g.grade == 0:
                w = grade0_pass(w, kind, th1, th2, i, op=render(g))
            else:
                w = graded_gu_pass(w, g.grade, kind, th1, th2, i,
                                   op=render(g))
        return op

    index, millis = evaluate(root, {
        Atom: boolean(lambda g: lambda m, p: g.name in m.labels[p]),
        TrueF: boolean(lambda g: lambda m, p: True),
        Not: boolean(lambda g, c: lambda m, p: not m.flags[c][p]),
        And: boolean(lambda g, l, r: lambda m, p:
                     m.flags[l][p] and m.flags[r][p]),
        ExistsX: next_op,
        ExistsG: globally_until("G"),
        ExistsU: globally_until("U"),
        # A<=k U holds where its two violation families' capped counts
        # sum to at most k.
        ForallU: boolean(lambda g, fg, fu: lambda m, p:
                         m.count(fg, p) + m.count(fu, p) <= g.grade),
    })
    w.index, w.millis, w.reduction = index, millis, reduction
    return w.flag_of_entry(index[root]), w


# ---------------------------------------------------------------------------
# Flat states of the checked hierarchy, for trace extraction
# ---------------------------------------------------------------------------


class HierView:
    """The flattening of a checked model, built only where a walk goes.

    A flat state is the stack of (copy index, vertex position) frames from
    the top machine down to a node.  Box rewiring has already picked each
    frame's copy, so the flags and capped counts of the bottom node are
    those of the flat state.  Names are the input model's dotted vertex
    sequences, as `flatten` writes them, and successors come in the
    flattening's index order, which is the order of vertex positions.
    """

    def __init__(self, model: Shsm, w: SpecializedHsm):
        self.machines = w.machines
        self.keys = w.index
        # Scope reduction keeps each machine's vertex order, so a position
        # names the same vertex in the input machine it was copied from.
        origin = {j - 1: i - 1 for (i, _scope), j in (w.reduction or {}).items()}
        self.vertex_names = [
            model.machines[origin.get(m.source, m.source)].vertices
            for m in w.machines]
        self._succ = {}
        self._names = {}
        self._states = {}
        top = len(self.machines) - 1
        self.initial = self._enter((), top, self.machines[top].entry)

    def _enter(self, frames, mi, pos):
        """Frames of the state a transition into vertex pos of copy mi
        lands on: the vertex itself, or the entries of the boxes it opens."""
        while True:
            frames += ((mi, pos),)
            mi = self.machines[mi].expand[pos]
            if mi is None:
                return frames
            pos = self.machines[mi].entry

    def succ(self, s):
        out = self._succ.get(s)
        if out is None:
            mi, pos = s[-1]
            a = self.machines[mi].adj
            found = {self._enter(s[:-1], mi, v) for v in a.succ[pos]}
            o = a.ordinal[pos]
            if len(s) > 1 and o is not None:
                parent, box = s[-2]
                found.update(self._enter(s[:-2], parent, v) for v in
                             self.machines[parent].adj.exit_succ[box][o])
            out = sorted(found, key=lambda t: [p for _, p in t])
            self._succ[s] = out
        return out

    def name(self, s):
        text = self._names.get(s)
        if text is None:
            text = ".".join(self.vertex_names[mi][pos] for mi, pos in s)
            self._names[s] = text
            self._states[text] = s
        return text

    def locate(self, name):
        """The state behind a name this view has produced."""
        return self._states[name]

    def _key(self, g):
        key = self.keys.get(g)
        return self.keys[normalize(g)] if key is None else key

    def holds(self, g, s):
        mi, pos = s[-1]
        return self.machines[mi].flags[self._key(g)][pos]

    def count(self, g, s):
        """Capped evidence count of an E X / E G / E U subformula."""
        mi, pos = s[-1]
        return self.machines[mi].count(self._key(g), pos)

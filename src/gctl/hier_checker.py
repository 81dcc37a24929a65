"""Graded-CTL checking directly on the hierarchy.

One working model serves a whole run.  Subformulas are processed
bottom-up, each pass labelling the working model in place; after it every
vertex of every machine copy uniformly satisfies or falsifies the
subformula, no matter which box sequence leads to it.  A pass whose value
depends on context labels a machine in place under the first context
demanded of it and copies it for each further one, keyed by per-exit
information:

  * grade-0 G/U passes copy per set of th1 exits whose continuation
    satisfies the subformula (at most 2^d copies per machine);
  * graded passes copy per map from exits to capped evidence counts
    (at most (k+2)^d copies per machine);
  * an atom copies per inherited bit, whether an enclosing box carries it
    (at most 2 copies per machine, none when no box carries it).

Box rewiring picks the copy matching the counts of each box's actual exit
successors, so flags can be read off vertices afterwards.  Copies of one
input machine that a pass cannot tell apart, by the rows it reads and the
copies their boxes expand, fall in one class (`_classes`).  The grade-0
pass and the branching-cycle analysis run once per class, the graded dag
once per class and exit-count context.
"""

from dataclasses import dataclass, field
from functools import cache, partial

from . import flat_checker
from .errors import CapacityError
from .formula import (BOOLEAN, LOWER_GRADE, Atom, ExistsG, ExistsU, ExistsX,
                      boolean_row, count_row, evaluate, graded_rows,
                      position_of, render)
# check_hier never calls reduce_to_hsm; perfbench/tracing.py hooks the name.
from .hsm import Adjacency, Shsm, _descendants, _reach, reduce_to_hsm

# Machine copies one pass may make; more raise CapacityError.
COPY_BUDGET = 250_000


@dataclass
class WorkMachine:
    """One machine of the working model: a copy of an input machine, whose
    vertex names, labels, entry and outputs it reads off that machine's
    index `adj`.  It holds only what passes write; flags are positional
    over vertices."""

    source: int               # position of the input machine this copies
    adj: Adjacency
    expand: list              # None for nodes, working-list index for boxes
    flags: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)   # E X / E G / E U forms only

    def shell_copy(self):
        """A copy sharing this machine's lists, with its own flag and count
        dicts: passes assign new flag, count and expansion lists and never
        change one in place."""
        return WorkMachine(self.source, self.adj, self.expand,
                           dict(self.flags), dict(self.counts))


@dataclass
class PassStats:
    form: object              # the labelled subformula
    kind: str
    grade: int
    grade0_factor: int
    context_factor: int
    machines_after: int

    @property
    def op(self):
        """The labelled subformula as text, rendered when read."""
        return render(self.form)


@dataclass
class SpecializedHsm:
    """The one working model of a checking run, which every pass labels and
    specializes in place: the current machine list (expansion targets always
    precede their machines) plus per-pass statistics.

    Once checked it is also the state view trace extraction walks (see
    gctl.evidence), `initial`, `succ`, `name`, `holds` and `count` over
    the flattening, built only where a walk goes.  A flat state is the
    stack of (copy index, vertex position) frames from the top machine
    down to a node.  Box rewiring has already picked each frame's copy, so
    the flags and capped counts of the bottom node are those of the flat
    state.  Names are the input model's dotted vertex sequences, as
    `flatten` writes them, read off the frames only when a trace is
    emitted.  Successors come in the flattening's index order, the order
    of vertex positions: where two frame stacks first differ, their frames
    hold the same copy index, so the stacks sort in that order."""

    machines: list
    stats: list = field(default_factory=list)
    index: dict = field(default_factory=dict)   # subformula -> flag key
    millis: list = field(default_factory=list)  # per flag key, from evaluate

    @property
    def top(self):
        return self.machines[-1]

    @property
    def initial(self):
        return self._enter((), len(self.machines) - 1, self.top.adj.entry)

    def _enter(self, frames, mi, pos):
        """Frames of the state a transition into vertex pos of copy mi
        lands on: the vertex itself, or the entries of the boxes it opens."""
        while True:
            frames += ((mi, pos),)
            mi = self.machines[mi].expand[pos]
            if mi is None:
                return frames
            pos = self.machines[mi].adj.entry

    def succ(self, s):
        mi, pos = s[-1]
        a = self.machines[mi].adj
        found = {self._enter(s[:-1], mi, v) for v in a.succ[pos]}
        o = a.ordinal[pos]
        if len(s) > 1 and o is not None:
            parent, box = s[-2]
            found.update(self._enter(s[:-2], parent, v) for v in
                         self.machines[parent].adj.exit_succ[box][o])
        return sorted(found)

    def name(self, s):
        return ".".join(self.machines[mi].adj.names[pos] for mi, pos in s)

    def holds(self, g, s):
        mi, pos = s[-1]
        return self.machines[mi].flags[position_of(self.index, g)][pos]

    def count(self, g, s):
        """Capped evidence count of an E X / E G / E U subformula."""
        mi, pos = s[-1]
        return int(count_row(self.machines[mi].counts, self.index, g)[pos])


def _from_shsm(model: Shsm) -> SpecializedHsm:
    """The working model of the input machines that the top machine's boxes
    reach, in input order, each copy reading its input machine's index.
    Passes demand contexts only of these, so every pass sees the same
    machine set."""
    adjs = model.adjacency
    # input position -> working position
    kept = {j: i for i, j in enumerate(_descendants(adjs, model.h - 1))}
    return SpecializedHsm([
        WorkMachine(j, adjs[j], [None if t is None else kept[t]
                                 for t in adjs[j].expand]) for j in kept])


def _specialize(w, key, top_context, label):
    """Label `key` on each machine under every context demanded of it and
    rewire every box to the copy of its own context.  Returns the pass's
    context factor, the most contexts one machine had, and the number of
    machines after it.

    `label(mi, g)` gives machine mi's flag row and capped count row (None
    for a form without counts) under context g, and the context of each box
    (anything for nodes).  A machine is labelled in place under its first
    context and copied for each further one.  Expansion targets precede
    their machines, so walking from the top machine down reaches a machine
    only once all its contexts are known."""
    machines = w.machines
    demanded = [{} for _ in machines]    # per machine: context -> ordinal
    demanded[-1][top_context] = 0
    made = []                            # (machine, ordinal, copy, contexts)
    for mi in range(len(machines) - 1, -1, -1):
        m = machines[mi]
        for g, i in demanded[mi].items():
            if len(made) >= COPY_BUDGET:
                raise CapacityError(
                    f"machine copies exceed budget {COPY_BUDGET}")
            flag, count, contexts = label(mi, g)
            copy = m.shell_copy() if i else m
            copy.flags[key] = flag
            if count is not None:
                copy.counts[key] = count
            made.append((mi, i, copy, contexts))
            for t, c in zip(m.expand, contexts):
                if t is not None:
                    demanded[t].setdefault(c, len(demanded[t]))
    # Copies of one machine sit together, in the machines' order, so
    # expansion targets still precede their machines.
    first = [0]
    for d in demanded:
        first.append(first[-1] + len(d))
    w.machines = [None] * len(made)
    for mi, i, copy, contexts in made:
        copy.expand = [None if t is None else first[t] + demanded[t][c]
                       for t, c in zip(copy.expand, contexts)]
        w.machines[first[mi] + i] = copy
    return max(map(len, demanded)), len(made)


def _classes(machines, keys) -> list:
    """Per machine, a class number: machines share one when they copy the
    same input machine and have equal rows under `keys` and box targets of
    equal classes, so every analysis of a pass that reads only those rows
    gives them equal results.  Expansion targets precede their machines, so
    one sweep numbers them all."""
    # Row contents -> number, kept apart from the class numbers: a row
    # tuple could equal a class key, as True == 1.
    rows = {}
    numbers = {}
    classes = []
    for m in machines:
        key = (m.source,
               *[rows.setdefault(tuple(m.flags[k]), len(rows)) for k in keys],
               *[classes[t] for t in m.expand if t is not None])
        classes.append(numbers.setdefault(key, len(numbers)))
    return classes


def _per_class(machines, classes, run):
    """run(mi, done) once per class of `classes`, in machine-list order, so
    box targets are done first; `done` holds the result of every machine
    before mi.  Returns each machine's result."""
    done = []
    first = {}
    for mi in range(len(machines)):
        result = first.get(classes[mi])
        if result is None:
            result = first[classes[mi]] = run(mi, done)
        done.append(result)
    return done


def _stacked(solver, classes):
    """Memoize solver(mi, context) by (class of machine mi, context).  The
    solver, the graded `dag`, is a generator that yields each (machine,
    context) pair whose result it needs and is sent that result back.
    Solvers only ask for lower machines, so the pairs form no cycle; they
    are solved on an explicit stack, and hierarchies deeper than the
    interpreter's recursion limit solve too."""
    memo = {}

    def solve(mi, context):
        top = (classes[mi], context)
        result = memo.get(top)
        if result is not None:
            return result
        stack = [(top, solver(mi, context))]
        sent = None
        while stack:
            key, run = stack[-1]
            try:
                need = run.send(sent)
            except StopIteration as done:
                memo[key] = sent = done.value
                stack.pop()
                continue
            t, context = need
            key = (classes[t], context)
            sent = memo.get(key)
            if sent is None:
                stack.append((key, solver(t, context)))
        return sent

    return solve


# ---------------------------------------------------------------------------
# Scope pass
# ---------------------------------------------------------------------------


def scope_pass(w: SpecializedHsm, g, i):
    """Label the atom g at position i: it holds at a node labelled with it
    and at every node nested in a box labelled with it.

    The context is one bit, whether an enclosing box carries the atom; a
    box hands its target the same value as a node's flag would take.  When
    no box carries the atom, every machine has the one context False and
    is labelled without a copy."""
    machines = w.machines

    def label(mi, inherited):
        here = [inherited or g.name in lab for lab in machines[mi].adj.labels]
        return here, None, here

    w.stats.append(PassStats(g, "scope", 0, 1,
                             *_specialize(w, i, False, label)))


# ---------------------------------------------------------------------------
# Graded next pass
# ---------------------------------------------------------------------------


def graded_next_pass(w: SpecializedHsm, g, i, th1):
    """Label g = E>k X th1 at position i: vertices with at least k+1
    successors satisfying th1 (at position th1).

    Output vertices also see the exit successors of the enclosing box, so
    machines are copied per capped exit-count map and boxes rewired to the
    copy matching their own successors.
    """
    cap = g.grade + 1
    machines = w.machines

    @cache
    def successor_hits(mi):
        """Per vertex, how many of its successors inside the machine
        satisfy th1, and per box its capped exit-count context; the same
        for every context of the machine.  A step into a box lands on its
        target's entry."""
        m = machines[mi]
        hit = [m.flags[th1][v] if t is None else
               machines[t].flags[th1][machines[t].adj.entry]
               for v, t in enumerate(m.expand)]
        return ([sum(hit[v] for v in vs) for vs in m.adj.succ],
                [None if vss is None else
                 tuple(min(cap, sum(hit[v] for v in vs)) for vs in vss)
                 for vss in m.adj.exit_succ])

    def label(mi, y):
        m = machines[mi]
        internal, box_y = successor_hits(mi)
        counts = [0 if t is not None else
                  min(cap, internal[pos] + (0 if o is None else y[o]))
                  for pos, (t, o) in enumerate(zip(m.expand, m.adj.ordinal))]
        return [c >= cap for c in counts], counts, box_y

    top_context = (0,) * len(machines[-1].adj.outs)
    w.stats.append(PassStats(g, "X", g.grade, 1,
                             *_specialize(w, i, top_context, label)))


# ---------------------------------------------------------------------------
# Grade-0 globally / until pass
# ---------------------------------------------------------------------------


def _grade0_summary(machines, summaries, mi, until, th1_key, th2_key):
    """Exit summary of machine mi for the classical E G / E U form, given
    the `summaries` of the machines before it, its box targets among them:
    per vertex a bit mask with bit o set when a th1 path reaches exit o,
    and the bit `inside` past the exits set when the form holds within the
    machine alone.  Under the continuing exits y a vertex satisfies the
    form exactly when mask & (y | inside) != 0.

    A mask is a vertex's own bits joined with the masks of the vertices it
    joins: a th1 node owns its exit bit and joins its successors (an E U
    th2 node owns inside); a box owns inside when its target's entry mask
    has it and joins the successors of each exit that mask has.  E U is the
    least fixpoint, grown from 0; E G the greatest, shrunk from all ones."""
    m = machines[mi]
    a = m.adj
    n = len(a.names)
    inside = 1 << len(a.outs)
    th1 = m.flags[th1_key]
    th2 = m.flags[th2_key] if until else None
    own = [0] * n
    joins = [()] * n
    for v, t in enumerate(m.expand):
        if t is None:
            if until and th2[v]:
                own[v] = inside
            if th1[v]:
                o = a.ordinal[v]
                if o is not None:
                    own[v] |= 1 << o
                joins[v] = a.succ[v]
        else:
            e = summaries[t][machines[t].adj.entry]
            vss = a.exit_succ[v]
            own[v] = inside if e >> len(vss) & 1 else 0
            joins[v] = [s for o, vs in enumerate(vss) if e >> o & 1
                        for s in vs]
    joined_by = [[] for _ in range(n)]
    for v, vs in enumerate(joins):
        for s in vs:
            joined_by[s].append(v)
    mask = [0 if until else 2 * inside - 1] * n
    stack = list(range(n))
    while stack:
        v = stack.pop()
        x = own[v]
        for s in joins[v]:
            x |= mask[s]
        if x != mask[v]:
            mask[v] = x
            stack += joined_by[v]
    return mask


def grade0_pass(w: SpecializedHsm, g, i, th1, th2):
    """Label g = E G th1 or E th1 U th2 at position i as at grade 0:
    summarize each class of machines once, then specialize machines per set
    of continuing th1 exits so the flag becomes context-free.  The flag row
    is also the count row, capped at 1.  Returns the context factor and
    machines after, which the caller records: `globally_until` for a
    grade-0 form, graded_gu_pass as the first stage of a graded one."""
    machines = w.machines
    until = isinstance(g, ExistsU)
    summaries = _per_class(
        machines, _classes(machines, (th1, th2) if until else (th1,)),
        lambda mi, done: _grade0_summary(machines, done, mi, until, th1, th2))
    # Per machine, the bits of its th1 exits.  Only these own their bit in
    # a summary (the E G start sets the others only along with `inside`),
    # so a machine's flags read no other bit of its context.
    th1_exits = [sum(1 << o for o, z in enumerate(m.adj.outs)
                     if m.flags[th1][z]) for m in machines]

    def label(mi, y):
        m = machines[mi]
        a = m.adj
        holds = y | 1 << len(a.outs)
        flags = [x & holds != 0 for x in summaries[mi]]
        # A box continues from each th1 exit of its target with a
        # satisfying successor.
        contexts = [None if t is None else th1_exits[t] & sum(
            1 << o for o, vs in enumerate(a.exit_succ[b])
            if any(flags[v] for v in vs)) for b, t in enumerate(m.expand)]
        return flags, flags, contexts

    return _specialize(w, i, 0, label)


# ---------------------------------------------------------------------------
# Non-sink-cycle analysis
# ---------------------------------------------------------------------------

@dataclass
class NscInfo:
    """Branching-cycle analysis of one machine inside the satisfying set.

    States are numbered as in `gctl.hsm.Adjacency`; `edges` links those in
    the satisfying set as evidences may step.  `nsc` holds the states from
    which a branching cycle (unboundedly many distinct evidences) is
    reachable: they saturate, and no other satisfying state has an edge
    into them.  The other satisfying states are listed in `order`, one per
    strongly connected component and successors' components first, with
    the members of each cycle in `cycles`.  The per-exit summaries let the
    enclosing machine judge cycles that run through a box of this
    machine."""

    edges: list
    nsc: set
    order: list
    cycles: dict              # first member -> members of a forced cycle
    path_exists: list
    branch_on_path: list
    interior_exits: list
    internal_outdeg: list


def compute_nsc(w: SpecializedHsm, s_key, th1_key, classes):
    """Bottom-up branching-cycle analysis for every machine, run once per
    class of `classes`, numbers from `_classes` under keys that include
    s_key and th1_key.

    s_key flags the grade-0 satisfying set.  th1_key is None for E G; for
    E U, edges leaving states that fail th1 are suppressed, matching the
    evidence graph.
    """
    machines = w.machines
    return _per_class(machines, classes, lambda mi, infos: _nsc_one(
        machines, infos, mi, s_key, th1_key))


def _within(vs, present):
    """The states of vs in the satisfying set: vs itself when all are."""
    kept = [v for v in vs if present[v]]
    return vs if len(kept) == len(vs) else kept


def _nsc_one(machines, infos, mi, s_key, th1_key):
    m = machines[mi]
    a = m.adj
    n = len(a.names)
    expand = m.expand
    present = m.flags[s_key] + [False] * len(a.bz_of)
    size = len(present)
    for pos, t in enumerate(expand):
        if t is not None:
            ts, ta = machines[t].flags[s_key], machines[t].adj
            present[pos] = ts[ta.entry]
            for o, z in enumerate(ta.outs):
                present[a.bz_base[pos] + o] = ts[z]

    n_out = len(a.outs)
    # States outside the set have no edges.  Many copies lie wholly outside
    # it, and their analysis is empty.
    edges = [()] * size
    if not any(present):
        return NscInfo(edges, set(), [], {}, [False] * n_out,
                       [False] * n_out, [()] * n_out, [0] * n_out)
    th1 = None if th1_key is None else m.flags[th1_key]
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
            if machines[t].adj.entry in infos[t].nsc:
                entering.add(pos)
            base = a.bz_base[pos]
            edges[pos] = [base + o
                          for o, reach in enumerate(infos[t].path_exists)
                          if reach and present[base + o]]
    for i, (b, o) in enumerate(a.bz_of, n):
        if present[i]:
            target = machines[expand[b]]
            if th1 is None or target.flags[th1_key][target.adj.outs[o]]:
                edges[i] = _within(a.exit_succ[b][o], present)

    def branching(i):
        """A node with two steps, or an exit state with two steps counting
        those the boxed machine takes from its exit itself."""
        if i < n:
            return expand[i] is None and len(edges[i]) >= 2
        b, o = a.bz_of[i - n]
        return len(edges[i]) + infos[expand[b]].internal_outdeg[o] >= 2

    def branch_through(b, o):
        """A branching state on an entry-to-exit-o path through box b, in
        its target or at one of b's exit states."""
        info_t = infos[expand[b]]
        return info_t.branch_on_path[o] or any(
            branching(a.bz_base[b] + o2) for o2 in info_t.interior_exits[o])

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

    # Summaries for the enclosing machine, all relative to entry paths.
    path_exists = [False] * n_out
    branch_on_path = [False] * n_out
    interior_exits = [()] * n_out
    internal_outdeg = [len(edges[z]) for z in a.outs]
    if present[a.entry] and a.entry not in nsc:
        rev = [[] for _ in range(size)]
        for i, succ in enumerate(edges):
            for j in succ:
                rev[j].append(i)
        fwd = _reach([a.entry], edges)
        branchy = [i for i in range(size) if fwd[i] and branching(i)]
        for o, z in enumerate(a.outs):
            if not fwd[z]:
                continue
            path_exists[o] = True
            bwd_plus = _reach(rev[z], rev)
            branch_on_path[o] = any(bwd_plus[i] for i in branchy) or any(
                fwd[b] and bwd_plus[bz] and branch_through(b, bz - a.bz_base[b])
                for b in boxes for bz in edges[b])
            interior_exits[o] = {o2 for o2, z2 in enumerate(a.outs)
                                 if fwd[z2] and bwd_plus[z2]}

    return NscInfo(edges, nsc, order, cycles, path_exists,
                   branch_on_path, interior_exits, internal_outdeg)


# ---------------------------------------------------------------------------
# Graded globally / until pass
# ---------------------------------------------------------------------------


def graded_gu_pass(w: SpecializedHsm, g, i, th1, th2):
    """Label g = E>k G th1 or E>k th1 U th2 at position i: vertices with at
    least k+1 distinct evidences.

    First the grade-0 form is labelled in g's own row and specialized, so
    membership in the satisfying set is per-vertex; vertices reaching a
    branching cycle inside that set saturate; the remaining acyclic part is
    labeled per exit-count context through one dag row per demanded
    (machine class, context) pair, whose exit-state counts also fix the box
    rewiring.  The dag's rows then overwrite the grade-0 row in every copy.
    """
    grade0_factor, _ = grade0_pass(w, g, i, th1, th2)

    cap = g.grade + 1
    machines = w.machines
    until = isinstance(g, ExistsU)
    # The branching-cycle analysis and the dags read these rows only.
    classes = _classes(machines, (i, th1, th2) if until else (i,))
    infos = compute_nsc(w, i, th1 if until else None, classes)

    def dag(mi, y):
        """Capped evidence counts of machine mi's states under the exit
        context y, by state number."""
        m = machines[mi]
        a = m.adj
        info = infos[mi]
        n = len(a.names)
        expand = m.expand
        edges = info.edges
        # Saturated states count the cap.  They are never successors of the
        # others, which are labelled here after their successors; states
        # outside the satisfying set stay 0.
        labels = [0] * len(edges)
        for i in info.nsc:
            labels[i] = cap
        for i in info.order:
            cycle = info.cycles.get(i)
            if cycle is not None:
                # A surviving cycle is forced; context continuations on one
                # of its exits let it branch after any number of turns.
                rich = any(j < n and expand[j] is None and
                           a.ordinal[j] is not None and y[a.ordinal[j]] >= 1
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
                ext = min(cap, ext + (0 if o is None else y[o]))
                labels[i] = max(int(m.flags[th2][i]), ext) if until else ext
            else:
                # Only exits reachable from the target's entry influence its
                # entry label; masking the rest keeps the label dependencies
                # acyclic (an unreachable exit pair may feed back into this
                # machine without forming any flat cycle).
                t = expand[i]
                base = a.bz_base[i]
                row = yield t, tuple(labels[base + o] if r else 0 for o, r in
                                     enumerate(infos[t].path_exists))
                labels[i] = row[machines[t].adj.entry]
        return labels

    dag = _stacked(dag, classes)

    def label(mi, y):
        m = machines[mi]
        labels = dag(mi, y)
        counts = [0 if t is not None else labels[pos]
                  for pos, t in enumerate(m.expand)]
        # Box rewiring contexts carry every exit's count, including exits
        # the target cannot reach from its entry (their flat states still
        # exist and their flags must come out right).
        box_y = [None if t is None else
                 tuple(labels[b:b + len(machines[t].adj.outs)])
                 for b, t in zip(m.adj.bz_base, m.expand)]
        return [c >= cap for c in counts], counts, box_y

    top_context = (0,) * len(machines[-1].adj.outs)
    w.stats.append(PassStats(g, g.syntax[1], g.grade, grade0_factor,
                             *_specialize(w, i, top_context, label)))


# ---------------------------------------------------------------------------
# Full hierarchical check
# ---------------------------------------------------------------------------


def boolean_pass(w: SpecializedHsm, g, i, *operands):
    """Label a boolean form or A<=k U on each machine."""
    for m in w.machines:
        m.flags[i] = boolean_row(g, operands, m.adj.labels, m.flags, m.counts)
    w.stats.append(PassStats(g, "bool", 0, 1, 1, len(w.machines)))


def lower_grade_pass(w: SpecializedHsm, g, i, j):
    """Read g's rows off the counts of the same form at a higher grade."""
    for m in w.machines:
        m.flags[i], m.counts[i] = graded_rows(g, m.counts[j])
    w.stats.append(PassStats(g, "lower", g.grade, 1, 1, len(w.machines)))


def globally_until(w: SpecializedHsm, g, i, th1, th2=None):
    """Label an E G or E U form, by the classical pass alone at grade 0."""
    if g.grade:
        graded_gu_pass(w, g, i, th1, th2)
    else:
        factor, after = grade0_pass(w, g, i, th1, th2)
        w.stats.append(PassStats(g, f"{g.syntax[1]}0", 0, factor, 1, after))


def check_hier(model: Shsm, f, *more):
    """Check f, and label the formulas of `more` in the same run, on the
    hierarchical model without flattening it.

    Returns (f's verdict at the initial state, the working model, which
    every pass has labelled in place and which is the run's state view).
    Every atom is labelled by a scope pass, the other boolean forms and
    A<=k U by `boolean_row` on each machine, and a path form of a grade
    below another of its operator and operands by `graded_rows`.  The
    hooks are read when the run starts, so wrapped module attributes apply.
    """
    w = _from_shsm(model)
    hooks = {**dict.fromkeys(BOOLEAN, boolean_pass), Atom: scope_pass,
             LOWER_GRADE: lower_grade_pass, ExistsX: graded_next_pass,
             ExistsG: globally_until, ExistsU: globally_until}
    w.index, w.millis = evaluate((f, *more), {
        kind: partial(hook, w) for kind, hook in hooks.items()})
    return w.holds(f, w.initial), w

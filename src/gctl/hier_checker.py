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

import time
from dataclasses import dataclass, field

from .errors import CapacityError
from .flat_checker import tarjan_scc
from .formula import (And, Atom, ExistsG, ExistsU, ExistsX, ForallU, Not,
                      TrueF, is_normalized, normalize, render,
                      subformulas_bottom_up)
from .formula import atoms as formula_atoms
from .hsm import Machine, Shsm, is_hsm, reduce_to_hsm, restrict_ap

DEFAULT_COPY_BUDGET = 250_000


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
    plain: list               # (src pos, dst pos)
    boxed: list               # (box pos, target exit ordinal, dst pos)
    flags: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def n(self):
        return len(self.vertices)

    def out_ordinals(self):
        return {pos: o for o, pos in enumerate(self.outs)}

    def shell_copy(self, name):
        return WorkMachine(self.source, name, self.vertices, self.labels,
                           list(self.expand), self.entry, self.outs,
                           self.plain, self.boxed,
                           {k: list(v) for k, v in self.flags.items()},
                           {k: list(v) for k, v in self.counts.items()})


@dataclass
class PassStats:
    op: str
    kind: str
    grade: int
    grade0_factor: int
    context_factor: int
    machines_after: int
    millis: float


@dataclass
class SpecializedHsm:
    """Working model owned by one checking run: current machine list
    (expansion targets always precede their machines) plus per-pass
    statistics."""

    machines: list
    stats: list = field(default_factory=list)
    copy_budget: int = DEFAULT_COPY_BUDGET
    index: dict = field(default_factory=dict)   # subformula -> flag key
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
            edges = [(rename[u], None, rename[v]) for u, v in m.plain]
            for b, o, v in m.boxed:
                target = self.machines[m.expand[b]]
                z_name = f"{target.vertices[target.outs[o]]}~m{m.expand[b]}"
                edges.append((rename[b], z_name, rename[v]))
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
        plain = []
        boxed = []
        # Keep one edge per flat transition, as flattening does: drop repeats,
        # and an exit b.z -> b when the boxed machine steps from z to its
        # initial vertex itself.
        for u, z, v in dict.fromkeys(m.edges):
            if z is None:
                plain.append((pos_of[u], pos_of[v]))
            else:
                target = model.machine(m.expand[u])
                if v == u and (z, None, target.initial) in target.edges:
                    continue
                boxed.append((pos_of[u], target.outputs.index(z), pos_of[v]))
        machines.append(WorkMachine(
            source, m.name, list(m.vertices),
            [m.label(v) for v in m.vertices], expand, pos_of[m.initial],
            [pos_of[z] for z in m.outputs], plain, boxed))
    return SpecializedHsm(machines, copy_budget=copy_budget)


def _entry_flag(machines, m, pos, key):
    """Flag of the state a transition into `pos` lands on: the vertex itself
    for nodes, the entry of the expanded machine for boxes."""
    if m.expand[pos] is None:
        return m.flags[key][pos]
    target = machines[m.expand[pos]]
    return target.flags[key][target.entry]


def _rebuild(w, made, op, kind, grade, grade0_factor, started):
    """Assemble the demanded copies into a new SpecializedHsm and record the
    pass statistics."""
    ordered = sorted(made, key=lambda key: (key[0], made[key][0]))
    position = {key: i for i, key in enumerate(ordered)}
    new_machines = []
    for key in ordered:
        _, machine, targets = made[key]
        machine.expand = [None if t is None else position[t] for t in targets]
        new_machines.append(machine)
    per_source = {}
    for key in ordered:
        per_source[key[0]] = per_source.get(key[0], 0) + 1
    factor = max(per_source.values(), default=1)
    out = SpecializedHsm(new_machines, w.stats, w.copy_budget)
    out.stats.append(PassStats(op, kind, grade, grade0_factor, factor,
                               len(new_machines),
                               (time.perf_counter() - started) * 1000.0))
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
    started = time.perf_counter()
    cap = grade + 1
    machines = w.machines
    made = {}

    def build(mi, g):
        key = (mi, g)
        if key in made:
            return key
        if len(made) >= w.copy_budget:
            raise CapacityError(f"machine copies exceed budget {w.copy_budget}")
        m = machines[mi]
        copy = m.shell_copy(m.name if g == () or not any(g)
                            else f"{m.name}~x{len(made)}")
        made[key] = (len(made), copy, [None] * m.n)
        internal = [0] * m.n
        for u, v in m.plain:
            if _entry_flag(machines, m, v, th1_key):
                internal[u] += 1
        counts = [0] * m.n
        flags = [False] * m.n
        ords = m.out_ordinals()
        for pos in range(m.n):
            if m.expand[pos] is not None:
                continue
            total = internal[pos] + (g[ords[pos]] if pos in ords else 0)
            counts[pos] = min(cap, total)
            flags[pos] = counts[pos] >= cap
        copy.flags[psi_key] = flags
        copy.counts[psi_key] = counts
        targets = made[key][2]
        exit_hits = {}
        for b, o, v in m.boxed:
            if _entry_flag(machines, m, v, th1_key):
                exit_hits[(b, o)] = exit_hits.get((b, o), 0) + 1
        for pos in range(m.n):
            if m.expand[pos] is None:
                continue
            t = m.expand[pos]
            n_out = len(machines[t].outs)
            gb = tuple(min(cap, exit_hits.get((pos, o), 0)) for o in range(n_out))
            targets[pos] = build(t, gb)
        return key

    top = len(machines) - 1
    build(top, tuple(0 for _ in machines[top].outs))
    return _rebuild(w, made, op, "X", grade, 1, started)


# ---------------------------------------------------------------------------
# Grade-0 globally / until pass
# ---------------------------------------------------------------------------


def _grade0_solutions(machines, kind, th1_key, th2_key):
    """Per (machine, assumed continuing exits) satisfaction of the classical
    E G / E U form.  Returns a memoized solver."""
    memo = {}

    def solve(mi, y):
        key = (mi, y)
        if key in memo:
            return memo[key]
        m = machines[mi]
        init = kind == "G"
        sat = [init] * m.n
        boxval = {pos: init for pos in range(m.n) if m.expand[pos] is not None}
        plain_from = {}
        for u, v in m.plain:
            plain_from.setdefault(u, []).append(v)
        exits_from = {}
        for b, o, v in m.boxed:
            exits_from.setdefault(b, {}).setdefault(o, []).append(v)
        ords = m.out_ordinals()

        def val(pos):
            return boxval[pos] if m.expand[pos] is not None else sat[pos]

        changed = True
        while changed:
            changed = False
            for pos in range(m.n):
                if m.expand[pos] is not None:
                    yb = frozenset(
                        o for o, vs in exits_from.get(pos, {}).items()
                        if any(val(v) for v in vs))
                    res = solve(m.expand[pos], yb)
                    new = res[0][machines[m.expand[pos]].entry]
                    if new != boxval[pos]:
                        boxval[pos] = new
                        changed = True
                    continue
                follows = any(val(v) for v in plain_from.get(pos, ()))
                exits = pos in ords and ords[pos] in y
                if kind == "G":
                    new = m.flags[th1_key][pos] and (follows or exits)
                else:
                    new = m.flags[th2_key][pos] or (
                        m.flags[th1_key][pos] and (follows or exits))
                if new != sat[pos]:
                    sat[pos] = new
                    changed = True
        box_y = {}
        for pos in boxval:
            box_y[pos] = frozenset(
                o for o, vs in exits_from.get(pos, {}).items()
                if any(val(v) for v in vs))
        memo[key] = (sat, box_y, boxval)
        return memo[key]

    return solve


def grade0_pass(w: SpecializedHsm, kind, th1_key, th2_key, psi_key,
                op="E0") -> SpecializedHsm:
    """Classical (grade-0) hierarchical pass: specialize machines per set of
    continuing exits so the flag becomes context-free."""
    started = time.perf_counter()
    machines = w.machines
    solve = _grade0_solutions(machines, kind, th1_key, th2_key)
    made = {}

    def build(mi, y):
        key = (mi, y)
        if key in made:
            return key
        if len(made) >= w.copy_budget:
            raise CapacityError(f"machine copies exceed budget {w.copy_budget}")
        m = machines[mi]
        sat, box_y, boxval = solve(mi, y)
        copy = m.shell_copy(m.name if not y else f"{m.name}~s{len(made)}")
        made[key] = (len(made), copy, [None] * m.n)
        flags = list(sat)
        for pos, bv in boxval.items():
            flags[pos] = bv
        copy.flags[psi_key] = flags
        targets = made[key][2]
        for pos in range(m.n):
            if m.expand[pos] is not None:
                targets[pos] = build(m.expand[pos], box_y[pos])
        return key

    top = len(machines) - 1
    build(top, frozenset())
    out = _rebuild(w, made, op, f"{kind}0", 0, 1, started)
    stats = out.stats[-1]
    stats.grade0_factor, stats.context_factor = stats.context_factor, 1
    return out


# ---------------------------------------------------------------------------
# Non-sink-cycle analysis
# ---------------------------------------------------------------------------

_N = "n"
_B = "b"
_BZ = "bz"


@dataclass
class NscInfo:
    """Branching-cycle analysis of one machine inside the satisfying set.

    `nsc` holds the auxiliary-graph vertices from which a branching cycle
    (unboundedly many distinct evidences) is reachable; the per-exit
    summaries let the enclosing machine judge cycles that run through a box
    of this machine."""

    tags: list
    edges: dict
    nsc: set
    nsc_nodes: set
    sccs: list
    path_exists: list
    branch_on_path: list
    interior_exits: list
    internal_outdeg: list
    live_out: dict


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


def _nsc_one(machines, infos, mi, s_key, until_mode, th1_key):
    m = machines[mi]
    s = m.flags[s_key]

    def alive(pos):
        return (not until_mode) or m.flags[th1_key][pos]

    present = {}
    tags = []

    def add(tag):
        present[tag] = True
        tags.append(tag)

    for pos in range(m.n):
        if m.expand[pos] is None:
            if s[pos]:
                add((_N, pos))
        else:
            t = machines[m.expand[pos]]
            if t.flags[s_key][t.entry]:
                add((_B, pos))
            for o, zpos in enumerate(t.outs):
                if t.flags[s_key][zpos]:
                    add((_BZ, pos, o))

    edges = {tag: [] for tag in tags}

    def target_tag(pos):
        if m.expand[pos] is None:
            tag = (_N, pos)
        else:
            tag = (_B, pos)
        return tag if tag in present else None

    for u, v in m.plain:
        if (_N, u) in present and alive(u):
            tv = target_tag(v)
            if tv is not None:
                edges[(_N, u)].append(tv)
    for b, o, v in m.boxed:
        src = (_BZ, b, o)
        if src not in present:
            continue
        t = machines[m.expand[b]]
        if until_mode and not t.flags[th1_key][t.outs[o]]:
            continue
        tv = target_tag(v)
        if tv is not None:
            edges[src].append(tv)
    for pos in range(m.n):
        if m.expand[pos] is None or (_B, pos) not in present:
            continue
        info_t = infos[m.expand[pos]]
        for o in range(len(machines[m.expand[pos]].outs)):
            if (_BZ, pos, o) in present and info_t.path_exists[o]:
                edges[(_B, pos)].append((_BZ, pos, o))

    live_out = {}
    for tag in tags:
        if tag[0] == _BZ:
            live_out[(tag[1], tag[2])] = len(edges[tag])

    def branch_through(bpos, o):
        info_t = infos[m.expand[bpos]]
        if info_t.branch_on_path[o]:
            return True
        for o2 in info_t.interior_exits[o]:
            if info_t.internal_outdeg[o2] + live_out.get((bpos, o2), 0) >= 2:
                return True
        return False

    index = {tag: i for i, tag in enumerate(tags)}
    adj = [[index[t] for t in edges[tag]] for tag in tags]
    sccs_idx = tarjan_scc(len(tags), adj)
    sccs = [[tags[i] for i in comp] for comp in sccs_idx]

    bad = set()
    for comp in sccs:
        members = set(comp)
        cyclic = len(comp) > 1 or any(t in edges[t] for t in comp)
        if not cyclic:
            continue
        nonsink = False
        for tag in comp:
            if tag[0] == _N and len(edges[tag]) >= 2:
                nonsink = True
            elif tag[0] == _BZ:
                info_t = infos[m.expand[tag[1]]]
                if live_out[(tag[1], tag[2])] + info_t.internal_outdeg[tag[2]] >= 2:
                    nonsink = True
            elif tag[0] == _B:
                for bz in edges[tag]:
                    if bz in members and branch_through(tag[1], bz[2]):
                        nonsink = True
        if nonsink:
            bad |= members
    for tag in tags:
        if tag[0] == _B:
            info_t = infos[m.expand[tag[1]]]
            t = machines[m.expand[tag[1]]]
            if t.entry in info_t.nsc_nodes:
                bad.add(tag)

    rev = {tag: [] for tag in tags}
    for tag in tags:
        for t2 in edges[tag]:
            rev[t2].append(tag)
    nsc = set()
    stack = list(bad)
    while stack:
        tag = stack.pop()
        if tag in nsc:
            continue
        nsc.add(tag)
        stack.extend(rev[tag])
    nsc_nodes = {tag[1] for tag in nsc if tag[0] == _N}

    # Summaries for the enclosing machine, all relative to entry paths.
    n_out = len(m.outs)
    path_exists = [False] * n_out
    branch_on_path = [False] * n_out
    interior_exits = [set() for _ in range(n_out)]
    internal_outdeg = [len(edges.get((_N, zpos), [])) for zpos in m.outs]
    entry_tag = (_N, m.entry)
    if entry_tag in present and entry_tag not in nsc:
        fwd = set()
        stack = [entry_tag]
        while stack:
            tag = stack.pop()
            if tag in fwd:
                continue
            fwd.add(tag)
            stack.extend(edges[tag])
        branchy = set()
        for tag in tags:
            if tag[0] == _N and len(edges[tag]) >= 2:
                branchy.add(tag)
            elif tag[0] == _BZ:
                info_t = infos[m.expand[tag[1]]]
                if live_out[(tag[1], tag[2])] + info_t.internal_outdeg[tag[2]] >= 2:
                    branchy.add(tag)
        for o, zpos in enumerate(m.outs):
            z_tag = (_N, zpos)
            if z_tag not in present or z_tag not in fwd:
                continue
            path_exists[o] = True
            bwd_plus = set()
            stack = list(rev[z_tag])
            while stack:
                tag = stack.pop()
                if tag in bwd_plus:
                    continue
                bwd_plus.add(tag)
                stack.extend(rev[tag])
            hit = any(tag in fwd and tag in bwd_plus for tag in branchy)
            if not hit:
                for tag in tags:
                    if tag[0] != _B or tag not in fwd:
                        continue
                    for bz in edges[tag]:
                        if bz in bwd_plus and branch_through(tag[1], bz[2]):
                            hit = True
            branch_on_path[o] = hit
            for o2, z2 in enumerate(m.outs):
                z2_tag = (_N, z2)
                if z2_tag in fwd and z2_tag in bwd_plus:
                    interior_exits[o].add(o2)

    return NscInfo(tags, edges, nsc, nsc_nodes, sccs, path_exists,
                   branch_on_path, interior_exits, internal_outdeg, live_out)


# ---------------------------------------------------------------------------
# Graded globally / until pass
# ---------------------------------------------------------------------------


def graded_gu_pass(w: SpecializedHsm, grade: int, mode: str, th1_key,
                   th2_key, psi_key, count_key=None, op="E GU") -> SpecializedHsm:
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
    grade0_factor = w.stats[-1].grade0_factor
    w.stats.pop()

    started = time.perf_counter()
    cap = grade + 1
    machines = w.machines
    until = mode == "U"
    infos = compute_nsc(w, psi1_key, until_mode=until, th1_key=th1_key)

    dag_memo = {}

    def dag(mi, g):
        key = (mi, g)
        if key in dag_memo:
            return dag_memo[key]
        m = machines[mi]
        info = infos[mi]
        ords = m.out_ordinals()
        labels = {}
        box_g = {}
        comp_of = {}
        comps = {}
        for ci, comp in enumerate(info.sccs):
            comps[ci] = comp
            for tag in comp:
                comp_of[tag] = ci

        def bz_value(bpos, o):
            tag = (_BZ, bpos, o)
            if tag in info.nsc:
                return cap
            if tag not in comp_of:
                return 0
            return tag_label(tag)

        def entry_context(bpos):
            # Only exits reachable from the target's entry influence its
            # entry label; masking the rest keeps the label dependencies
            # acyclic (an unreachable exit pair may feed back into this
            # machine without forming any flat cycle).
            t_mi = m.expand[bpos]
            reach = infos[t_mi].path_exists
            return tuple(bz_value(bpos, o) if reach[o] else 0
                         for o in range(len(machines[t_mi].outs)))

        def tag_label(tag):
            # Saturated vertices never appear as dag successors; queried
            # directly (exit contexts) they contribute the cap.
            if tag in info.nsc:
                return cap
            if tag in labels:
                return labels[tag]
            comp = comps[comp_of[tag]]
            cyclic = len(comp) > 1 or any(t in info.edges[t] for t in comp)
            if cyclic:
                # A surviving cycle is forced; context continuations on one
                # of its exits let it branch after any number of turns.
                rich = any(
                    t[0] == _N and t[1] in ords and g[ords[t[1]]] >= 1
                    for t in comp)
                value = cap if rich else 1
                for t in comp:
                    labels[t] = value
                return labels[tag]
            if tag[0] == _N:
                pos = tag[1]
                base = g[ords[pos]] if pos in ords else 0
                ext = min(cap, base + sum(tag_label(t)
                                          for t in info.edges[tag]))
                if until:
                    here = 1 if m.flags[th2_key][pos] else 0
                    labels[tag] = max(here, ext)
                else:
                    labels[tag] = ext
            elif tag[0] == _BZ:
                labels[tag] = min(cap, sum(tag_label(t)
                                           for t in info.edges[tag]))
            else:
                labels[tag] = dag(m.expand[tag[1]], entry_context(tag[1]))[1]
            return labels[tag]

        # Warm in reverse-topological order so the recursion stays shallow.
        for comp in info.sccs:
            for tag in comp:
                if tag not in info.nsc:
                    tag_label(tag)
        # Box rewiring contexts carry every exit's count, including exits
        # the target cannot reach from its entry (their flat states still
        # exist and their flags must come out right); with all labels fixed
        # this is cycle-free.
        for pos in range(m.n):
            if m.expand[pos] is not None:
                t_mi = m.expand[pos]
                box_g[pos] = tuple(bz_value(pos, o)
                                   for o in range(len(machines[t_mi].outs)))
        entry_tag = (_N, m.entry)
        if entry_tag in info.nsc:
            entry_label = cap
        else:
            entry_label = labels.get(entry_tag, 0)
        dag_memo[key] = (labels, entry_label, box_g)
        return dag_memo[key]

    made = {}

    def build(mi, g):
        key = (mi, g)
        if key in made:
            return key
        if len(made) >= w.copy_budget:
            raise CapacityError(f"machine copies exceed budget {w.copy_budget}")
        m = machines[mi]
        info = infos[mi]
        labels, _entry, box_g = dag(mi, g)
        copy = m.shell_copy(m.name if not any(g) else f"{m.name}~g{len(made)}")
        made[key] = (len(made), copy, [None] * m.n)
        flags = [False] * m.n
        counts = [0] * m.n
        for pos in range(m.n):
            if m.expand[pos] is not None:
                continue
            if pos in info.nsc_nodes:
                counts[pos] = cap
            elif m.flags[psi1_key][pos]:
                counts[pos] = labels.get((_N, pos), 0)
            flags[pos] = counts[pos] >= cap
        copy.flags[psi_key] = flags
        if count_key is not None:
            copy.counts[count_key] = counts
        copy.counts[psi_key] = counts
        targets = made[key][2]
        for pos in range(m.n):
            if m.expand[pos] is not None:
                targets[pos] = build(m.expand[pos], box_g[pos])
        return key

    top = len(machines) - 1
    build(top, tuple(0 for _ in machines[top].outs))
    return _rebuild(w, made, op, mode, grade, grade0_factor, started)


# ---------------------------------------------------------------------------
# Full hierarchical check
# ---------------------------------------------------------------------------


def _bool_pass(w, compute, key):
    for m in w.machines:
        m.flags[key] = [compute(m, pos) for pos in range(m.n)]


def count_copies(w: SpecializedHsm):
    """Per-pass copy statistics recorded while checking."""
    return list(w.stats)


def check_hier(model: Shsm, f, copy_budget: int = DEFAULT_COPY_BUDGET):
    """Check f on the hierarchical model without flattening it.

    Returns (verdict at the initial state, the specialized working model).
    Scope-labeled models are first reduced to plain hierarchy over the
    formula's atoms.
    """
    root = f if is_normalized(f) else normalize(f)
    reduction = None
    if not is_hsm(model):
        ap = formula_atoms(root)
        reduced = reduce_to_hsm(restrict_ap(model, ap), ap)
        model, reduction = reduced.model, reduced.index
    w = _from_shsm(model, copy_budget)
    subs = subformulas_bottom_up(root)
    index = {g: i for i, g in enumerate(subs)}

    for i, g in enumerate(subs):
        started = time.perf_counter()
        if isinstance(g, Atom):
            _bool_pass(w, lambda m, p, name=g.name: name in m.labels[p], i)
        elif isinstance(g, TrueF):
            _bool_pass(w, lambda m, p: True, i)
        elif isinstance(g, Not):
            ci = index[g.child]
            _bool_pass(w, lambda m, p, ci=ci: not m.flags[ci][p], i)
        elif isinstance(g, And):
            li, ri = index[g.left], index[g.right]
            _bool_pass(w, lambda m, p, li=li, ri=ri:
                       m.flags[li][p] and m.flags[ri][p], i)
        elif isinstance(g, ExistsX):
            w = graded_next_pass(w, g.grade, index[g.child], i, op=render(g))
        elif isinstance(g, (ExistsG, ExistsU)):
            if isinstance(g, ExistsG):
                kind, th1, th2 = "G", index[g.child], None
            else:
                kind, th1, th2 = "U", index[g.left], index[g.right]
            if g.grade == 0:
                w = grade0_pass(w, kind, th1, th2, i, op=render(g))
            else:
                w = graded_gu_pass(w, g.grade, kind, th1, th2, i, op=render(g))
        elif isinstance(g, ForallU):
            # Violating paths split into a globally family and an until
            # family; the formula holds when their capped counts sum to at
            # most the grade.
            li, ri = index[g.left], index[g.right]
            stay = ("fam_stay", i)
            leave = ("fam_leave", i)
            _bool_pass(w, lambda m, p, li=li, ri=ri:
                       m.flags[li][p] and not m.flags[ri][p], stay)
            _bool_pass(w, lambda m, p, li=li, ri=ri:
                       not m.flags[li][p] and not m.flags[ri][p], leave)
            cg = ("cnt_g", i)
            cu = ("cnt_u", i)
            w = graded_gu_pass(w, g.grade, "G", stay, None, ("psi_g", i),
                               count_key=cg, op=render(g) + " /globally-family")
            w = graded_gu_pass(w, g.grade, "U", stay, leave, ("psi_u", i),
                               count_key=cu, op=render(g) + " /until-family")
            k = g.grade
            _bool_pass(w, lambda m, p, cg=cg, cu=cu, k=k:
                       m.counts[cg][p] + m.counts[cu][p] <= k, i)
        else:
            raise TypeError(f"unexpected node in normalized formula: {g!r}")
        if not (w.stats and w.stats[-1].op == render(g)):
            w.stats.append(PassStats(render(g), "bool", 0, 1, 1,
                                     len(w.machines),
                                     (time.perf_counter() - started) * 1000.0))

    w.index, w.reduction = index, reduction
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
            m = self.machines[mi]
            found = {self._enter(s[:-1], mi, v) for u, v in m.plain if u == pos}
            if len(s) > 1 and pos in m.outs:
                o = m.outs.index(pos)
                parent, box = s[-2]
                found.update(self._enter(s[:-2], parent, v)
                             for b, o2, v in self.machines[parent].boxed
                             if b == box and o2 == o)
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
        """Capped evidence count of an E X / E G / E U subformula; grade-0
        G and U passes keep only flags, whose cap is 1."""
        mi, pos = s[-1]
        m = self.machines[mi]
        key = self._key(g)
        counts = m.counts.get(key)
        return int(m.flags[key][pos]) if counts is None else counts[pos]

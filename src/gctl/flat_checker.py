"""Graded-CTL model checking over flat Kripke structures.

Counting semantics: a state satisfies an ``E>k`` path formula when k+1
pairwise distinct evidence paths start there.  Counts saturate at k+1, so
the work per temporal operator is linear in the structure and independent
of the grade.

Two independent deciders live here: the production engine (cycle
classification + capped propagation) and a bounded-enumeration oracle used
to cross-check it in tests.
"""

from dataclasses import dataclass, field

from .errors import OracleLimitError
from .formula import (And, Atom, ExistsG, ExistsU, ExistsX, ForallU, Not,
                      TrueF, evaluate, normalize)
from .kripke import KripkeStructure

# ---------------------------------------------------------------------------
# Strongly connected components (iterative Tarjan, deterministic by index)
# ---------------------------------------------------------------------------


def tarjan_scc(n, succ):
    """SCCs of the graph on 0..n-1 with adjacency `succ`.

    Returned in an order where every SCC precedes the SCCs that can reach
    it (i.e. each component's successors appear earlier in the list).
    """
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    sccs = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        # Each frame resumes its vertex's successor iterator.
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comp.sort()
                    sccs.append(comp)
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return sccs


# ---------------------------------------------------------------------------
# Counting analyses
# ---------------------------------------------------------------------------


def _classify_and_count(core, sub_succ, cap, base):
    """Shared tail of the G/U counts: SCC classification on the subgraph,
    then capped propagation in reverse topological order.

    A component that is a cycle with a branching state, or reaches one,
    has unboundedly many evidences (the cap); a forced cycle that reaches
    none has exactly one.  base[s] is the count contributed by the state
    itself (a length-one evidence); it is dominated by any extension, never
    added to one."""
    n = len(core)
    sccs = tarjan_scc(n, sub_succ)
    counts = [0] * n
    comp_id = [0] * n
    reach_branch = []
    for ci, comp in enumerate(sccs):
        for s in comp:
            comp_id[s] = ci
    for ci, comp in enumerate(sccs):
        cyclic = len(comp) > 1 or comp[0] in sub_succ[comp[0]]
        reaches = False
        for s in comp:
            if cyclic and len(sub_succ[s]) >= 2:
                reaches = True
            for t in sub_succ[s]:
                if comp_id[t] != ci and reach_branch[comp_id[t]]:
                    reaches = True
        reach_branch.append(reaches)
        if reaches or cyclic:
            value = cap if reaches else 1
            for s in comp:
                if core[s]:
                    counts[s] = value
        elif core[comp[0]]:
            s = comp[0]
            ext = 0
            for t in sub_succ[s]:
                ext += counts[t]
            counts[s] = max(base[s], min(cap, ext))
    return counts


def globally_analysis(ks: KripkeStructure, sat1, grade: int) -> list:
    """Per-state count (capped at grade+1) of distinct infinite all-sat1
    paths."""
    cap = grade + 1
    n = ks.n_states
    # Largest set of sat1 states where every member keeps a member successor.
    core = list(sat1)
    out = [0] * n
    rev = [[] for _ in range(n)]
    for s in range(n):
        if not core[s]:
            continue
        for t in ks.succ[s]:
            if core[t]:
                out[s] += 1
                rev[t].append(s)
    queue = [s for s in range(n) if core[s] and out[s] == 0]
    while queue:
        s = queue.pop()
        core[s] = False
        for p in rev[s]:
            if core[p]:
                out[p] -= 1
                if out[p] == 0:
                    queue.append(p)
    sub_succ = [[t for t in ks.succ[s] if core[t]] if core[s] else []
                for s in range(n)]
    # A state off every cycle contributes only through its successors: each
    # infinite path is pinned down by where it enters a terminal cycle, so
    # plain summation counts distinct paths.
    return _classify_and_count(core, sub_succ, cap, [0] * n)


def until_analysis(ks: KripkeStructure, sat1, sat2, grade: int) -> list:
    """Per-state count (capped at grade+1) of distinct finite
    sat1-until-sat2 evidences.  A path that is a prefix of another is not
    distinct from it, so a sat2 state with live continuations gains nothing
    from the length-one evidence."""
    cap = grade + 1
    n = ks.n_states
    # Least set containing sat2 and closed under sat1-predecessors.
    core = [False] * n
    queue = [s for s in range(n) if sat2[s]]
    for s in queue:
        core[s] = True
    while queue:
        t = queue.pop()
        for s in ks.predecessors(t):
            if not core[s] and sat1[s]:
                core[s] = True
                queue.append(s)
    # Evidence edges leave only sat1 states.  On a terminal forced cycle all
    # evidences are prefixes of one another, so the count there is one.
    sub_succ = [[t for t in ks.succ[s] if core[t]] if core[s] and sat1[s] else []
                for s in range(n)]
    base = [1 if sat2[s] else 0 for s in range(n)]
    return _classify_and_count(core, sub_succ, cap, base)


def count_next(ks: KripkeStructure, s: int, sat1, cap: int) -> int:
    """Number of successors of s satisfying sat1, capped."""
    c = 0
    for t in ks.succ[s]:
        if sat1[t]:
            c += 1
            if c >= cap:
                return cap
    return c


# ---------------------------------------------------------------------------
# The full checker
# ---------------------------------------------------------------------------


@dataclass
class SatTable:
    """Satisfaction table of all subformulas of one normalized formula.

    It is also the state view trace extraction walks (see gctl.evidence):
    `initial`, `succ`, `name`, `locate`, `holds` and `count` over `ks`."""

    ks: KripkeStructure
    root: object
    index: dict = field(default_factory=dict)
    sat: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    millis: list = field(default_factory=list)

    def _key(self, f):
        """Position of f, looked up as given before normalizing it."""
        i = self.index.get(f)
        return self.index[normalize(f)] if i is None else i

    def row(self, f):
        return self.sat[self._key(f)]

    def root_row(self):
        return self.sat[self.index[self.root]]

    def count_row(self, f):
        return self.counts[self._key(f)]

    @property
    def initial(self):
        return self.ks.initial

    def succ(self, s):
        return self.ks.succ[s]

    def name(self, s):
        return self.ks.names[s]

    def locate(self, name):
        return self.ks.index_of(name)

    def holds(self, f, s):
        return self.sat[self._key(f)][s]

    def count(self, f, s):
        return self.counts[self._key(f)][s]


def _row_ops(ks: KripkeStructure, rows, counts, path_counts):
    """`evaluate` hooks of a flat decider, over per-state rows by position.

    `path_counts` maps ExistsX, ExistsG and ExistsU to a function giving
    the per-state capped evidence counts of such a form from its operand
    rows; counts are kept in `counts` by position.  A<=k U holds where the
    counts of its two violation families sum to at most k."""
    n = ks.n_states

    def path(count):
        def op(g, i, *operands):
            cnt = counts[i] = count(g, *(rows[j] for j in operands))
            return [c > g.grade for c in cnt]
        return op

    def forall_until(g, i, fam_g, fam_u):
        total = [a + b for a, b in zip(counts[fam_g], counts[fam_u])]
        counts[i] = [min(g.grade + 1, c) for c in total]
        return [c <= g.grade for c in total]

    return {
        Atom: lambda g, i: [g.name in ks.labels[s] for s in range(n)],
        TrueF: lambda g, i: [True] * n,
        Not: lambda g, i, c: [not v for v in rows[c]],
        And: lambda g, i, l, r: [a and b for a, b in zip(rows[l], rows[r])],
        ForallU: forall_until,
        **{kind: path(count) for kind, count in path_counts.items()},
    }


def check_flat(ks: KripkeStructure, f) -> SatTable:
    """Label every state with every subformula of f (normalized first)."""
    root = normalize(f)
    table = SatTable(ks=ks, root=root)
    n = ks.n_states
    ops = _row_ops(ks, table.sat, table.counts, {
        ExistsX: lambda g, child: [count_next(ks, s, child, g.grade + 1)
                                   for s in range(n)],
        ExistsG: lambda g, child: globally_analysis(ks, child, g.grade),
        ExistsU: lambda g, left, right: until_analysis(ks, left, right,
                                                       g.grade),
    })
    table.index, table.millis = evaluate(root, ops, table.sat)
    return table


# ---------------------------------------------------------------------------
# Bounded-enumeration oracle
#
# Counts evidences by unfolding the computation tree to a fixed depth and
# taking a maximum antichain, with no cycle analysis whatsoever.  The depth
# starts at (grade+2) * |S| and is doubled once; if the two answers differ
# the oracle refuses rather than guess.
# ---------------------------------------------------------------------------

ORACLE_MAX_STATES = 12
_ORACLE_MAX_DEPTH = 100_000


def oracle_count(ks: KripkeStructure, s: int, kind: str, grade: int,
                 sat1, sat2=None, depth=None) -> int:
    """Independent evidence count for one path form at one state.

    kind is 'X', 'G' or 'U'; sat1/sat2 are per-state child verdicts.
    """
    if ks.n_states > ORACLE_MAX_STATES:
        raise OracleLimitError(
            f"oracle limited to {ORACLE_MAX_STATES} states, got {ks.n_states}")
    cap = grade + 1
    if kind == "X":
        return count_next(ks, s, sat1, cap)
    if kind not in ("G", "U"):
        raise ValueError(f"unknown path form {kind!r}")
    base_depth = depth if depth is not None else (grade + 2) * ks.n_states
    base_depth = max(base_depth, ks.n_states + 1)
    if base_depth * 2 > _ORACLE_MAX_DEPTH:
        raise OracleLimitError(f"oracle depth {base_depth * 2} over the limit")
    first, second = _oracle_tree_count(ks, s, kind, cap, sat1, sat2, base_depth)
    if first != second:
        raise OracleLimitError(
            f"oracle did not stabilize at depth {base_depth} (got {first} "
            f"then {second})")
    return first


def _oracle_tree_count(ks, s, kind, cap, sat1, sat2, depth):
    """Capped count of pairwise distinct evidences of length <= d in the
    depth-d unfolding tree, reported at d = depth and d = 2 * depth.

    Paths with a common prefix shape form a tree; a maximum set of pairwise
    distinct evidences is a maximum antichain of it, which only depends on
    (state, remaining depth).  Computed level by level, no graph analysis.
    """
    n = ks.n_states
    if kind == "G":
        # Base: states that start a sat1 path longer than |S| (such a path
        # revisits a state, hence extends forever).
        ext = [1 if sat1[t] else 0 for t in range(n)]
        for _ in range(n):
            ext = [1 if sat1[t] and any(ext[u] for u in ks.succ[t]) else 0
                   for t in range(n)]
        level = list(ext)
    else:
        level = [1 if sat2[t] else 0 for t in range(n)]
    at_depth = None
    for d in range(2, 2 * depth + 1):
        nxt = [0] * n
        for t in range(n):
            if kind == "G":
                if sat1[t]:
                    nxt[t] = min(cap, sum(level[u] for u in ks.succ[t]))
            else:
                grow = 0
                if sat1[t]:
                    grow = min(cap, sum(level[u] for u in ks.succ[t]))
                nxt[t] = max(1 if sat2[t] else 0, grow)
        level = nxt
        if d == depth:
            at_depth = level[s]
    return at_depth if at_depth is not None else level[s], level[s]


def oracle_check(ks: KripkeStructure, f) -> list:
    """Per-state verdicts for f computed with oracle_count only."""
    n = ks.n_states
    rows = []

    def counted(kind):
        return lambda g, *operands: [
            oracle_count(ks, s, kind, g.grade, *operands) for s in range(n)]

    ops = _row_ops(ks, rows, {}, {ExistsX: counted("X"), ExistsG: counted("G"),
                                  ExistsU: counted("U")})
    root = normalize(f)
    index, _millis = evaluate(root, ops, rows)
    return rows[index[root]]

"""Graded-CTL model checking over flat Kripke structures.

Counting semantics: a state satisfies an ``E>k`` path formula when k+1
pairwise distinct evidence paths start there.  Counts saturate at k+1, so
the work per temporal operator is linear in the structure and independent
of the grade.

Two independent deciders live here: the production engine (one sweep over
the strongly connected components of the evidence edges, successors first,
saturating by the capped sum; no separate fixpoint is computed, since a
count is positive exactly on it) and a bounded-enumeration oracle used to
cross-check it in tests.
"""

from dataclasses import dataclass, field

from .errors import OracleLimitError
from .formula import (BOOLEAN, LOWER_GRADE, ExistsG, ExistsU, ExistsX,
                      boolean_row, count_row, evaluate, graded_rows,
                      position_of)
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


def _count(ks, sat1, grade, base, loops):
    """Per-state evidence counts, capped at grade+1, in one sweep over the
    SCCs of the evidence edges, successors first.  Those are the edges out
    of sat1 states.

    base[s] is the count of the state's own length-one evidence; it is
    dominated by any extension, never added to one.  A state off every
    cycle sums its successors' counts: each evidence is pinned down by its
    first step, and a successor with count 0 adds nothing.  A cycle counts
    when `loops` lets an evidence run round it forever, when one of its
    states has a base, or when it steps out to a state with a positive
    count.  Then it has unboundedly many evidences (the cap) if some state
    has two steps, round the cycle or out to positive states, and one
    otherwise, as all evidences along a forced cycle are prefixes of one
    another.  So a count is positive exactly on the classical fixpoint."""
    cap = grade + 1
    sub_succ = [ts if sat1[s] else () for s, ts in enumerate(ks.succ)]
    counts = [0] * ks.n_states
    for comp in tarjan_scc(ks.n_states, sub_succ):
        s = comp[0]
        if len(comp) == 1 and s not in sub_succ[s]:
            ext = 0
            for t in sub_succ[s]:
                ext += counts[t]
            counts[s] = max(base[s], min(cap, ext))
            continue
        # The members still read 0, so a positive count is a step out.
        members = set(comp)
        steps = max(sum(1 for t in sub_succ[s] if counts[t] or t in members)
                    for s in comp)
        if (loops or any(base[s] for s in comp)
                or any(counts[t] for s in comp for t in sub_succ[s])):
            value = cap if steps > 1 else 1
            for s in comp:
                counts[s] = value
    return counts


def globally_analysis(ks: KripkeStructure, sat1, grade: int) -> list:
    """Per-state count (capped at grade+1) of distinct infinite all-sat1
    paths.  Every cycle of sat1 states counts; a step off sat1 has count 0,
    so it adds nothing."""
    return _count(ks, sat1, grade, [0] * ks.n_states, True)


def until_analysis(ks: KripkeStructure, sat1, sat2, grade: int) -> list:
    """Per-state count (capped at grade+1) of distinct finite
    sat1-until-sat2 evidences; each sat2 state is one on its own.  A path
    that is a prefix of another is not distinct from it, so a sat2 state
    with live continuations gains nothing from the length-one evidence."""
    return _count(ks, sat1, grade, [1 if b else 0 for b in sat2], False)


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
    """Satisfaction table of all subformulas of the formulas of one run,
    `root` the first of them.

    It is also the state view trace extraction walks (see gctl.evidence):
    `initial`, `succ`, `name`, `holds` and `count` over `ks`.  States are
    the structure's indices, named only when a trace is emitted."""

    ks: KripkeStructure
    root: object
    index: dict = field(default_factory=dict)
    sat: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    millis: list = field(default_factory=list)

    def row(self, f):
        return self.sat[position_of(self.index, f)]

    def root_row(self):
        return self.row(self.root)

    def count_row(self, f):
        return count_row(self.counts, self.index, f)

    @property
    def initial(self):
        return self.ks.initial

    def succ(self, s):
        return self.ks.succ[s]

    def name(self, s):
        return self.ks.names[s]

    def holds(self, f, s):
        return self.sat[position_of(self.index, f)][s]

    def count(self, f, s):
        return self.count_row(f)[s]


def _label(ks: KripkeStructure, roots, path_counts) -> SatTable:
    """Label every state with every subformula of the formulas of `roots`
    (normalized first) in one run; the table's root is the first of them.

    `path_counts` maps ExistsX, ExistsG and ExistsU to a function giving
    the per-state capped evidence counts of such a form from its operand
    rows; counts are kept in `table.counts` by position, where
    `boolean_row` reads those of an A<=k U's violation families and
    `graded_rows` those of a path form's lower grades.  Hooks run in
    position order, so each appends its row to `table.sat`."""
    table = SatTable(ks=ks, root=roots[0])
    rows, counts = table.sat, table.counts

    def boolean(g, i, *operands):
        rows.append(boolean_row(g, operands, ks.labels, rows, counts))

    def lower_grade(g, i, j):
        row, counts[i] = graded_rows(g, counts[j])
        rows.append(row)

    def path(count):
        def op(g, i, *operands):
            cnt = counts[i] = count(g, *(rows[j] for j in operands))
            rows.append([c > g.grade for c in cnt])
        return op

    ops = {**dict.fromkeys(BOOLEAN, boolean), LOWER_GRADE: lower_grade,
           **{kind: path(count) for kind, count in path_counts.items()}}
    table.index, table.millis = evaluate(roots, ops)
    return table


def check_flat(ks: KripkeStructure, f, *more) -> SatTable:
    """Label every state with every subformula of f and of the formulas of
    `more` (each normalized first) in one run; f's table."""
    n = ks.n_states
    return _label(ks, (f, *more), {
        ExistsX: lambda g, child: [count_next(ks, s, child, g.grade + 1)
                                   for s in range(n)],
        ExistsG: lambda g, child: globally_analysis(ks, child, g.grade),
        ExistsU: lambda g, left, right: until_analysis(ks, left, right,
                                                       g.grade),
    })


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
                 sat1, sat2=None) -> int:
    """Independent evidence count for one path form at one state.

    kind is 'X', 'G' or 'U'; sat1/sat2 are per-state child verdicts.  G and
    U count in the unfolding tree at depth (grade + 2) * |S| and again at
    twice that, and must agree.
    """
    if ks.n_states > ORACLE_MAX_STATES:
        raise OracleLimitError(
            f"oracle limited to {ORACLE_MAX_STATES} states, got {ks.n_states}")
    cap = grade + 1
    if kind == "X":
        return count_next(ks, s, sat1, cap)
    if kind not in ("G", "U"):
        raise ValueError(f"unknown path form {kind!r}")
    depth = (grade + 2) * ks.n_states
    if depth * 2 > _ORACLE_MAX_DEPTH:
        raise OracleLimitError(f"oracle depth {depth * 2} over the limit")
    first, second = _oracle_tree_count(ks, s, kind, cap, sat1, sat2, depth)
    if first != second:
        raise OracleLimitError(
            f"oracle did not stabilize at depth {depth} (got {first} "
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


def oracle_table(ks: KripkeStructure, f) -> SatTable:
    """Every subformula's rows for f, path forms counted with oracle_count
    only."""
    n = ks.n_states

    def counted(kind):
        return lambda g, *operands: [
            oracle_count(ks, s, kind, g.grade, *operands) for s in range(n)]

    return _label(ks, (f,), {ExistsX: counted("X"), ExistsG: counted("G"),
                          ExistsU: counted("U")})


def oracle_check(ks: KripkeStructure, f) -> list:
    """Per-state verdicts for f computed with oracle_count only."""
    return oracle_table(ks, f).root_row()

"""Evidence and counterexample trace extraction.

For a satisfied ``E>k`` path formula up to k+1 pairwise distinct evidence
traces are produced by walking the counting analysis; for a failed ``A<=k``
formula the dual existential form is extracted instead, and the trace is
extended past the violating state so the reader can see why it violates
(e.g. the lasso showing an inner eventuality never fires).

Traces serialize one per line: states comma-separated, hierarchical names
dot-joined inside a state, the loop of a lasso wrapped in ``( ... )*``.
"""

import math
from dataclasses import dataclass, replace
from functools import reduce

from .flat_checker import SatTable, check_flat
from .formula import (And, ExistsG, ExistsU, ExistsX, ForallF, ForallG,
                      ForallU, ForallX, Not, normalize, render)
from .kripke import KripkeStructure

FINITE = "finite"
LASSO = "lasso"


@dataclass
class EvidenceTrace:
    kind: str            # FINITE or LASSO
    states: list         # state names along the trace
    loop_start: int      # index the final state loops back to (lassos only)
    form: object         # the normalized path formula witnessed
    evidence_len: int    # prefix length that is the evidence proper

    def formula_text(self):
        return render(self.form)

    def __iter__(self):
        return iter(self.states)


def serialize_trace(trace: EvidenceTrace) -> str:
    if trace.kind == FINITE:
        return ",".join(trace.states)
    stem = trace.states[:trace.loop_start]
    loop = trace.states[trace.loop_start:]
    head = ",".join(stem)
    looped = "(" + ",".join(loop) + ")*"
    return f"{head},{looped}" if head else looped


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def extract_evidences(ks: KripkeStructure, s: int, form, n: int,
                      table: SatTable = None) -> list:
    """Up to n pairwise distinct evidences of a normalized path formula.

    Requires n <= grade+1 and at least n distinct evidences at s; walks the
    counting analysis, splitting quotas over successors in index order.
    """
    form = normalize(form)
    if not isinstance(form, (ExistsX, ExistsG, ExistsU)):
        raise ValueError(f"not an existential path formula: {render(form)}")
    if n < 0 or n > form.grade + 1:
        raise ValueError(f"requested {n} traces, limit is grade+1 = {form.grade + 1}")
    if n == 0:
        return []
    table = _labelled(ks, [form], table)

    if isinstance(form, ExistsX):
        sat1 = table.row(form.child)
        hits = [t for t in ks.succ[s] if sat1[t]][:n]
        if len(hits) < n:
            raise ValueError(f"only {len(hits)} evidences at {ks.names[s]}, asked {n}")
        return [EvidenceTrace(FINITE, [ks.names[s], ks.names[t]], None, form, 2)
                for t in hits]

    ana = table.analysis(form)
    if ana.counts[s] < n:
        raise ValueError(f"only {ana.counts[s]} evidences at {ks.names[s]}, asked {n}")
    if isinstance(form, ExistsG):
        out = []
        for states, loop in _collect_g(ks, ana, s, n):
            states, loop = _normalize_lasso(states, loop)
            out.append(EvidenceTrace(LASSO, [ks.names[i] for i in states], loop,
                                     form, len(states)))
        return out

    paths = _collect_u(ks, ana, table.row(form.right), s, n)
    return [EvidenceTrace(FINITE, [ks.names[i] for i in p], None, form, len(p))
            for p in paths]


def _labelled(ks, forms, table):
    """`table` when it labels every (normalized) form, else one check of
    their conjunction that keeps the counting analyses extraction walks."""
    if table is not None and all(g in table.index for g in forms):
        return table
    return check_flat(ks, reduce(And, forms), keep_analyses=True)


def _bfs_path(sub_succ, start, goal_test, keep=None):
    """Shortest path from start to a goal state, successors in index order,
    through states passing `keep` (all when None); returns the state list or
    None."""
    if goal_test(start):
        return [start]
    parent = {start: None}
    queue = [start]
    while queue:
        next_queue = []
        for u in queue:
            for v in sub_succ[u]:
                if v in parent or (keep is not None and not keep(v)):
                    continue
                parent[v] = u
                if goal_test(v):
                    path = [v]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                next_queue.append(v)
        queue = next_queue
    return None


def _shortest_cycle(sub_succ, comp_id, x):
    """Shortest cycle x -> ... -> x inside x's SCC (deterministic)."""
    best = None
    comp = comp_id[x]
    for w in sub_succ[x]:
        if comp_id[w] != comp:
            continue
        if w == x:
            return [x]
        back = _bfs_path(sub_succ, w, lambda v: v == x,
                         lambda v: comp_id[v] == comp)
        if back is not None:
            cand = [x] + back[:-1]
            if best is None or len(cand) < len(best):
                best = cand
    return best


def _pump_prefixes(ana, t, m):
    """m pairwise divergent prefixes from a state that reaches a branching
    cycle: approach the nearest branching state, loop j = 0..m-1 times, then
    leave through a successor the cycle does not use.  Returns the prefixes
    (each ending at the branching state) and the side successor."""
    approach = _bfs_path(ana.sub_succ, t, lambda v: ana.pump[v])
    x = approach[-1]
    cycle = _shortest_cycle(ana.sub_succ, ana.comp_id, x)
    follow = cycle[1] if len(cycle) > 1 else x
    side = next(v for v in ana.sub_succ[x] if v != follow)
    prefixes = [approach[:-1] + cycle * j + [x] for j in range(m)]
    return prefixes, side


def _split_quota(ana, u, q):
    """Distribute a quota over u's subgraph successors in index order."""
    assigned = []
    for v in ana.sub_succ[u]:
        if q == 0:
            break
        take = min(q, ana.counts[v])
        if take:
            assigned.append((v, take))
            q -= take
    return assigned


def _collect_g(ks, ana, t, m):
    """m distinct infinite all-core paths from t, as (index list, loop)."""
    out = []
    prefix = []
    agenda = [("visit", t, m)]
    while agenda:
        action = agenda.pop()
        if action[0] == "pop":
            prefix.pop()
            continue
        _, u, q = action
        if ana.saturated[u]:
            prefixes, side = _pump_prefixes(ana, u, q)
            tail, tail_loop = _forced_lasso(ana.sub_succ, side)
            for p in prefixes:
                out.append((prefix + p + tail, len(prefix) + len(p) + tail_loop))
            continue
        if ana.on_cycle[u]:
            states, loop = _forced_lasso(ana.sub_succ, u)
            out.append((prefix + states, len(prefix) + loop))
            continue
        prefix.append(u)
        agenda.append(("pop",))
        for v, take in reversed(_split_quota(ana, u, q)):
            agenda.append(("visit", v, take))
    return out


def _forced_lasso(sub_succ, t):
    """Follow the unique subgraph successor until a repeat; (states, loop)."""
    seen = {t: 0}
    states = [t]
    cur = t
    while True:
        cur = sub_succ[cur][0]
        if cur in seen:
            return states, seen[cur]
        seen[cur] = len(states)
        states.append(cur)


def _collect_u(ks, ana, sat2, t, m):
    """m distinct finite evidences (index lists) from t; m <= counts[t]."""
    out = []
    prefix = []
    agenda = [("visit", t, m)]
    while agenda:
        action = agenda.pop()
        if action[0] == "pop":
            prefix.pop()
            continue
        _, u, q = action
        if ana.saturated[u]:
            prefixes, side = _pump_prefixes(ana, u, q)
            tail = _bfs_path(ana.sub_succ, side, lambda w: sat2[w])
            for p in prefixes:
                out.append(prefix + p + tail)
            continue
        if ana.on_cycle[u]:
            path = [u]
            cur = u
            while not sat2[cur]:
                cur = ana.sub_succ[cur][0]
                path.append(cur)
            out.append(prefix + path)
            continue
        if sat2[u] and q == 1:
            # The length-one evidence; taken only when nothing longer is
            # demanded from this subtree (a prefix is not distinct from its
            # extensions).
            out.append(prefix + [u])
            continue
        prefix.append(u)
        agenda.append(("pop",))
        for v, take in reversed(_split_quota(ana, u, q)):
            agenda.append(("visit", v, take))
    return out


def _normalize_lasso(states, loop):
    """Minimal loop, earliest loop start, for the denoted infinite path."""
    stem = states[:loop]
    cycle = states[loop:]
    for p in range(1, len(cycle) + 1):
        if len(cycle) % p == 0 and cycle == cycle[: p] * (len(cycle) // p):
            cycle = cycle[:p]
            break
    while stem and stem[-1] == cycle[-1]:
        stem.pop()
        cycle = [cycle[-1]] + cycle[:-1]
    return stem + cycle, len(stem)


# ---------------------------------------------------------------------------
# Traces for a verdict: evidences and counterexamples
# ---------------------------------------------------------------------------


def trace_forms(f, verdict: bool, n: int) -> list:
    """Path forms whose evidences are the traces for f with this verdict,
    graded so that n distinct ones can exist: the root of a satisfied E
    formula, or the dual of a failed A formula (A U has two violation
    families, drawn in turn).  Empty when no trace applies."""
    if verdict:
        root = normalize(f)
        if isinstance(root, (ExistsX, ExistsG, ExistsU)):
            return [replace(root, grade=max(root.grade, n - 1))]
        return []
    if not isinstance(f, (ForallX, ForallG, ForallF, ForallU)):
        return []
    boosted = max(f.grade, n - 1)
    if isinstance(f, ForallU):
        left, right = normalize(f.left), normalize(f.right)
        stay = And(left, Not(right))
        leave = And(Not(left), Not(right))
        return [ExistsG(boosted, stay), ExistsU(boosted, stay, leave)]
    # normalize() writes A<=k as the negation of its dual E>k form.
    return [replace(normalize(f).child, grade=boosted)]


def traces_for(ks: KripkeStructure, s: int, f, verdict: bool, n: int,
               table: SatTable = None) -> list:
    """Up to n pairwise distinct traces for f at s with this verdict: the
    evidences of a satisfied E formula or the counterexamples of a failed A
    formula, none when `trace_forms` is empty.  `table` is reused when it
    labels every trace form."""
    forms = trace_forms(f, verdict, n)
    if not forms:
        return []
    if not verdict:
        return counterexamples_for(ks, s, f, n, table)
    table = _labelled(ks, forms, table)
    want = min(n, table.count_row(forms[0])[s])
    return extract_evidences(ks, s, forms[0], want, table)


def counterexamples_for(ks: KripkeStructure, s: int, f, n: int,
                        table: SatTable = None) -> list:
    """Up to n pairwise distinct traces violating a universal formula.

    The traces are evidences of the dual existential forms; finite ones are
    extended past the violating state when an inner path witness explains
    the violation.  Returns at most the number of distinct violations.
    `table` is reused when it labels every dual form.
    """
    if not isinstance(f, (ForallX, ForallG, ForallF, ForallU)):
        raise ValueError(f"not a universal temporal formula: {render(f)}")
    forms = trace_forms(f, False, n)
    table = _labelled(ks, forms, table)
    avail = [table.count_row(g)[s] for g in forms]
    # Dual counts are capped above the grade, so their sum decides f.
    if sum(avail) <= f.grade:
        raise ValueError(f"formula holds at {ks.names[s]}: {render(f)}")
    traces = []
    for g, have in zip(forms, avail):
        take = min(n - len(traces), have)
        if take > 0:
            traces += [_deepen(ks, table, tr)
                       for tr in extract_evidences(ks, s, g, take, table)]
    return traces


def _deepen(ks, table, trace):
    """Extend a finite dual evidence past its last state with a path that
    explains why the violating condition holds there."""
    if trace.kind != FINITE:
        return trace
    form = trace.form
    final_formula = form.right if isinstance(form, ExistsU) else form.child
    last = ks.index_of(trace.states[-1])
    suffix, loop_rel = _explain(ks, table, last, final_formula)
    if not suffix and loop_rel is None:
        return trace
    states = trace.states + [ks.names[i] for i in suffix]
    if loop_rel is None:
        return EvidenceTrace(FINITE, states, None, trace.form, trace.evidence_len)
    loop = len(trace.states) - 1 + loop_rel
    return EvidenceTrace(LASSO, states, loop, trace.form, trace.evidence_len)


def _explain(ks, table, s, g):
    """A path witness (suffix after s, relative loop index) for a formula
    that holds at s; empty when the formula needs no path to justify."""
    if isinstance(g, Not) and isinstance(g.child, Not):
        return _explain(ks, table, s, g.child.child)
    if isinstance(g, And):
        for part in (g.left, g.right):
            suffix, loop = _explain(ks, table, s, part)
            if suffix or loop is not None:
                return suffix, loop
        return [], None
    if isinstance(g, Not) and isinstance(g.child, And):
        # One conjunct fails; explain the failing side's negation.
        inner = g.child
        if not table.row(inner.left)[s]:
            return _explain(ks, table, s, Not(inner.left))
        return _explain(ks, table, s, Not(inner.right))
    if isinstance(g, ExistsX):
        sat1 = table.row(g.child)
        t = next((t for t in ks.succ[s] if sat1[t]), None)
        if t is None:
            return [], None
        rest, loop = _explain(ks, table, t, g.child)
        return [t] + rest, (None if loop is None else loop + 1)
    if isinstance(g, ExistsU):
        if not table.row(g)[s]:
            return [], None
        ev = extract_evidences(ks, s, g, 1, table)[0]
        suffix = [ks.index_of(name) for name in ev.states[1:]]
        rest, loop = _explain(ks, table, ks.index_of(ev.states[-1]), g.right)
        if rest or loop is not None:
            return suffix + rest, (None if loop is None else loop + len(suffix))
        return suffix, None
    if isinstance(g, ExistsG):
        if not table.row(g)[s]:
            return [], None
        ev = extract_evidences(ks, s, g, 1, table)[0]
        # ev.states[0] is s itself; loop indices stay in s-origin coordinates.
        suffix = [ks.index_of(name) for name in ev.states[1:]]
        return suffix, ev.loop_start
    return [], None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_trace(ks: KripkeStructure, trace: EvidenceTrace,
                   table: SatTable = None) -> list:
    """Replay a trace against the structure; empty report means it is a
    well-formed path whose evidence prefix witnesses its path formula."""
    problems = []
    try:
        idx = [ks.index_of(name) for name in trace.states]
    except KeyError as missing:
        return [f"unknown state {missing}"]
    for a, b in zip(idx, idx[1:]):
        if b not in ks.succ[a]:
            problems.append(f"missing transition {ks.names[a]} -> {ks.names[b]}")
    if trace.kind == LASSO:
        if not 0 <= trace.loop_start < len(idx):
            return problems + [f"loop start {trace.loop_start} out of range"]
        if idx[trace.loop_start] not in ks.succ[idx[-1]]:
            problems.append("lasso does not close")
    elif trace.loop_start is not None:
        problems.append("finite trace with a loop start")
    if problems:
        return problems

    form = normalize(trace.form)
    table = _labelled(ks, [form], table)
    prefix = idx[:trace.evidence_len]
    if isinstance(form, ExistsX):
        if len(prefix) != 2:
            problems.append("next evidence must have exactly two states")
        elif not table.row(form.child)[prefix[1]]:
            problems.append("successor does not satisfy the operand")
    elif isinstance(form, ExistsU):
        if not table.row(form.right)[prefix[-1]]:
            problems.append("until evidence does not end in a target state")
        for i in prefix[:-1]:
            if not table.row(form.left)[i]:
                problems.append(f"state {ks.names[i]} fails the until guard")
    elif isinstance(form, ExistsG):
        if trace.kind != LASSO:
            problems.append("globally evidence must be a lasso")
        else:
            for i in idx:
                if not table.row(form.child)[i]:
                    problems.append(f"state {ks.names[i]} fails the invariant")
    else:
        problems.append(f"unsupported evidence formula {render(form)}")
    return problems


def _state_at(trace, i):
    if trace.kind == FINITE:
        return trace.states[i] if i < len(trace.states) else None
    if i < len(trace.states):
        return trace.states[i]
    period = len(trace.states) - trace.loop_start
    return trace.states[trace.loop_start + (i - trace.loop_start) % period]


def traces_distinct(t1: EvidenceTrace, t2: EvidenceTrace) -> bool:
    """Distinctness of the denoted paths: they differ at a position both
    have; a prefix is not distinct from its extension."""
    if t1.kind == FINITE and t2.kind == FINITE:
        horizon = min(len(t1.states), len(t2.states))
    elif t1.kind == FINITE:
        horizon = len(t1.states)
    elif t2.kind == FINITE:
        horizon = len(t2.states)
    else:
        p1 = len(t1.states) - t1.loop_start
        p2 = len(t2.states) - t2.loop_start
        horizon = max(t1.loop_start, t2.loop_start) + math.lcm(p1, p2)
    return any(_state_at(t1, i) != _state_at(t2, i) for i in range(horizon))


def all_pairwise_distinct(traces) -> bool:
    return all(traces_distinct(a, b)
               for i, a in enumerate(traces) for b in traces[i + 1:])

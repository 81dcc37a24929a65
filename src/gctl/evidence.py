"""Evidence and counterexample trace extraction.

For a satisfied ``E>k`` path formula up to k+1 pairwise distinct evidence
traces are produced by one walk guided by capped evidence counts, on a
flattening or directly on the checked hierarchy; for a failed ``A<=k``
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
                      ForallU, ForallX, Not, normalize, render,
                      violation_families)
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
# State views
#
# Extraction reads a structure through a view: `initial`, `succ(s)` in a
# fixed order, `name(s)` and its inverse `locate(name)`, `holds(g, s)` for
# every subformula g of the forms to extract, and `count(g, s)`, the capped
# evidence count of their E X / E G / E U subformulas.  A flat engine's
# SatTable is one over its Kripke structure; gctl.hier_checker.HierView is
# one over the machine copies of one check_hier run, without flattening.
# ---------------------------------------------------------------------------


def _labelled(ks, forms, table):
    """`table` when it labels every (normalized) form, else one check of
    their conjunction."""
    if table is not None and all(g in table.index for g in forms):
        return table
    return check_flat(ks, reduce(And, forms))


def _view(ks, forms, table):
    """`ks` itself when it is a view, else `table` or, when that does not
    label every form, one check of the forms."""
    if not isinstance(ks, KripkeStructure):
        return ks
    return _labelled(ks, forms, table)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def extract_evidences(ks, s, form, n: int, table: SatTable = None) -> list:
    """Up to n pairwise distinct evidences of a normalized path formula.

    `ks` is a view, or a KripkeStructure labelled by `table` (checked here
    when it does not label the form).  Requires n <= grade+1 and at least n
    distinct evidences at s.
    """
    form = normalize(form)
    if not isinstance(form, (ExistsX, ExistsG, ExistsU)):
        raise ValueError(f"not an existential path formula: {render(form)}")
    if n < 0 or n > form.grade + 1:
        raise ValueError(f"requested {n} traces, limit is grade+1 = {form.grade + 1}")
    if n == 0:
        return []
    view = _view(ks, [form], table)
    have = view.count(form, s)
    if have < n:
        raise ValueError(f"only {have} evidences at {view.name(s)}, asked {n}")
    if isinstance(form, ExistsX):
        hits = [t for t in view.succ(s) if view.holds(form.child, t)][:n]
        return [EvidenceTrace(FINITE, [view.name(s), view.name(t)], None, form, 2)
                for t in hits]
    out = []
    for states, loop in _walk(_Steps(view, form), s, n):
        if loop is not None:
            states, loop = _normalize_lasso(states, loop)
        out.append(EvidenceTrace(FINITE if loop is None else LASSO,
                                 [view.name(t) for t in states], loop, form,
                                 len(states)))
    return out


class _Steps:
    """The evidence graph of one E G / E U form on a view: successors with
    a positive count, for E U out of `left` states only."""

    def __init__(self, view, form):
        self.view = view
        self.form = form
        self.until = isinstance(form, ExistsU)

    def count(self, s):
        return self.view.count(self.form, s)

    def live(self, s):
        if self.until and not self.view.holds(self.form.left, s):
            return []
        return [t for t in self.view.succ(s) if self.view.count(self.form, t)]

    def single(self, s):
        """One evidence from s as (states, loop): for E U a shortest path
        to a `right` state, for E G the lasso that always takes the first
        live successor."""
        if not self.until:
            seen = {s: 0}
            states = [s]
            while True:
                s = self.live(s)[0]
                if s in seen:
                    return states, seen[s]
                seen[s] = len(states)
                states.append(s)
        right = self.form.right
        if self.view.holds(right, s):
            return [s], None
        parent = {s: None}
        queue = [s]
        while queue:
            next_queue = []
            for u in queue:
                for v in self.live(u):
                    if v in parent:
                        continue
                    parent[v] = u
                    if self.view.holds(right, v):
                        path = [v]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return path[::-1], None
                    next_queue.append(v)
            queue = next_queue
        raise ValueError(f"no evidence at {self.view.name(s)}")


def _walk(steps, s, n):
    """n distinct evidences from s as (states, loop), loop None for finite
    ones.

    A state with quota q >= 2 splits it over its live successors in order,
    each taking min(rest, count); quota 1 takes a single evidence.  A state
    that recurs on the current prefix with the same quota closes a cycle of
    states whose counts are all >= q >= 2, so the cycle is not forced: one
    of its states has a live successor off the cycle, and the q evidences
    loop the cycle 0..q-1 times before leaving there.
    """
    out = []
    prefix = []
    quota = []
    where = {}      # state -> its last position on the prefix
    agenda = [(s, n, None)]
    while agenda:
        u, q, restore = agenda.pop()
        if q is None:
            prefix.pop()
            quota.pop()
            if restore is None:
                del where[u]
            else:
                where[u] = restore
            continue
        if q == 1:
            out.append(_joined(prefix, *steps.single(u)))
            continue
        at = where.get(u)
        if at is not None and quota[at] == q:
            out.extend(_pumped(steps, prefix, at, q))
            continue
        agenda.append((u, None, at))
        where[u] = len(prefix)
        prefix.append(u)
        quota.append(q)
        parts = []
        rest = q
        for v in steps.live(u):
            take = min(rest, steps.count(v))
            if take:
                parts.append((v, take, None))
                rest -= take
                if not rest:
                    break
        if rest:
            raise ValueError(f"successor counts below {q} at {steps.view.name(u)}")
        agenda.extend(reversed(parts))
    return out


def _joined(prefix, states, loop):
    return prefix + states, None if loop is None else len(prefix) + loop


def _pumped(steps, prefix, at, q):
    """q evidences through the cycle prefix[at:] (its last state steps back
    to prefix[at]): from the first cycle state x with a live successor
    other than its cycle successor, loop j = 0..q-1 times, then leave."""
    cycle = prefix[at:]
    for i, x in enumerate(cycle):
        follow = cycle[(i + 1) % len(cycle)]
        side = next((v for v in steps.live(x) if v != follow), None)
        if side is not None:
            break
    else:
        raise ValueError(f"forced cycle at {steps.view.name(x)} counted twice")
    turn = cycle[i:] + cycle[:i]
    tail = steps.single(side)
    head = prefix[:at + i]
    return [_joined(head + turn * j + [x], *tail) for j in range(q)]


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
        return violation_families(f, boosted)
    # normalize() writes A<=k as the negation of its dual E>k form.
    return [replace(normalize(f).child, grade=boosted)]


def traces_for(ks, s, f, verdict: bool, n: int, table: SatTable = None) -> list:
    """Up to n pairwise distinct traces for f at s with this verdict: the
    evidences of a satisfied E formula or the counterexamples of a failed A
    formula, none when `trace_forms` is empty.  `ks` is a view, or a
    KripkeStructure whose `table` is reused when it labels every form."""
    forms = trace_forms(f, verdict, n)
    if not forms:
        return []
    view = _view(ks, forms, table)
    if not verdict:
        return counterexamples_for(view, s, f, n)
    return extract_evidences(view, s, forms[0], min(n, view.count(forms[0], s)))


def counterexamples_for(ks, s, f, n: int, table: SatTable = None) -> list:
    """Up to n pairwise distinct traces violating a universal formula.

    The traces are evidences of the dual existential forms; finite ones are
    extended past the violating state when an inner path witness explains
    the violation.  Returns at most the number of distinct violations.
    `ks` is a view, or a KripkeStructure whose `table` is reused when it
    labels every dual form.
    """
    if not isinstance(f, (ForallX, ForallG, ForallF, ForallU)):
        raise ValueError(f"not a universal temporal formula: {render(f)}")
    forms = trace_forms(f, False, n)
    view = _view(ks, forms, table)
    avail = [view.count(g, s) for g in forms]
    # Dual counts are capped above the grade, so their sum decides f.
    if sum(avail) <= f.grade:
        raise ValueError(f"formula holds at {view.name(s)}: {render(f)}")
    traces = []
    for g, have in zip(forms, avail):
        take = min(n - len(traces), have)
        if take > 0:
            traces += [_deepen(view, tr)
                       for tr in extract_evidences(view, s, g, take)]
    return traces


def _deepen(view, trace):
    """Extend a finite dual evidence past its last state with a path that
    explains why the violating condition holds there."""
    if trace.kind != FINITE:
        return trace
    form = trace.form
    final_formula = form.right if isinstance(form, ExistsU) else form.child
    last = view.locate(trace.states[-1])
    suffix, loop_rel = _explain(view, last, final_formula)
    if not suffix and loop_rel is None:
        return trace
    states = trace.states + [view.name(t) for t in suffix]
    if loop_rel is None:
        return EvidenceTrace(FINITE, states, None, trace.form, trace.evidence_len)
    loop = len(trace.states) - 1 + loop_rel
    return EvidenceTrace(LASSO, states, loop, trace.form, trace.evidence_len)


def _explain(view, s, g):
    """A path witness (suffix after s, relative loop index) for a formula
    that holds at s; empty when the formula needs no path to justify."""
    if isinstance(g, Not) and isinstance(g.child, Not):
        return _explain(view, s, g.child.child)
    if isinstance(g, And):
        for part in (g.left, g.right):
            suffix, loop = _explain(view, s, part)
            if suffix or loop is not None:
                return suffix, loop
        return [], None
    if isinstance(g, Not) and isinstance(g.child, And):
        # One conjunct fails; explain the failing side's negation.
        inner = g.child
        if not view.holds(inner.left, s):
            return _explain(view, s, Not(inner.left))
        return _explain(view, s, Not(inner.right))
    if isinstance(g, ExistsX):
        t = next((t for t in view.succ(s) if view.holds(g.child, t)), None)
        if t is None:
            return [], None
        rest, loop = _explain(view, t, g.child)
        return [t] + rest, (None if loop is None else loop + 1)
    if isinstance(g, ExistsU):
        if not view.holds(g, s):
            return [], None
        ev = extract_evidences(view, s, g, 1)[0]
        suffix = [view.locate(name) for name in ev.states[1:]]
        rest, loop = _explain(view, view.locate(ev.states[-1]), g.right)
        if rest or loop is not None:
            return suffix + rest, (None if loop is None else loop + len(suffix))
        return suffix, None
    if isinstance(g, ExistsG):
        if not view.holds(g, s):
            return [], None
        ev = extract_evidences(view, s, g, 1)[0]
        # ev.states[0] is s itself; loop indices stay in s-origin coordinates.
        suffix = [view.locate(name) for name in ev.states[1:]]
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

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

from .flat_checker import SatTable, check_flat
from .formula import (PATH, And, ExistsF, ExistsG, ExistsU, ExistsX,
                      ForallF, ForallG, ForallU, ForallX, Not, normalize,
                      render, violation_families)
from .kripke import KripkeStructure

FINITE = "finite"
LASSO = "lasso"
EXISTS_PATH = (ExistsX, ExistsG, ExistsF, ExistsU)
FORALL_PATH = (ForallX, ForallG, ForallF, ForallU)


@dataclass
class EvidenceTrace:
    kind: str            # FINITE or LASSO
    states: list         # state names along the trace
    loop_start: int      # index the final state loops back to (lassos only)
    form: object         # the normalized path formula witnessed
    evidence_len: int    # prefix length that is the evidence proper


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
#
# Extraction reads a structure through a view: `initial`, `succ(s)` in a
# fixed order, `name(s)`, `holds(g, s)` for every subformula g of the forms
# to extract, and `count(g, s)`, the capped evidence count of their E X /
# E G / E U subformulas.  Each engine's run is a view: a flat SatTable over
# its Kripke structure, and the working model of a check_hier run over its
# machine copies, without flattening.  A run labels f and its trace forms
# together as its roots.  A view answers only for the forms its run
# labelled, and raises ValueError for any other.  Walks, counterexample
# extensions and explanations all stay on view states; each state is named
# once, when its EvidenceTrace is built.
# ---------------------------------------------------------------------------


def extract_evidences(view, s, form, n: int) -> list:
    """Up to n pairwise distinct evidences of a normalized path formula, on
    a view that labels it.  Requires n <= grade+1 and at least n distinct
    evidences at s.
    """
    form = normalize(form)
    return [_named(view, form, states, loop, len(states))
            for states, loop in _evidences(view, s, form, n)]


def _evidences(view, s, form, n):
    """`extract_evidences` on view states: (states, loop) pairs, loop None
    for a finite evidence.  `form` is normalized."""
    if not isinstance(form, PATH):
        raise ValueError(f"not an existential path formula: {render(form)}")
    if n < 0 or n > form.grade + 1:
        raise ValueError(f"requested {n} traces, limit is grade+1 = {form.grade + 1}")
    if n == 0:
        return []
    have = view.count(form, s)
    if have < n:
        raise ValueError(f"only {have} evidences at {view.name(s)}, asked {n}")
    if isinstance(form, ExistsX):
        return [([s, t], None) for t in view.succ(s)
                if view.holds(form.child, t)][:n]
    return _walk(_Steps(view, form), s, n)


def _named(view, form, states, loop, evidence_len):
    return EvidenceTrace(FINITE if loop is None else LASSO,
                         [view.name(t) for t in states], loop, form,
                         evidence_len)


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

    Lassos come out normal, with a minimal loop not preceded by its last
    state: `single` returns distinct states, and a loop at its first state
    u would need the prefix's last state p to step first to u and hand it
    quota 1, yet counts are uniform on a strongly connected component, so u
    takes count(p) >= 2; a `_pumped` side looping back first would likewise
    have taken the whole quota.
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


# ---------------------------------------------------------------------------
# Traces for a verdict: evidences and counterexamples
# ---------------------------------------------------------------------------


def trace_forms(f, n: int) -> list:
    """Path forms whose evidences are the traces for f, graded so that n
    distinct ones can exist: the root of an E formula, or the dual of an A
    formula (A U has two violation families, drawn in turn).  Empty when f
    has neither root.  They do not depend on the verdict, so one checking
    run can label them together with f."""
    root = normalize(f)
    # f's own operator, not its normal form: `!A G p` normalizes to an E
    # form but is not an E formula.
    if isinstance(f, EXISTS_PATH):
        return [replace(root, grade=max(root.grade, n - 1))]
    if not isinstance(f, FORALL_PATH):
        return []
    boosted = max(f.grade, n - 1)
    if isinstance(f, ForallU):
        return violation_families(f, boosted)
    # normalize() writes A<=k as the negation of its dual E>k form.
    return [replace(root.child, grade=boosted)]


def traces_for(view, s, f, n: int) -> list:
    """Up to n pairwise distinct traces for f at s: the evidences of an E
    formula that holds or the counterexamples of an A formula that fails,
    none otherwise.  `view` labels `trace_forms(f, n)`.

    Each form in turn gives as many of the traces still wanted as it has
    evidences; counterexamples are extended past the violating state when
    an inner path witness explains the violation."""
    forms = trace_forms(f, n)
    avail = [view.count(g, s) for g in forms]
    # The counts are capped above f's grade, so their sum decides f: an E
    # root holds, and an A root fails, where it exceeds the grade.
    if not forms or sum(avail) <= f.grade:
        return []
    forall = isinstance(f, FORALL_PATH)
    traces = []
    for g, have in zip(forms, avail):
        take = min(n - len(traces), have)
        for states, loop in _evidences(view, s, g, take):
            size = len(states)
            if forall:
                states, loop = _deepen(view, g, states, loop)
            traces.append(_named(view, g, states, loop, size))
    return traces


def counterexamples_for(view, s, f, n: int) -> list:
    """Up to n pairwise distinct traces violating a universal formula, on a
    view that labels `trace_forms(f, n)`; ValueError when f holds at s."""
    if not isinstance(f, FORALL_PATH):
        raise ValueError(f"not a universal temporal formula: {render(f)}")
    if sum(view.count(g, s) for g in trace_forms(f, n)) <= f.grade:
        raise ValueError(f"formula holds at {view.name(s)}: {render(f)}")
    return traces_for(view, s, f, n)


def _deepen(view, form, states, loop):
    """Extend a finite evidence of a path form past its last state with a
    path that explains why the form's final operand (for a counterexample,
    the violating condition) holds there."""
    if loop is not None:
        return states, loop
    final = form.right if isinstance(form, ExistsU) else form.child
    suffix, loop_rel = _explain(view, states[-1], final)
    return (states + suffix,
            None if loop_rel is None else len(states) - 1 + loop_rel)


def _explain(view, s, g):
    """A path witness (suffix after s, relative loop index) for a formula
    that holds at s; empty when the formula needs no path to justify."""
    if isinstance(g, And):
        for part in (g.left, g.right):
            suffix, loop = _explain(view, s, part)
            if suffix or loop is not None:
                return suffix, loop
        return [], None
    if isinstance(g, Not) and isinstance(g.child, And):
        # One conjunct fails; explain the failing side's negation.
        inner = g.child
        failing = inner.left if not view.holds(inner.left, s) else inner.right
        return _explain(view, s, normalize(Not(failing)))
    if isinstance(g, PATH) and view.holds(g, s):
        # One evidence from s, itself explained; loop indices stay in
        # s-origin coordinates.
        states, loop = _deepen(view, g, *_evidences(view, s, g, 1)[0])
        return states[1:], loop
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
    if not 1 <= trace.evidence_len <= len(idx):
        problems.append(f"evidence length {trace.evidence_len} out of range")
    if problems:
        return problems

    form = normalize(trace.form)
    if table is None or form not in table.index:
        table = check_flat(ks, form)
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

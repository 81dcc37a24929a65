"""Explicit flat Kripke structures.

States carry human-readable names (dot-joined vertex sequences when produced
by flattening a hierarchical model); all algorithms run on dense indices.
"""


class KripkeStructure:
    """Finite total transition system with propositional labels."""

    def __init__(self, names, initial, edges, labels):
        """
        names:   list of state names (index = state id)
        initial: index of the initial state
        edges:   iterable of (src, dst) index pairs
        labels:  list of sets of proposition names, one per state
        """
        self.names = list(names)
        self.initial = initial
        self.labels = [frozenset(l) for l in labels]
        n = len(self.names)
        succ = [set() for _ in range(n)]
        self._dangling = []
        for s, t in edges:
            if 0 <= s < n and 0 <= t < n:
                succ[s].add(t)
            else:
                self._dangling.append((s, t))
        self.succ = [sorted(ts) for ts in succ]
        self._pred = None
        self._index_by_name = None

    @property
    def n_states(self):
        return len(self.names)

    @property
    def n_transitions(self):
        return sum(len(ts) for ts in self.succ)

    def predecessors(self, s):
        if self._pred is None:
            pred = [[] for _ in range(self.n_states)]
            for u, ts in enumerate(self.succ):
                for t in ts:
                    pred[t].append(u)
            self._pred = pred
        return self._pred[s]

    def index_of(self, name):
        if self._index_by_name is None:
            self._index_by_name = {n: i for i, n in enumerate(self.names)}
        return self._index_by_name[name]

    def edge_set(self):
        return {(s, t) for s, ts in enumerate(self.succ) for t in ts}

    def __repr__(self):
        return (f"KripkeStructure({self.n_states} states, "
                f"{self.n_transitions} transitions)")


def validate_kripke(ks: KripkeStructure) -> list:
    """Return an itemized problem report; empty means every invariant holds.

    Totality is required: a state with no outgoing transition is reported,
    never silently repaired.
    """
    problems = []
    n = ks.n_states
    if len(ks.labels) != n:
        problems.append(f"{len(ks.labels)} label sets for {n} states")
    if not 0 <= ks.initial < n:
        problems.append(f"initial state index {ks.initial} out of range")
    for s, t in getattr(ks, "_dangling", []):
        problems.append(f"transition ({s}, {t}) references a missing state")
    for s in range(n):
        if not ks.succ[s]:
            problems.append(f"sink state {ks.names[s]!r} (index {s}): totality violated")
    return problems

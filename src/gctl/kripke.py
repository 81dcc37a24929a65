"""Explicit flat Kripke structures.

States carry human-readable names (dot-joined vertex sequences when produced
by flattening a hierarchical model); all algorithms run on dense indices.
"""


class KripkeStructure:
    """Finite transition system with propositional labels.  Paths are read
    from the initial state, so only the states it reaches need successors;
    a flattening keeps unreachable states, dead ends or not."""

    def __init__(self, names, initial, edges, labels):
        """
        names:   list of state names (index = state id)
        initial: index of the initial state
        edges:   iterable of (src, dst) index pairs
        labels:  list of sets of proposition names, one per state

        Raises ValueError when the initial state or an edge end is not a
        state index, or when there is not one label set per state.
        """
        self.names = list(names)
        self.initial = initial
        self.labels = [frozenset(l) for l in labels]
        n = len(self.names)
        if len(self.labels) != n:
            raise ValueError(f"{len(self.labels)} label sets for {n} states")
        if not 0 <= initial < n:
            raise ValueError(f"initial state {initial} out of range")
        succ = [set() for _ in range(n)]
        for s, t in edges:
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"transition ({s}, {t}) references a "
                                 f"missing state")
            succ[s].add(t)
        self.succ = [sorted(ts) for ts in succ]
        self._index_by_name = None

    @property
    def n_states(self):
        return len(self.names)

    @property
    def n_transitions(self):
        return sum(len(ts) for ts in self.succ)

    def index_of(self, name):
        if self._index_by_name is None:
            self._index_by_name = {n: i for i, n in enumerate(self.names)}
        return self._index_by_name[name]

    def edge_set(self):
        return {(s, t) for s, ts in enumerate(self.succ) for t in ts}

    def __repr__(self):
        return (f"KripkeStructure({self.n_states} states, "
                f"{self.n_transitions} transitions)")

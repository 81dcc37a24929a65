import pytest

from gctl.kripke import KripkeStructure


def ks(names, initial, edges, labels=None):
    labels = labels or [set() for _ in names]
    return KripkeStructure(names, initial, edges, labels)


class TestValidate:
    """The constructor rejects indices that name no state and label
    lists of the wrong length."""

    def test_dangling_edge(self):
        with pytest.raises(ValueError, match="missing state"):
            ks(["a"], 0, [(0, 3), (0, 0)])
        with pytest.raises(ValueError, match="missing state"):
            ks(["a"], 0, [(-1, 0)])

    def test_bad_initial(self):
        with pytest.raises(ValueError, match="initial"):
            ks(["a"], 5, [(0, 0)])
        with pytest.raises(ValueError, match="initial"):
            ks(["a"], -1, [(0, 0)])

    def test_label_sets_per_state(self):
        with pytest.raises(ValueError, match="2 label sets for 1 states"):
            ks(["a"], 0, [(0, 0)], [set(), set()])


class TestSuccessors:
    def test_diamond_order(self):
        k = ks(["s0", "s1", "s2"], 0, [(0, 2), (0, 1), (1, 1), (2, 2)])
        assert k.succ[0] == [1, 2]

    def test_self_loop(self):
        k = ks(["s0"], 0, [(0, 0)])
        assert k.succ[0] == [0]

    def test_duplicate_edges_collapse(self):
        k = ks(["a", "b"], 0, [(0, 1), (0, 1), (1, 1)])
        assert k.succ[0] == [1]
        assert k.n_transitions == 2

    def test_invalid_index(self):
        with pytest.raises(IndexError):
            ks(["a"], 0, [(0, 0)]).succ[2]

    def test_union_is_edge_set(self):
        k = ks(["a", "b", "c"], 0, [(0, 1), (1, 2), (2, 0), (2, 2)])
        union = {(s, t) for s in range(3) for t in k.succ[s]}
        assert union == k.edge_set()

    def test_fig3_initial_successors(self, fig2_flat):
        s = fig2_flat.index_of("in3")
        names = [fig2_flat.names[t] for t in fig2_flat.succ[s]]
        assert names == ["in3", "b3^0.in2"]

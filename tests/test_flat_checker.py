import random

import pytest

from gctl.errors import OracleLimitError
from gctl.flat_checker import (check_flat, count_next, globally_analysis,
                               oracle_check, oracle_count, tarjan_scc,
                               until_analysis)
from gctl.formula import (Atom, ExistsG, ExistsU, ForallU, TrueF,
                          parse_formula)
from gctl.gen import random_kripke
from gctl.kripke import KripkeStructure


def ks(names, edges, labels):
    return KripkeStructure(names, 0, edges, labels)


@pytest.fixture
def lasso():
    # s0 branches to two disjoint self-loops; everything satisfies p.
    return ks(["s0", "s1", "s2"], [(0, 1), (0, 2), (1, 1), (2, 2)],
              [{"p"}] * 3)


@pytest.fixture
def branch_cycle():
    # s0 loops on itself and can also move to a second loop: a branching
    # cycle, so arbitrarily many distinct invariant paths.
    return ks(["s0", "s1"], [(0, 0), (0, 1), (1, 1)], [{"p"}] * 2)


@pytest.fixture
def diamond():
    return ks(["s0", "a", "b", "t"],
              [(0, 1), (0, 2), (1, 3), (2, 3), (3, 3)],
              [{"p"}, {"p"}, {"p"}, {"p", "q"}])


class TestCountNext:
    def test_two_of_three(self):
        k = ks(["s0", "s1", "s2", "s3"],
               [(0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3)],
               [set(), {"p"}, {"p"}, set()])
        sat = [("p" in l) for l in k.labels]
        assert count_next(k, 0, sat, 3) == 2

    def test_no_witness(self):
        k = ks(["s0"], [(0, 0)], [set()])
        assert count_next(k, 0, [False], 1) == 0

    def test_cap(self):
        k = ks(["s0", "a", "b", "c", "d"],
               [(0, 1), (0, 2), (0, 3), (0, 4)] + [(i, i) for i in range(1, 5)],
               [set()] + [{"p"}] * 4)
        sat = [("p" in l) for l in k.labels]
        assert count_next(k, 0, sat, 2) == 2


class TestCountGlobally:
    def test_lasso_counts_two(self, lasso):
        assert globally_analysis(lasso, [True] * 3, 1)[0] == 2
        assert globally_analysis(lasso, [True] * 3, 2)[0] == 2

    def test_branching_cycle_saturates(self, branch_cycle):
        for k in range(4):
            assert globally_analysis(branch_cycle, [True] * 2, k)[0] == k + 1

    def test_no_sat_anywhere(self, lasso):
        assert globally_analysis(lasso, [False] * 3, 2) == [0, 0, 0]


class TestCountUntil:
    def test_diamond(self, diamond):
        p = [True] * 4
        q = [False, False, False, True]
        assert until_analysis(diamond, p, q, 2)[0] == 2

    def test_prefix_rule(self, diamond):
        # A target holding at the start adds nothing beside its extensions.
        p = [True] * 4
        q = [True, False, False, True]
        assert until_analysis(diamond, p, q, 2)[0] == 2

    def test_empty_target(self, diamond):
        assert until_analysis(diamond, [True] * 4, [False] * 4, 2) == [0] * 4


def _graph(succ):
    return ks([f"s{i}" for i in range(len(succ))],
              [(s, t) for s, ts in enumerate(succ) for t in ts],
              [set()] * len(succ))


class TestCountRule:
    """Hand-built rows for the one counting sweep: a cycle counts only
    through a loop, a base or a step out to a positive count."""

    def test_until_cycle_with_chord_and_dead_exit(self):
        # s0 -> s0 is a chord of the cycle s0 s1, not a step out; the one
        # step out, to s2, leads nowhere near a target.
        k = _graph([[0, 1], [0, 2], [3], [3]])
        sat1 = [True, True, True, False]
        assert until_analysis(k, sat1, [False] * 4, 2) == [0, 0, 0, 0]

    def test_forced_until_cycle_through_target(self):
        # Every evidence along s0 s1 is a prefix of another; the step out
        # to the dead s2 adds none.
        k = _graph([[1], [0, 2], [2]])
        sat2 = [False, True, False]
        assert until_analysis(k, [True, True, False], sat2, 2) == [1, 1, 0]

    def test_globally_cycle_with_dead_exit(self):
        k = _graph([[1], [0, 2], [3], [3]])
        sat1 = [True, True, True, False]
        assert globally_analysis(k, sat1, 2) == [1, 1, 0, 0]

    def test_chain_into_branching_cycle_saturates(self):
        k = _graph([[1], [2], [2, 3], [2]])
        assert globally_analysis(k, [True] * 4, 2) == [3] * 4
        sat2 = [False, False, False, True]
        assert until_analysis(k, [True] * 4, sat2, 2) == [3] * 4


class TestCheckFlat:
    def test_self_loop_globally(self):
        k = ks(["s"], [(0, 0)], [{"p"}])
        assert check_flat(k, ExistsG(0, Atom("p"))).root_row()[0]
        assert not check_flat(k, ExistsG(1, Atom("p"))).root_row()[0]

    def test_fig3_reachability(self, fig2_flat):
        table = check_flat(fig2_flat, ExistsU(0, TrueF(), Atom("p3")))
        assert table.root_row()[fig2_flat.index_of("in3")]

    def test_forall_until_family_counting(self):
        # Exactly two violating paths: one stays in p&!q forever, one steps
        # out of p.  Tolerating two is enough, tolerating one is not.
        k = ks(["s0", "u", "v", "w"],
               [(0, 1), (0, 2), (1, 1), (2, 3), (3, 3)],
               [{"p"}, {"p"}, set(), {"q"}])
        assert check_flat(k, ForallU(2, Atom("p"), Atom("q"))).root_row()[0]
        assert not check_flat(k, ForallU(1, Atom("p"), Atom("q"))).root_row()[0]

    def test_normalizes_input(self):
        k = ks(["s"], [(0, 0)], [{"p"}])
        table = check_flat(k, parse_formula("A G p"))
        assert table.root_row()[0]


class TestOracle:
    def test_single_loop_globally(self):
        k = ks(["s"], [(0, 0)], [{"p"}])
        assert oracle_count(k, 0, "G", 1, [True]) == 1

    def test_diamond_until(self, diamond):
        q = [False, False, False, True]
        assert oracle_count(k := diamond, 0, "U", 2, [True] * 4, q) == 2

    def test_branch_cycle_saturates(self, branch_cycle):
        assert oracle_count(branch_cycle, 0, "G", 3, [True] * 2) == 4

    def test_state_limit(self):
        big = random_kripke(13, 0)
        with pytest.raises(OracleLimitError):
            oracle_count(big, 0, "G", 0, [True] * 13)

    def test_oracle_check_full_formula(self, branch_cycle):
        row = oracle_check(branch_cycle, parse_formula("E>2 G p"))
        assert row[0] is True or row[0] == True


class TestTarjan:
    def test_components_and_order(self):
        succ = [[1], [2], [0], [2, 4], [4]]
        sccs = tarjan_scc(5, succ)
        assert [0, 1, 2] in sccs
        # successors come before their predecessors
        order = {frozenset(c): i for i, c in enumerate(sccs)}
        assert order[frozenset([0, 1, 2])] < order[frozenset([3])]
        assert order[frozenset([4])] < order[frozenset([3])]


class TestFlatProperties:
    def test_grade_monotonicity(self):
        for seed in range(30):
            k = random_kripke(5, seed)
            p = [("p" in l) for l in k.labels]
            q = [("q" in l) for l in k.labels]
            for counts_lo, counts_hi in [
                (globally_analysis(k, p, 1), globally_analysis(k, p, 2)),
                (until_analysis(k, p, q, 1), until_analysis(k, p, q, 2)),
            ]:
                for lo, hi in zip(counts_lo, counts_hi):
                    assert (lo >= 2) <= (hi >= 2)
                    assert (hi >= 3) <= (lo >= 2)

    def test_grade0_matches_classical(self):
        for seed in range(40):
            k = random_kripke(6, seed)
            p = [("p" in l) for l in k.labels]
            q = [("q" in l) for l in k.labels]
            eg = [c >= 1 for c in globally_analysis(k, p, 0)]
            eu = [c >= 1 for c in until_analysis(k, p, q, 0)]
            assert eg == _classical_eg(k, p)
            assert eu == _classical_eu(k, p, q)

    def test_cap_equals_min_of_true_count(self):
        rng = random.Random(5)
        for seed in range(25):
            k = random_kripke(rng.randint(2, 5), seed + 500)
            p = [("p" in l) for l in k.labels]
            q = [("q" in l) for l in k.labels]
            for grade in (0, 1, 3):
                c = until_analysis(k, p, q, grade)
                for s in range(k.n_states):
                    assert c[s] == oracle_count(k, s, "U", grade, p, q)


def _classical_eg(k, sat1):
    cur = list(sat1)
    changed = True
    while changed:
        changed = False
        for s in range(k.n_states):
            if cur[s] and not any(cur[t] for t in k.succ[s]):
                cur[s] = False
                changed = True
    return cur


def _classical_eu(k, sat1, sat2):
    cur = list(sat2)
    changed = True
    while changed:
        changed = False
        for s in range(k.n_states):
            if not cur[s] and sat1[s] and any(cur[t] for t in k.succ[s]):
                cur[s] = True
                changed = True
    return cur

"""Cross-checks between the production engines and the enumeration oracle."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gctl.flat_checker import (ORACLE_MAX_STATES, check_flat, count_next,
                               globally_analysis, oracle_check, oracle_count,
                               until_analysis)
from gctl.formula import (And, Atom, ExistsG, ExistsU, ExistsX, ForallF,
                          ForallG, ForallU, ForallX, Not, TrueF, render)
from gctl.gen import random_formula, random_kripke, random_shsm
from gctl.hier_checker import check_hier
from gctl.hsm import flat_size, flatten


@st.composite
def small_structures(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    # Sparse structures give the forced cycles and dead exits that dense
    # ones rarely do.
    out_degree = draw(st.sampled_from([None, 1, 2]))
    return random_kripke(n, seed, out_degree=out_degree)


class TestCountsAgainstOracle:
    @settings(max_examples=120, deadline=None)
    @given(small_structures(), st.integers(min_value=0, max_value=3))
    def test_globally_counts(self, ks, grade):
        p = [("p" in l) for l in ks.labels]
        counts = globally_analysis(ks, p, grade)
        for s in range(ks.n_states):
            assert counts[s] == oracle_count(ks, s, "G", grade, p)

    @settings(max_examples=120, deadline=None)
    @given(small_structures(), st.integers(min_value=0, max_value=3))
    def test_until_counts(self, ks, grade):
        p = [("p" in l) for l in ks.labels]
        q = [("q" in l) for l in ks.labels]
        counts = until_analysis(ks, p, q, grade)
        for s in range(ks.n_states):
            assert counts[s] == oracle_count(ks, s, "U", grade, p, q)

    @settings(max_examples=60, deadline=None)
    @given(small_structures(), st.integers(min_value=0, max_value=3))
    def test_next_counts(self, ks, grade):
        p = [("p" in l) for l in ks.labels]
        for s in range(ks.n_states):
            assert count_next(ks, s, p, grade + 1) == \
                oracle_count(ks, s, "X", grade, p)


class TestFullFormulaAgainstOracle:
    def test_seeded_sweep(self):
        for seed in range(120):
            rng = random.Random(seed)
            ks = random_kripke(rng.randint(1, 6), seed + 40_000)
            f = random_formula(rng, ["p", "q", "r"], depth=3)
            assert check_flat(ks, f).root_row() == oracle_check(ks, f), \
                (seed, render(f))


class TestDualities:
    """The universal forms must agree with their existential rewrites,
    judged by the independent oracle."""

    def test_forall_next_duality(self):
        for seed in range(40):
            rng = random.Random(seed)
            ks = random_kripke(rng.randint(1, 6), seed + 1000)
            for k in range(4):
                lhs = oracle_check(ks, ForallX(k, Atom("p")))
                rhs = oracle_check(ks, Not(ExistsX(k, Not(Atom("p")))))
                assert lhs == rhs

    def test_forall_globally_duality(self):
        for seed in range(40):
            rng = random.Random(seed)
            ks = random_kripke(rng.randint(1, 6), seed + 2000)
            for k in range(4):
                lhs = oracle_check(ks, ForallG(k, Atom("p")))
                rhs = oracle_check(ks, Not(ExistsU(k, TrueF(), Not(Atom("p")))))
                assert lhs == rhs

    def test_forall_finally_duality(self):
        for seed in range(40):
            rng = random.Random(seed)
            ks = random_kripke(rng.randint(1, 6), seed + 3000)
            for k in range(4):
                lhs = oracle_check(ks, ForallF(k, Atom("p")))
                rhs = oracle_check(ks, Not(ExistsG(k, Not(Atom("p")))))
                assert lhs == rhs

    def test_forall_until_grade0_equals_classical_expansion(self):
        for seed in range(40):
            rng = random.Random(seed)
            ks = random_kripke(rng.randint(1, 6), seed + 4000)
            f = ForallU(0, Atom("p"), Atom("q"))
            assert oracle_check(ks, f) == check_flat(ks, f).root_row()


class TestGradedForallUntil:
    """`A<=k U` for k >= 1 has no rewrite into the existential fragment:
    every decider counts its two violation families, at grade 0 too.  The
    oracle counts them by enumeration, the flat and hierarchical engines by
    analysis."""

    def test_three_deciders_agree(self):
        verdicts = []
        for seed in range(120):
            rng = random.Random(seed)
            model = random_shsm(rng.randint(1, 3), rng.randint(0, 2),
                                rng.randint(1, 2), rng.randint(1, 2), 2,
                                seed + 5000, scope_labels=rng.random() < 0.5)
            if flat_size(model) > ORACLE_MAX_STATES:
                continue
            ks = flatten(model)
            left, right = (random_formula(rng, ["p0", "p1"], depth=1)
                           for _ in range(2))
            for k in (1, 2, 3):
                f = ForallU(k, left, right)
                rows = check_flat(ks, f).root_row()
                assert oracle_check(ks, f) == rows, (seed, render(f))
                assert check_hier(model, f)[0] == rows[ks.initial], \
                    (seed, render(f))
                verdicts.append(rows[ks.initial])
        assert len(verdicts) >= 250 and verdicts.count(False) >= 25

    def test_grade0_equals_classical_rewrite(self):
        # A [l U r] == !E G !r & !E [!r U (!l & !r)], judged by each decider
        # on the same model; the oracle only where the flattening is small.
        verdicts = []
        oracle_cases = 0
        for seed in range(160):
            rng = random.Random(seed)
            model = random_shsm(rng.randint(1, 3), rng.randint(0, 2),
                                rng.randint(1, 2), rng.randint(1, 2), 2,
                                seed + 8000, scope_labels=seed % 2 == 0)
            left, right = (random_formula(rng, ["p0", "p1"], depth=1)
                           for _ in range(2))
            f = ForallU(0, left, right)
            rewrite = And(Not(ExistsG(0, Not(right))),
                          Not(ExistsU(0, Not(right),
                                      And(Not(left), Not(right)))))
            ks = flatten(model)
            rows = check_flat(ks, f).root_row()
            assert rows == check_flat(ks, rewrite).root_row(), \
                (seed, render(f))
            assert check_hier(model, f)[0] == rows[ks.initial] == \
                check_hier(model, rewrite)[0], (seed, render(f))
            if ks.n_states <= ORACLE_MAX_STATES:
                assert oracle_check(ks, f) == rows == \
                    oracle_check(ks, rewrite), (seed, render(f))
                oracle_cases += 1
            verdicts.append(rows[ks.initial])
        assert oracle_cases >= 100
        assert 30 <= verdicts.count(False) <= len(verdicts) - 30

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gctl.errors import FormulaSyntaxError
from gctl.formula import (And, Atom, ExistsF, ExistsG, ExistsU, ExistsX,
                          FalseF, ForallF, ForallG, ForallU, ForallX, Implies,
                          Not, Or, TrueF, children, normalize, parse_formula,
                          render, subformulas_bottom_up)

FRAGMENT = (Atom, TrueF, Not, And, ExistsX, ExistsG, ExistsU, ForallU)


def _normal_form(f):
    """f has only nodes of the normalized fragment, no double negation, and
    normalizes to itself."""
    stack = [f]
    while stack:
        g = stack.pop()
        if not isinstance(g, FRAGMENT) or (
                isinstance(g, Not) and isinstance(g.child, Not)):
            return False
        stack.extend(children(g))
    return normalize(f) == f


class TestParse:
    def test_graded_next(self):
        assert parse_formula("E>1 X p") == ExistsX(1, Atom("p"))

    def test_default_grade(self):
        assert parse_formula("E G p") == ExistsG(0, Atom("p"))

    def test_graded_forall_until(self):
        assert parse_formula("A<=2 [p U q]") == ForallU(2, Atom("p"), Atom("q"))

    def test_booleans_and_precedence(self):
        f = parse_formula("!p & q | r -> s")
        assert f == Implies(Or(And(Not(Atom("p")), Atom("q")), Atom("r")),
                            Atom("s"))

    def test_implies_right_associative(self):
        f = parse_formula("a -> b -> c")
        assert f == Implies(Atom("a"), Implies(Atom("b"), Atom("c")))

    def test_quantifier_binds_tighter_than_and(self):
        f = parse_formula("E X p & q")
        assert f == And(ExistsX(0, Atom("p")), Atom("q"))

    def test_constants(self):
        assert parse_formula("true") == TrueF()
        assert parse_formula("false") == FalseF()

    def test_nested(self):
        f = parse_formula("A G ((t1 & fail) -> A F abort)")
        assert f == ForallG(0, Implies(And(Atom("t1"), Atom("fail")),
                                       ForallF(0, Atom("abort"))))

    @pytest.mark.parametrize("bad", [
        "", "E>", "E> X p", "E>-1 X p", "E>1.5 X p", "A> 1 X p", "E<=1 X p",
        "E>1 p", "[p U q]", "p &", "(p", "p q", "E>99999999999999999999 X p",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(bad)

    def test_error_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("p & $")
        assert err.value.position == 4


class TestNormalize:
    def test_forall_next(self):
        assert normalize(ForallX(2, Atom("p"))) == Not(ExistsX(2, Not(Atom("p"))))

    def test_exists_finally(self):
        assert normalize(ExistsF(0, Atom("p"))) == ExistsU(0, TrueF(), Atom("p"))

    def test_forall_globally(self):
        assert normalize(ForallG(1, Atom("p"))) == \
            Not(ExistsU(1, TrueF(), Not(Atom("p"))))

    def test_forall_finally(self):
        assert normalize(ForallF(3, Atom("p"))) == Not(ExistsG(3, Not(Atom("p"))))

    def test_forall_until_graded_is_primitive(self):
        for grade in (0, 2):
            f = normalize(ForallU(grade, Atom("p"), Atom("q")))
            assert f == ForallU(grade, Atom("p"), Atom("q"))

    def test_or_and_implies_eliminated(self):
        f = normalize(Or(Atom("p"), Implies(Atom("q"), Atom("r"))))
        assert _normal_form(f)

    def test_false_eliminated(self):
        assert normalize(FalseF()) == Not(TrueF())


class TestSubformulas:
    def test_next(self):
        f = ExistsX(1, Atom("p"))
        assert subformulas_bottom_up(f) == [Atom("p"), f]

    def test_and_not(self):
        f = And(Atom("p"), Not(Atom("p")))
        assert subformulas_bottom_up(f) == [Atom("p"), Not(Atom("p")), f]

    def test_until_shares_duplicates(self):
        inner = And(Atom("p"), Atom("q"))
        f = ExistsU(2, Atom("p"), inner)
        assert subformulas_bottom_up(f) == [Atom("p"), Atom("q"), inner, f]

    def test_children_precede_parents(self):
        f = parse_formula("E>2 [p & q U A F !p]")
        subs = subformulas_bottom_up(normalize(f))
        seen = set()
        for g in subs:
            for c in subformulas_bottom_up(g)[:-1]:
                assert c in seen
            seen.add(g)


class TestHelpers:
    def test_atom_name_validation(self):
        with pytest.raises(ValueError):
            Atom("E")
        with pytest.raises(ValueError):
            Atom("not an ident")

    def test_negative_grade_rejected(self):
        with pytest.raises(ValueError):
            ExistsX(-1, Atom("p"))


_atom_names = st.sampled_from(["p", "q", "r", "t1", "fail_0"])


def _formulas(depth):
    if depth == 0:
        return st.one_of(st.builds(Atom, _atom_names), st.just(TrueF()),
                         st.just(FalseF()))
    sub = _formulas(depth - 1)
    grades = st.integers(min_value=0, max_value=3)
    return st.one_of(
        st.builds(Atom, _atom_names),
        st.just(TrueF()),
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(ExistsX, grades, sub),
        st.builds(ExistsG, grades, sub),
        st.builds(ExistsF, grades, sub),
        st.builds(ExistsU, grades, sub, sub),
        st.builds(ForallX, grades, sub),
        st.builds(ForallG, grades, sub),
        st.builds(ForallF, grades, sub),
        st.builds(ForallU, grades, sub, sub),
    )


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(_formulas(3))
    def test_render_parse_round_trip(self, f):
        assert parse_formula(render(f)) == f

    @settings(max_examples=300, deadline=None)
    @given(_formulas(3))
    def test_normalize_idempotent(self, f):
        n = normalize(f)
        assert normalize(n) == n

    @settings(max_examples=300, deadline=None)
    @given(_formulas(3))
    def test_normalize_lands_in_fragment(self, f):
        assert _normal_form(normalize(f))

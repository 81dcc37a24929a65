"""Graded-CTL formulas: abstract syntax, concrete-syntax parser, normalization.

Path quantifiers carry a grade: ``E>k`` asks for k+1 pairwise distinct
evidence paths, ``A<=k`` tolerates at most k distinct violating paths.
Grade 0 is the classical semantics.
"""

import re
import time
from dataclasses import dataclass, replace

from .errors import FormulaSyntaxError

MAX_GRADE = 2**31 - 1

_KEYWORDS = frozenset({"true", "false", "E", "A", "X", "F", "G", "U"})
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_^@+]*")


def _node(cls):
    """A frozen formula dataclass whose hash is computed once, on first use.
    The generated hash would rehash the whole subtree on every dict lookup."""
    cls = dataclass(frozen=True)(cls)
    fields_hash = cls.__hash__

    def __hash__(self):
        value = self._hash
        if value is None:
            value = fields_hash(self)
            object.__setattr__(self, "_hash", value)
        return value

    cls.__hash__ = __hash__
    cls._hash = None
    return cls


def _check_grade(grade):
    if not isinstance(grade, int) or isinstance(grade, bool) or grade < 0:
        raise ValueError(f"grade must be a nonnegative integer, got {grade!r}")
    if grade > MAX_GRADE:
        raise ValueError(f"grade {grade} exceeds the supported maximum {MAX_GRADE}")


@_node
class Atom:
    name: str

    def __post_init__(self):
        if not _IDENT_RE.fullmatch(self.name) or self.name in _KEYWORDS:
            raise ValueError(f"invalid atom name {self.name!r}")


@_node
class TrueF:
    pass


@_node
class FalseF:
    pass


@_node
class Not:
    child: "Formula"


@_node
class And:
    left: "Formula"
    right: "Formula"


@_node
class Or:
    left: "Formula"
    right: "Formula"


@_node
class Implies:
    left: "Formula"
    right: "Formula"


@_node
class ExistsX:
    grade: int
    child: "Formula"

    def __post_init__(self):
        _check_grade(self.grade)


@_node
class ExistsG:
    grade: int
    child: "Formula"

    def __post_init__(self):
        _check_grade(self.grade)


@_node
class ExistsF:
    grade: int
    child: "Formula"

    def __post_init__(self):
        _check_grade(self.grade)


@_node
class ExistsU:
    grade: int
    left: "Formula"
    right: "Formula"

    def __post_init__(self):
        _check_grade(self.grade)


@_node
class ForallX:
    grade: int
    child: "Formula"

    def __post_init__(self):
        _check_grade(self.grade)


@_node
class ForallG:
    grade: int
    child: "Formula"

    def __post_init__(self):
        _check_grade(self.grade)


@_node
class ForallF:
    grade: int
    child: "Formula"

    def __post_init__(self):
        _check_grade(self.grade)


@_node
class ForallU:
    grade: int
    left: "Formula"
    right: "Formula"

    def __post_init__(self):
        _check_grade(self.grade)


Formula = (
    Atom | TrueF | FalseF | Not | And | Or | Implies
    | ExistsX | ExistsG | ExistsF | ExistsU
    | ForallX | ForallG | ForallF | ForallU
)

_UNARY_TEMPORAL = (ExistsX, ExistsG, ExistsF, ForallX, ForallG, ForallF)
_BINARY_TEMPORAL = (ExistsU, ForallU)
_BINARY_BOOL = (And, Or, Implies)


def children(f: Formula) -> tuple:
    """Immediate subformulas, left to right."""
    if isinstance(f, (Atom, TrueF, FalseF)):
        return ()
    if isinstance(f, Not):
        return (f.child,)
    if isinstance(f, _UNARY_TEMPORAL):
        return (f.child,)
    if isinstance(f, _BINARY_BOOL) or isinstance(f, _BINARY_TEMPORAL):
        return (f.left, f.right)
    raise TypeError(f"not a formula: {f!r}")


def atoms(f: Formula) -> frozenset:
    """The set of atomic propositions occurring in f."""
    found = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            found.add(g.name)
        else:
            stack.extend(children(g))
    return frozenset(found)


def size(f: Formula) -> int:
    """Number of boolean and temporal operators in f."""
    total = 0
    stack = [f]
    while stack:
        g = stack.pop()
        if not isinstance(g, (Atom, TrueF, FalseF)):
            total += 1
        stack.extend(children(g))
    return total


def max_grade(f: Formula) -> int:
    """Largest grade annotation in f (0 when there is none)."""
    best = 0
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, _UNARY_TEMPORAL + _BINARY_TEMPORAL):
            best = max(best, g.grade)
        stack.extend(children(g))
    return best


# ---------------------------------------------------------------------------
# Concrete syntax
#
#   phi  := "true" | "false" | ident | "!" phi | phi "&" phi | phi "|" phi
#         | phi "->" phi | "(" phi ")" | Q path
#   Q    := "E" [">" nat] | "A" ["<=" nat]
#   path := "X" phi | "F" phi | "G" phi | "[" phi "U" phi "]"
#
# Precedence ! > & > | > ->; "->" is right-associative. The operand of a
# prefix operator (including X/F/G) binds at unary level.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<le><=)|(?P<sym>[!&|()\[\]>])"
    r"|(?P<nat>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_^@+]*))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise FormulaSyntaxError(f"unexpected character {stripped[0]!r}", at)
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise FormulaSyntaxError(message, tok[2])

    def expect_sym(self, sym):
        kind, value, _ = self.peek()
        if kind in ("sym", "arrow", "le") and value == sym:
            return self.next()
        self.error(f"expected {sym!r}")

    def parse(self):
        f = self.implies()
        if self.peek()[0] != "eof":
            self.error("trailing input after formula")
        return f

    def implies(self):
        left = self.or_()
        if self.peek()[:2] == ("arrow", "->"):
            self.next()
            return Implies(left, self.implies())
        return left

    def or_(self):
        f = self.and_()
        while self.peek()[:2] == ("sym", "|"):
            self.next()
            f = Or(f, self.and_())
        return f

    def and_(self):
        f = self.unary()
        while self.peek()[:2] == ("sym", "&"):
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "sym" and value == "!":
            self.next()
            return Not(self.unary())
        if kind == "ident" and value == "E":
            self.next()
            return self.path(self.grade_for("E"), existential=True)
        if kind == "ident" and value == "A":
            self.next()
            return self.path(self.grade_for("A"), existential=False)
        if kind == "ident" and value == "true":
            self.next()
            return TrueF()
        if kind == "ident" and value == "false":
            self.next()
            return FalseF()
        if kind == "ident":
            if value in _KEYWORDS:
                self.error(f"keyword {value!r} cannot start a formula here")
            self.next()
            return Atom(value)
        if kind == "sym" and value == "(":
            self.next()
            f = self.implies()
            self.expect_sym(")")
            return f
        self.error("expected a formula")

    def grade_for(self, quantifier):
        kind, value, _ = self.peek()
        if quantifier == "E" and kind == "le":
            self.error("'E' takes '>', not '<='")
        if quantifier == "A" and kind == "sym" and value == ">":
            self.error("'A' takes '<=', not '>'")
        wants = ">" if quantifier == "E" else "<="
        if (kind, value) in (("sym", ">"), ("le", "<=")) and value == wants:
            self.next()
            tok = self.peek()
            if tok[0] != "nat":
                self.error("expected a nonnegative integer grade", tok)
            self.next()
            grade = int(tok[1])
            if grade > MAX_GRADE:
                self.error(f"grade {grade} exceeds the maximum {MAX_GRADE}", tok)
            return grade
        return 0

    def path(self, grade, existential):
        kind, value, _ = self.peek()
        if kind == "ident" and value in ("X", "F", "G"):
            self.next()
            child = self.unary()
            table = {
                ("X", True): ExistsX, ("F", True): ExistsF, ("G", True): ExistsG,
                ("X", False): ForallX, ("F", False): ForallF, ("G", False): ForallG,
            }
            return table[(value, existential)](grade, child)
        if kind == "sym" and value == "[":
            self.next()
            left = self.implies()
            tok = self.peek()
            if tok[:2] != ("ident", "U"):
                self.error("expected 'U'")
            self.next()
            right = self.implies()
            self.expect_sym("]")
            return (ExistsU if existential else ForallU)(grade, left, right)
        self.error("expected a path operator (X, F, G or [.. U ..])")


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into an AST; grades default to 0."""
    return _Parser(text).parse()


def render(f: Formula) -> str:
    """Pretty-print so that parse_formula(render(f)) == f."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Not):
        return "!" + render(f.child)
    if isinstance(f, And):
        return f"({render(f.left)} & {render(f.right)})"
    if isinstance(f, Or):
        return f"({render(f.left)} | {render(f.right)})"
    if isinstance(f, Implies):
        return f"({render(f.left)} -> {render(f.right)})"
    if isinstance(f, _UNARY_TEMPORAL):
        q = _quant_text(f)
        op = {"ExistsX": "X", "ForallX": "X", "ExistsF": "F", "ForallF": "F",
              "ExistsG": "G", "ForallG": "G"}[type(f).__name__]
        return f"{q} {op} {render(f.child)}"
    if isinstance(f, _BINARY_TEMPORAL):
        return f"{_quant_text(f)} [{render(f.left)} U {render(f.right)}]"
    raise TypeError(f"not a formula: {f!r}")


def _quant_text(f):
    if isinstance(f, (ExistsX, ExistsG, ExistsF, ExistsU)):
        return f"E>{f.grade}" if f.grade else "E"
    return f"A<={f.grade}" if f.grade else "A"


# ---------------------------------------------------------------------------
# Normalization into the minimal existential fragment: Atom, TrueF, Not, And,
# ExistsX, ExistsG, ExistsU, plus ForallU of every grade, which has no
# rewrite in graded CTL and is kept as a primitive node; the engines decide
# it by counting its two `violation_families` of violating paths.
# normalize is the identity on its own output.
# ---------------------------------------------------------------------------


def normalize(f: Formula) -> Formula:
    if isinstance(f, (Atom, TrueF)):
        return f
    if isinstance(f, FalseF):
        return Not(TrueF())
    if isinstance(f, Not):
        return Not(normalize(f.child))
    if isinstance(f, And):
        return And(normalize(f.left), normalize(f.right))
    if isinstance(f, Or):
        return Not(And(Not(normalize(f.left)), Not(normalize(f.right))))
    if isinstance(f, Implies):
        return Not(And(normalize(f.left), Not(normalize(f.right))))
    if isinstance(f, ExistsX):
        return ExistsX(f.grade, normalize(f.child))
    if isinstance(f, ExistsG):
        return ExistsG(f.grade, normalize(f.child))
    if isinstance(f, ExistsF):
        return ExistsU(f.grade, TrueF(), normalize(f.child))
    if isinstance(f, ExistsU):
        return ExistsU(f.grade, normalize(f.left), normalize(f.right))
    if isinstance(f, ForallX):
        return Not(ExistsX(f.grade, Not(normalize(f.child))))
    if isinstance(f, ForallG):
        return Not(ExistsU(f.grade, TrueF(), Not(normalize(f.child))))
    if isinstance(f, ForallF):
        return Not(ExistsG(f.grade, Not(normalize(f.child))))
    if isinstance(f, ForallU):
        return ForallU(f.grade, normalize(f.left), normalize(f.right))
    raise TypeError(f"not a formula: {f!r}")


def subformulas_bottom_up(f: Formula) -> list:
    """Subformulas in an order where children precede parents, deduplicated
    by structural equality."""
    seen = {}

    def visit(g):
        if g in seen:
            return
        for c in children(g):
            visit(c)
        seen[g] = len(seen)

    visit(f)
    return list(seen)


# ---------------------------------------------------------------------------
# Bottom-up evaluation, shared by every decider
# ---------------------------------------------------------------------------


def violation_families(f: ForallU, grade: int = None) -> list:
    """The two path forms whose evidences are the violations of
    ``A<=k [l U r]``: ``E>k G (l & !r)`` and ``E>k [(l & !r) U (!l & !r)]``.
    Every violating path falls in exactly one of them, so the formula holds
    where their capped counts sum to at most k.  `grade` overrides k."""
    grade = f.grade if grade is None else grade
    left, right = normalize(f.left), normalize(f.right)
    stay = And(left, _negate(right))
    return [ExistsG(grade, stay),
            ExistsU(grade, stay, And(_negate(left), _negate(right)))]


def _negate(f):
    """``!f``, with a double negation folded."""
    return f.child if isinstance(f, Not) else Not(f)


def position_of(index: dict, g: Formula) -> int:
    """g's position in an `evaluate` index, looked up as given before
    normalizing it; ValueError when the index does not label g."""
    i = index.get(g)
    if i is None:
        i = index.get(normalize(g))
        if i is None:
            raise ValueError(f"not labelled by this run: {render(g)}")
    return i


def count_row(counts: dict, index: dict, g: Formula) -> list:
    """The capped evidence counts of an E X / E G / E U form g, from count
    rows by `evaluate` position; ValueError naming g when the run did not
    label it or g has no capped count."""
    row = counts.get(position_of(index, g))
    if row is None:
        raise ValueError(f"no capped count: {render(g)}")
    return row


# Forms whose row follows, state by state, from the state's labels and its
# operands' rows and capped counts there.
BOOLEAN = (Atom, TrueF, Not, And, ForallU)


def boolean_row(g, operands, labels: list, flags, counts) -> list:
    """The row of a `BOOLEAN` form g over states with the given label sets,
    from the rows (`flags`) and capped counts (`counts`) of its operand
    positions.  A<=k U holds where the counts of its two violation families
    sum to at most k."""
    if isinstance(g, Atom):
        return [g.name in lab for lab in labels]
    if isinstance(g, TrueF):
        return [True] * len(labels)
    if isinstance(g, Not):
        return [not v for v in flags[operands[0]]]
    if isinstance(g, And):
        left, right = operands
        return [a and b for a, b in zip(flags[left], flags[right])]
    fam_g, fam_u = operands
    return [a + b <= g.grade for a, b in zip(counts[fam_g], counts[fam_u])]


# Path forms with a capped evidence count.  Of those a run labels with one
# operator and operands, only the highest grade is counted by a path pass;
# `evaluate` reads every lower grade off its counts with `graded_rows`.
PATH = (ExistsX, ExistsG, ExistsU)
LOWER_GRADE = "lower grade"


def graded_rows(g, count) -> tuple:
    """The flag and capped count rows of a path form g of grade k, read off
    `count`, the capped counts of its operator and operands at a grade
    K >= k: g holds where c > k, and min(c, k+1) is its own count."""
    k = g.grade
    return [c > k for c in count], [min(c, k + 1) for c in count]


def _top_grades(root) -> dict:
    """(path operator, operands) -> the highest grade among the forms that
    `evaluate` labels for root."""
    top = {}
    seen = set()
    stack = [root]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        stack.extend(children(g))
        if isinstance(g, ForallU):
            stack.extend(violation_families(g))
        elif isinstance(g, PATH):
            key = type(g), children(g)
            top[key] = max(top.get(key, 0), g.grade)
    return top


def evaluate(root: Formula, ops: dict, labels: list = None):
    """Label the subformulas of a normalized formula bottom-up.

    Positions number the subformulas in labelling order, children first.
    For each subformula g at position i this calls
    ``ops[type(g)](g, i, *operand positions)``; the operands of an
    ``A<=k U`` node are its two `violation_families` forms, labelled after
    its children and before it.  A path form that the run also labels at a
    higher grade K with the same operator and operands is instead given
    ``ops[LOWER_GRADE](g, i, j)``, where j is the position of the grade-K
    form, numbered first; the hook reads g's rows off j's counts with
    `graded_rows`.  When `labels` is given it gets one slot per position,
    holding what the hook returned.  Returns (subformula -> position, in
    position order; milliseconds each hook took, by position).
    """
    top = _top_grades(root)
    index = {}
    # Per position: (ops key, operand positions).  `visit` refers to itself
    # and so lives until a collection; it holds no hook, and so none of
    # what a hook refers to.
    steps = []

    def visit(g):
        i = index.get(g)
        if i is None:
            kind, args = type(g), [visit(h) for h in children(g)]
            if isinstance(g, ForallU):
                args = [visit(h) for h in violation_families(g)]
            elif isinstance(g, PATH):
                grade = top[type(g), children(g)]
                if grade > g.grade:
                    kind = LOWER_GRADE
                    args = [visit(replace(g, grade=grade))]
            i = index[g] = len(steps)
            steps.append((kind, args))
        return i

    visit(root)
    millis = [0.0] * len(index)
    if labels is not None:
        labels[:] = [None] * len(index)
    for g, i in index.items():
        kind, args = steps[i]
        started = time.perf_counter()
        label = ops[kind](g, i, *args)
        millis[i] = (time.perf_counter() - started) * 1000.0
        if labels is not None:
            labels[i] = label
    return index, millis

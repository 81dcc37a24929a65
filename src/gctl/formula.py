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
# The most nodes on a path from a formula's root down to an atom, and the
# most parentheses and prefix operators around an atom in its text, plus
# one.  Deeper formulas would exhaust Python's recursion in the engines.
MAX_DEPTH = 64

_KEYWORDS = frozenset({"true", "false", "E", "A", "X", "F", "G", "U"})
# Identifier syntax, shared by atoms here and by every name and
# proposition in a model file (gctl.modelfile).
IDENT = r"[A-Za-z_][A-Za-z0-9_^@+]*"
_IDENT_RE = re.compile(IDENT)


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


@dataclass(frozen=True)
class _Path:
    """A graded path operator.  Each one declares its operands, after the
    grade, and its concrete syntax as `syntax` = (quantifier, path letter);
    the letter ``U`` takes a left and a right operand, the others a child."""

    grade: int

    def __post_init__(self):
        grade = self.grade
        if not isinstance(grade, int) or isinstance(grade, bool) or grade < 0:
            raise ValueError(f"grade must be a nonnegative integer, got {grade!r}")
        if grade > MAX_GRADE:
            raise ValueError(f"grade {grade} exceeds the supported maximum {MAX_GRADE}")


@_node
class ExistsX(_Path):
    child: "Formula"
    syntax = ("E", "X")


@_node
class ExistsG(_Path):
    child: "Formula"
    syntax = ("E", "G")


@_node
class ExistsF(_Path):
    child: "Formula"
    syntax = ("E", "F")


@_node
class ExistsU(_Path):
    left: "Formula"
    right: "Formula"
    syntax = ("E", "U")


@_node
class ForallX(_Path):
    child: "Formula"
    syntax = ("A", "X")


@_node
class ForallG(_Path):
    child: "Formula"
    syntax = ("A", "G")


@_node
class ForallF(_Path):
    child: "Formula"
    syntax = ("A", "F")


@_node
class ForallU(_Path):
    left: "Formula"
    right: "Formula"
    syntax = ("A", "U")


Formula = (
    Atom | TrueF | FalseF | Not | And | Or | Implies
    | ExistsX | ExistsG | ExistsF | ExistsU
    | ForallX | ForallG | ForallF | ForallU
)

# The path operator of each (quantifier, path letter), and the mark that
# introduces a quantifier's grade.
_PATH_SYNTAX = {cls.syntax: cls for cls in (ExistsX, ExistsG, ExistsF, ExistsU,
                                            ForallX, ForallG, ForallF, ForallU)}
_GRADE_MARK = {"E": ">", "A": "<="}


def children(f: Formula) -> tuple:
    """Immediate subformulas, left to right."""
    if isinstance(f, (Atom, TrueF, FalseF)):
        return ()
    if isinstance(f, Not):
        return (f.child,)
    if isinstance(f, _Path):
        return (f.left, f.right) if f.syntax[1] == "U" else (f.child,)
    if isinstance(f, (And, Or, Implies)):
        return (f.left, f.right)
    raise TypeError(f"not a formula: {f!r}")


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
    rf"|(?P<nat>\d+)|(?P<ident>{IDENT}))"
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


_TOO_DEEP = f"formula nests deeper than the maximum depth {MAX_DEPTH}"


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0     # unary calls under way

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
        # `&`, `|` and `->` chains nest by looping, not by recursion, so the
        # tree is measured as well as the descent.
        stack = [(f, 1)]
        while stack:
            g, depth = stack.pop()
            if depth > MAX_DEPTH:
                raise FormulaSyntaxError(_TOO_DEEP, 0)
            stack += [(h, depth + 1) for h in children(g)]
        return f

    def implies(self):
        operands = [self.or_()]
        while self.peek()[:2] == ("arrow", "->"):
            self.next()
            operands.append(self.or_())
        f = operands.pop()
        while operands:
            f = Implies(operands.pop(), f)
        return f

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
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            self.error(_TOO_DEEP)
        f = self.operand()
        self.nesting -= 1
        return f

    def operand(self):
        kind, value, _ = self.peek()
        if kind == "sym" and value == "!":
            self.next()
            return Not(self.unary())
        if kind == "ident" and value in _GRADE_MARK:
            self.next()
            return self.path(value, self.grade_for(value))
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
        if (kind, value) not in (("sym", ">"), ("le", "<=")):
            return 0
        wants = _GRADE_MARK[quantifier]
        if value != wants:
            self.error(f"{quantifier!r} takes {wants!r}, not {value!r}")
        self.next()
        tok = self.peek()
        if tok[0] != "nat":
            self.error("expected a nonnegative integer grade", tok)
        self.next()
        grade = int(tok[1])
        if grade > MAX_GRADE:
            self.error(f"grade {grade} exceeds the maximum {MAX_GRADE}", tok)
        return grade

    def path(self, quantifier, grade):
        kind, value, _ = self.peek()
        if kind == "ident" and value in ("X", "F", "G"):
            self.next()
            return _PATH_SYNTAX[quantifier, value](grade, self.unary())
        if kind == "sym" and value == "[":
            self.next()
            left = self.implies()
            tok = self.peek()
            if tok[:2] != ("ident", "U"):
                self.error("expected 'U'")
            self.next()
            right = self.implies()
            self.expect_sym("]")
            return _PATH_SYNTAX[quantifier, "U"](grade, left, right)
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
    if isinstance(f, _Path):
        quantifier, letter = f.syntax
        if f.grade:
            quantifier += f"{_GRADE_MARK[quantifier]}{f.grade}"
        if letter == "U":
            return f"{quantifier} [{render(f.left)} U {render(f.right)}]"
        return f"{quantifier} {letter} {render(f.child)}"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Normalization into the minimal existential fragment: Atom, TrueF, Not, And,
# ExistsX, ExistsG, ExistsU, plus ForallU of every grade, which has no
# rewrite in graded CTL and is kept as a primitive node; the engines decide
# it by counting its two `violation_families` of violating paths.  A
# normalized operand is negated by `_negate`, so the output has no double
# negation, and normalize is the identity on its own output.
# ---------------------------------------------------------------------------


def normalize(f: Formula) -> Formula:
    if isinstance(f, (Atom, TrueF)):
        return f
    if isinstance(f, FalseF):
        return Not(TrueF())
    if isinstance(f, Not):
        return _negate(normalize(f.child))
    if isinstance(f, And):
        return And(normalize(f.left), normalize(f.right))
    if isinstance(f, Or):
        return Not(And(_negate(normalize(f.left)), _negate(normalize(f.right))))
    if isinstance(f, Implies):
        return Not(And(normalize(f.left), _negate(normalize(f.right))))
    if isinstance(f, (ExistsX, ExistsG, ExistsU, ForallU)):
        return type(f)(f.grade, *map(normalize, children(f)))
    if isinstance(f, ExistsF):
        return ExistsU(f.grade, TrueF(), normalize(f.child))
    if isinstance(f, ForallX):
        return Not(ExistsX(f.grade, _negate(normalize(f.child))))
    if isinstance(f, ForallG):
        return Not(ExistsU(f.grade, TrueF(), _negate(normalize(f.child))))
    if isinstance(f, ForallF):
        return Not(ExistsG(f.grade, _negate(normalize(f.child))))
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


def _top_grades(roots) -> dict:
    """(path operator, operands) -> the highest grade among the forms that
    `evaluate` labels for roots."""
    top = {}
    seen = set()
    stack = list(roots)
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


def evaluate(roots, ops: dict):
    """Label the subformulas of each formula of `roots`, normalized first,
    bottom-up in one run: the roots in turn, a subformula they share once.

    Positions number the subformulas in labelling order, children first.
    For each subformula g at position i this calls
    ``ops[type(g)](g, i, *operand positions)``; the operands of an
    ``A<=k U`` node are its two `violation_families` forms, labelled after
    its children and before it.  A path form that the run also labels at a
    higher grade K with the same operator and operands is instead given
    ``ops[LOWER_GRADE](g, i, j)``, where j is the position of the grade-K
    form, numbered first, K the highest grade over all roots; the hook
    reads g's rows off j's counts with `graded_rows`.  Hooks run in
    position order.  Returns (subformula -> position, in position order;
    milliseconds each hook took, by position).
    """
    roots = [normalize(g) for g in roots]
    top = _top_grades(roots)
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

    for g in roots:
        visit(g)
    millis = [0.0] * len(index)
    for g, i in index.items():
        kind, args = steps[i]
        started = time.perf_counter()
        ops[kind](g, i, *args)
        millis[i] = (time.perf_counter() - started) * 1000.0
    return index, millis

"""First-order formulas: linear terms, sumset atoms, connectives, quantifiers.

Concrete grammar (whitespace-insensitive):

* scalars: ``p`` or ``p/q`` over Q (optional leading ``-``); ``k`` over GF(p)
* atoms of terms: variables ``[a-z][a-z0-9]*`` or constants ``$name``
* terms: ``+``-separated ``scalar*atom`` summands; bare atoms mean
  coefficient one; the literal ``0`` is the empty sum
* formula atoms: ``t = t`` and ``Xn(t)`` with a decimal sumset index ``n``
* connectives ``!``, ``&``, ``|``, ``->``; quantifiers ``E v.`` / ``A v.``

``a -> b`` is sugar for ``(!a | b)``; the syntax tree has no implication
node.  The printer parenthesizes every binary connective, and parsing what
it prints reproduces the tree exactly.

The parser scans the text once and builds each term by one
:meth:`Term.make` on the sums of its summands, with no term arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .errors import FormulaSyntaxError, NotQuantifierFree, UnboundSymbol
from .fields import FieldCtx, Scalar, check_same_field
from .linalg import _sparse, _sparse_axpy, _sparse_scale, _sparse_text
from .model import ModelElement, combine, in_Xn


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Term:
    """Normalized linear combination of variables and named constants.

    A plain value: the dataclass compares, hashes and pickles it by its
    three fields."""

    field: FieldCtx
    vars: tuple  # sorted (name, scalar) pairs, scalars nonzero
    consts: tuple  # sorted (name, scalar) pairs, scalars nonzero

    @staticmethod
    def make(field: FieldCtx, vars: Mapping = (), consts: Mapping = ()) -> "Term":
        """The term with coefficients ``vars`` and ``consts``, maps from
        names to scalars in any form ``field.of`` accepts: every scalar is
        coerced, zeros are dropped and names sorted (``linalg._sparse``).
        This is the way in for untrusted input, once per term from the
        parser and from :meth:`var` and :meth:`const`; arithmetic on terms
        goes through :meth:`combine` and :meth:`scale`, which keep the
        canonical form their operands already have."""
        return Term(field, _sparse(field, vars), _sparse(field, consts))

    @staticmethod
    def zero(field: FieldCtx) -> "Term":
        return Term(field, (), ())

    @staticmethod
    def var(field: FieldCtx, name: str, coeff=1) -> "Term":
        return Term.make(field, {name: coeff})

    @staticmethod
    def const(field: FieldCtx, name: str, coeff=1) -> "Term":
        return Term.make(field, {}, {name: coeff})

    def is_zero(self) -> bool:
        return not self.vars and not self.consts

    def combine(self, s: Scalar, other: "Term") -> "Term":
        """self + s*other for a scalar ``s`` in canonical form: one merge
        of the two sorted entry tuples, so no scalar is coerced again and
        nothing is sorted.  Terms over different fields raise
        FieldMismatch."""
        f = self.field
        check_same_field(f, other.field)
        if f.is_zero(s) or other.is_zero():
            return self
        return Term(f, _sparse_axpy(f, self.vars, s, other.vars), _sparse_axpy(f, self.consts, s, other.consts))

    def __add__(self, other: "Term") -> "Term":
        return self.combine(self.field.one, other)

    def __sub__(self, other: "Term") -> "Term":
        return self.combine(self.field.minus_one, other)

    def scale(self, c) -> "Term":
        f = self.field
        c = f.of(c)
        if f.is_zero(c):
            return Term.zero(f)
        return Term(f, _sparse_scale(f, c, self.vars), _sparse_scale(f, c, self.consts))

    def symbols(self) -> set:
        return {k for k, _ in self.vars} | {"$" + k for k, _ in self.consts}

    def __str__(self) -> str:
        return _sparse_text([*self.vars, *[("$" + name, c) for name, c in self.consts]])


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Eq:
    lhs: Term
    rhs: Term


@dataclass(frozen=True, slots=True)
class Xn:
    n: int
    term: Term

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("sumset index must be nonnegative")


@dataclass(frozen=True, slots=True)
class Not:
    child: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True, slots=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True, slots=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Forall:
    var: str
    body: "Formula"


Formula = Union[Eq, Xn, Not, And, Or, Exists, Forall]


def true_formula(field: FieldCtx) -> Formula:
    return Eq(Term.zero(field), Term.zero(field))


def false_formula(field: FieldCtx) -> Formula:
    return Not(true_formula(field))


def _balanced(node, parts, lo=0, hi=None):
    """``node`` (And or Or) over ``parts[lo:hi]``, all of ``parts`` by
    default, as a tree of depth log2(hi - lo): the parts before mid = lo
    + (hi - lo) // 2 go left."""
    if hi is None:
        hi = len(parts)
    if hi - lo == 1:
        return parts[lo]
    mid = lo + (hi - lo) // 2
    return node(_balanced(node, parts, lo, mid), _balanced(node, parts, mid, hi))


def is_quantifier_free(phi: Formula) -> bool:
    if isinstance(phi, (Eq, Xn)):
        return True
    if isinstance(phi, Not):
        return is_quantifier_free(phi.child)
    if isinstance(phi, (And, Or)):
        return is_quantifier_free(phi.lhs) and is_quantifier_free(phi.rhs)
    return False


def free_symbols(phi: Formula) -> set:
    """Free variables (bare names) and constants ('$name')."""
    if isinstance(phi, Eq):
        return phi.lhs.symbols() | phi.rhs.symbols()
    if isinstance(phi, Xn):
        return phi.term.symbols()
    if isinstance(phi, Not):
        return free_symbols(phi.child)
    if isinstance(phi, (And, Or)):
        return free_symbols(phi.lhs) | free_symbols(phi.rhs)
    return free_symbols(phi.body) - {phi.var}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_term(term: Term, env: Mapping, field: FieldCtx) -> ModelElement:
    """The element ``term`` names under ``env``; a term over another field
    than ``field`` raises FieldMismatch."""
    check_same_field(field, term.field)
    elements = []
    for name, _ in term.vars:
        if name not in env:
            raise UnboundSymbol(f"variable {name!r} not in environment")
        elements.append(env[name])
    for name, _ in term.consts:
        key = "$" + name
        if key not in env:
            raise UnboundSymbol(f"constant ${name} not in environment")
        elements.append(env[key])
    return combine(field, [c for _, c in term.vars + term.consts], elements)


def eval_qf(phi: Formula, env: Mapping, field: FieldCtx | None = None) -> bool:
    """Evaluate a quantifier-free formula under an environment mapping
    variables and '$'-prefixed constants to model elements.

    Connectives short-circuit left to right.  Each atom node is decided
    once per call and each term node evaluated once, both remembered by
    node identity: a QE output shares one node per literal across all its
    disjuncts, and one term node across the literals of its interval.  An
    equation holds when its two sides evaluate to the same element; QE
    writes one as t = 0, so a zero right side is not evaluated and t is
    compared with zero.  No term is built here, so every remembered node
    is part of ``phi``.  Nodes are told apart by
    their exact type, connectives first, as a QE output is mostly ``And``
    and ``Or``."""
    if field is None:
        try:
            field = next(iter(env.values())).field
        except StopIteration:
            raise UnboundSymbol("cannot infer the field from an empty environment; pass field=")
    atoms, elements = {}, {}

    def value(term: Term) -> ModelElement:
        element = elements.get(id(term))
        if element is None:
            element = elements[id(term)] = eval_term(term, env, field)
        return element

    def holds(psi: Formula) -> bool:
        kind = type(psi)
        if kind is And:
            return holds(psi.lhs) and holds(psi.rhs)
        if kind is Or:
            return holds(psi.lhs) or holds(psi.rhs)
        if kind is Not:
            return not holds(psi.child)
        if kind is Xn or kind is Eq:
            truth = atoms.get(id(psi))
            if truth is None:
                if kind is Xn:
                    truth = in_Xn(value(psi.term), psi.n)
                elif psi.rhs.is_zero():
                    check_same_field(field, psi.rhs.field)
                    truth = value(psi.lhs).is_zero()
                else:
                    truth = value(psi.lhs) == value(psi.rhs)
                atoms[id(psi)] = truth
            return truth
        raise NotQuantifierFree(f"quantifier in quantifier-free evaluation: {print_formula(psi)}")

    return holds(phi)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


# parenthesized where they stand: a quantifier as an operand of a binary
# connective would swallow the rest of the line, and an equation or a
# quantifier after ! or as a quantifier body would take in its context
_QUANTIFIERS = (Exists, Forall)
_TIGHT = (Eq, Exists, Forall)


def print_formula(phi: Formula) -> str:
    """The text of ``phi``; parsing it gives ``phi`` back.

    A QE output shares one leaf or ``Not`` node per literal across its
    disjuncts, so the text of such a node is rendered once per call and
    reused by node identity.  Nodes are told apart by their exact type,
    connectives first."""
    texts = {}

    def text(psi: Formula) -> str:
        kind = type(psi)
        if kind is And or kind is Or:
            lhs, rhs = text(psi.lhs), text(psi.rhs)
            if type(psi.lhs) in _QUANTIFIERS:
                lhs = f"({lhs})"
            if type(psi.rhs) in _QUANTIFIERS:
                rhs = f"({rhs})"
            return f"({lhs} & {rhs})" if kind is And else f"({lhs} | {rhs})"
        if kind in _QUANTIFIERS:
            return f"{'E' if kind is Exists else 'A'} {psi.var}. {tight(psi.body)}"
        out = texts.get(id(psi))
        if out is None:
            if kind is Not:
                out = f"!{tight(psi.child)}"
            elif kind is Eq:
                out = f"{psi.lhs} = {psi.rhs}"
            elif kind is Xn:
                out = f"X{psi.n}({psi.term})"
            else:
                raise TypeError(f"not a formula: {psi!r}")
            texts[id(psi)] = out
        return out

    def tight(psi: Formula) -> str:
        out = text(psi)
        return f"({out})" if type(psi) in _TIGHT else out

    return text(phi)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


# ``bad`` takes any other non-space character, so the matches tile the text
# and an unknown character is reported where the token before it ends
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<num>\d+)|(?P<xpred>X(?=\d))|(?P<quant>[EA](?![a-z0-9]))"
    r"|(?P<name>[a-z][a-z0-9]*)|(?P<sym>[()*+=!&|.$/-])|(?P<bad>\S))"
)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise FormulaSyntaxError(f"unexpected character {m.group(kind)!r}", m.start())
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


# The deepest nesting of ``!``, parentheses and quantifiers a formula may
# have.  Each level costs the parser up to five Python frames, and every
# walk of the formula (printing, evaluation, elimination) one or two more,
# so deeper input would end in a RecursionError.
MAX_NESTING = 150


class _Parser:
    def __init__(self, text: str, field: FieldCtx):
        self.field = field
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {text or 'end of input'!r}", pos)

    def descend(self):
        """Enter one more level of nesting; the caller leaves it."""
        if self.depth == MAX_NESTING:
            raise FormulaSyntaxError(f"formula nested deeper than {MAX_NESTING} levels", self.peek()[2])
        self.depth += 1

    # formula := quantified | implication
    def formula(self) -> Formula:
        kind, text, _ = self.peek()
        if kind == "quant":
            self.next()
            vkind, vname, vpos = self.next()
            if vkind != "name":
                raise FormulaSyntaxError("expected a variable after quantifier", vpos)
            self.expect(".")
            self.descend()
            body = self.formula()
            self.depth -= 1
            return (Exists if text == "E" else Forall)(vname, body)
        return self.implication()

    # Chains are read in a loop and built balanced, so no walk runs out of stack.
    def implication(self) -> Formula:
        parts = [self.disjunction()]
        while self.peek()[0] == "arrow":
            self.next()
            parts.append(self.disjunction())
        return _balanced(Or, [Not(p) for p in parts[:-1]] + parts[-1:])

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek()[1] == "|":
            self.next()
            parts.append(self.conjunction())
        return _balanced(Or, parts)

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.peek()[1] == "&":
            self.next()
            parts.append(self.unary())
        return _balanced(And, parts)

    def unary(self) -> Formula:
        kind, text, pos = self.peek()
        if text == "!":
            self.next()
            self.descend()
            inner = self.unary()
            self.depth -= 1
            return Not(inner)
        if text == "(":
            self.next()
            self.descend()
            inner = self.formula()
            self.expect(")")
            self.depth -= 1
            return inner
        if kind == "quant":
            return self.formula()
        if kind == "xpred":
            self.next()
            ntext = self.next()[1]  # the tokenizer matches X only before a digit
            self.expect("(")
            term = self.term()
            self.expect(")")
            return Xn(int(ntext), term)
        # equation
        lhs = self.term()
        self.expect("=")
        return Eq(lhs, self.term())

    # term := addend (+ addend)*.  An addend is a (scalar, atom) pair and an
    # atom an (is_const, name) pair; one Term.make normalises their sums.
    def term(self) -> Term:
        sums = ({}, {})  # variables, constants
        while True:
            scalar, atom = self.addend()
            if atom is not None:  # None for the literal 0
                acc, name = sums[atom[0]], atom[1]
                acc[name] = acc[name] + scalar if name in acc else scalar  # 0 + a Fraction builds a new one
            if self.peek()[1] != "+":
                return Term.make(self.field, *sums)
            self.next()

    def addend(self):
        kind, text, pos = self.peek()
        if kind == "num" or text == "-":
            scalar = self.scalar()
            if self.peek()[1] == "*":
                self.next()
                return scalar, self.atom()
            if self.field.is_zero(scalar):
                return scalar, None
            raise FormulaSyntaxError("scalar summand without an atom (only 0 stands alone)", pos)
        return self.field.one, self.atom()

    def scalar(self) -> Scalar:
        sign = 1
        if self.peek()[1] == "-":
            self.next()
            sign = -1
        kind, text, pos = self.next()
        if kind != "num":
            raise FormulaSyntaxError("expected a number", pos)
        value = int(text)
        if self.peek()[1] == "/":
            self.next()
            dkind, dtext, dpos = self.next()
            if dkind != "num":
                raise FormulaSyntaxError("expected a denominator", dpos)
            if not self.field.is_infinite:
                raise FormulaSyntaxError("fractional scalars are not prime-field syntax", dpos)
            den = int(dtext)
            if den == 0:
                raise FormulaSyntaxError("zero denominator", dpos)
            return self.field.of(Fraction(sign * value, den))
        return self.field.of(sign * value)

    def atom(self):
        kind, text, pos = self.next()
        if text == "$":
            nkind, name, npos = self.next()
            if nkind != "name":
                raise FormulaSyntaxError("expected a constant name after $", npos)
            return True, name
        if kind == "name":
            return False, text
        raise FormulaSyntaxError(f"expected a variable, constant or scalar, found {text!r}", pos)


def _parse(text: str, field: FieldCtx, rule):
    """``rule`` applied to the whole of ``text``."""
    p = _Parser(text, field)
    out = rule(p)
    if p.peek()[0] != "end":
        raise FormulaSyntaxError(f"trailing input {p.peek()[1]!r}", p.peek()[2])
    return out


def parse_term(text: str, field: FieldCtx) -> Term:
    return _parse(text, field, _Parser.term)


def parse_formula(text: str, field: FieldCtx) -> Formula:
    return _parse(text, field, _Parser.formula)

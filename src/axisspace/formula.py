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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Mapping, Union

from .errors import FormulaSyntaxError, NotQuantifierFree, UnboundSymbol
from .fields import FieldCtx, Scalar, check_same_field
from .linalg import _sparse, _sparse_axpy, _sparse_scale
from .model import ModelElement, combine, in_Xn


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Term:
    """Normalized linear combination of variables and named constants."""

    field: FieldCtx
    vars: tuple  # sorted (name, scalar) pairs, scalars nonzero
    consts: tuple  # sorted (name, scalar) pairs, scalars nonzero
    # hash of (field, vars, consts), computed on first use: hashing the
    # scalars is the cost of every dict and set keyed by terms or literals
    _hash: int | None = dataclass_field(default=None, init=False, repr=False, compare=False)
    # printed text, computed on first use: literals are sorted by it
    _text: str | None = dataclass_field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.field, self.vars, self.consts))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # string hashes differ between processes: a copy rehashes (and
        # prints afresh, so neither cache is pickled)
        return (Term, (self.field, self.vars, self.consts))

    @staticmethod
    def make(field: FieldCtx, vars: Mapping = (), consts: Mapping = ()) -> "Term":
        """The term with coefficients ``vars`` and ``consts``, maps from
        names to scalars in any form ``field.of`` accepts: every scalar is
        coerced, zeros are dropped and names sorted (``linalg._sparse``).
        This is the way in for untrusted input (the parser, :meth:`var`,
        :meth:`const`); arithmetic on terms goes through :meth:`combine`
        and :meth:`scale`, which keep the canonical form their operands
        already have."""
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

    def coeff_of_var(self, name: str) -> Scalar:
        return dict(self.vars).get(name, self.field.zero)

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
        f = self.field
        return self.combine(f.neg(f.one), other)

    def scale(self, c) -> "Term":
        f = self.field
        c = f.of(c)
        if f.is_zero(c):
            return Term.zero(f)
        return Term(f, _sparse_scale(f, c, self.vars), _sparse_scale(f, c, self.consts))

    def drop_var(self, name: str) -> "Term":
        return Term(self.field, tuple(entry for entry in self.vars if entry[0] != name), self.consts)

    def symbols(self) -> set:
        return {k for k, _ in self.vars} | {"$" + k for k, _ in self.consts}

    def __str__(self) -> str:
        text = self._text
        if text is None:
            f = self.field
            parts = []
            for name, c in self.vars:
                parts.append(name if c == f.one else f"{c}*{name}")
            for name, c in self.consts:
                atom = "$" + name
                parts.append(atom if c == f.one else f"{c}*{atom}")
            text = " + ".join(parts) or "0"
            object.__setattr__(self, "_text", text)
        return text


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


def _balanced(node, parts):
    """``node`` (And or Or) over ``parts`` as a tree of depth log2(len)."""
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return node(_balanced(node, parts[:mid]), _balanced(node, parts[mid:]))


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

    Connectives short-circuit left to right, and each distinct atom is
    decided once per call: a QE output shares one node per literal across
    all its disjuncts."""
    if field is None:
        try:
            field = next(iter(env.values())).field
        except StopIteration:
            raise UnboundSymbol("cannot infer the field from an empty environment; pass field=")
    atoms = {}

    def holds(psi: Formula) -> bool:
        if isinstance(psi, (Eq, Xn)):
            truth = atoms.get(psi)
            if truth is None:
                if isinstance(psi, Eq):
                    truth = eval_term(psi.lhs - psi.rhs, env, field).is_zero()
                else:
                    truth = in_Xn(eval_term(psi.term, env, field), psi.n)
                atoms[psi] = truth
            return truth
        if isinstance(psi, Not):
            return not holds(psi.child)
        if isinstance(psi, And):
            return holds(psi.lhs) and holds(psi.rhs)
        if isinstance(psi, Or):
            return holds(psi.lhs) or holds(psi.rhs)
        raise NotQuantifierFree(f"quantifier in quantifier-free evaluation: {print_formula(psi)}")

    return holds(phi)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def print_formula(phi: Formula) -> str:
    if isinstance(phi, Eq):
        return f"{phi.lhs} = {phi.rhs}"
    if isinstance(phi, Xn):
        return f"X{phi.n}({phi.term})"
    if isinstance(phi, Not):
        return f"!{_tight(phi.child)}"
    if isinstance(phi, And):
        return f"({_operand(phi.lhs)} & {_operand(phi.rhs)})"
    if isinstance(phi, Or):
        return f"({_operand(phi.lhs)} | {_operand(phi.rhs)})"
    if isinstance(phi, Exists):
        return f"E {phi.var}. {_tight(phi.body)}"
    if isinstance(phi, Forall):
        return f"A {phi.var}. {_tight(phi.body)}"
    raise TypeError(f"not a formula: {phi!r}")


def _tight(phi: Formula) -> str:
    """Render for positions where equations must not leak context: after !
    and as quantifier bodies."""
    text = print_formula(phi)
    if isinstance(phi, (Eq, Exists, Forall)):
        return f"({text})"
    return text


def _operand(phi: Formula) -> str:
    """Render as an operand of a binary connective: quantifiers would
    otherwise swallow the rest of the line."""
    text = print_formula(phi)
    if isinstance(phi, (Exists, Forall)):
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<num>\d+)|(?P<xpred>X(?=\d))|(?P<quant>[EA](?![a-z0-9]))"
    r"|(?P<name>[a-z][a-z0-9]*)|(?P<sym>[()*+=!&|.$/-]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise FormulaSyntaxError(f"unexpected character {stripped[0]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# The deepest nesting of ``!``, parentheses and quantifiers a formula may
# have.  Each level costs the parser up to five Python frames, and every
# walk of the formula (printing, evaluation, elimination) one or two more,
# so deeper input would end in a RecursionError.
MAX_NESTING = 150


class _Parser:
    def __init__(self, text: str, field: FieldCtx):
        self.text = text
        self.field = field
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {text or 'end of input'!r}", pos)

    def fail(self, message: str):
        raise FormulaSyntaxError(message, self.peek()[2])

    def descend(self):
        """Enter one more level of nesting; the caller leaves it."""
        if self.depth == MAX_NESTING:
            self.fail(f"formula nested deeper than {MAX_NESTING} levels")
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
            nkind, ntext, npos = self.next()
            if nkind != "num":
                raise FormulaSyntaxError("expected a sumset index after X", npos)
            self.expect("(")
            term = self.term()
            self.expect(")")
            return Xn(int(ntext), term)
        # equation
        lhs = self.term()
        self.expect("=")
        rhs = self.term()
        return Eq(lhs, rhs)

    # term := addend (+ addend)*
    def term(self) -> Term:
        out = self.addend()
        while self.peek()[1] == "+":
            self.next()
            out = out + self.addend()
        return out

    def addend(self) -> Term:
        kind, text, pos = self.peek()
        if kind == "num" or text == "-":
            scalar = self.scalar()
            if self.peek()[1] == "*":
                self.next()
                return self.atom().scale(scalar)
            if self.field.is_zero(scalar):
                return Term.zero(self.field)
            raise FormulaSyntaxError("scalar summand without an atom (only 0 stands alone)", pos)
        return self.atom()

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

    def atom(self) -> Term:
        kind, text, pos = self.next()
        if text == "$":
            nkind, name, npos = self.next()
            if nkind != "name":
                raise FormulaSyntaxError("expected a constant name after $", npos)
            return Term.const(self.field, name)
        if kind == "name":
            return Term.var(self.field, text)
        raise FormulaSyntaxError(f"expected a variable, constant or scalar, found {text!r}", pos)


def parse_term(text: str, field: FieldCtx) -> Term:
    p = _Parser(text, field)
    out = p.term()
    if p.peek()[0] != "end":
        p.fail(f"trailing input {p.peek()[1]!r}")
    return out


def parse_formula(text: str, field: FieldCtx) -> Formula:
    p = _Parser(text, field)
    out = p.formula()
    if p.peek()[0] != "end":
        p.fail(f"trailing input {p.peek()[1]!r}")
    return out

"""Effective quantifier elimination and sentence decision over infinite fields.

The existential witness for a quantifier-free matrix, when one exists at all,
can be assembled from a small vocabulary: agree with the relevant parameter
terms block by block (per axis and on the free coordinates), perturb single
axes with fresh coordinates, and pad with fresh axes or a fresh free
direction.  :func:`witness_search` enumerates exactly these shapes against
evaluated parameters and checks every candidate by evaluation, so a returned
witness is correct unconditionally.

:func:`eliminate_exists` runs the same case analysis symbolically, one
disjunct at a time, over the weight intervals of x - t for its parameter
terms t.  Weight 0 (an equation or ``X0``) pins the witness, so x = t is
substituted.  With no upper bound, a fresh free coordinate satisfies every
lower bound.  Otherwise the differences of the terms from an anchor term
bounded above decide.  When they span at most two directions, the axis
census of :func:`_two_direction_condition` is exact for any number of
terms: a witness can agree on an axis only with terms whose difference
that axis kills, so truth depends on the number of axes of each kind,
which is linear in finitely many weight levels, asserted through sumset
atoms on explicit scalar combinations.  That covers every disjunct with at
most two other symbols, so every sentence with at most three variables is
decided exactly.  Three or more directions go to a sound anchored-template
approximation that can miss witnesses, so a verdict on a sentence with
four or more variables can be wrong; inside a block of like quantifiers
it runs only when no variable of a box has an exact engine.  The census
does not carry over: an axis can then kill a whole plane of differences,
every two-direction sub-span needs its own scalar-menu disjunction to pin
its level, and the output multiplies.

Every atom bounds one integer, the weight of its term: the number of axes
the term meets, infinite outside the axis span.  ``t = 0`` is ``X0(t)``
(X^0 = {0}): both bound w(t) above by 0, and their negations bound it
below by 1.  Weights are scale invariant, so each top-level call interns
the terms of its decision once, as primitive integer rows over the
formula's variables and constants, in a table of its own
(:class:`_Table`), and works on their ids: the engines take differences
and integer combinations of rows, and no Fraction term arithmetic runs
between the atoms and the printer.  So a condition is one thing from
the input to the printer, across any nesting of quantifiers: a list of
distinct boxes in first-seen order, read as their disjunction.  A box is
a tuple of entries (id, lo, hi), one per nonzero term, sorted by id,
read as the conjunction of lo <= w(term) <= hi (hi possibly infinite);
``[()]`` is true and ``[]`` is false.  The terms' printed text, cached
by the table, orders three things only: the x-terms of a box
(:func:`_split`), the literals of a box in :func:`_negate`, and the
numbering of :func:`_reduced`.
:func:`_bound` makes every one-term condition and folds the zero term;
:func:`_all` intersects intervals term by term and drops a box as soon
as one is empty; :func:`_any` joins lists.  One walk,
:func:`_dnf_literals`, builds the boxes of a formula with them and
eliminates each quantifier where it stands, innermost first: (forall x)
phi is not (exists x) not phi, and the negation of a condition is the
product, box by box, of the disjunctions of its negated literals.

A block of like quantifiers is one elimination, box by box
(:func:`_exists_rows`), and each box eliminates the innermost of the
block's variables that an exact engine handles.  A condition is reduced
(:func:`_reduced`) only before it is negated or eliminated again, and
once when printed (:func:`_simplify_rows`): boxes that agree on every
term but one and hold touching intervals on it are joined, term by term
in the order of the terms' printed text, until nothing joins, so runs of
levels print as one interval ``Xhi(t) & !X(lo-1)(t)``.

Every entry point refuses finite fields: the theory is incomplete there
and the level calculus loses its generic-scalar arguments.  The term
table checks this where it is built, after checking that every term of
the decision is over one field, so all arithmetic here is over Q.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import (
    FieldNotInfinite,
    FreeSymbolsPresent,
    NotQuantifierFree,
    TargetNotRich,
)
from .fields import FieldCtx, check_same_field
from .formula import (
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Term,
    Xn,
    _balanced,
    eval_qf,
    eval_term,
    false_formula,
    free_symbols,
    is_quantifier_free,
    true_formula,
)
from .linalg import rref
from .model import Model, ModelElement


# ---------------------------------------------------------------------------
# the term table and weight boxes: the one form of a condition
# ---------------------------------------------------------------------------


# the weight of an element outside the axis span
_UNBOUNDED = math.inf


class _Table:
    """The terms of one decision, each interned once as an integer row.

    The columns ``names`` are the formula's variables, then its constants
    with a ``$``, each sorted by name as a Term orders its entries.  A row
    is primitive: integers with gcd 1 and a positive first nonzero entry.
    It stands for every nonzero multiple of its term, as weights are scale
    invariant.  ``ids`` maps each row to its id, ``rows`` lists the rows by
    id, and an id's text and lead-1 Term are made on first use.  Each
    top-level call builds its own table and drops it when it returns."""

    __slots__ = ("field", "names", "column", "ids", "rows", "_texts", "_terms")

    def __init__(self, phi: Formula, *variables):
        """The empty table of ``phi``'s variables, bound or free, its
        constants and ``variables``.  Every term must be over one field,
        else FieldMismatch, and that field infinite, else
        FieldNotInfinite, checked in this order."""
        terms, names, stack = [], set(variables), [phi]
        while stack:
            psi = stack.pop()
            kind = type(psi)
            if kind is Xn:
                terms.append(psi.term)
            elif kind is Eq:
                terms += (psi.lhs, psi.rhs)
            elif kind is Not:
                stack.append(psi.child)
            elif kind is And or kind is Or:
                stack += (psi.lhs, psi.rhs)
            else:
                names.add(psi.var)
                stack.append(psi.body)
        names |= {name for t in terms for name, _ in t.vars}
        constants = {name for t in terms for name, _ in t.consts}
        field = self.field = terms[0].field
        for t in terms:
            check_same_field(field, t.field)
        if not field.is_infinite:
            raise FieldNotInfinite("quantifier elimination is only complete over infinite fields")
        self.names = (*sorted(names), *("$" + name for name in sorted(constants)))
        self.column = {name: i for i, name in enumerate(self.names)}
        # texts are keyed by id, and those of x-terms by (id, column)
        self.ids, self.rows, self._texts, self._terms = {}, [], {}, {}

    def id(self, row):
        """The id of the term with integer coefficients ``row``, in any
        scale; None for the zero term."""
        g = math.gcd(*row)
        if not g:
            return None
        if next(filter(None, row)) < 0:
            g = -g
        row = tuple(row) if g == 1 else tuple(c // g for c in row)
        tid = self.ids.get(row)
        if tid is None:
            tid = self.ids[row] = len(self.rows)
            self.rows.append(row)
        return tid

    def intern(self, *terms: Term):
        """The id of a formula's term, or of the difference of an
        equation's two: their coefficients brought to a common
        denominator, which is dropped."""
        den = math.lcm(*[c.denominator for t in terms for _, c in t.vars + t.consts])
        column, row = self.column, [0] * len(self.names)
        for scale, t in zip((den, -den), terms):
            for name, c in t.vars:
                row[column[name]] += scale // c.denominator * c.numerator
            for name, c in t.consts:
                row[column["$" + name]] += scale // c.denominator * c.numerator
        return self.id(row)

    def text(self, tid) -> str:
        """The printed text of the term of ``tid`` scaled to lead
        coefficient 1."""
        text = self._texts.get(tid)
        if text is None:
            row = self.rows[tid]
            text = self._texts[tid] = self._format(row, next(filter(None, row)))
        return text

    def x_text(self, tid, col) -> str:
        """The printed text of t for the term of ``tid`` read as
        mu*(x - t), x the variable of column ``col``: t = -rest/mu."""
        key = (tid, col)
        text = self._texts.get(key)
        if text is None:
            row = self.rows[tid]
            text = self._texts[key] = self._format([0 if j == col else -c for j, c in enumerate(row)], row[col])
        return text

    def _format(self, row, den) -> str:
        """The text of the term row / den, as a Term prints it."""
        if den < 0:
            row, den = [-c for c in row], -den
        parts = []
        for name, c in zip(self.names, row):
            if c:
                g = math.gcd(c, den)
                num, d = c // g, den // g
                parts.append(f"{num}/{d}*{name}" if d != 1 else name if num == 1 else f"{num}*{name}")
        return " + ".join(parts) or "0"

    def term(self, tid) -> Term:
        """The Term of ``tid`` scaled to lead coefficient 1, as printed."""
        term = self._terms.get(tid)
        if term is None:
            row = self.rows[tid]
            term = self._terms[tid] = self.term_of(row, next(filter(None, row)))
        return term

    def term_of(self, row, den) -> Term:
        """The Term row / den, each coefficient scaled through the field;
        the columns are in a Term's order, and no entry of a row or of m*t
        (see :func:`_split`) vanishes."""
        f = self.field
        mul, inv = f.mul, f.of(Fraction(1, den))
        entries = [(name, mul(c, inv)) for name, c in zip(self.names, row) if c]
        return Term(
            f,
            tuple(entry for entry in entries if entry[0][0] != "$"),
            tuple((name[1:], c) for name, c in entries if name[0] == "$"),
        )


def _bound(tid, lo, hi) -> list:
    """The condition lo <= w(t) <= hi on the weight of the term of table
    id ``tid`` (None for the zero term): at most one box.  [0, inf] is
    true; the zero term has weight 0, so its bound is true when lo <= 0
    and false otherwise."""
    lo = max(lo, 0)
    if lo > hi or (lo > 0 and tid is None):
        return []
    if tid is None or (lo == 0 and hi == _UNBOUNDED):
        return [()]
    return [((tid, lo, hi),)]


def _meet(a: tuple, b: tuple):
    """The conjunction of two boxes, one merge of their entries by term
    id, intervals intersected term by term; None when one becomes empty."""
    if not a or not b:
        return a or b
    out, i, j, na, nb = [], 0, 0, len(a), len(b)
    while i < na and j < nb:
        ea, eb = a[i], b[j]
        ka, kb = ea[0], eb[0]
        if ka == kb:
            lo, hi = max(ea[1], eb[1]), min(ea[2], eb[2])
            if lo > hi:
                return None
            out.append((ka, lo, hi))
            i, j = i + 1, j + 1
        elif ka < kb:
            out.append(ea)
            i += 1
        else:
            out.append(eb)
            j += 1
    return (*out, *a[i:], *b[j:])


def _all(parts) -> list:
    """Conjunction of conditions: the left-major product of their boxes,
    a box dropped as soon as an interval is empty and the product
    deduplicated after each factor so repeats never multiply."""
    rows = [()]
    for part in parts:
        out = {}
        for row in rows:
            for other in part:
                box = _meet(row, other)
                if box is not None:
                    out[box] = None
        rows = list(out)
        if not rows:
            break
    return rows


def _any(parts) -> list:
    """Disjunction of conditions: their boxes in order without repeats;
    true as soon as one box is."""
    rows = {}
    for part in parts:
        for row in part:
            if not row:
                return [()]
            rows[row] = None
    return list(rows)


def _atom(tid, n, positive: bool) -> list:
    """w(t) <= n, or its negation w(t) >= n + 1, for the term of ``tid``."""
    return _bound(tid, 0, n) if positive else _bound(tid, n + 1, _UNBOUNDED)


def _literals(entries):
    """The printed literals of entries (key, lo, hi), in order: (True, hi,
    key) when hi is finite, then (False, lo - 1, key) when lo >= 1."""
    for key, lo, hi in entries:
        if hi != _UNBOUNDED:
            yield True, hi, key
        if lo > 0:
            yield False, lo - 1, key


def _negate(table: _Table, rows) -> list:
    """The negation of a condition: per box, the disjunction of its
    negated literals in printed order (its entries in the order of the
    terms' text), multiplied out box by box.  The running product is a
    conjunction, so it is reduced after every factor and stays
    equivalent."""
    out, text = [()], table.text
    for box in rows:
        literals = _literals(sorted(box, key=lambda entry: text(entry[0])))
        out = _reduced(table, _all([out, _any(_atom(t, n, not pol) for pol, n, t in literals)]))[0]
        if not out:
            break
    return out


def _dnf_literals(table: _Table, phi: Formula) -> list:
    """The boxes of ``phi`` over the ids of ``table``, every quantifier
    eliminated.  The walk carries the polarity that negations flip.
    ``t = 0`` and ``Xn(t)`` bound w(t) above by 0 and n, their negations
    below by 1 and n + 1.
    A block of like quantifiers takes the boxes of its matrix, or of its
    negation under forall, and its condition is negated where its
    polarity differs from the context's.  It is reduced only before it
    is negated or, ``scoped`` by an outer quantifier, eliminated again."""

    def rows(psi: Formula, positive: bool, scoped: bool) -> list:
        if isinstance(psi, Not):
            return rows(psi.child, not positive, scoped)
        if isinstance(psi, (And, Or)):
            parts = [rows(psi.lhs, positive, scoped), rows(psi.rhs, positive, scoped)]
            return _all(parts) if isinstance(psi, And) == positive else _any(parts)
        if isinstance(psi, (Exists, Forall)):
            kind, variables = type(psi), []
            while isinstance(psi, kind):
                variables, psi = variables + [psi.var], psi.body
            exists = kind is Exists
            cond = _exists_rows(table, rows(psi, exists, True), variables)
            if scoped or exists != positive:
                cond = _reduced(table, cond)[0]
            return cond if exists == positive else _negate(table, cond)
        if isinstance(psi, Eq):
            return _atom(table.intern(psi.lhs, psi.rhs), 0, positive)
        return _atom(table.intern(psi.term), psi.n, positive)

    return rows(phi, True, False)


# ---------------------------------------------------------------------------
# witness search over evaluated parameters
# ---------------------------------------------------------------------------


def witness_search(phi: Formula, var: str, env: Mapping, model: Model):
    """Find a model element for ``var`` satisfying the quantifier-free
    ``phi`` under ``env``, or None when no candidate does.

    Each candidate is assembled from the vocabulary of the module
    docstring and checked with the evaluator before being returned, so
    soundness does not depend on the completeness argument for that
    vocabulary.
    """
    if not is_quantifier_free(phi):
        raise NotQuantifierFree("witness search needs a quantifier-free matrix")
    if not model.is_rich:
        raise TargetNotRich("witness search requires a rich model")
    table = _Table(phi, var)
    check_same_field(table.field, model.field)
    for disjunct in _dnf_literals(table, phi):
        found = _search_disjunct(table, disjunct, phi, var, env, model)
        if found is not None:
            return found
    return None


def _search_disjunct(table: _Table, box, phi, var, env, model: Model):
    field = model.field
    params, xs, scale = _split(table, box, var)
    for tid, lo, hi in params:
        el = eval_term(table.term(tid), env, field)
        if not lo <= (len(el.axes()) if el.in_F() else _UNBOUNDED) <= hi:
            return None  # parameter-only bound fails; disjunct dead

    # w(x - t_i) lies in spans[i]; terms equal under env share one interval
    terms, spans = [], []
    for t, lo, hi in xs:
        el = eval_term(table.term_of(t, scale), env, field)
        if el in terms:
            i = terms.index(el)
            spans[i] = (max(lo, spans[i][0]), min(hi, spans[i][1]))
        else:
            terms.append(el)
            spans.append((lo, hi))
    pos_xn = {i: hi for i, (_, hi) in enumerate(spans) if hi != _UNBOUNDED}
    lows = {i: lo for i, (lo, _) in enumerate(spans) if lo > 0}

    used = list(env.values()) + terms
    free_classes = list(dict.fromkeys(t.free_part for t in terms))
    axes = sorted({axis for t in terms for axis in {a for (a, _), _ in t.axis_part}})
    comp_table = {
        axis: [
            ModelElement.make(field, {(a, c): v for (a, c), v in t.axis_part if a == axis})
            for t in terms
        ]
        for axis in axes
    }
    menus = {axis: list(dict.fromkeys(comps)) for axis, comps in comp_table.items()}

    def verify(x: ModelElement):
        full_env = dict(env)
        full_env[var] = x
        return eval_qf(phi, full_env, field)

    def matches(i: int, chosen_fp) -> bool:
        return terms[i].free_part == chosen_fp

    for chosen_fp in free_classes + [None]:  # None = fresh free direction
        if chosen_fp is None and pos_xn:
            continue  # an upper bound forces agreement on the free block
        if chosen_fp is not None and any(not matches(i, chosen_fp) for i in pos_xn):
            continue

        counts = [0] * len(terms)
        choice: list = []

        def assign(ai: int):
            if ai == len(axes):
                yield from finish()
                return
            axis = axes[ai]
            comps = comp_table[axis]
            for opt in menus[axis] + [None]:  # None = fresh coordinate on the axis
                bumped = []
                for i in range(len(terms)):
                    if opt is None or opt != comps[i]:
                        counts[i] += 1
                        bumped.append(i)
                if all(counts[i] <= n for i, n in pos_xn.items()):
                    choice.append((axis, opt))
                    yield from assign(ai + 1)
                    choice.pop()
                for i in bumped:
                    counts[i] -= 1

        def finish():
            upper = None
            for i, n in pos_xn.items():
                slack = n - counts[i]
                upper = slack if upper is None else min(upper, slack)
            lower = 0
            if chosen_fp is not None:
                for i, lo in lows.items():
                    if matches(i, chosen_fp):
                        lower = max(lower, lo - counts[i])
            if upper is not None and lower > upper:
                return
            yield lower

        for r in assign(0):
            # per axis the chosen term component or a fresh coordinate, then
            # r fresh axes and the free part
            x, fresh = ModelElement.zero(field), list(used)
            for axis, opt in choice:
                if opt is None:
                    opt = model.e(axis, model.fresh_coord(axis, fresh))
                    fresh.append(opt)
                x = x + opt
            for _ in range(r):
                fresh.append(model.e(model.fresh_axis(fresh), 0))
                x = x + fresh[-1]
            if chosen_fp is None:
                x = x + model.fe(model.fresh_free_coord(fresh))
            else:
                x = x + ModelElement(field, (), chosen_fp)
            if verify(x):
                return x
    return None


# ---------------------------------------------------------------------------
# symbolic elimination
# ---------------------------------------------------------------------------


def eliminate_exists(phi: Formula, var: str) -> Formula:
    """Quantifier-free formula equivalent to (exists var) phi over every
    rich canonical model of an infinite field."""
    if not is_quantifier_free(phi):
        raise NotQuantifierFree("eliminate_exists expects a quantifier-free matrix")
    return eliminate_all(Exists(var, phi))


def _exists_rows(table: _Table, disjuncts, variables) -> list:
    """(exists v_1) ... (exists v_k) over the boxes ``disjuncts``, box by
    box: a box eliminates the innermost variable an exact engine handles,
    v_k by the fallback when none does (:func:`_eliminate_disjunct`), and
    its condition is reduced and eliminated for the others before the next
    box is taken; the order inside a block is free."""
    last = len(variables) - 1
    conds = [None] * len(disjuncts)
    # one true disjunct makes the condition true; disjuncts with few upper
    # bounds are cheap to eliminate and the likely true ones, so they go
    # first and spare the expensive ones
    for i in sorted(range(len(disjuncts)), key=lambda i: sum(hi != _UNBOUNDED for _, _, hi in disjuncts[i])):
        for j in range(last, -1, -1) if last else ():
            cond = _eliminate_disjunct(table, disjuncts[i], variables[j], exact=True)
            if cond is not None:
                break
        else:
            j, cond = last, _eliminate_disjunct(table, disjuncts[i], variables[last])
        rest = variables[:j] + variables[j + 1:]
        conds[i] = _exists_rows(table, _reduced(table, cond)[0], rest) if rest else cond
        if conds[i] == [()]:
            return conds[i]
    return _any(conds)


def _split(table: _Table, box, var: str):
    """The entries of a box without ``var``, a box itself; the others as
    entries (row, lo, hi) in the order of the text of t, for an x-term
    mu*(x - t), which has the weight of x - t (distinct x-terms, distinct
    t); and the scale m of those rows.  Each row is m*t, m the least
    common multiple of the x-coefficients: the differences of the rows and
    their integer combinations are then those of the t's scaled by m,
    which leaves every weight, and every table id, unchanged."""
    col, rows = table.column[var], table.rows
    params, xs = [], []
    for entry in box:
        (xs if rows[entry[0]][col] else params).append(entry)
    xs.sort(key=lambda entry: table.x_text(entry[0], col))
    scale = math.lcm(*(rows[tid][col] for tid, _, _ in xs)) if xs else 1
    out = []
    for tid, lo, hi in xs:
        row = rows[tid]
        # m*t = -rest*(m/mu), the coefficient of x dropped
        factor = -(scale // row[col])
        t = [c * factor for c in row]
        t[col] = 0
        out.append((t, lo, hi))
    return tuple(params), out, scale


def _eliminate_disjunct(table: _Table, box, var: str, exact: bool = False):
    """One disjunct's condition, over the intervals of w(x - t) for its
    parameter terms t in the order of their printed text; None when
    ``exact`` and only the fallback applies."""
    params, xs, _ = _split(table, box, var)
    params, terms, spans = [params], [t for t, _, _ in xs], [(lo, hi) for _, lo, hi in xs]

    # substitution: weight 0 pins the witness exactly, x = t
    for t, (_, hi) in zip(terms, spans):
        if hi == 0:
            return _all([params] + [_bound(table.id(_minus(s, t)), *span) for s, span in zip(terms, spans)])

    # no upper bound: a fresh free coordinate defeats every lower one
    anchor = next((i for i, (_, hi) in enumerate(spans) if hi != _UNBOUNDED), None)
    if anchor is None or len(terms) == 1:
        return params

    order = [anchor] + [i for i in range(len(terms)) if i != anchor]
    terms, spans = [terms[i] for i in order], [spans[i] for i in order]
    # a level past which every level is feasible or none is
    cap = sum(hi for _, hi in spans if hi != _UNBOUNDED) + max([0] + [lo - 1 for lo, _ in spans]) + 2
    rank = _difference_rank(table.field, terms)
    if rank <= 2:
        return _all([params, _two_direction_condition(table, terms, spans, cap, rank)])
    if exact:
        return None
    return _all([params, _fallback_condition(table, [_minus(t, terms[0]) for t in terms[1:]], spans, cap)])


def _minus(a, b) -> list:
    """The integer row a - b."""
    return [x - y for x, y in zip(a, b)]


def _difference_rank(field: FieldCtx, terms) -> int:
    """The dimension of the span of the differences of the integer rows
    ``terms`` from terms[0]."""
    return len(rref(field, [_minus(t, terms[0]) for t in terms[1:]])[0])


# -- the axis census: differences in at most two directions ------------------


def _two_direction_condition(table: _Table, terms, spans, cap, rank) -> list:
    """Exact condition for parameter terms t_0, the anchor, bounded above,
    and t_1..t_n whose differences span ``rank`` <= 2 directions, with
    w(x - t_j) in spans[j]; the terms are integer rows in one scale (see
    :func:`_split`) and each direction is a table id.

    With y = x - t_0 in the axis span, w(x - t_j) counts the axes where y
    and t_j - t_0 differ, plus fresh axes of y.  Two terms agree on an
    axis exactly when it kills the direction of their difference, and in
    two dimensions an axis kills at most one direction.  So every axis the
    differences meet is of the kind of one direction w, where the terms
    fall into classes along w, or generic, where no two agree.  D - w(w)
    axes are of kind w, for D the axes the differences meet: the census
    (:func:`_census`) is linear in the levels w(w) and D.  With one
    direction every axis is generic and D is its level; with two, D is
    pinned by sumset atoms on u + k*v (:func:`_menu_bound`).  A direction
    along which only terms bounded below pair up counts as generic.

    A term j bounded only from below saturates once w(t_j - t_0) >= lo_j
    + a0, a0 the anchor bound: then every witness keeps it.  With one
    direction, levels run to ``cap`` and the next stands for all above.
    With two, each basis term bounded only from below is either saturated
    and dropped, or below the threshold, which keeps every level finite;
    basis terms bounded above are chosen first.
    """
    a0 = spans[0][1]
    directions = {}

    def direction(j, k):
        # the table id of the difference t_k - t_j
        if (j, k) not in directions:
            directions[j, k] = table.id(_minus(terms[k], terms[j]))
        return directions[j, k]

    def condition(rows, rank) -> list:
        if rank == 0:
            return [()]
        lows, highs = zip(*(spans[i] for i in rows))
        if rank == 1:
            # two terms bounded above bound D, else D = cap + 1 stands for all above
            top = min(sum(sorted(highs)[:2]), cap + 1)
            e = direction(0, rows[1])
            return _any(_bound(e, D, _UNBOUNDED if D > cap else D) for (D,) in _census((), lows, highs, (), top))
        ordered = sorted(rows[1:], key=lambda i: spans[i][1] == _UNBOUNDED)
        a = ordered[0]
        b = next(i for i in ordered if direction(0, i) != direction(0, a))
        below = [i for i in sorted((a, b)) if spans[i][1] == _UNBOUNDED]
        branches = []
        for size in range(len(below) + 1):
            for saturated in itertools.combinations(below, size):
                assertions = _all([_bound(direction(0, i), spans[i][0] + a0, _UNBOUNDED) for i in saturated])
                if saturated:
                    rest = [i for i in rows if i not in saturated]
                    cond = condition(rest, _difference_rank(table.field, [terms[i] for i in rest]))
                else:
                    cond = census(rows, lows, highs, below)
                branches.append(_all([assertions, cond]))
        return _any(branches)

    def census(rows, lows, highs, below) -> list:
        # a basis term below its saturation threshold bounds its level by it
        limit = {(0, i): a0 + spans[i][0] - 1 for i in below}
        along = {}  # direction -> the pairs of positions in rows along it
        for (p, j), (q, k) in itertools.combinations(enumerate(rows), 2):
            along.setdefault(direction(j, k), []).append((p, q))
        dirs = [w for w, pairs in along.items() if any(min(highs[p], highs[q]) != _UNBOUNDED for p, q in pairs)]
        classes, budgets = [], []
        for w in dirs:
            cls = list(range(len(rows)))
            for p, q in along[w]:
                cls[q] = min(cls[q], cls[p])
            classes.append(tuple(cls))
            budgets.append(min(limit.get((rows[p], rows[q]), highs[p] + highs[q]) for p, q in along[w]))
        profiles = _census(tuple(classes), lows, highs, tuple(budgets), _UNBOUNDED)
        # the anchor differences along the first two directions
        u, v = (_minus(terms[next(i for i in rows[1:] if direction(0, i) == w)], terms[0]) for w in dirs[:2])
        size = max((min(p[0], p[1]) + 1 for p in profiles), default=0)
        combos = [table.id([x + k * y for x, y in zip(u, v)]) for k in range(1, size + 1)]
        return _any(
            _all([_bound(w, L, L) for w, L in zip(dirs, levels)] + [_menu_bound(combos[: min(levels[0], levels[1]) + 1], D, D)])
            for *levels, D in profiles
        )

    return condition(list(range(len(terms))), rank)


@lru_cache(maxsize=4096)
def _census(classes, lows, highs, budgets, top):
    """The feasible level profiles (L_1, ..., L_p, D) of an axis census,
    sorted, with L_w <= budgets[w] and D <= top.

    ``classes[w]`` names each term's class along direction w; D - L_w axes
    are of kind w, the others generic, where each term is its own class.
    On each axis a witness agrees with one class or takes a fresh value,
    adding 1 to the weight of every term it does not agree with; fresh
    axes add 1 to all.  A profile is feasible when some choice puts every
    weight in [lows, highs].  A weight bounded only below never suffers
    from growing, so a class with no term bounded above is never worth
    agreeing with.  The direction kinds are walked axis by axis; generic
    and fresh axes are counted in closed form.
    """
    m = len(lows)
    options = [
        {tuple(int(c != k) for c in cls) for k, hi in zip(cls, highs) if hi != _UNBOUNDED} | {(1,) * m}
        for cls in classes
    ]
    # a weight past a lower-only bound is as good as at it
    clip = tuple(hi + 1 if hi != _UNBOUNDED else lo for lo, hi in zip(lows, highs))
    fresh = range(min(hi for hi in highs if hi != _UNBOUNDED) + 1)
    counts = [0] * (len(classes) + 1)  # axes per kind, generic last
    found = []

    def fits(state, generic) -> bool:
        # r fresh axes; the witness agrees with term j on max(0, w_j - hi_j) generic axes
        return any(
            all(s + generic + r >= lo for s, lo in zip(state, lows))
            and sum(max(0, s + generic + r - hi) for s, hi in zip(state, highs)) <= generic
            for r in fresh
        )

    def walk(kind, states, total):
        # every count of this kind that keeps the levels in budget
        while total <= top and all(total - n <= cap for n, cap in zip(counts, budgets)):
            if kind == len(classes):
                if any(fits(s, counts[kind]) for s in states):
                    found.append(tuple(total - n for n in counts[:-1]) + (total,))
            else:
                walk(kind + 1, states, total)
                states = {
                    t
                    for s in states
                    for o in options[kind]
                    for t in [tuple(min(c, x + y) for c, x, y in zip(clip, s, o))]
                    if all(x <= hi for x, hi in zip(t, highs))
                }
                if not states:
                    break
            total += 1
            counts[kind] += 1
        counts[kind] = 0

    walk(0, {(0,) * m}, 0)
    return tuple(sorted(found))


def _menu_bound(combos, lo, hi) -> list:
    """lo <= w(s + lambda * sigma) <= hi for a generic scalar lambda,
    through ``combos``, the table ids of s + k * sigma for k = 1..size:
    every combination is at most hi (one row) and some combination at
    least lo (one column).  A generic combination realizes the union of
    the axes, and a menu longer than the number of axes where a
    combination can cancel contains a generic entry."""
    return _all([_bound(c, 0, hi) for c in combos] + [_any([_bound(c, lo, _UNBOUNDED) for c in combos])])


# -- sound fallback for three or more directions -----------------------------


def _fallback_condition(table: _Table, diffs, spans, cap) -> list:
    """Anchored-template approximation for differences spanning three or
    more directions, with spans[0] the anchor's: witnesses of the shapes
    t_anchor + nu*u_j + (fresh axes), plus the fresh-coordinate
    perturbation of a single difference.  The differences u_j are integer
    rows in one scale (see :func:`_split`).  Sound by construction;
    completeness is not claimed."""
    gamma = [[0] * len(diffs[0])] + diffs
    out = []
    for base in gamma:
        for nu in (0, 1, -1, 2, -2):
            # the bounded terms, the same at every level r
            terms = [table.id([nu * b - c for b, c in zip(base, g)]) for g in gamma]
            for r in range(cap + 1):
                out.append(_all([_bound(t, lo - r, hi - r) for t, (lo, hi) in zip(terms, spans)]))
        # fresh coordinates on base's axes
        multiples = [[k * b for b in base] for k in range(1, cap + 2)]
        out.append(_all([_menu_bound([table.id(_minus(m, g)) for m in multiples], lo, hi) for g, (lo, hi) in zip(gamma, spans)]))
    return _any(out)


# ---------------------------------------------------------------------------
# simplification and the full pipeline
# ---------------------------------------------------------------------------


def simplify(phi: Formula) -> Formula:
    """Disjunctive normal form of a quantifier-free ``phi`` with constant
    folding, interval joins and deduplication: :func:`eliminate_all` of a
    formula with no quantifier to eliminate."""
    if not is_quantifier_free(phi):
        raise NotQuantifierFree("simplify expects a quantifier-free formula")
    return eliminate_all(phi)


def _simplify_rows(table: _Table, rows) -> Formula:
    """A condition as a formula, reduced by :func:`_reduced`.  Each
    interval prints as at most two literals (see :func:`_literals`):
    ``t = 0`` when hi = 0, else ``Xhi(t)`` when hi is finite and
    ``!X(lo-1)(t)`` when lo >= 1, t the table's lead-1 Term of the id,
    one per distinct id.  The output holds one node per distinct literal
    (its atom, or a ``Not`` over an atom of its own), shared by every
    disjunct that contains it."""
    rows, literals, lit_rows = _reduced(table, rows)
    field = table.field
    if not rows:
        return false_formula(field)
    if rows == [()]:
        return true_formula(field)
    # a literal only of rows dropped as non-minimal gets no node
    zero, nodes = Term.zero(field), [None] * len(literals)
    for row in lit_rows:
        for i in row:
            if nodes[i] is None:
                pol, n, tid = literals[i]
                term = table.term(tid)
                atom = Eq(term, zero) if pol and n == 0 else Xn(n, term)
                nodes[i] = atom if pol else Not(atom)
    return _balanced(Or, [_balanced(And, [nodes[i] for i in row]) for row in lit_rows])


def _reduced(table: _Table, rows):
    """A condition, distinct boxes, reduced, as (rows, literals, lit_rows):
    the boxes, ``[()]`` if true, the distinct literals (pol, n, table id)
    of the rows (see :func:`_literals`), and for each row the numbers of
    its literals in printed order.  The rows' table ids are numbered
    afresh in the order of the table's text, so the join sweep and the
    literals follow the terms' printed text; each box maps to a row of
    (number, lo, hi) sorted by number.  Intervals are joined (see
    :func:`_join_intervals`), each joined row's literals are listed once
    and non-minimal rows dropped (see :func:`_minimal_rows`); the rows
    kept go back to table ids."""
    if not rows:
        return [], [], []
    if not all(rows):
        return [()], [], [[]]
    tids = sorted({entry[0] for box in rows for entry in box}, key=table.text)
    number = {tid: i for i, tid in enumerate(tids)}
    rows = _join_intervals([tuple(sorted((number[t], lo, hi) for t, lo, hi in box)) for box in rows], len(tids))
    if () in rows:
        return [()], [], [[]]
    ids = {}
    lit_rows = [[ids.setdefault(lit, len(ids)) for lit in _literals(row)] for row in rows]
    minimal = _minimal_rows(lit_rows)
    return (
        [tuple(sorted((tids[i], lo, hi) for i, lo, hi in row)) for row, keep in zip(rows, minimal) if keep],
        [(pol, n, tids[i]) for pol, n, i in ids],
        [lits for lits, keep in zip(lit_rows, minimal) if keep],
    )


def _join_intervals(rows, nterms):
    """Join the intervals of rows that agree on every term but one.

    Rows are distinct tuples of (term id, lo, hi) sorted by id, for term
    ids ``range(nterms)``.  A sweep visits the ids in order.  For id k it
    groups the rows that hold k by their other entries and, within a
    group, joins intervals that overlap or touch (lo <= previous hi + 1);
    an interval that becomes [0, inf] leaves its row.  A row without k is
    a group of its own: a row holding k that otherwise equals it has a
    strict superset of its literals, which :func:`_minimal_rows` drops.
    A step that joins nothing keeps the rows; one that does lists the
    groups in the order of their first rows, each group's intervals by
    lower end.  Sweeps repeat until one joins nothing, so the rows stay
    distinct and their order depends on the input order alone.

    The rows that hold k are found through an index from each id to the
    rows that hold it, built again only after a step that joins.  So a
    step that joins nothing costs O(rows holding k x row length), and one
    that joins O(entries).  The index holds plain row numbers, and a
    row's entry on k is found by bisection, so a step builds few objects
    for the garbage collector to track.
    """
    index = _term_index(rows, nterms)
    joined_any = True
    while joined_any:
        joined_any = False
        for k in range(nterms):
            holders = index[k]
            if len(holders) < 2:
                continue
            key = (k,)  # sorts right before an entry on k
            groups = {}  # the other entries -> the rows that hold them
            for r in holders:
                row = rows[r]
                j = bisect_left(row, key)
                rest = row[:j] + row[j + 1:]
                members = groups.get(rest)
                if members is None:
                    groups[rest] = [r]
                else:
                    members.append(r)
            if len(groups) == len(holders):
                continue
            joined = {}  # the other entries of two or more rows -> their intervals joined
            shrunk = False
            for rest, members in groups.items():
                if len(members) > 1:
                    j = bisect_left(rest, key)
                    spans = sorted(rows[r][j][1:] for r in members)
                    merged = [list(spans[0])]
                    for lo, hi in spans[1:]:
                        if lo <= merged[-1][1] + 1:
                            merged[-1][1] = max(merged[-1][1], hi)
                        else:
                            merged.append([lo, hi])
                    shrunk |= len(merged) < len(spans)
                    joined[rest] = merged
            if not shrunk:
                continue
            joined_any = True
            firsts = {members[0]: rest for rest, members in groups.items()}
            held = set(holders)
            out, alone = [], set()
            for r, row in enumerate(rows):
                rest = firsts.get(r)
                if rest is not None:
                    j = bisect_left(rest, key)
                    for lo, hi in joined.get(rest, (row[j][1:],)):
                        out.append(rest if lo == 0 and hi == _UNBOUNDED else rest[:j] + ((k, lo, hi),) + rest[j:])
                elif r not in held and row not in alone:
                    alone.add(row)
                    out.append(row)
            rows = out
            index = _term_index(rows, nterms)
    return rows


def _term_index(rows, nterms):
    """For each term id, the numbers of the rows that hold it, in order."""
    index = [[] for _ in range(nterms)]
    for r, row in enumerate(rows):
        for entry in row:
            index[entry[0]].append(r)
    return index


def _minimal_rows(lit_rows):
    """For distinct rows given by the ids of their literals (see
    :func:`_reduced`), whether each strictly contains no other row.

    Each row becomes the bitmask of its literal ids and is filed under its
    rarest id.  A row can contain only rows filed under one of its own ids,
    so it is compared with those alone rather than with every row.
    """
    masks = [sum(1 << i for i in row) for row in lit_rows]
    count = Counter(i for row in lit_rows for i in row)
    filed = {}
    for row, mask in zip(lit_rows, masks):
        filed.setdefault(min(row, key=count.__getitem__), []).append(mask)
    return [
        not any(other != mask and other & mask == other for i in row for other in filed.get(i, ()))
        for row, mask in zip(lit_rows, masks)
    ]


def eliminate_all(phi: Formula) -> Formula:
    """Quantifier-free equivalent over rich models, eliminating innermost
    quantifiers first (see :func:`_dnf_literals`)."""
    table = _Table(phi)
    return _simplify_rows(table, _dnf_literals(table, phi))


def decide_sentence(phi: Formula) -> bool:
    """Decide a sentence: eliminate all quantifiers.  Every term of a
    sentence's condition is closed, hence zero and folded by
    :func:`_bound`, so the condition is true or false."""
    symbols = free_symbols(phi)
    if symbols:
        raise FreeSymbolsPresent(f"not a sentence; free symbols {sorted(symbols)}")
    rows = _dnf_literals(_Table(phi), phi)
    if rows not in ([], [()]):
        raise NotQuantifierFree("elimination left a condition on a sentence")
    return bool(rows)

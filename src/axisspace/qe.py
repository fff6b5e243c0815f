"""Effective quantifier elimination and sentence decision over infinite fields.

The existential witness for a quantifier-free matrix, when one exists at all,
can be assembled from a small vocabulary: agree with the relevant parameter
terms block by block (per axis and on the free coordinates), perturb single
axes with fresh coordinates, and pad with fresh axes or a fresh free
direction.  :func:`witness_search` enumerates exactly these shapes against
evaluated parameters and checks every candidate by evaluation, so a returned
witness is correct unconditionally.

:func:`eliminate_exists` runs the same case analysis symbolically.  Three
exact engines cover a disjunct: substitution when a positive equation pins
the witness; a trivial condition when no positive literal constrains it (a
fresh free coordinate satisfies every negative literal in a rich model); and
level-profile enumeration over the differences of the parameter terms, which
reduces truth to finitely many weight levels, asserted through sumset atoms
on explicit scalar combinations.  Profiles with one direction (all
differences proportional) are solved in closed form for any number of terms;
two independent directions go through an exact axis-type count enumeration.
Disjuncts with three or more independent directions fall back to a sound
anchored-template approximation.

A condition is one thing throughout: a list of distinct rows in first-seen
order, each row a frozenset of canonical literals read as their conjunction,
the list read as the disjunction of its rows (``[frozenset()]`` is true,
``[]`` is false).  :func:`_all` and :func:`_any` build conditions; the DNF
of an input formula and every engine's output are built with them, so the
engines emit rows and no formula tree is expanded twice.  The engines emit
one row per feasible level of a term.

Every elimination ends in :func:`_simplify_rows`, which reads each row as
one weight interval per term (every literal bounds the weight of its term:
the number of axes it meets, infinite outside the axis span) and joins rows
that agree on every term but one and hold touching intervals on it, term by
term in the order of the terms' printed text, until nothing joins.  So runs
of levels print as one interval ``Xhi(t) & !X(lo-1)(t)``.

Everything refuses finite fields: the theory is incomplete there and the
level calculus loses its generic-scalar arguments.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import (
    FieldNotInfinite,
    FreeSymbolsPresent,
    NotQuantifierFree,
    TargetNotRich,
)
from .fields import FieldCtx
from .formula import (
    And,
    Eq,
    Exists,
    Formula,
    Not,
    Or,
    Term,
    Xn,
    eval_qf,
    eval_term,
    false_formula,
    free_symbols,
    is_quantifier_free,
    print_formula,
    true_formula,
)
from .model import Model, ModelElement


@dataclass(frozen=True)
class WitnessTemplate:
    """Shape of one candidate witness.

    ``hull_coeffs`` fixes the candidate on the coordinate blocks spanned by
    the parameter terms: per axis either a concrete component drawn from the
    finitely many term components there, and for the free block one of the
    term free-parts.  ``parallel_fresh`` lists axes receiving a fresh
    coordinate instead (the exact realization of a generic choice),
    ``fresh_axis_count`` pads with whole new axes, and ``fresh_free`` swaps
    the free block for a fresh free coordinate.
    """

    hull_coeffs: tuple  # ((block, component) ...); block = ("axis", id) or ("free",)
    parallel_fresh: frozenset
    fresh_axis_count: int
    fresh_free: bool


def instantiate_template(template: WitnessTemplate, model: Model, used: Sequence[ModelElement]) -> ModelElement:
    """Realize a template with coordinates unused by ``used``."""
    used = list(used)
    out = ModelElement.zero(model.field)
    for block, component in template.hull_coeffs:
        out = out + component
    for axis in sorted(template.parallel_fresh):
        el = model.e(axis, model.fresh_coord(axis, used))
        used.append(el)
        out = out + el
    for _ in range(template.fresh_axis_count):
        el = model.e(model.fresh_axis(used), 0)
        used.append(el)
        out = out + el
    if template.fresh_free:
        out = out + model.fe(model.fresh_free_coord(used))
    return out


# ---------------------------------------------------------------------------
# literal normalization
# ---------------------------------------------------------------------------


def _nnf(phi: Formula, positive: bool = True) -> Formula:
    if isinstance(phi, (Eq, Xn)):
        return phi if positive else Not(phi)
    if isinstance(phi, Not):
        return _nnf(phi.child, not positive)
    if isinstance(phi, And):
        parts = (_nnf(phi.lhs, positive), _nnf(phi.rhs, positive))
        return And(*parts) if positive else Or(*parts)
    if isinstance(phi, Or):
        parts = (_nnf(phi.lhs, positive), _nnf(phi.rhs, positive))
        return Or(*parts) if positive else And(*parts)
    raise NotQuantifierFree(f"quantifier inside a quantifier-free context: {print_formula(phi)}")


def _canonical_atom(kind: str, n, term: Term):
    """Scale-normalize the atom term (both atom kinds are scale-invariant)."""
    entries = list(term.vars) + list(term.consts)
    if entries:
        lead = entries[0][1]
        term = term.scale(term.field.inv(lead))
    return (kind, n, term)


Literal = tuple  # (polarity, kind, n, Term)


def _lit(pol: bool, kind: str, n, term: Term) -> Literal:
    return (pol, *_canonical_atom(kind, n, term))


def _all(parts) -> list:
    """Conjunction of conditions: the left-major product of their rows,
    deduplicated after each factor so repeats never multiply."""
    rows = [frozenset()]
    for part in parts:
        rows = list(dict.fromkeys(row | other for row in rows for other in part))
        if not rows:
            break
    return rows


def _any(parts) -> list:
    """Disjunction of conditions: their rows in order without repeats;
    true as soon as one row is."""
    rows = {}
    for part in parts:
        for row in part:
            if not row:
                return [frozenset()]
            rows[row] = None
    return list(rows)


def _dnf_literals(phi: Formula) -> list:
    """Disjunctive normal form: the rows of ``phi``, each as a list of
    canonical literals sorted by :func:`_literal_key`."""

    def rows(psi: Formula) -> list:
        if isinstance(psi, And):
            return _all([rows(psi.lhs), rows(psi.rhs)])
        if isinstance(psi, Or):
            return _any([rows(psi.lhs), rows(psi.rhs)])
        pol, atom = (False, psi.child) if isinstance(psi, Not) else (True, psi)
        if isinstance(atom, Eq):
            return [frozenset([_lit(pol, "eq", None, atom.lhs - atom.rhs)])]
        return [frozenset([_lit(pol, "xn", atom.n, atom.term)])]

    return [sorted(row, key=_literal_key) for row in rows(_nnf(phi))]


def _literal_key(lit: Literal):
    pol, kind, n, term = lit
    return (kind, n if n is not None else -1, str(term), pol)


def _literal_formula(lit: Literal) -> Formula:
    pol, kind, n, term = lit
    atom = Eq(term, Term.zero(term.field)) if kind == "eq" else Xn(n, term)
    return atom if pol else Not(atom)


def _balanced(node, parts):
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return node(_balanced(node, parts[:mid]), _balanced(node, parts[mid:]))


# ---------------------------------------------------------------------------
# witness search over evaluated parameters
# ---------------------------------------------------------------------------


def witness_search(phi: Formula, var: str, env: Mapping, model: Model):
    """Find a model element for ``var`` satisfying the quantifier-free
    ``phi`` under ``env``, or None when no template instantiation does.

    Every candidate the enumeration produces is checked with the evaluator
    before being returned, so soundness does not depend on the completeness
    argument for the template family.
    """
    if not is_quantifier_free(phi):
        raise NotQuantifierFree("witness search needs a quantifier-free matrix")
    if not model.is_rich:
        raise TargetNotRich("witness search requires a rich model")
    for disjunct in _dnf_literals(phi):
        found = _search_disjunct(disjunct, phi, var, env, model)
        if found is not None:
            return found
    return None


def _search_disjunct(disjunct, phi, var, env, model: Model):
    field = model.field
    x_lits = []
    for pol, kind, n, term in disjunct:
        mu = term.coeff_of_var(var)
        if field.is_zero(mu):
            if not eval_qf(_literal_formula((pol, kind, n, term)), env, field):
                return None  # parameter-only literal fails; disjunct dead
        else:
            t_term = term.drop_var(var).scale(field.neg(field.inv(mu)))
            x_lits.append((pol, kind, n, eval_term(t_term, env, field)))

    terms: list = []
    for pol, kind, n, t in x_lits:
        if t not in terms:
            terms.append(t)

    pos_eq, dis_eq = set(), set()
    pos_xn: dict = {}
    neg_xn: dict = {}
    for pol, kind, n, t in x_lits:
        i = terms.index(t)
        if kind == "eq":
            (pos_eq if pol else dis_eq).add(i)
        elif pol:
            pos_xn[i] = min(pos_xn.get(i, n), n)
        else:
            neg_xn[i] = max(neg_xn.get(i, n), n)

    used = list(env.values()) + terms
    free_classes: list = []
    for t in terms:
        if t.free_part not in free_classes:
            free_classes.append(t.free_part)
    axes = sorted({axis for t in terms for axis in {a for (a, _), _ in t.axis_part}})
    comp_table = {
        axis: [
            ModelElement.make(field, {(a, c): v for (a, c), v in t.axis_part if a == axis})
            for t in terms
        ]
        for axis in axes
    }
    menus = {}
    for axis in axes:
        values = []
        for comp in comp_table[axis]:
            if comp not in values:
                values.append(comp)
        menus[axis] = values

    def verify(x: ModelElement):
        full_env = dict(env)
        full_env[var] = x
        return eval_qf(phi, full_env, field)

    def matches(i: int, chosen_fp) -> bool:
        return terms[i].free_part == chosen_fp

    for chosen_fp in list(free_classes) + [None]:  # None = fresh free direction
        if chosen_fp is None and (pos_eq or pos_xn):
            continue  # positive literals force agreement on the free block
        if chosen_fp is not None and any(not matches(i, chosen_fp) for i in pos_eq | set(pos_xn)):
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
                ok = all(counts[i] <= n for i, n in pos_xn.items()) and all(
                    counts[i] == 0 for i in pos_eq
                )
                if ok:
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
            if pos_eq:
                upper = 0
            lower = 0
            if chosen_fp is not None:
                for i, m in neg_xn.items():
                    if matches(i, chosen_fp):
                        lower = max(lower, m - counts[i] + 1)
                for i in dis_eq:
                    if matches(i, chosen_fp) and counts[i] == 0:
                        lower = max(lower, 1)
            if upper is not None and lower > upper:
                return
            yield lower

        for r in assign(0):
            template = _build_template(field, chosen_fp, choice, r)
            x = instantiate_template(template, model, used)
            if verify(x):
                return x
    return None


def _build_template(field, chosen_fp, choice, r) -> WitnessTemplate:
    hull = []
    pfresh = []
    for axis, opt in choice:
        if opt is None:
            pfresh.append(axis)
        elif not opt.is_zero():
            hull.append((("axis", axis), opt))
    fresh_free = chosen_fp is None
    if chosen_fp:
        hull.append((("free",), ModelElement(field, (), chosen_fp)))
    return WitnessTemplate(tuple(hull), frozenset(pfresh), r, fresh_free)


# ---------------------------------------------------------------------------
# symbolic elimination
# ---------------------------------------------------------------------------


def _require_infinite(field: FieldCtx):
    if not field.is_infinite:
        raise FieldNotInfinite(
            "quantifier elimination is only complete over infinite fields"
        )


def _formula_field(phi: Formula) -> FieldCtx:
    if isinstance(phi, Eq):
        return phi.lhs.field
    if isinstance(phi, Xn):
        return phi.term.field
    if isinstance(phi, Not):
        return _formula_field(phi.child)
    if isinstance(phi, (And, Or)):
        return _formula_field(phi.lhs)
    return _formula_field(phi.body)


def eliminate_exists(phi: Formula, var: str) -> Formula:
    """Quantifier-free formula equivalent to (exists var) phi over every
    rich canonical model of an infinite field."""
    field = _formula_field(phi)
    _require_infinite(field)
    if not is_quantifier_free(phi):
        raise NotQuantifierFree("eliminate_exists expects a quantifier-free matrix")
    disjuncts = _dnf_literals(phi)
    conds = [None] * len(disjuncts)
    # one true disjunct makes the condition true; disjuncts with few
    # positive literals are cheap to eliminate and the likely true ones, so
    # they go first and spare the expensive ones
    for i in sorted(range(len(disjuncts)), key=lambda i: sum(lit[0] for lit in disjuncts[i])):
        conds[i] = _eliminate_disjunct(disjuncts[i], var, field)
        if conds[i] == [frozenset()]:
            return true_formula(field)
    return _simplify_rows(field, _any(conds))


def _eliminate_disjunct(disjunct, var: str, field: FieldCtx) -> list:
    params: list = []
    x_lits: list = []
    for lit in disjunct:
        pol, kind, n, term = lit
        mu = term.coeff_of_var(var)
        if field.is_zero(mu):
            params.append(lit)
        else:
            t_term = term.drop_var(var).scale(field.neg(field.inv(mu)))
            x_lits.append((pol, kind, n, t_term))
    params = [frozenset(params)]
    if not x_lits:
        return params

    # substitution: a positive equation pins the witness exactly
    for pol, kind, n, t in x_lits:
        if pol and kind == "eq":
            return _all([params, [frozenset(_lit(p, k, m, t - s) for p, k, m, s in x_lits)]])

    terms = list(dict.fromkeys(t for _, _, _, t in x_lits))
    _, dis_eq, pos_xn, neg_xn = _bucket((pol, kind, n, terms.index(t)) for pol, kind, n, t in x_lits)

    # no positive literal: a fresh free coordinate defeats every negative one
    if not pos_xn:
        return params

    anchor = min(pos_xn)
    others = [i for i in range(len(terms)) if i != anchor]
    diffs = [terms[i] - terms[anchor] for i in others]
    boxes = _boxes(len(terms), pos_xn, neg_xn, dis_eq)
    cap = sum(n for n in pos_xn.values()) + max(list(neg_xn.values()) + [0]) + 2

    if not others:
        lower, upper = boxes[anchor]
        return params if lower <= upper else []

    gammas = _collinear(diffs, field)
    if gammas is not None:
        direction, coeffs = gammas
        cond = _collinear_condition(direction, coeffs, anchor, others, boxes, cap, field)
    elif len(others) == 2:
        cond = _two_direction_condition(diffs, anchor, others, boxes, cap, field)
    else:
        cond = _fallback_condition(diffs, anchor, others, boxes, cap, field)
    return _all([params, cond])


def _bucket(lits):
    """Group literals (polarity, kind, n, key) by key: the keys of positive
    and of negated equations, and per key the tightest positive sumset
    bound (the min) and the tightest negated one (the max)."""
    pos_eq, dis_eq = set(), set()
    pos_xn, neg_xn = {}, {}
    for pol, kind, n, key in lits:
        if kind == "eq":
            (pos_eq if pol else dis_eq).add(key)
        elif pol:
            pos_xn[key] = min(pos_xn.get(key, n), n)
        else:
            neg_xn[key] = max(neg_xn.get(key, n), n)
    return pos_eq, dis_eq, pos_xn, neg_xn


def _boxes(nterms, pos_xn, neg_xn, dis_eq):
    """Per-term weight interval [lower, upper] for w(x - t_i); upper None
    when no positive literal bounds the term."""
    boxes = {}
    for i in range(nterms):
        upper = pos_xn.get(i)
        lower = 0
        if i in neg_xn:
            lower = max(lower, neg_xn[i] + 1)
        if i in dis_eq:
            lower = max(lower, 1)
        boxes[i] = (lower, upper)
    return boxes


def _collinear(diffs, field):
    """If all difference terms are proportional, the common direction and
    the coefficient of each difference along it; None otherwise."""
    direction = None
    coeffs = []
    for d in diffs:
        if direction is None:
            entries = list(d.vars) + list(d.consts)
            lead = entries[0][1]
            direction = d.scale(field.inv(lead))
            coeffs.append(lead)
            continue
        ratio = _proportionality(d, direction, field)
        if ratio is None:
            return None
        coeffs.append(ratio)
    return direction, coeffs


def _proportionality(t: Term, base: Term, field: FieldCtx):
    """Scalar c with t = c * base, or None."""
    tv, bv = dict(t.vars), dict(base.vars)
    tc, bc = dict(t.consts), dict(base.consts)
    if set(tv) != set(bv) or set(tc) != set(bc):
        return None
    ratio = None
    for k in list(tv) + ["$" + c for c in tc]:
        a = tv[k] if k in tv else tc[k[1:]]
        b = bv[k] if k in bv else bc[k[1:]]
        r = field.div(a, b)
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    return ratio


def _pin(term: Term, level, cap: int) -> list:
    """Assert the exact sumset level of a term; level=None means beyond cap
    (huge weight or outside the axis span)."""
    if level is None:
        return [frozenset([_lit(False, "xn", cap, term)])]
    if level == 0:
        return [frozenset([_lit(True, "xn", 0, term)])]
    return [frozenset([_lit(True, "xn", level, term), _lit(False, "xn", level - 1, term)])]


def _collinear_condition(direction, coeffs, anchor, others, boxes, cap, field) -> list:
    """All differences lie along one direction e: with L the level of e,
    the witness weights are w_i = L - q_i + r with one q per distinct
    coefficient and sum q <= L, so feasibility is arithmetic per level."""
    gamma = {anchor: field.zero}
    for i, c in zip(others, coeffs):
        gamma[i] = c
    classes: dict = {}
    for i, g in gamma.items():
        classes.setdefault(g, []).append(i)
    class_boxes = []
    for g, members in classes.items():
        lower = max(boxes[i][0] for i in members)
        uppers = [boxes[i][1] for i in members if boxes[i][1] is not None]
        upper = min(uppers) if uppers else None
        positive = any(boxes[i][1] is not None for i in members)
        class_boxes.append((lower, upper, positive))

    def feasible(level: int) -> bool:
        r_max = max((u for (_, u, _) in class_boxes if u is not None), default=0) + 1
        for r in range(r_max + 1):
            need = 0
            ok = True
            for lower, upper, _ in class_boxes:
                lo_q = max(0, level + r - upper) if upper is not None else 0
                hi_q = level + r - lower
                if hi_q < lo_q or lo_q > level:
                    ok = False
                    break
                need += lo_q
            if ok and need <= level:
                return True
        return False

    non_anchor_positive = any(
        boxes[i][1] is not None for i in others
    )
    disjuncts = []
    for level in range(cap + 1):
        if feasible(level):
            disjuncts.append(_pin(direction, level, cap))
    if not non_anchor_positive and feasible(cap + 1):
        disjuncts.append(_pin(direction, None, cap))
    return _any(disjuncts)


# -- two independent directions ---------------------------------------------


_TYPE_OPTIONS = {
    # axis type -> candidate contribution vectors ([b!=0], [b!=pi_u], [b!=pi_v])
    "n10": ((0, 1, 0), (1, 0, 1), (1, 1, 1)),
    "n01": ((0, 0, 1), (1, 1, 0), (1, 1, 1)),
    "n11": ((0, 1, 1), (1, 0, 0), (1, 1, 1)),
    "n1x": ((0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)),
}


def _counts_feasible(counts: tuple, lowers: tuple, uppers: tuple, r_max: int) -> bool:
    """Axis-by-axis reachability of a weight triple inside the boxes."""
    clip = tuple((u if u is not None else l) + 1 for l, u in zip(lowers, uppers))
    states = {(0, 0, 0)}
    for type_name, count in zip(("n10", "n01", "n11", "n1x"), counts):
        options = _TYPE_OPTIONS[type_name]
        for _ in range(count):
            nxt = set()
            for s in states:
                for o in options:
                    t = tuple(min(c, s[d] + o[d]) for d, c in enumerate(clip))
                    # drop states that already exceed a hard upper bound
                    if all(uppers[d] is None or t[d] <= uppers[d] for d in range(3)):
                        nxt.add(t)
            states = nxt
            if not states:
                return False
    for r in range(r_max + 1):
        for s in states:
            w = tuple(s[d] + r for d in range(3))
            if all(
                (uppers[d] is None or w[d] <= uppers[d]) and w[d] >= lowers[d]
                for d in range(3)
            ):
                return True
    return False


def _two_direction_condition(diffs, anchor, others, boxes, cap, field) -> list:
    """Exact condition for two independent difference directions.

    The profile of (u, v) relevant to witness weights is the axis census:
    how many axes carry u only, v only, equal components, and unequal
    components.  Those counts are linear in the levels of u, v, u - v and
    of the span, each of which is pinned by sumset atoms (the span level
    through scalar combinations u + lambda v over a menu larger than the
    number of possibly-critical values).

    A term constrained only from below saturates: every witness stays within
    the anchor bound a0, so its distance to the term is at least
    level - a0, and once the level reaches lower + a0 the constraint holds
    automatically and the term drops out of the profile.  Branching over
    which lower-only terms have saturated keeps every range tight.
    """
    u, v = diffs
    i1, i2 = others
    a0 = boxes[anchor][1]
    terms = {i1: u, i2: v}
    unbounded = [i for i in (i1, i2) if boxes[i][1] is None]
    thr = {i: boxes[i][0] + a0 for i in unbounded}

    def rng_bound(i):
        # finite-branch level range for term i (exclusive upper end)
        if boxes[i][1] is not None:
            return a0 + boxes[i][1] + 1
        return thr[i]

    branches = []
    for k in range(len(unbounded) + 1):
        for S in itertools.combinations(unbounded, k):
            assertions = [frozenset(_lit(False, "xn", thr[i] - 1, terms[i]) for i in S if thr[i] > 0)]
            residual = [i for i in (i1, i2) if i not in S]
            if not residual:
                lower, upper = boxes[anchor]
                cond = [frozenset()] if lower <= upper else []
            elif len(residual) == 1:
                j = residual[0]
                sub_boxes = {0: boxes[anchor], 1: (boxes[j][0], boxes[j][1])}
                cond = _collinear_condition(
                    terms[j], [field.one], 0, [1], sub_boxes, cap, field
                )
            else:
                cond = _pair_profiles_condition(
                    u, v,
                    (boxes[anchor], boxes[i1], boxes[i2]),
                    (rng_bound(i1), rng_bound(i2)),
                    cap, field,
                )
            branches.append(_all([assertions, cond]))
    return _any(branches)


def _pair_profiles_condition(u, v, boxes3, ranges, cap, field) -> list:
    (l0, a0), (l1, a1), (l2, a2) = boxes3
    profiles = _feasible_profiles(
        (l0, l1, l2), (a0, a1, a2), ranges[0], ranges[1]
    )
    return _any(
        _all([_pin(u, A, cap), _pin(v, B, cap), _pin(u - v, C, cap), _pin_span(u, v, D, min(A, B), cap, field)])
        for A, B, C, D in profiles
    )


@lru_cache(maxsize=4096)
def _feasible_profiles(lowers, uppers, range_a, range_b):
    """All feasible level profiles (A, B, C, D) with A < range_a, B < range_b."""
    r_max = max([x for x in uppers if x is not None] + [0]) + 1
    out = []
    for A in range(range_a):
        for B in range(range_b):
            c_hi = A + B
            if uppers[1] is not None and uppers[2] is not None:
                c_hi = min(c_hi, uppers[1] + uppers[2])
            for C in range(abs(A - B), c_hi + 1):
                for D in range(max(A, B, C), (A + B + C) // 2 + 1):
                    counts = (D - B, D - A, D - C, A + B + C - 2 * D)
                    if any(c < 0 for c in counts):
                        continue
                    if _counts_feasible(counts, lowers, uppers, r_max):
                        out.append((A, B, C, D))
    return tuple(out)


def _pin_span(u: Term, v: Term, level: int, shared_bound: int, cap: int, field: FieldCtx) -> list:
    """Pin the level of the span of two terms via a scalar menu: a generic
    combination realizes the union of the axes, and any menu longer than
    the number of shared axes contains a generic entry."""
    menu = [field.of(k) for k in range(1, shared_bound + 2)]
    combos = [u + v.scale(lam) for lam in menu]
    at_most = [frozenset(_lit(True, "xn", level, c) for c in combos)]
    if level == 0:
        return at_most
    return _all([at_most, _any([frozenset([_lit(False, "xn", level - 1, c)])] for c in combos)])


# -- sound fallback for three or more directions -----------------------------


def _fallback_condition(diffs, anchor, others, boxes, cap, field) -> list:
    """Anchored-template approximation for disjuncts beyond the exact
    engines: witnesses of the shapes t_anchor + nu*u_j + (fresh axes), plus
    the fresh-coordinate perturbation of a single difference.  Sound by
    construction; completeness for these rare disjuncts is not claimed."""
    menu = [field.of(k) for k in (0, 1, -1, 2, -2)]
    gamma = {anchor: Term.zero(field)}
    for i, d in zip(others, diffs):
        gamma[i] = d
    candidates = []
    for j, base in [(anchor, Term.zero(field))] + list(zip(others, diffs)):
        for nu in menu:
            for r in range(cap + 1):
                candidates.append((base.scale(nu), r, None))
        candidates.append((Term.zero(field), 0, base))  # fresh coords on base's axes
    out = []
    for displacement, r, sigma in candidates:
        conds = []
        dead = False
        for i in gamma:
            s = displacement - gamma[i]
            lower, upper = boxes[i]
            if upper is not None:
                if r > upper:
                    dead = True
                    break
                if sigma is None:
                    conds.append([frozenset([_lit(True, "xn", upper - r, s)])])
                else:
                    conds.append(_union_at_most(s, sigma, upper - r, cap, field))
            if lower > 0:
                if sigma is None:
                    if lower - r > 0:
                        conds.append([frozenset([_lit(False, "xn", lower - r - 1, s)])])
                else:
                    conds.append(_union_at_least(s, sigma, lower - r, cap, field))
        if not dead:
            out.append(_all(conds))
    return _any(out)


def _union_at_most(s: Term, sigma: Term, bound: int, cap: int, field) -> list:
    if bound < 0:
        return []
    menu = [field.of(k) for k in range(1, cap + 2)]
    return [frozenset(_lit(True, "xn", bound, s + sigma.scale(lam)) for lam in menu)]


def _union_at_least(s: Term, sigma: Term, bound: int, cap: int, field) -> list:
    if bound <= 0:
        return [frozenset()]
    menu = [field.of(k) for k in range(1, cap + 2)]
    return _any([frozenset([_lit(False, "xn", bound - 1, s + sigma.scale(lam))])] for lam in menu)


# ---------------------------------------------------------------------------
# simplification and the full pipeline
# ---------------------------------------------------------------------------


# the weight of an element outside the axis span
_UNBOUNDED = math.inf


def simplify(phi: Formula) -> Formula:
    """Disjunctive normal form of ``phi`` with constant folding, per-term
    weight intervals, interval joins and deduplication.

    The rows of ``phi`` (see :func:`_dnf_literals`) go through
    :func:`_simplify_rows`, as every elimination's rows do directly.
    """
    return _simplify_rows(_formula_field(phi), _dnf_literals(phi))


def _simplify_rows(field: FieldCtx, rows) -> Formula:
    """A condition, rows of canonical literals, as a formula with constant
    folding, per-term weight intervals, interval joins and deduplication.

    Every literal on a nonzero term t bounds its weight w(t), the number of
    axes t meets (infinite outside the axis span): ``t = 0`` and ``Xn(t)``
    bound it above by 0 and n, ``!(t = 0)`` and ``!Xm(t)`` below by 1 and
    m + 1.  So a row reads as one interval [lo, hi] per term (see
    :func:`_weight_intervals`); an empty interval kills it, and a literal
    on the zero term is true or kills it.  Rows are deduplicated in
    first-seen order, then rows that agree on every term but one and hold
    overlapping or touching intervals on it are joined, term by term in the
    order of their printed text, until nothing joins (see
    :func:`_join_intervals`).

    Each interval prints as at most two literals: ``t = 0`` when hi = 0,
    else ``Xhi(t)`` when hi is finite and ``!X(lo-1)(t)`` when lo >= 1,
    terms in the order of their printed text.  A disjunct whose literal
    set strictly contains another disjunct's is dropped (see
    :func:`_minimal_rows`).  The output holds one node per distinct
    literal (its atom, or a ``Not`` over an atom of its own), shared by
    every disjunct that contains it.
    """
    boxes = []
    for raw in rows:
        box = _weight_intervals(raw)
        if box is None:
            continue  # contradiction
        if not box:
            return true_formula(field)
        boxes.append(box)
    if not boxes:
        return false_formula(field)
    terms = sorted({t for box in boxes for t in box}, key=str)
    tid = {t: i for i, t in enumerate(terms)}
    rows = dict.fromkeys(tuple(sorted((tid[t], lo, hi) for t, (lo, hi) in box.items())) for box in boxes)
    rows = _join_intervals(list(rows), len(terms))
    if () in rows:
        return true_formula(field)
    ids = {}
    lit_rows = []
    for row in rows:
        lits = []
        for i, lo, hi in row:
            if hi == 0:
                lits.append((True, "eq", None, i))
                continue
            if hi != _UNBOUNDED:
                lits.append((True, "xn", hi, i))
            if lo > 0:
                lits.append((False, "xn", lo - 1, i))
        lit_rows.append([ids.setdefault(lit, len(ids)) for lit in lits])
    nodes = [_literal_formula((pol, kind, n, terms[i])) for pol, kind, n, i in ids]
    return _balanced(Or, [
        _balanced(And, [nodes[i] for i in row])
        for row, minimal in zip(lit_rows, _minimal_rows(lit_rows))
        if minimal
    ])


def _weight_intervals(lits):
    """One conjunction of canonical literals as a map from each nonzero
    term to its weight interval (lo, hi), hi possibly ``_UNBOUNDED``; None
    when the literals contradict.  X^n(0) and 0 = 0 are true, so literals
    on the zero term drop out and their negations kill the conjunction."""
    box = {}
    for pol, kind, n, term in lits:
        if term.is_zero():
            if not pol:
                return None
            continue
        lo, hi = box.get(term, (0, _UNBOUNDED))
        bound = 0 if kind == "eq" else n
        if pol:
            hi = min(hi, bound)
        else:
            lo = max(lo, bound + 1)
        if lo > hi:
            return None
        box[term] = (lo, hi)
    return box


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
    """
    joined_any = True
    while joined_any:
        joined_any = False
        for k in range(nterms):
            groups = {}
            for row in rows:
                key, span = (False, row), None
                for j, (i, lo, hi) in enumerate(row):
                    if i == k:
                        key, span = (True, row[:j] + row[j + 1:]), (lo, hi)
                        break
                groups.setdefault(key, []).append(span)
            if len(groups) == len(rows):
                continue
            out = []
            shrunk = False
            for (holds_k, rest), spans in groups.items():
                if not holds_k:
                    out.append(rest)
                    continue
                spans.sort()
                joined = [list(spans[0])]
                for lo, hi in spans[1:]:
                    if lo <= joined[-1][1] + 1:
                        joined[-1][1] = max(joined[-1][1], hi)
                    else:
                        joined.append([lo, hi])
                shrunk |= len(joined) < len(spans)
                for lo, hi in joined:
                    out.append(rest if lo == 0 and hi == _UNBOUNDED else tuple(sorted(rest + ((k, lo, hi),))))
            if shrunk:
                rows = out
                joined_any = True
    return rows


def _minimal_rows(rows):
    """For distinct rows of distinct literal ids, whether each row strictly
    contains no other row.

    Each row becomes the bitmask of its ids and is filed under its rarest
    id.  A row can contain only rows filed under one of its own ids, so it
    is compared with those alone rather than with every row.
    """
    masks = [sum(1 << i for i in row) for row in rows]
    count = Counter(i for row in rows for i in row)
    filed = {}
    for row, mask in zip(rows, masks):
        filed.setdefault(min(row, key=count.__getitem__), []).append(mask)
    return [
        not any(other != mask and other & mask == other for i in row for other in filed.get(i, ()))
        for row, mask in zip(rows, masks)
    ]


def eliminate_all(phi: Formula) -> Formula:
    """Quantifier-free equivalent over rich models, eliminating innermost
    quantifiers first; universal quantifiers go through double negation."""
    field = _formula_field(phi)
    _require_infinite(field)
    return simplify(_eliminate_rec(phi))


def _eliminate_rec(phi: Formula) -> Formula:
    if isinstance(phi, (Eq, Xn)):
        return phi
    if isinstance(phi, Not):
        return Not(_eliminate_rec(phi.child))
    if isinstance(phi, (And, Or)):
        return type(phi)(_eliminate_rec(phi.lhs), _eliminate_rec(phi.rhs))
    body = _eliminate_rec(phi.body)
    if isinstance(phi, Exists):
        return eliminate_exists(body, phi.var)
    return Not(eliminate_exists(Not(body), phi.var))


def decide_sentence(phi: Formula) -> bool:
    """Decide a sentence: eliminate all quantifiers, then evaluate the
    quantifier-free result where every closed term is zero (the trivial
    substructure embeds in every model)."""
    symbols = free_symbols(phi)
    if symbols:
        raise FreeSymbolsPresent(f"not a sentence; free symbols {sorted(symbols)}")
    field = _formula_field(phi)
    _require_infinite(field)
    qf = eliminate_all(phi)
    return _eval_closed(qf)


def _eval_closed(phi: Formula) -> bool:
    if isinstance(phi, Eq):
        return (phi.lhs - phi.rhs).is_zero()
    if isinstance(phi, Xn):
        return phi.term.is_zero()
    if isinstance(phi, Not):
        return not _eval_closed(phi.child)
    if isinstance(phi, And):
        return _eval_closed(phi.lhs) and _eval_closed(phi.rhs)
    if isinstance(phi, Or):
        return _eval_closed(phi.lhs) or _eval_closed(phi.rhs)
    raise NotQuantifierFree("quantifier survived elimination")

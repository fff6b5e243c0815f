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

Everything refuses finite fields: the theory is incomplete there and the
level calculus loses its generic-scalar arguments.
"""

from __future__ import annotations

import itertools
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
    substitute,
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


def _dnf_literals(phi: Formula) -> list:
    """Disjunctive normal form as lists of canonical literals."""

    def atoms(psi: Formula) -> list:
        if isinstance(psi, Eq):
            return [[(True, *_canonical_atom("eq", None, psi.lhs - psi.rhs))]]
        if isinstance(psi, Xn):
            return [[(True, *_canonical_atom("xn", psi.n, psi.term))]]
        if isinstance(psi, Not):
            inner = psi.child
            if isinstance(inner, Eq):
                return [[(False, *_canonical_atom("eq", None, inner.lhs - inner.rhs))]]
            if isinstance(inner, Xn):
                return [[(False, *_canonical_atom("xn", inner.n, inner.term))]]
            raise AssertionError("non-literal negation in NNF")
        if isinstance(psi, Or):
            return atoms(psi.lhs) + atoms(psi.rhs)
        if isinstance(psi, And):
            lefts, rights = atoms(psi.lhs), atoms(psi.rhs)
            return [left + right for left in lefts for right in rights]
        raise NotQuantifierFree(print_formula(psi))

    disjuncts = []
    seen = set()
    for disjunct in atoms(_nnf(phi)):
        ordered = tuple(sorted(set(disjunct), key=_literal_key))
        if ordered not in seen:
            seen.add(ordered)
            disjuncts.append(list(ordered))
    return disjuncts


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


def _big_and(field: FieldCtx, parts: list) -> Formula:
    parts = [p for p in parts if p != true_formula(field)]
    if not parts:
        return true_formula(field)
    if any(p == false_formula(field) for p in parts):
        return false_formula(field)
    return _balanced(And, parts)


def _big_or(field: FieldCtx, parts: list) -> Formula:
    parts = [p for p in parts if p != false_formula(field)]
    if not parts:
        return false_formula(field)
    if any(p == true_formula(field) for p in parts):
        return true_formula(field)
    return _balanced(Or, parts)


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
    out = []
    for disjunct in _dnf_literals(phi):
        out.append(_eliminate_disjunct(disjunct, var, field))
    return simplify(_big_or(field, out))


def _eliminate_disjunct(disjunct, var: str, field: FieldCtx) -> Formula:
    params: list = []
    x_lits: list = []
    for pol, kind, n, term in disjunct:
        mu = term.coeff_of_var(var)
        if field.is_zero(mu):
            params.append(_literal_formula((pol, kind, n, term)))
        else:
            t_term = term.drop_var(var).scale(field.neg(field.inv(mu)))
            x_lits.append((pol, kind, n, t_term))
    if not x_lits:
        return _big_and(field, params)

    # substitution: a positive equation pins the witness exactly
    for pol, kind, n, t in x_lits:
        if pol and kind == "eq":
            rest = [substitute(f, var, t) for f in _relit(x_lits, var, field)]
            return _big_and(field, params + rest)

    terms = list(dict.fromkeys(t for _, _, _, t in x_lits))
    _, dis_eq, pos_xn, neg_xn = _bucket((pol, kind, n, terms.index(t)) for pol, kind, n, t in x_lits)

    # no positive literal: a fresh free coordinate defeats every negative one
    if not pos_xn:
        return _big_and(field, params)

    anchor = min(pos_xn)
    others = [i for i in range(len(terms)) if i != anchor]
    diffs = [terms[i] - terms[anchor] for i in others]
    boxes = _boxes(len(terms), pos_xn, neg_xn, dis_eq)
    cap = sum(n for n in pos_xn.values()) + max(list(neg_xn.values()) + [0]) + 2

    if not others:
        lower, upper = boxes[anchor]
        cond = true_formula(field) if lower <= upper else false_formula(field)
        return _big_and(field, params + [cond])

    gammas = _collinear(diffs, field)
    if gammas is not None:
        direction, coeffs = gammas
        cond = _collinear_condition(direction, coeffs, anchor, others, boxes, cap, field)
        return _big_and(field, params + [cond])

    if len(others) == 2:
        cond = _two_direction_condition(diffs, anchor, others, boxes, cap, field)
        return _big_and(field, params + [cond])

    cond = _fallback_condition(diffs, anchor, others, boxes, cap, field)
    return _big_and(field, params + [cond])


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


def _relit(x_lits, var, field):
    for pol, kind, n, t in x_lits:
        term = Term.var(field, var) - t
        atom = Eq(term, Term.zero(field)) if kind == "eq" else Xn(n, term)
        yield atom if pol else Not(atom)


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


def _pin(term: Term, level, cap: int, field: FieldCtx) -> Formula:
    """Assert the exact sumset level of a term; level=None means beyond cap
    (huge weight or outside the axis span)."""
    if level is None:
        return Not(Xn(cap, term))
    if level == 0:
        return Xn(0, term)
    return And(Xn(level, term), Not(Xn(level - 1, term)))


def _collinear_condition(direction, coeffs, anchor, others, boxes, cap, field) -> Formula:
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
            disjuncts.append(_pin(direction, level, cap, field))
    if not non_anchor_positive and feasible(cap + 1):
        disjuncts.append(_pin(direction, None, cap, field))
    return _big_or(field, disjuncts)


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


def _two_direction_condition(diffs, anchor, others, boxes, cap, field) -> Formula:
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
            assertions = []
            for i in S:
                if thr[i] > 0:
                    assertions.append(Not(Xn(thr[i] - 1, terms[i])))
            residual = [i for i in (i1, i2) if i not in S]
            if not residual:
                lower, upper = boxes[anchor]
                cond = true_formula(field) if lower <= upper else false_formula(field)
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
            branches.append(_big_and(field, assertions + [cond]))
    return _big_or(field, branches)


def _pair_profiles_condition(u, v, boxes3, ranges, cap, field) -> Formula:
    (l0, a0), (l1, a1), (l2, a2) = boxes3
    profiles = _feasible_profiles(
        (l0, l1, l2), (a0, a1, a2), ranges[0], ranges[1]
    )
    out = []
    for A, B, C, D in profiles:
        out.append(
            _big_and(
                field,
                [
                    _pin(u, A, cap, field),
                    _pin(v, B, cap, field),
                    _pin(u - v, C, cap, field),
                    _pin_span(u, v, D, min(A, B), cap, field),
                ],
            )
        )
    return _big_or(field, out)


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


def _pin_span(u: Term, v: Term, level: int, shared_bound: int, cap: int, field: FieldCtx) -> Formula:
    """Pin the level of the span of two terms via a scalar menu: a generic
    combination realizes the union of the axes, and any menu longer than
    the number of shared axes contains a generic entry."""
    menu = [field.of(k) for k in range(1, shared_bound + 2)]
    combos = [u + v.scale(lam) for lam in menu]
    at_most = _big_and(field, [Xn(level, c) for c in combos])
    if level == 0:
        return at_most
    at_least = _big_or(field, [Not(Xn(level - 1, c)) for c in combos])
    return And(at_most, at_least)


# -- sound fallback for three or more directions -----------------------------


def _fallback_condition(diffs, anchor, others, boxes, cap, field) -> Formula:
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
                    conds.append(Xn(upper - r, s))
                else:
                    conds.append(_union_at_most(s, sigma, upper - r, cap, field))
            if lower > 0:
                if sigma is None:
                    if lower - r > 0:
                        conds.append(Not(Xn(lower - r - 1, s)))
                else:
                    conds.append(_union_at_least(s, sigma, lower - r, cap, field))
        if not dead:
            out.append(_big_and(field, conds))
    return _big_or(field, out)


def _union_at_most(s: Term, sigma: Term, bound: int, cap: int, field) -> Formula:
    if bound < 0:
        return false_formula(field)
    menu = [field.of(k) for k in range(1, cap + 2)]
    return _big_and(field, [Xn(bound, s + sigma.scale(lam)) for lam in menu])


def _union_at_least(s: Term, sigma: Term, bound: int, cap: int, field) -> Formula:
    if bound <= 0:
        return true_formula(field)
    menu = [field.of(k) for k in range(1, cap + 2)]
    return _big_or(field, [Not(Xn(bound - 1, s + sigma.scale(lam))) for lam in menu])


# ---------------------------------------------------------------------------
# simplification and the full pipeline
# ---------------------------------------------------------------------------


def simplify(phi: Formula) -> Formula:
    """Disjunctive normal form with constant folding, per-term literal
    strengthening, and syntactic deduplication.

    Disjuncts are deduplicated through a dict keyed by their literal tuple,
    keeping first-seen order.  A disjunct whose literal set strictly
    contains another disjunct's is dropped (see :func:`_minimal_rows`).
    The output holds one node per distinct literal (its atom, or a ``Not``
    over an atom of its own), shared by every disjunct that contains it.
    """
    field = _formula_field(phi)
    disjuncts = {}
    for raw in _dnf_literals(phi):
        lits = _simplify_disjunct(raw, field)
        if lits is None:
            continue  # contradiction
        if not lits:
            return true_formula(field)
        disjuncts[tuple(lits)] = None
    if not disjuncts:
        return false_formula(field)
    ids = {}
    rows = [[ids.setdefault(lit, len(ids)) for lit in d] for d in disjuncts]
    nodes = [_literal_formula(lit) for lit in ids]
    # every literal term is nonzero, so no part is a constant and the
    # folding of _big_and/_big_or has nothing to do
    return _balanced(Or, [
        _balanced(And, [nodes[i] for i in row])
        for row, minimal in zip(rows, _minimal_rows(rows))
        if minimal
    ])


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


def _simplify_disjunct(lits, field):
    # X^n(0) and 0 = 0 are true; their negations kill the disjunct
    if any(term.is_zero() and not pol for pol, _, _, term in lits):
        return None
    pos_eq, dis_eq, pos_xn, neg_xn = _bucket(lit for lit in lits if not lit[3].is_zero())
    for t in pos_eq:
        if t in dis_eq:
            return None
        if t in neg_xn:
            return None  # t = 0 implies every X^m(t)
        pos_xn.pop(t, None)  # implied
    for t, n in pos_xn.items():
        if t in neg_xn and n <= neg_xn[t]:
            return None
        if n == 0 and t in dis_eq:
            return None
    for t in list(dis_eq):
        if t in neg_xn:
            dis_eq.discard(t)  # implied by the negative sumset literal
    out = []
    for t in sorted(pos_eq, key=str):
        out.append((True, "eq", None, t))
    for t in sorted(dis_eq, key=str):
        out.append((False, "eq", None, t))
    for t in sorted(pos_xn, key=str):
        if t in pos_eq:
            continue
        out.append((True, "xn", pos_xn[t], t))
    for t in sorted(neg_xn, key=str):
        out.append((False, "xn", neg_xn[t], t))
    return out


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

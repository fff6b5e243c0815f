"""Witness search and quantifier elimination."""

import functools
import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axisspace.errors import FieldMismatch, FieldNotInfinite, FreeSymbolsPresent, NotQuantifierFree, TargetNotRich
from axisspace.fields import FieldCtx
from axisspace.formula import (
    And,
    Eq,
    Exists,
    Forall,
    Not,
    Or,
    Term,
    Xn,
    eval_qf,
    false_formula,
    free_symbols,
    parse_formula,
    print_formula,
    true_formula,
)
from axisspace import qe
from axisspace.model import ModelElement, canonical_model, in_Xn, make_descriptor, rich_model, weight
from axisspace.qe import (
    _balanced,
    decide_sentence,
    eliminate_all,
    eliminate_exists,
    simplify,
    witness_search,
)

from randgen import (
    random_element,
    random_exists_formula,
    random_f_element,
    random_nested_formula,
    random_param_env,
    within,
)

Q = FieldCtx.rationals()
GF3 = FieldCtx.prime_field(3)


@pytest.fixture
def M():
    return rich_model(Q)


# ---------------------------------------------------------------------------
# witness_search
# ---------------------------------------------------------------------------


def test_witness_for_membership_atom(M):
    phi = parse_formula("X1(x)", Q)
    w = witness_search(phi, "x", {}, M)
    assert w is not None and in_Xn(w, 1)


def test_witness_for_equation_is_the_constant(M):
    c = M.e(0, 0) + M.fe(1)
    phi = parse_formula("x + -1*$c = 0", Q)
    w = witness_search(phi, "x", {"$c": c}, M)
    assert w == c


def test_witness_for_layered_constraints(M):
    c = M.e(0, 0)
    phi = parse_formula("X2(x) & !X1(x) & X3(x + $c)", Q)
    w = witness_search(phi, "x", {"$c": c}, M)
    assert w is not None
    assert eval_qf(phi, {"x": w, "$c": c}, Q)
    assert weight(w) == 2


def test_witness_requires_exact_component_match(M):
    """The witness must cancel one support element of the parameter."""
    c = M.e(0, 0) + M.e(1, 0) + M.e(2, 0)
    phi = parse_formula("X1(x) & X2(x + -1*$c) & !X1(x + -1*$c)", Q)
    w = witness_search(phi, "x", {"$c": c}, M)
    assert w is not None
    assert eval_qf(phi, {"x": w, "$c": c}, Q)


def test_witness_none_for_contradiction(M):
    phi = parse_formula("X1(x) & !X1(x)", Q)
    assert witness_search(phi, "x", {}, M) is None


def test_witness_none_when_weights_clash(M):
    # x within distance 1 of both 0 and a weight-4 element is impossible
    c = M.e(0, 0) + M.e(1, 0) + M.e(2, 0) + M.e(3, 0)
    phi = parse_formula("X1(x) & X1(x + -1*$c)", Q)
    assert witness_search(phi, "x", {"$c": c}, M) is None


def test_witness_with_free_part_parameter(M):
    c = M.fe(0)
    phi = parse_formula("x + -1*$c = 0 | X1(x + -1*$c)", Q)
    w = witness_search(phi, "x", {"$c": c}, M)
    assert w is not None
    assert eval_qf(phi, {"x": w, "$c": c}, Q)


def test_witness_soundness_on_random_formulas(M):
    rng = random.Random(7)
    for _ in range(150):
        phi, params = random_exists_formula(rng)
        env = random_param_env(M, rng, params)
        w = witness_search(phi.body, "x", env, M)
        if w is not None:
            env2 = dict(env)
            env2["x"] = w
            assert eval_qf(phi.body, env2, Q)


# ---------------------------------------------------------------------------
# grid oracle: no false negatives on a bounded candidate grid
# ---------------------------------------------------------------------------


def _grid_candidates(model, env, scalars=(-2, -1, 0, 1, 2)):
    """All elements supported on the parameters' coordinates plus two fresh
    axes and one fresh free coordinate, with coefficients from ``scalars``."""
    used = list(env.values())
    coords = sorted({k for el in used for k, _ in el.axis_part})
    a1 = model.fresh_axis(used)
    a2 = a1 + 1 if model.has_axis(a1 + 1) else a1
    coords += [(a1, 0), (a2, 0)]
    free_coord = model.fresh_free_coord(used)
    for combo in itertools.product(scalars, repeat=len(coords) + 1):
        axis_part = {k: c for k, c in zip(coords, combo[:-1])}
        free_part = {free_coord: combo[-1]} if combo[-1] else {}
        yield model.element(axis_part, free_part)


def test_grid_oracle_no_false_negatives(M):
    rng = random.Random(19)
    checked = 0
    for _ in range(60):
        phi, params = random_exists_formula(rng)
        env = random_param_env(M, rng, params, max_weight=1)
        if witness_search(phi.body, "x", env, M) is not None:
            continue
        for cand in _grid_candidates(M, env):
            env2 = dict(env)
            env2["x"] = cand
            assert not eval_qf(phi.body, env2, Q), (
                f"grid found a witness the search missed: {print_formula(phi)}"
            )
        checked += 1
    assert checked >= 5


# ---------------------------------------------------------------------------
# eliminate_exists
# ---------------------------------------------------------------------------


def test_eliminate_equation_is_true(M):
    phi = parse_formula("E x. (x + -1*$c = 0)", Q)
    out = eliminate_all(phi)
    assert eval_qf(out, {}, Q)


def test_eliminate_membership_is_true(M):
    phi = parse_formula("E x. (X1(x) & !X0(x))", Q)
    assert eval_qf(eliminate_all(phi), {}, Q)


def test_eliminate_keeps_free_symbols_subset(M):
    phi = parse_formula("X1(x) & X1(x + $c) & !X0(x) & !X0(x + $c)", Q)
    out = eliminate_exists(phi, "x")
    assert free_symbols(out) <= {"$c"}
    # cross-check against witness search on random parameter values
    rng = random.Random(3)
    for _ in range(20):
        c = random_f_element(M, rng, max_axes=3)
        env = {"$c": c}
        truth = eval_qf(out, env, Q)
        found = witness_search(phi, "x", env, M) is not None
        assert truth == found


def test_eliminate_two_ball_intersection_condition(M):
    """x close to both parameters forces the parameters close together."""
    phi = parse_formula("X1(x + -1*$c) & X2(x + -1*$d)", Q)
    out = eliminate_exists(phi, "x")
    rng = random.Random(11)
    for _ in range(40):
        env = {"$c": random_f_element(M, rng), "$d": random_f_element(M, rng)}
        # the condition must be exactly the existence of a witness
        assert eval_qf(out, env, Q) == (witness_search(phi, "x", env, M) is not None)
        # and it must imply the triangle bound
        if eval_qf(out, env, Q):
            assert in_Xn(env["$c"] - env["$d"], 3)


def test_eliminate_agreement_random(M):
    rng = random.Random(101)
    formulas = 0
    while formulas < 60:
        phi, params = random_exists_formula(rng)
        out = eliminate_exists(phi.body, "x")
        assert free_symbols(out) <= {"$" + p for p in params}
        for _ in range(8):
            env = random_param_env(M, rng, params)
            truth = eval_qf(out, env, Q)
            found = witness_search(phi.body, "x", env, M) is not None
            assert truth == found, print_formula(phi)
        formulas += 1


def test_eliminate_refuses_finite_fields():
    """Every entry point refuses GF(p), where the theory is incomplete."""
    phi = parse_formula("E x. X1(x)", GF3)
    with pytest.raises(FieldNotInfinite):
        eliminate_all(phi)
    with pytest.raises(FieldNotInfinite):
        decide_sentence(phi)
    matrix = parse_formula("X1(x) | !X0(x + 2*y)", GF3)
    with pytest.raises(FieldNotInfinite):
        simplify(matrix)
    with pytest.raises(FieldNotInfinite):
        eliminate_exists(matrix, "x")
    M3 = rich_model(GF3)
    with pytest.raises(FieldNotInfinite):
        witness_search(parse_formula("X1(x + -1*$c) & !X0(x)", GF3), "x", {"$c": M3.e(0, 0)}, M3)


# ---------------------------------------------------------------------------
# eliminate_all / decide_sentence
# ---------------------------------------------------------------------------


def test_eliminate_all_idempotent_on_qf(M):
    phi = parse_formula("(X1($c) & X2($c)) | X1($c)", Q)
    out = eliminate_all(phi)
    assert out == simplify(phi)
    assert eliminate_all(out) == out



NESTED_DIGEST = ("a6c57207812cf3ac26722882844854792261c0c1", 1846)


def _nested_texts():
    """eliminate_all's printed conditions on 80 seeded nested formulas."""
    rng = random.Random(1)
    return [print_formula(eliminate_all(parse_formula(random_nested_formula(rng), Q))) for _ in range(80)]


def test_nested_elimination_prints_the_same_under_any_hash_seed():
    """Formulas with two or three alternating quantifiers, some under a
    negation or an implication: the joined printed conditions are pinned,
    and print the same under other hash seeds."""
    texts = _nested_texts()
    assert sum(text not in ("0 = 0", "!(0 = 0)") for text in texts) == 56
    joined = "\n".join(texts)
    assert (hashlib.sha1(joined.encode()).hexdigest(), len(joined)) == NESTED_DIGEST
    code = (
        "import hashlib; from test_qe import _nested_texts; "
        "print(hashlib.sha1(chr(10).join(_nested_texts()).encode()).hexdigest())"
    )
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True, text=True).stdout
        assert out == NESTED_DIGEST[0] + "\n"


# the four-literal formula that qe-wide names as reaching the fallback
NAMED_FALLBACK = "E x. (X2(x + -1*$c2) & !X0(x + -1*$c1) & X1(x + -1*$c3) & X1(x + -1*$c0))"
FOUR_LITERAL_DIGEST = ("b8a5da34425e0de0d64e6783f84f9f66065651bb", 152060)
FRACTIONAL_DIGEST = ("b78e2dfe91ee7fc0c8371f991c872224ec3cfe5a", 309202)


def _four_literal_texts():
    """NAMED_FALLBACK and 47 conjunctions E x. ([!]Xk(x + -1*$p) & ...) of
    four literals over distinct parameters $c0..$c3, k in 0..2, drawn as
    qe-wide draws its own but with no environments in between."""
    r = random.Random(4)
    texts = [NAMED_FALLBACK]
    for _ in range(47):
        signed = [(r.random() < 0.6, r.randrange(3)) for _ in range(4)]
        params = r.sample(["c0", "c1", "c2", "c3"], 4)
        literals = [("" if positive else "!") + f"X{k}(x + -1*${p})" for (positive, k), p in zip(signed, params)]
        texts.append("E x. (" + " & ".join(literals) + ")")
    return texts


def _fractional_texts():
    """120 conjunctions of 2-3 literals [!]Xk(mu*x + sum c_p*$p) with
    fractional and negative coefficients on x and on two or three
    parameters: x-terms whose coefficients differ and do not divide each
    other."""
    rng = random.Random(23)
    texts = []
    for _ in range(120):
        params = ["c0", "c1", "c2"][: rng.randint(2, 3)]
        literals = []
        for _ in range(rng.randint(2, 3)):
            parts = [f"{rng.choice(['1', '2', '-3', '1/2', '-2/3'])}*x"]
            for p in params:
                if rng.random() < 0.7:
                    parts.append(f"{rng.choice(['-2', '-1', '1', '3/2', '1/3', '-5/4'])}*${p}")
            sign = "!" if rng.random() < 0.4 else ""
            literals.append(f"{sign}X{rng.randint(0, 2)}(" + " + ".join(parts) + ")")
        texts.append("E x. (" + " & ".join(literals) + ")")
    return texts


def _printed_conditions(texts):
    return [print_formula(eliminate_all(parse_formula(text, Q))) for text in texts]


@pytest.mark.parametrize(
    "maker, digest, live",
    [(_four_literal_texts, FOUR_LITERAL_DIGEST, 48), (_fractional_texts, FRACTIONAL_DIGEST, 94)],
    ids=["four-literal", "fractional"],
)
def test_pinned_conditions_print_the_same_under_any_hash_seed(maker, digest, live):
    """The printed conditions of two families where the engines' term
    arithmetic is riskiest, joined by newlines, are pinned: four-literal
    conjunctions, most of which reach the fallback, and x-terms with
    fractional coefficients, whose differences and menus are taken over a
    common multiple of the x-coefficients.  They print the same under
    other hash seeds."""
    texts = _printed_conditions(maker())
    assert sum(text not in ("0 = 0", "!(0 = 0)") for text in texts) == live
    joined = "\n".join(texts)
    assert (hashlib.sha1(joined.encode()).hexdigest(), len(joined)) == digest
    code = (
        f"import hashlib; from test_qe import _printed_conditions, {maker.__name__}; "
        f"print(hashlib.sha1(chr(10).join(_printed_conditions({maker.__name__}())).encode()).hexdigest())"
    )
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True, text=True).stdout
        assert out == digest[0] + "\n"


INF = math.inf


def _reference_dnf(phi):
    """The disjuncts of an And/Or tree over atoms and negated atoms, each
    a list of literals (polarity, kind, n, term) with the term scaled to
    lead coefficient 1, products taken left-major."""
    if isinstance(phi, And):
        return [a + b for a in _reference_dnf(phi.lhs) for b in _reference_dnf(phi.rhs)]
    if isinstance(phi, Or):
        return _reference_dnf(phi.lhs) + _reference_dnf(phi.rhs)
    pol, atom = (False, phi.child) if isinstance(phi, Not) else (True, phi)
    if isinstance(atom, Eq):
        kind, n, term = "eq", None, atom.lhs - atom.rhs
    else:
        kind, n, term = "xn", atom.n, atom.term
    coeffs = [c for _, c in term.vars + term.consts]
    if coeffs:
        term = term.scale(Q.inv(coeffs[0]))
    return [[(pol, kind, n, term)]]


def _read_intervals(lits):
    """One conjunction of literals as a list of [term, lo, hi] weight
    intervals in first-seen term order, or None when the literals
    contradict.  A literal on the zero term (weight 0) is dropped when true."""
    box = []
    for pol, kind, n, t in lits:
        if t.is_zero():
            if not pol:
                return None
            continue
        entry = next((e for e in box if e[0] == t), None)
        if entry is None:
            entry = [t, 0, INF]
            box.append(entry)
        bound = 0 if kind == "eq" else n
        if pol:
            entry[2] = min(entry[2], bound)
        else:
            entry[1] = max(entry[1], bound + 1)
        if entry[1] > entry[2]:
            return None
    return sorted(box, key=lambda e: str(e[0]))


def _interval_formulas(row):
    """The printed literals of a row of [term, lo, hi] intervals."""
    lits = []
    for t, lo, hi in row:
        if hi == 0:
            lits.append(Eq(t, Term.zero(Q)))
            continue
        if hi != INF:
            lits.append(Xn(hi, t))
        if lo >= 1:
            lits.append(Not(Xn(lo - 1, t)))
    return lits


def _reference_simplify(phi):
    """simplify with list scans and no ids: the literals of each disjunct
    as weight intervals, a list scan for duplicates, the sweeps that join
    touching intervals on one term among disjuncts agreeing on every other,
    and a pairwise strict-subset filter.  Returns the formula, the number
    of disjuncts the subset filter dropped and the number the joins saved."""
    rows = []
    for raw in _reference_dnf(phi):
        row = _read_intervals(raw)
        if row is None:
            continue
        if row == []:
            return true_formula(Q), 0, 0
        if row not in rows:
            rows.append(row)
    if not rows:
        return false_formula(Q), 0, 0
    before = len(rows)
    terms = []
    for row in rows:
        for t, _, _ in row:
            if t not in terms:
                terms.append(t)
    terms.sort(key=str)
    changed = True
    while changed:
        changed = False
        for t in terms:
            groups = []  # [rest, spans] in the order of their first rows
            for row in rows:
                rest = [e for e in row if e[0] != t]
                span = next(([lo, hi] for u, lo, hi in row if u == t), None)
                for group in groups:
                    if span is not None and group[0] == rest and group[1][0] is not None:
                        group[1].append(span)
                        break
                else:
                    groups.append([rest, [span]])
            joined_rows, joined_any = [], False
            for rest, spans in groups:
                if spans == [None]:  # a row without t stands alone
                    joined_rows.append(rest)
                    continue
                joined = []
                for lo, hi in sorted(spans):
                    if joined and lo <= joined[-1][1] + 1:
                        joined[-1][1] = max(joined[-1][1], hi)
                    else:
                        joined.append([lo, hi])
                joined_any |= len(joined) < len(spans)
                for lo, hi in joined:
                    row = rest if (lo, hi) == (0, INF) else rest + [[t, lo, hi]]
                    joined_rows.append(sorted(row, key=lambda e: str(e[0])))
            if joined_any:
                rows, changed = joined_rows, True
    if [] in rows:
        return true_formula(Q), 0, before - len(rows)
    disjuncts = [_interval_formulas(row) for row in rows]
    kept = [d for d in disjuncts if not any(set(o) < set(d) for o in disjuncts)]
    out = _balanced(Or, [_balanced(And, d) for d in kept])
    return out, len(disjuncts) - len(kept), before - len(rows)


def _random_dnf_with_plants(rng):
    """A disjunction of random conjunctions over a small literal pool, with
    duplicates (literals shuffled) and supersets of some disjuncts planted
    at random positions."""
    consts = [{"c0": 1}, {"c1": 1}, {"c0": 1, "c1": -1}, {"c0": 2, "c2": 1}, {"c1": 3, "c2": -1}, {}]
    terms = [Term.make(Q, {}, k) for k in consts]
    weights = [5, 5, 5, 5, 5, 1]

    def literal():
        t = rng.choices(terms, weights)[0]
        if rng.random() < 0.75:
            atom = Xn(rng.randrange(4), t)
        else:
            atom = Eq(t, rng.choice(terms[:2]).scale(rng.choice([0, 1])))
        return atom if rng.random() < 0.6 else Not(atom)

    base = [[literal() for _ in range(rng.randrange(1, 4))] for _ in range(rng.randrange(1, 8))]
    disjuncts = list(base)
    for _ in range(rng.randrange(1, 6)):
        d = list(rng.choice(base))
        if rng.random() < 0.5:
            rng.shuffle(d)
        else:
            d += [literal() for _ in range(rng.randrange(1, 3))]
        disjuncts.insert(rng.randrange(len(disjuncts) + 1), d)
    return functools.reduce(Or, [functools.reduce(And, d) for d in disjuncts])


def test_simplify_matches_pairwise_reference_on_planted_dnfs():
    rng = random.Random(4242)
    dropped = merging_cases = 0
    for _ in range(300):
        phi = _random_dnf_with_plants(rng)
        expected, n, saved = _reference_simplify(phi)
        assert print_formula(simplify(phi)) == print_formula(expected), print_formula(phi)
        dropped += n
        merging_cases += saved > 0
    assert dropped >= 100  # the plants exercise subsumption
    assert merging_cases >= 30  # and the interval joins


def _random_env(model, rng):
    """Parameters c0..c2 of weights 0 to 5 or outside the axis span, with
    c1 = c0 now and then, so that equations hold too."""
    env = {f"$c{i}": random_element(model, rng, max_axes=3) for i in range(3)}
    if rng.random() < 0.2:
        env["$c1"] = env["$c0"]
    return env


def test_simplify_is_equivalent_and_idempotent_on_planted_dnfs(M):
    rng = random.Random(4343)
    for _ in range(300):
        phi = _random_dnf_with_plants(rng)
        out = simplify(phi)
        assert simplify(out) == out, print_formula(phi)
        for _ in range(30):
            env = _random_env(M, rng)
            assert eval_qf(out, env, Q) == eval_qf(phi, env, Q), print_formula(phi)



def test_quantifier_free_entry_points_refuse_quantifiers(M):
    phi = parse_formula("E x. X1(x)", Q)
    for call in (
        lambda: simplify(phi),
        lambda: eliminate_exists(phi, "x"),
        lambda: witness_search(phi, "x", {}, M),
    ):
        with pytest.raises(NotQuantifierFree):
            call()


# three independent terms: every weight vector is some element's
BOX_NAMES = ("x", "y", "z")
WEIGHTS = list(range(6)) + [INF]


def _box_strategy():
    """A box over the terms x, y, z of a table that interns them in this
    order, as ids 0, 1, 2: sorted ids give a box's entry order."""
    interval = st.tuples(st.integers(0, 4), st.sampled_from([0, 1, 2, 3, 4, INF])).filter(
        lambda span: span[0] <= span[1] and span != (0, INF)
    )
    return st.dictionaries(st.integers(0, 2), interval, max_size=3).map(
        lambda spans: tuple((i, *spans[i]) for i in sorted(spans))
    )


def _holds(rows, weights):
    return any(all(lo <= weights[tid] <= hi for tid, lo, hi in box) for box in rows)


@settings(max_examples=300, deadline=None)
@given(st.lists(_box_strategy(), max_size=6, unique=True))
def test_negate_holds_exactly_where_no_box_does(boxes):
    table = qe._Table(parse_formula(" & ".join(f"X0({name})" for name in BOX_NAMES), Q))
    assert [table.intern(Term.var(Q, name)) for name in BOX_NAMES] == [0, 1, 2]
    reduced = qe._reduced(table, boxes)
    rows, negated = reduced[0], qe._negate(table, reduced)
    for weights in itertools.product(WEIGHTS, repeat=3):
        assert _holds(rows, weights) == _holds(boxes, weights)
        assert _holds(negated, weights) != _holds(rows, weights), weights


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_box_is_in_id_order_with_live_entries(seed):
    """Every box of a condition is one tuple form from the atoms to the
    printer: strictly increasing table ids (so no term twice), each id's
    row interned, nonzero and primitive with a positive first entry, and
    each interval nonempty and not the true [0, inf]."""
    phi = parse_formula(random_nested_formula(random.Random(seed)), Q)
    table = qe._Table(phi)
    for box in qe._dnf_literals(table, phi):
        ids = [tid for tid, _, _ in box]
        assert all(a < b for a, b in zip(ids, ids[1:])), ids
        for tid, lo, hi in box:
            row = table.rows[tid]
            assert table.ids[row] == tid and math.gcd(*row) == 1 and next(c for c in row if c) > 0, row
            assert 0 <= lo <= hi and (lo, hi) != (0, INF), (row, lo, hi)


def _disjuncts(psi):
    return _disjuncts(psi.lhs) + _disjuncts(psi.rhs) if isinstance(psi, Or) else [psi]


def test_negation_of_a_nested_condition_stays_small():
    """The 21 boxes of ``E x.`` multiply out to some 18,000 boxes unless the
    running product of the negation is reduced after every factor; either
    way the condition is the same 24 disjuncts.  They are pinned in sorted
    order, as the order of the boxes depends on when they are reduced, and
    the printed text in its order, which moves with the order of
    :func:`qe._negate`'s boxes."""
    phi = parse_formula(
        "(X2(1*$c0 + 2*$c1)) | (!E x. ((!X1(1*x + 1*$c0 + 2*$c1)) & "
        "(A y. ((E z. (X1(2*x + -2*$c1) | !X1(1*x + -2*$c1))) -> (X2(1*y + 1*$c0))))))",
        Q,
    )
    out = within(0.5, eliminate_all, phi)
    texts = sorted(print_formula(psi) for psi in _disjuncts(out))
    joined = "\n".join(texts)
    assert len(texts) == 24
    assert hashlib.sha1(joined.encode()).hexdigest() == "7e1430e3f54a0c252edb055e6f5288c3b58bb2c3"
    text = print_formula(out)
    assert (hashlib.sha1(text.encode()).hexdigest(), len(text)) == ("df2f3706b865ceb0ab9bf21676eb62b0f13eb9e7", 1708)


def _reference_join_intervals(rows, nterms):
    """_join_intervals as a full scan: every step keys every row by its
    entries other than the one on term k."""
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
                    out.append(rest if lo == 0 and hi == INF else tuple(sorted(rest + ((k, lo, hi),))))
            if shrunk:
                rows = out
                joined_any = True
    return rows


# intervals on a small grid, so that rows touch, overlap, nest, stay apart
# and join to [0, inf]
JOIN_INTERVALS = [(lo, hi) for lo in range(4) for hi in (0, 1, 2, 3, INF) if lo <= hi and (lo, hi) != (0, INF)]


@st.composite
def _join_rows(draw):
    """Distinct rows over term ids 0..3, most of them a few shared rests
    with one entry changed, added or removed."""
    box = st.dictionaries(st.integers(0, 3), st.sampled_from(JOIN_INTERVALS), max_size=3)
    rests = draw(st.lists(box, min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(1, 14))):
        row = dict(draw(st.sampled_from(rests)))
        k = draw(st.integers(0, 3))
        if draw(st.integers(0, 4)) == 0:
            row.pop(k, None)
        else:
            row[k] = draw(st.sampled_from(JOIN_INTERVALS))
        rows.append(tuple(sorted((i, lo, hi) for i, (lo, hi) in row.items())))
    return list(dict.fromkeys(rows))


@settings(max_examples=500, deadline=None)
@given(_join_rows())
@example([((0, 1, 1),), ((0, 1, 1), (1, 0, 1)), ((0, 1, 1), (1, 2, INF))])  # [0, inf] leaves a copy of a row
@example([((0, 2, 3), (1, 1, 1)), ((0, 0, 0),), ((0, 1, 1), (1, 1, 1)), ((0, 0, 1), (1, 0, 0))])
def test_join_intervals_equals_the_full_scan(rows):
    """The join through the term index returns the full scan's rows, in
    its order."""
    assert qe._join_intervals(rows, 4) == _reference_join_intervals(rows, 4)


def _assert_merge_fixpoint(phi):
    """No two disjuncts of phi agree on every term but one and hold
    overlapping or touching weight intervals on that one."""
    if phi == false_formula(Q):
        return
    rows = [{t: (lo, hi) for t, lo, hi in _read_intervals(d)} for d in _reference_dnf(phi)]
    for a, b in itertools.combinations(rows, 2):
        differ = [t for t in set(a) | set(b) if a.get(t, (0, INF)) != b.get(t, (0, INF))]
        if len(differ) == 1:
            (lo_a, hi_a), (lo_b, hi_b) = sorted([a.get(differ[0], (0, INF)), b.get(differ[0], (0, INF))])
            assert lo_b > hi_a + 1, (differ[0], a, b)
        assert differ, a


def test_simplify_output_is_a_merge_fixpoint():
    rng = random.Random(4444)
    for _ in range(300):
        _assert_merge_fixpoint(simplify(_random_dnf_with_plants(rng)))
    phi = parse_formula(BIG_FORMULA, Q)
    _assert_merge_fixpoint(eliminate_exists(phi.body, "x"))


BIG_FORMULA = (
    "E x. !(!(X4(-1*x + -2*$c0) & !(X1(x + -1*$c1) | X1(x + -1*$c0)))"
    " | -2*$c1 = 2*$c0 + -1*$c1)"
)
BIG_FORMULA_DISJUNCTS = 197  # 752 before the interval joins, 297 before generic directions


def _literal_nodes(phi):
    """(polarity, atom node) for every literal occurrence of a DNF tree."""
    if isinstance(phi, (And, Or)):
        return _literal_nodes(phi.lhs) + _literal_nodes(phi.rhs)
    if isinstance(phi, Not):
        return [(False, phi.child)]
    return [(True, phi)]


def test_simplify_shares_one_node_per_literal():
    phi = parse_formula(BIG_FORMULA, Q)
    out = eliminate_exists(phi.body, "x")
    text = print_formula(out)
    assert text.count(" | ") + 1 == BIG_FORMULA_DISJUNCTS
    assert (hashlib.sha1(text.encode()).hexdigest(), len(text)) == ("6021df75ad1e5cdcb68715531632f07ce7a43f95", 36361)
    occurrences = _literal_nodes(out)
    distinct_literals = {(pol, atom) for pol, atom in occurrences}
    assert len(occurrences) > 3 * len(distinct_literals)
    assert len({id(atom) for _, atom in occurrences}) == len(distinct_literals)


def test_every_three_literal_class_prints_as_pinned():
    """The 56 sign/index classes of a 3-literal conjunction
    E x. ([!]Xk(x + -1*$p) & ...), k in 0..2, each over three of the
    parameters $c0..$c3 drawn as the qe-wide benchmark draws them; their
    printed conditions, joined by newlines, are pinned."""
    signed = [(positive, k) for positive in (True, False) for k in (0, 1, 2)]
    draw = random.Random(3)
    texts = []
    for combo in itertools.combinations_with_replacement(signed, 3):
        params = draw.sample(["c0", "c1", "c2", "c3"], 3)
        literals = [("" if positive else "!") + f"X{k}(x + -1*${p})" for (positive, k), p in zip(combo, params)]
        texts.append("E x. (" + " & ".join(literals) + ")")
    joined = "\n".join(print_formula(eliminate_all(parse_formula(text, Q))) for text in texts)
    assert len(texts) == 56
    assert (hashlib.sha1(joined.encode()).hexdigest(), len(joined)) == ("46569de5fe28653a2343479d63e0cb5e12a53a06", 263208)


def test_criterion_4_formula_agrees_with_witness_search(M):
    phi = parse_formula(BIG_FORMULA, Q)
    out = eliminate_exists(phi.body, "x")
    rng = random.Random(752)
    seen = set()
    for _ in range(24):
        c0 = random_element(M, rng)
        # where -2*$c1 = 2*$c0 + -1*$c1 holds the condition is false
        c1 = c0.scale(-2) if rng.random() < 0.3 else random_element(M, rng)
        env = {"$c0": c0, "$c1": c1}
        truth = eval_qf(out, env, Q)
        assert truth == (witness_search(phi.body, "x", env, M) is not None), env
        seen.add(truth)
    assert seen == {True, False}


def test_criterion_4_formula_prints_the_same_under_any_hash_seed():
    code = (
        "import hashlib, sys; from axisspace.fields import FieldCtx; "
        "from axisspace.formula import parse_formula, print_formula; from axisspace.qe import eliminate_exists; "
        f"phi = parse_formula({BIG_FORMULA!r}, FieldCtx.rationals()); "
        "print(hashlib.sha1(print_formula(eliminate_exists(phi.body, 'x')).encode()).hexdigest())"
    )
    digests = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
        digests.add(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True, text=True).stdout)
    phi = parse_formula(BIG_FORMULA, Q)
    here = hashlib.sha1(print_formula(eliminate_exists(phi.body, "x")).encode()).hexdigest()
    assert digests == {here + "\n"}


def _eval_per_node(phi, env):
    """eval_qf's reference: every node decided where it stands, each term
    summed up element by element."""
    if isinstance(phi, Not):
        return not _eval_per_node(phi.child, env)
    if isinstance(phi, And):
        return _eval_per_node(phi.lhs, env) and _eval_per_node(phi.rhs, env)
    if isinstance(phi, Or):
        return _eval_per_node(phi.lhs, env) or _eval_per_node(phi.rhs, env)
    term, n = (phi.lhs - phi.rhs, 0) if isinstance(phi, Eq) else (phi.term, phi.n)
    element = ModelElement.zero(Q)
    for name, c in term.vars:
        element = element + env[name].scale(c)
    for name, c in term.consts:
        element = element + env["$" + name].scale(c)
    return in_Xn(element, n)


def _equations(phi):
    """The equation nodes of a quantifier-free formula."""
    if isinstance(phi, Eq):
        return [phi]
    if isinstance(phi, Not):
        return _equations(phi.child)
    if isinstance(phi, (And, Or)):
        return _equations(phi.lhs) + _equations(phi.rhs)
    return []


def _wide_conjunction(rng, size):
    """A conjunction of ``size`` literals [!]Xk(x + -1*$cj), k in 0..2,
    over distinct parameters of $c0..$c3, as the qe-wide benchmark has."""
    literals = [("!" if rng.random() < 0.4 else "") + f"X{rng.randrange(3)}(x + -1*$c{j})" for j in rng.sample(range(4), size)]
    return "E x. (" + " & ".join(literals) + ")"


def _count_term_arithmetic(monkeypatch):
    """A Counter of the Term.combine and Term.scale calls made from now
    on in the test (so every + and - of terms)."""
    counts = Counter()

    def counting(name):
        original = getattr(Term, name)

        def counted(self, *args):
            counts[name] += 1
            return original(self, *args)

        monkeypatch.setattr(Term, name, counted)

    counting("combine")
    counting("scale")
    return counts


# quantifier-free formulas over $c0..$c3 that hold where $c2 = $c0 + $c1:
# equations with two nonzero sides, one atom written twice (two equal but
# distinct nodes) and one atom under both polarities
HOLDING_FORMULAS = (
    "$c2 = $c0 + $c1",
    "2*$c2 + -1*$c1 = 2*$c0 + $c1",
    "$c0 + $c1 + $c3 = $c2 + $c3",
    "$c2 + -1*$c0 = $c1 & ($c2 + -1*$c0 = $c1 | X0($c3))",
    "X8($c0 + $c1 + $c3) & !(!X8($c0 + $c1 + $c3) | X0($c3))",
    "(X1($c3) | !X1($c3)) & ($c3 = $c0 | !($c3 = $c0))",
    "!(X1($c0 + -1*$c3) & !X1($c0 + -1*$c3)) & ($c2 = $c1 + $c0 | !($c2 = $c1 + $c0))",
)


def test_eval_qf_on_shared_outputs_agrees_with_an_unshared_tree(M, monkeypatch):
    """A QE output shares one node per literal across its disjuncts, and
    eval_qf decides each atom node once per call.  Its truth equals that
    of the output printed and parsed again (a tree with no shared node)
    and that of a per-node reference.  Formulas that hold, with equal but
    distinct atoms, an atom under both polarities and equations of two
    nonzero sides, evaluate true by both.  No evaluation runs Term
    arithmetic."""
    counts = _count_term_arithmetic(monkeypatch)

    def evaluated(phi, env):
        counts.clear()
        truth = eval_qf(phi, env, Q)
        assert not counts, counts
        return truth

    rng = random.Random(1105)
    texts = [BIG_FORMULA] + [_wide_conjunction(rng, size) for size in (3, 4) for _ in range(8)]
    seen = set()
    for text in texts:
        phi = parse_formula(text, Q)
        out = eliminate_exists(phi.body, "x")
        tree = parse_formula(print_formula(out), Q)
        for _ in range(4):
            env = {f"$c{i}": random_f_element(M, rng, max_axes=2, max_coord=1) for i in range(4)}
            truth = evaluated(out, env)
            assert truth == evaluated(tree, env) == _eval_per_node(out, env), text
            seen.add(truth)
    assert seen == {True, False}
    for text in HOLDING_FORMULAS:
        phi = parse_formula(text, Q)
        # every constant and every side of an equation is to be nonzero
        sides = [Term.const(Q, f"c{i}") for i in range(4)] + [side for eq in _equations(phi) for side in (eq.lhs, eq.rhs)]
        for _ in range(4):
            env = None
            while env is None or any(_eval_per_node(Xn(0, side), env) for side in sides):
                env = {f"$c{i}": random_f_element(M, rng, max_axes=2, max_coord=1) for i in (0, 1, 3)}
                env["$c2"] = env["$c0"] + env["$c1"]
            assert evaluated(phi, env) and _eval_per_node(phi, env), text


def test_eliminate_all_reduces_a_top_quantifier_once(monkeypatch):
    """eliminate_all of (exists x) phi, or of its double negation not
    (forall x) not phi, prints what eliminate_exists(phi, x) prints, and
    reduces the condition once: in the printer."""
    phi = parse_formula(BIG_FORMULA, Q)
    expected = print_formula(eliminate_exists(phi.body, "x"))
    reduced, calls = qe._reduced, []

    def counted(table, rows):
        calls.append(len(rows))
        return reduced(table, rows)

    monkeypatch.setattr(qe, "_reduced", counted)
    for sentence in (phi, Not(Forall("x", Not(phi.body)))):
        calls.clear()
        assert print_formula(eliminate_all(sentence)) == expected
        assert len(calls) == 1


def test_three_x3_balls_agree_with_witness_search(M):
    """Three radius-3 balls: a 392-disjunct condition (954 before the
    interval joins)."""
    phi = parse_formula("E x. (X3(x + -1*$c0) & X3(x + -1*$c1) & X3(x + -1*$c2))", Q)
    out = eliminate_exists(phi.body, "x")
    text = print_formula(out)
    assert text.count(" | ") + 1 == 392
    assert (hashlib.sha1(text.encode()).hexdigest(), len(text)) == ("cd467cdd3fbc8b64a03383098ea2be17946c1d7e", 121056)
    rng = random.Random(954)
    seen = set()
    for _ in range(24):
        env = {f"$c{i}": random_f_element(M, rng, max_axes=6, max_coord=1) for i in range(3)}
        truth = eval_qf(out, env, Q)
        assert truth == (witness_search(phi.body, "x", env, M) is not None)
        seen.add(truth)
    assert seen == {True, False}


X0_PINNED = "E x. (X0(x + -1*$c0) & X1(x + -1*$c1) & X1(x + -1*$c2) & !X0(x + -1*$c3))"


def test_x0_pins_the_witness_as_an_equation_does(M):
    """X^0 = {0}, so X0(x - t) and x - t = 0 both pin x to t: they
    eliminate by substitution to the same condition."""
    pinned = parse_formula(X0_PINNED, Q)
    equation = parse_formula(X0_PINNED.replace("X0(x + -1*$c0)", "x + -1*$c0 = 0"), Q)
    out = eliminate_exists(pinned.body, "x")
    text = print_formula(out)
    assert text == print_formula(eliminate_exists(equation.body, "x"))
    assert text == "(X1($c0 + -1*$c1) & (X1($c0 + -1*$c2) & !X0($c0 + -1*$c3)))"
    rng = random.Random(1993)
    seen = set()
    for _ in range(24):
        c0 = random_f_element(M, rng, max_axes=3)
        env = {"$c0": c0}
        for name in ("$c1", "$c2"):
            env[name] = c0 + M.e(rng.randrange(5), 0) if rng.random() < 0.7 else random_f_element(M, rng)
        env["$c3"] = c0 if rng.random() < 0.2 else random_f_element(M, rng)
        truth = eval_qf(out, env, Q)
        for phi in (pinned, equation):
            assert truth == (witness_search(phi.body, "x", env, M) is not None), env
        seen.add(truth)
    assert seen == {True, False}


def test_fallback_rows_hold_no_empty_interval_and_no_zero_term(monkeypatch):
    """Rows prune as they form: a fallback candidate that agrees with a
    parameter term bounds the zero term, which is true or kills the row at
    once, and no row carries an empty weight interval."""
    calls, rows = [], []
    fallback = qe._fallback_condition

    def recording(table, *args):
        out = fallback(table, *args)
        calls.append(args)
        rows.extend((table, row) for row in out)
        return out

    monkeypatch.setattr(qe, "_fallback_condition", recording)
    rng = random.Random(3)
    for _ in range(40):
        params = rng.sample(["c0", "c1", "c2", "c3"], 4)
        lits = [("" if rng.random() < 0.6 else "!") + f"X{rng.randrange(1, 3)}(x + -1*${p})" for p in params]
        eliminate_exists(parse_formula(" & ".join(lits), Q), "x")
    assert len(calls) >= 30 and len(rows) >= 1000
    for table, row in rows:
        for tid, lo, hi in row:
            assert any(table.rows[tid]) and lo <= hi, (table.text(tid), lo, hi)


def test_eight_binary_disjunctions_eliminate_to_true():
    """The disjunct that takes every ``!X2`` has no positive literal, so a
    fresh free coordinate satisfies it: the condition is true.  The DNF has
    256 disjuncts."""
    body = " & ".join(f"(X1(x + -1*$c{i}) | !X2(x + $d{i}))" for i in range(8))
    phi = parse_formula(f"E x. ({body})", Q)
    assert within(10, eliminate_exists, phi.body, "x") == true_formula(Q)


def test_four_independent_axes_sentence():
    vs = ["x0", "x1", "x2", "x3"]
    hyp = " & ".join(
        [f"X1({v}) & !X0({v})" for v in vs] + [f"!X1({a} + {b})" for a, b in itertools.combinations(vs, 2)]
    )
    sigma = parse_formula(f"A x0. A x1. A x2. A x3. (({hyp}) -> !(1*x0 + 2*x1 + 3*x2 + -4*x3 = 0))", Q)
    assert within(10, decide_sentence, sigma) is True


# true: x = -e0 - 2*e2 - 2*e4, y = 0, z = 2*e0 + 2*e2 + 2*e4 satisfies it
THREE_VARIABLE_MATRIX = (
    "X1(-1*x + y + -1*z) & X1(-1*y) & !X1(x + -1*y + -1*z) & X2(2*x + -1*y + z) & !X2(-1*x + -1*y + z)"
)


@pytest.mark.parametrize("order", ["xyz", "xzy", "yxz", "yzx", "zxy", "zyx"])
def test_three_variable_sentence_in_every_quantifier_order(order):
    prefix = " ".join(f"E {v}." for v in order)
    assert decide_sentence(parse_formula(f"{prefix} ({THREE_VARIABLE_MATRIX})", Q)) is True


# true; the box of its matrix has an exact engine for x, y and z but not
# for w, and the fallback on w misses the witness
FOUR_VARIABLE_MATRIX = (
    "X0(1*x + 2*y + 1*z) & X2(-1*x + -1*y + 1*z + 2*w) & X2(-1*y + -1*z + -1*w)"
    " & X1(-2*x + -1*y + -2*w) & !X2(-2*x + 1*y + 2*z + 2*w) & X1(-2*x + 1*y + -2*w)"
)


def test_four_variable_sentence_in_every_quantifier_order():
    """Each box eliminates a variable an exact engine handles, whatever
    the order of the block."""
    verdicts = {
        order: within(10, decide_sentence, parse_formula(" ".join(f"E {v}." for v in order) + f" ({FOUR_VARIABLE_MATRIX})", Q))
        for order in itertools.permutations("xyzw")
    }
    assert [order for order, verdict in verdicts.items() if verdict is not True] == []


# a true existential sentence's matrix at values of x, y and z that a
# witness for u exists at; the fallback runs once in E u.'s elimination
SIX_LITERAL_MATRIX = (
    "X1(-1*z + 2*u) & X1(2*x + -1*u) & X1(1*y + 1*u) & X3(-1*y + 1*u) & !X1(-1*x + -1*u) & X0(2*y + 2*z)"
)


def _six_literal_env(M):
    e0, e1 = M.e(0, 0), M.e(1, 0)
    return {"x": e0, "y": e1 - e0.scale(2), "z": e0.scale(2) - e1}


def test_six_literal_matrix_has_a_witness(M):
    phi = parse_formula(SIX_LITERAL_MATRIX, Q)
    env = _six_literal_env(M)
    u = witness_search(phi, "u", env, M)
    assert u == M.e(0, 0).scale(2) - M.e(1, 0).scale(Fraction(1, 2))
    assert eval_qf(phi, dict(env, u=u), Q)


@pytest.mark.xfail(
    strict=True,
    reason="the fallback misses this witness; exact elimination at every rank (ROADMAP item 1) removes the fallback",
)
def test_six_literal_elimination_holds_where_a_witness_exists(M):
    out = eliminate_all(parse_formula(f"E u. ({SIX_LITERAL_MATRIX})", Q))
    assert eval_qf(out, _six_literal_env(M), Q)


def _rank_two_conjunction(rng):
    """3-4 literals [!]Xk(x - a*$c0 - b*$c1) with distinct (a, b): their
    parameter terms span at most the two directions $c0 and $c1."""
    pairs = rng.sample([(a, b) for a in range(-2, 3) for b in range(-2, 3)], rng.randint(3, 4))
    literals = []
    for a, b in pairs:
        term = "x" + "".join(f" + {-c}*${p}" for c, p in ((a, "c0"), (b, "c1")) if c)
        literals.append(("!" if rng.random() < 0.5 else "") + f"X{rng.randrange(3)}({term})")
    return parse_formula(" & ".join(literals), Q)


def test_rank_two_conjunctions_agree_with_witness_search(M):
    """Every disjunct whose differences span two directions is eliminated
    exactly, for any number of terms.  Half the environments put $c1 one
    axis vector away from $c0, so terms nearly coincide."""
    rng = random.Random(7)
    seen = set()
    for _ in range(60):
        phi = _rank_two_conjunction(rng)
        out = eliminate_exists(phi, "x")
        for k in range(6):
            c0 = random_f_element(M, rng, max_axes=3)
            if k % 2:
                c1 = c0 + M.e(rng.randrange(5), rng.randrange(2), rng.choice([1, -1, 2]))
            else:
                c1 = random_f_element(M, rng, max_axes=3)
            env = {"$c0": c0, "$c1": c1}
            truth = eval_qf(out, env, Q)
            assert truth == (witness_search(phi, "x", env, M) is not None), (print_formula(phi), env)
            seen.add(truth)
    assert seen == {True, False}


FIVE_TERM_FORMULA = (
    "E x. (!X2(x + -2*$c0 + 2*$c1) & X3(x + -2*$c0 + 1*$c1) & !X2(x + 1*$c0 + 1*$c1) & X3(x) & !X1(x + 2*$c0))"
)


def test_five_term_rank_two_conjunction_within_budget():
    """Five terms in two directions, two of them bounded above: many
    direction kinds, each a level of its own in every census profile."""
    phi = parse_formula(FIVE_TERM_FORMULA, Q)
    out = within(10, eliminate_exists, phi.body, "x")
    assert free_symbols(out) == {"$c0", "$c1"}
    # the largest census output: pinned, as no other test prints it
    text = print_formula(out)
    assert len(_disjuncts(out)) == 5114
    assert (hashlib.sha1(text.encode()).hexdigest(), len(text)) == ("57b4f91024c37d1be69a09480590d869acf86f67", 1743793)


def test_a_term_over_another_field_is_refused():
    """Every term of a decision is over the formula's field.  An equation
    across fields, an atom over another field in either order, an
    elimination or a sentence that meets one and a witness search in a
    model over another field raise FieldMismatch instead of mixing scalars,
    before a finite field is refused."""
    x, y = Term.var(Q, "x"), Term.var(GF3, "y")
    mixed = (And(Xn(1, x), Xn(1, y)), And(Xn(1, y), Xn(1, x)))
    for phi in (Eq(x, y), *mixed, Exists("x", And(Xn(1, x), Xn(1, Term.make(GF3, {"x": 1}, {"c": 1}))))):
        for call in (simplify, eliminate_all):
            if call is simplify and isinstance(phi, Exists):
                continue
            with pytest.raises(FieldMismatch):
                call(phi)
    for phi in mixed:
        with pytest.raises(FieldMismatch):
            decide_sentence(Exists("x", Exists("y", phi)))
    model = rich_model(GF3)
    with pytest.raises(FieldMismatch):
        witness_search(parse_formula("X1(x + -1*$c) & !X0(x)", Q), "x", {"$c": model.e(0, 0)}, model)


def _atom_count(phi):
    if isinstance(phi, (Eq, Xn)):
        return 1
    if isinstance(phi, Not):
        return _atom_count(phi.child)
    if isinstance(phi, (And, Or)):
        return _atom_count(phi.lhs) + _atom_count(phi.rhs)
    return _atom_count(phi.body)


def test_an_elimination_runs_no_term_arithmetic(monkeypatch):
    """Between the atoms and the printer an elimination works on integer
    rows: no Term.combine call (so no + or - of terms), and at most one
    Term.scale per atom of the formula and one per distinct printed term.
    The fallback, criterion 4's formula (with an equation) and the census
    on five terms each run."""
    counts = _count_term_arithmetic(monkeypatch)
    for text in (NAMED_FALLBACK, BIG_FORMULA, FIVE_TERM_FORMULA):
        phi = parse_formula(text, Q)
        counts.clear()
        out = eliminate_all(phi)
        printed = {atom.term if isinstance(atom, Xn) else atom.lhs for _, atom in _literal_nodes(out)}
        assert counts["combine"] == 0, text
        assert counts["scale"] <= _atom_count(phi) + len(printed), (text, counts["scale"])


def _random_xyz_matrix(rng, variables, sizes=(4, 6), coefficients=range(-2, 3), top=2):
    """A conjunction of sizes[0] to sizes[1] literals [!]Xk(form) on
    nonzero linear forms in ``variables`` with coefficients drawn from
    ``coefficients`` and k in 0..top."""
    literals = []
    for _ in range(rng.randint(*sizes)):
        coeffs = [0] * len(variables)
        while not any(coeffs):
            coeffs = [rng.choice(coefficients) for _ in variables]
        form = " + ".join(f"{c}*{v}" for c, v in zip(coeffs, variables) if c)
        literals.append(("!" if rng.random() < 0.5 else "") + f"X{rng.randint(0, top)}({form})")
    return " & ".join(literals)


# the seeded families of existential sentences: (seed, count, variables,
# orders), where orders draws from the family's generator after each
# matrix, so the four sampled orders keep the seed's draw of matrices
SENTENCE_FAMILIES = [
    (5, 40, "xyz", lambda rng: itertools.permutations("xyz")),
    (11, 25, "xyzw", lambda rng: [rng.sample("xyzw", 4) for _ in range(4)] + list(itertools.permutations("xyzw"))),
]


def _family(seed, count, variables, orders):
    """(matrix, quantifier orders) for each sentence of a family."""
    rng = random.Random(seed)
    for _ in range(count):
        matrix = _random_xyz_matrix(rng, variables)
        yield matrix, orders(rng)


def _sentence(order, matrix):
    return " ".join(f"E {v}." for v in order) + f" ({matrix})"


def _decided(text):
    """The verdict on ``text``, failing the test after 10 s."""
    return within(10, decide_sentence, parse_formula(text, Q))


def _renamed(text, names):
    """``text`` with every variable in the map ``names`` renamed by it."""
    return re.sub(r"\b[a-z][a-z0-9]*\b", lambda m: names.get(m.group(), m.group()), text)


@pytest.mark.parametrize("seed, count, variables, orders", SENTENCE_FAMILIES, ids=["xyz-every-order", "xyzw-every-order"])
def test_exists_sentences_decide_alike_in_every_quantifier_order(seed, count, variables, orders):
    """Permuting a block of existential quantifiers keeps a sentence's
    truth.  Each decision has a 10 s budget; a sentence over it fails."""
    seen = set()
    for matrix, family_orders in _family(seed, count, variables, orders):
        verdicts = {tuple(order): _decided(_sentence(order, matrix)) for order in family_orders}
        assert len(set(verdicts.values())) == 1, (matrix, verdicts)
        seen |= set(verdicts.values())
    assert seen == {True, False}


@pytest.mark.parametrize("family", SENTENCE_FAMILIES, ids=["xyz", "xyzw"])
def test_exists_sentences_decide_alike_under_renaming(family):
    """Renaming the bound variables keeps a sentence's truth: to p, q, r
    (and s) in the reverse of the old names' sort order, and to a cyclic
    shift of the old names.  Both reorder the term table's columns, which
    are sorted by name."""
    variables = family[2]
    old = sorted(variables)
    renamings = [dict(zip(old, reversed("pqrs"[: len(old)]))), dict(zip(old, old[1:] + old[:1]))]
    seen = set()
    for matrix, _ in _family(*family):
        text = _sentence(variables, matrix)
        verdict = _decided(text)
        for names in renamings:
            assert _decided(_renamed(text, names)) == verdict, (text, names)
        seen.add(verdict)
    assert seen == {True, False}


@pytest.mark.parametrize("family", SENTENCE_FAMILIES, ids=["xyz", "xyzw"])
def test_sentences_on_disjoint_variables_decide_as_their_connective(family):
    """For two sentences on disjoint variables, decide(phi & psi) is
    decide(phi) and decide(psi), and decide(phi | psi) is decide(phi) or
    decide(psi).  The pairs are consecutive sentences of a family, the
    second renamed to p, q, r (and s)."""
    variables = family[2]
    apart = dict(zip(variables, "pqrs"))
    texts = [_sentence(variables, matrix) for matrix, _ in _family(*family)]
    seen = set()
    for phi, psi in zip(texts[::2], texts[1::2]):
        psi = _renamed(psi, apart)
        a, b = _decided(phi), _decided(psi)
        assert _decided(f"({phi}) & ({psi})") == (a and b), (phi, psi)
        assert _decided(f"({phi}) | ({psi})") == (a or b), (phi, psi)
        seen.add((a, b))
    assert len(seen) > 1


# the matrices of existential sentences over x, y and z to certify: the
# seed-5 family of SENTENCE_FAMILIES and 30 matrices of 3-6 literals with
# coefficients in {0, 1, -1, 2} and indices 0..3 at seed 1
_PROBE_RNG = random.Random(1)
CERTIFIED_FAMILIES = [
    ("xyz", [matrix for matrix, _ in _family(*SENTENCE_FAMILIES[0])]),
    ("probe", [_random_xyz_matrix(_PROBE_RNG, "xyz", (3, 6), (0, 1, -1, 2), 3) for _ in range(30)]),
]


def _certificate(matrix, variables, model):
    """Witnesses for ``E v1 ... E vn. matrix`` as an environment, or None.
    v_k is ``witness_search`` on the elimination of ``E v_{k+1} ... E v_n.
    matrix``, given v_1 ... v_{k-1}; the environment certifies when the
    matrix evaluates true in it, whatever the eliminations did."""
    phi, env = parse_formula(matrix, Q), {}
    for k, var in enumerate(variables):
        rest = variables[k + 1 :]
        inner = eliminate_all(parse_formula(_sentence(rest, matrix), Q)) if rest else phi
        env[var] = witness_search(inner, var, env, model)
        if env[var] is None:
            return None
    return env if eval_qf(phi, env, Q) else None


@pytest.mark.parametrize("name, matrices", CERTIFIED_FAMILIES, ids=[name for name, _ in CERTIFIED_FAMILIES])
def test_exists_sentences_certify_exactly_when_true(name, matrices, M):
    """Every true verdict on ``E x. E y. E z. matrix`` has a certificate
    (see :func:`_certificate`), and no false one has."""
    verdicts = Counter()
    for matrix in matrices:
        verdict = _decided(_sentence("xyz", matrix))
        certified = within(10, _certificate, matrix, "xyz", M) is not None
        assert certified == verdict, (matrix, verdict)
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False], verdicts


@pytest.mark.parametrize("name, matrices", CERTIFIED_FAMILIES, ids=[name for name, _ in CERTIFIED_FAMILIES])
def test_universal_blocks_negate_their_matrix_pointwise(name, matrices, M):
    """``A y. A z. !(matrix)`` leaves x free, so :func:`qe._negate`
    negates literal rows over x.  At 8 random points, its elimination is
    false exactly where that of ``E y. E z. matrix``, which negates
    nothing, is true."""
    rng, seen = random.Random(3), set()
    for matrix in matrices:
        negated = within(10, eliminate_all, parse_formula(f"A y. A z. !({matrix})", Q))
        plain = within(10, eliminate_all, parse_formula(_sentence("yz", matrix), Q))
        for _ in range(8):
            env = {"x": random_f_element(M, rng)}
            holds = eval_qf(negated, env, Q)
            assert holds != eval_qf(plain, env, Q), (matrix, env)
            seen.add(holds)
    assert seen == {True, False}


def _dual(matrix, variables, rng):
    """A x ... . !(matrix), whose verdict is the negation of E x ... . matrix."""
    return " ".join(f"A {v}." for v in variables) + f" !({matrix})", True


def _scaled(matrix, variables, rng):
    """matrix under x -> 2x and y -> -y, a nonzero scaling of each."""
    factor = {"x": 2, "y": -1}
    scaled = re.sub(r"(-?\d+)\*([a-z])", lambda m: f"{int(m[1]) * factor.get(m[2], 1)}*{m[2]}", matrix)
    return _sentence(variables, scaled), False


def _shuffled(matrix, variables, rng):
    """matrix's literals in a seeded order, nested to the right."""
    literals = matrix.split(" & ")
    rng.shuffle(literals)
    text = literals[-1]
    for literal in reversed(literals[:-1]):
        text = f"({literal} & {text})"
    return _sentence(variables, text), False


@pytest.mark.parametrize("relation", [_dual, _scaled, _shuffled], ids=["duality", "scaling", "reordering"])
@pytest.mark.parametrize("family", SENTENCE_FAMILIES, ids=["xyz", "xyzw"])
def test_exists_sentences_decide_alike_under_metamorphic_relations(family, relation):
    """Each sentence ``E x ... . matrix`` of a family against its image
    under ``relation``, which gives the image and whether it flips the
    verdict.  Under duality the universal block's closed condition is
    negated by :func:`qe._negate`."""
    variables, rng, seen = family[2], random.Random(7), set()
    for matrix, _ in _family(*family):
        verdict = _decided(_sentence(variables, matrix))
        text, flips = relation(matrix, variables, rng)
        assert _decided(text) == (verdict != flips), (matrix, text)
        seen.add(verdict)
    assert seen == {True, False}


@pytest.mark.parametrize(
    "text",
    [
        "E x. E y. (X2(x + -2*$c1) & !X0(-1*x + y + -2*$c0 + -2*$c1) & !X1(x + -2*$c0) & X2(-1*x + 2*y + -1*$c0 + $c1))",
        "E x. (X2(x + -2*$c1) & !X1(x + -2*$c0) & E y. (!X0(-1*x + y + -2*$c0 + -2*$c1) & X2(-1*x + 2*y + -1*$c0 + $c1)))",
    ],
    ids=["block", "nested"],
)
def test_a_condition_is_reduced_before_it_is_eliminated_again(text):
    """The boxes of y's elimination join into one box that x's elimination
    makes true.  Eliminated again unreduced, they give an equivalent
    condition of 81 KB that no longer prints as true."""
    assert print_formula(eliminate_all(parse_formula(text, Q))) == "0 = 0"


def test_forall_inclusion_sentence(M):
    assert decide_sentence(parse_formula("A x. (X1(x) -> X2(x))", Q))


def test_three_nonparallel_elements_exist():
    sigma = parse_formula(
        "E x. E y. E z. (X1(x) & X1(y) & X1(z) & !X0(x) & !X0(y) & !X0(z)"
        " & !X1(x + y) & !X1(y + z) & !X1(x + z))",
        Q,
    )
    assert decide_sentence(sigma)


def test_witness_search_needs_a_rich_model():
    fragment = canonical_model(make_descriptor(0, {1: 2}), Q)
    with pytest.raises(TargetNotRich):
        witness_search(parse_formula("X1(x)", Q), "x", {}, fragment)


def test_decide_sentence_rejects_free_symbols():
    with pytest.raises(FreeSymbolsPresent):
        decide_sentence(parse_formula("X1(x)", Q))


def test_decide_x0_only_zero():
    assert decide_sentence(parse_formula("A x. (X0(x) -> x = 0)", Q))


def test_decide_two_independent_axes():
    assert decide_sentence(parse_formula("E x. !X1(x) & X2(x)", Q))


def test_decide_x2_not_contained_in_x1():
    assert not decide_sentence(parse_formula("A x. (X2(x) -> X1(x))", Q))


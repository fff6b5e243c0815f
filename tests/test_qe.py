"""Witness search and quantifier elimination."""

import functools
import itertools
import random

import pytest

from axisspace.errors import FieldNotInfinite, FreeSymbolsPresent
from axisspace.fields import FieldCtx
from axisspace.formula import (
    And,
    Eq,
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
from axisspace.model import in_Xn, rich_model, weight
from axisspace.qe import (
    _big_and,
    _big_or,
    _dnf_literals,
    _literal_formula,
    _simplify_disjunct,
    decide_sentence,
    eliminate_all,
    eliminate_exists,
    simplify,
    witness_search,
)

from randgen import random_exists_formula, random_f_element, random_param_env

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
    assert _always_true(out, M)


def test_eliminate_membership_is_true(M):
    phi = parse_formula("E x. (X1(x) & !X0(x))", Q)
    assert _always_true(eliminate_all(phi), M)


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
            truth = eval_qf(out, env, Q) if params else _closed_eval(out, M)
            found = witness_search(phi.body, "x", env, M) is not None
            assert truth == found, print_formula(phi)
        formulas += 1


def test_eliminate_refuses_finite_fields():
    phi = parse_formula("E x. X1(x)", GF3)
    with pytest.raises(FieldNotInfinite):
        eliminate_all(phi)
    with pytest.raises(FieldNotInfinite):
        decide_sentence(phi)


# ---------------------------------------------------------------------------
# eliminate_all / decide_sentence
# ---------------------------------------------------------------------------


def test_eliminate_all_idempotent_on_qf(M):
    phi = parse_formula("(X1($c) & X2($c)) | X1($c)", Q)
    out = eliminate_all(phi)
    assert out == simplify(phi)
    assert eliminate_all(out) == out


def _reference_simplify(phi):
    """simplify with a list scan for duplicates and a pairwise strict-subset
    filter; returns the formula and the number of disjuncts it dropped."""
    disjuncts = []
    for raw in _dnf_literals(phi):
        lits = _simplify_disjunct(raw, Q)
        if lits is None:
            continue
        if lits == []:
            return true_formula(Q), 0
        if lits not in disjuncts:
            disjuncts.append(lits)
    kept = [d for d in disjuncts if not any(set(o) < set(d) for o in disjuncts)]
    if not kept:
        return false_formula(Q), 0
    out = _big_or(Q, [_big_and(Q, [_literal_formula(lit) for lit in d]) for d in kept])
    return out, len(disjuncts) - len(kept)


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
    dropped = 0
    for _ in range(300):
        phi = _random_dnf_with_plants(rng)
        expected, n = _reference_simplify(phi)
        assert print_formula(simplify(phi)) == print_formula(expected), print_formula(phi)
        dropped += n
    assert dropped >= 100  # the plants exercise subsumption


BIG_FORMULA = (
    "E x. !(!(X4(-1*x + -2*$c0) & !(X1(x + -1*$c1) | X1(x + -1*$c0)))"
    " | -2*$c1 = 2*$c0 + -1*$c1)"
)


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
    assert print_formula(out).count(" | ") + 1 == 752
    occurrences = _literal_nodes(out)
    distinct_literals = {(pol, atom) for pol, atom in occurrences}
    assert len(occurrences) > 3 * len(distinct_literals)
    assert len({id(atom) for _, atom in occurrences}) == len(distinct_literals)


def test_three_x3_balls_agree_with_witness_search(M):
    """Three radius-3 balls: a 954-disjunct condition."""
    phi = parse_formula("E x. (X3(x + -1*$c0) & X3(x + -1*$c1) & X3(x + -1*$c2))", Q)
    out = eliminate_exists(phi.body, "x")
    assert print_formula(out).count(" | ") + 1 == 954
    rng = random.Random(954)
    seen = set()
    for _ in range(24):
        env = {f"$c{i}": random_f_element(M, rng, max_axes=6, max_coord=1) for i in range(3)}
        truth = eval_qf(out, env, Q)
        assert truth == (witness_search(phi.body, "x", env, M) is not None)
        seen.add(truth)
    assert seen == {True, False}


def test_forall_inclusion_sentence(M):
    assert decide_sentence(parse_formula("A x. (X1(x) -> X2(x))", Q))


def test_three_nonparallel_elements_exist():
    sigma = parse_formula(
        "E x. E y. E z. (X1(x) & X1(y) & X1(z) & !X0(x) & !X0(y) & !X0(z)"
        " & !X1(x + y) & !X1(y + z) & !X1(x + z))",
        Q,
    )
    assert decide_sentence(sigma)


def test_decide_sentence_rejects_free_symbols():
    with pytest.raises(FreeSymbolsPresent):
        decide_sentence(parse_formula("X1(x)", Q))


def test_decide_x0_only_zero():
    assert decide_sentence(parse_formula("A x. (X0(x) -> x = 0)", Q))


def test_decide_two_independent_axes():
    assert decide_sentence(parse_formula("E x. !X1(x) & X2(x)", Q))


def test_decide_x2_not_contained_in_x1():
    assert not decide_sentence(parse_formula("A x. (X2(x) -> X1(x))", Q))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _always_true(phi, model):
    """A closed or constant formula that evaluates true."""
    return _closed_eval(phi, model)


def _closed_eval(phi, model):
    from axisspace.qe import _eval_closed

    return _eval_closed(phi)

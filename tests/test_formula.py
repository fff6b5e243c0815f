"""Formula syntax: parsing, printing, quantifier-free evaluation."""

import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axisspace.errors import FormulaSyntaxError, NotQuantifierFree, UnboundSymbol
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
    free_symbols,
    parse_formula,
    parse_term,
    print_formula,
    substitute,
)
from axisspace.model import rich_model

Q = FieldCtx.rationals()
GF3 = FieldCtx.prime_field(3)


@pytest.fixture
def M():
    return rich_model(Q)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_xn_atom():
    phi = parse_formula("X1(x)", Q)
    assert phi == Xn(1, Term.var(Q, "x"))


def test_parse_exists_equation():
    phi = parse_formula("E x. (x + -1*$c = 0)", Q)
    assert isinstance(phi, Exists) and phi.var == "x"
    body = phi.body
    assert isinstance(body, Eq)
    assert body.lhs == Term.var(Q, "x") + Term.const(Q, "c", -1)
    assert body.rhs == Term.zero(Q)


def test_parse_implication_desugars():
    phi = parse_formula("A x. (X1(x) -> X2(x))", Q)
    assert phi == Forall("x", Or(Not(Xn(1, Term.var(Q, "x"))), Xn(2, Term.var(Q, "x"))))


def test_parse_unparenthesized_conjunction_in_scope():
    phi = parse_formula("E x. !X1(x) & X2(x)", Q)
    assert phi == Exists("x", And(Not(Xn(1, Term.var(Q, "x"))), Xn(2, Term.var(Q, "x"))))


def test_parse_rational_scalars():
    t = parse_term("1/2*x + -3/4*$c + y", Q)
    assert t == Term.make(Q, {"x": Q.of("1/2"), "y": 1}, {"c": Q.of("-3/4")})


def test_parse_prime_field_scalars():
    t = parse_term("2*x + 4*y", GF3)
    assert t == Term.make(GF3, {"x": 2, "y": 1})
    with pytest.raises(FormulaSyntaxError):
        parse_term("1/2*x", GF3)


def test_parse_zero_literal():
    assert parse_term("0", Q) == Term.zero(Q)
    assert parse_term("x + 0", Q) == Term.var(Q, "x")


def test_parse_errors_carry_positions():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("X1(x", Q)
    assert exc.value.position >= 4
    with pytest.raises(FormulaSyntaxError):
        parse_formula("3 = x", Q)  # bare scalar other than 0
    with pytest.raises(FormulaSyntaxError):
        parse_formula("X(x)", Q)  # missing index: X needs a digit
    with pytest.raises(FormulaSyntaxError):
        parse_formula("x ? y", Q)


def test_terms_normalize_zero_coefficients():
    t = parse_term("x + -1*x", Q)
    assert t.is_zero()


def test_term_hash_is_structural_and_survives_pickling_across_processes():
    """Terms cache their hash; a term pickled in a process with other
    string hashes must still find its equal in a set here."""
    t = parse_term("2*x + -1/3*$c", Q)
    u = parse_term("-1/3*$c + 2*x", Q)
    assert t == u and hash(t) == hash(u) and t is not u
    code = (
        "import pickle, sys; from axisspace.fields import FieldCtx; from axisspace.formula import parse_term; "
        "hash(t := parse_term('2*x + -1/3*$c', FieldCtx.rationals())); sys.stdout.buffer.write(pickle.dumps(t))"
    )
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
        data = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout
        assert pickle.loads(data) in {t}


# ---------------------------------------------------------------------------
# printing round-trips
# ---------------------------------------------------------------------------


def _term_strategy(field):
    names = st.sampled_from(["x", "y", "z", "w"])
    consts = st.sampled_from(["c", "d"])
    coeff = st.integers(min_value=-4, max_value=4)
    return st.builds(
        lambda vs, cs: Term.make(field, dict(vs), dict(cs)),
        st.lists(st.tuples(names, coeff), max_size=3),
        st.lists(st.tuples(consts, coeff), max_size=2),
    )


def _formula_strategy(field):
    terms = _term_strategy(field)
    atoms = st.one_of(
        st.builds(Eq, terms, terms),
        st.builds(Xn, st.integers(min_value=0, max_value=5), terms),
    )
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Exists, st.sampled_from(["x", "y"]), sub),
            st.builds(Forall, st.sampled_from(["x", "y"]), sub),
        ),
        max_leaves=6,
    )


@settings(max_examples=500, deadline=None)
@given(_formula_strategy(Q))
def test_parse_print_roundtrip(phi):
    assert parse_formula(print_formula(phi), Q) == phi


@settings(max_examples=200, deadline=None)
@given(_formula_strategy(GF3))
def test_parse_print_roundtrip_prime_field(phi):
    assert parse_formula(print_formula(phi), GF3) == phi


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_trivial_equation(M):
    phi = parse_formula("0 = 0", Q)
    assert eval_qf(phi, {}, Q)


def test_eval_xn_thresholds(M):
    a = M.e(0, 0) + M.e(1, 0)
    env = {"t": a}
    assert not eval_qf(parse_formula("X1(t)", Q), env)
    assert eval_qf(parse_formula("X2(t)", Q), env)


def test_eval_x0_iff_zero(M):
    rng = random.Random(7)
    for _ in range(100):
        parts = {(rng.randrange(3), rng.randrange(2)): rng.randint(-2, 2) for _ in range(rng.randrange(3))}
        el = M.element(parts)
        env = {"t": el}
        assert eval_qf(parse_formula("X0(t)", Q), env, Q) == el.is_zero()


def test_eval_unbound_symbol(M):
    with pytest.raises(UnboundSymbol):
        eval_qf(parse_formula("X1(x)", Q), {}, Q)
    with pytest.raises(UnboundSymbol):
        eval_qf(parse_formula("X1($c)", Q), {}, Q)


def test_eval_rejects_quantifiers(M):
    with pytest.raises(NotQuantifierFree):
        eval_qf(parse_formula("E x. X1(x)", Q), {}, Q)


def test_eval_invariant_under_normalization(M):
    env = {"x": M.e(0, 0), "y": M.e(1, 0)}
    a = parse_formula("x + y + -1*y = x", Q)
    assert eval_qf(a, env)


def test_constants_resolved_with_dollar_prefix(M):
    env = {"$c": M.e(0, 0), "x": M.e(0, 0)}
    assert eval_qf(parse_formula("x + -1*$c = 0", Q), env)


# ---------------------------------------------------------------------------
# symbol bookkeeping
# ---------------------------------------------------------------------------


def test_free_symbols_and_substitution():
    phi = parse_formula("E x. (x + -1*y = 0 & X1($c))", Q)
    assert free_symbols(phi) == {"y", "$c"}
    inner = parse_formula("x + -1*y = 0", Q)
    replaced = substitute(inner, "x", Term.const(Q, "c"))
    assert replaced == parse_formula("$c + -1*y = 0", Q)

"""Formula syntax: parsing, printing, quantifier-free evaluation."""

import hashlib
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axisspace.errors import FieldMismatch, FormulaSyntaxError, NotQuantifierFree, UnboundSymbol
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
    _balanced,
    eval_qf,
    free_symbols,
    parse_formula,
    parse_term,
    print_formula,
)
from axisspace.model import ModelElement, SubspaceHandle, combine, pi_A, proj_axis, rich_model, span_basis
from axisspace.qe import eliminate_all

from randgen import random_exists_formula, random_nested_formula

Q = FieldCtx.rationals()
GF3 = FieldCtx.prime_field(3)
GF5 = FieldCtx.prime_field(5)


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


def test_flat_chains_parse_balanced_and_parentheses_keep_their_shape():
    a, b, c, d = (Xn(i, Term.var(Q, "x")) for i in range(4))
    assert parse_formula("X0(x) & X1(x) & X2(x) & X3(x)", Q) == And(And(a, b), And(c, d))
    assert parse_formula("X0(x) | X1(x) | X2(x)", Q) == Or(a, Or(b, c))
    assert parse_formula("X0(x) -> X1(x) -> X2(x) -> X3(x)", Q) == Or(Or(Not(a), Not(b)), Or(Not(c), d))
    assert parse_formula("((X0(x) & X1(x)) & X2(x)) & X3(x)", Q) == And(And(And(a, b), c), d)
    assert parse_formula("(X0(x) -> X1(x)) -> X2(x)", Q) == Or(Not(Or(Not(a), b)), c)

    def depth(phi):
        kids = [getattr(phi, k) for k in ("lhs", "rhs") if isinstance(phi, (And, Or))]
        return 1 + max(map(depth, kids), default=0)

    assert depth(parse_formula(" & ".join(["X1(x)"] * 3000), Q)) == 13


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


def _trees_digest(texts, field):
    """sha1 of the repr of the list of parse trees of ``texts``."""
    return hashlib.sha1(repr([parse_formula(text, field) for text in texts]).encode()).hexdigest()


def test_parse_trees_are_pinned():
    """The parse trees of 600 seeded texts over Q and over GF(5), and of
    hand-written texts with fractions, repeated symbols, zero summands and
    spaced scalars, which the seeded corpus lacks."""
    rng_nested, rng_exists = random.Random(5), random.Random(6)
    texts = [random_nested_formula(rng_nested) for _ in range(300)]
    texts += [print_formula(random_exists_formula(rng_exists)[0]) for _ in range(300)]
    assert _trees_digest(texts, Q) == "f328fd02a6ab4fc932e93e0f21cf889a5d9a1254"
    assert _trees_digest(texts, GF5) == "4047f2ed5377197cdc58825e32a521f6a13d2b97"
    hand = [
        "1/2*x + -3/4*$c + y = 0",
        "x + -1*x = 0",
        "x + x + 0 = 2*x",
        "X3( - 2 / 4 * $c + $c + 7/7*z )",
        "0 = 0",
        "E x. A y. (X1(x + -1*y) -> !(x = 1/3*y + -5/6*$d))",
        "$c + $c + -2*$c = x + -1*x",
        "X0(0 + 0 + x)",
    ]
    assert _trees_digest(hand, Q) == "c56e20a64e0e36146a12df71174d8dc9045ccaed"


@pytest.mark.parametrize(
    "text, field, message",
    [
        ("", Q, "expected a variable, constant or scalar, found '' (at position 0)"),
        ("   ", Q, "expected a variable, constant or scalar, found '' (at position 3)"),
        ("x ? y", Q, "unexpected character '?' (at position 1)"),
        ("X1(x) &  #", Q, "unexpected character '#' (at position 7)"),
        ("X1(x", Q, "expected ')', found 'end of input' (at position 4)"),
        ("3 = x", Q, "scalar summand without an atom (only 0 stands alone) (at position 0)"),
        ("X(x)", Q, "unexpected character 'X' (at position 0)"),
        ("1/2*x = 0", GF3, "fractional scalars are not prime-field syntax (at position 2)"),
        ("1/0*x = 0", Q, "zero denominator (at position 2)"),
        ("$ 1 = 0", Q, "expected a constant name after $ (at position 2)"),
        ("E 1. X1(x)", Q, "expected a variable after quantifier (at position 2)"),
        ("E x X1(x)", Q, "expected '.', found 'X' (at position 4)"),
        ("X1(x) X1(y)", Q, "trailing input 'X' (at position 6)"),
        ("x = 0 )", Q, "trailing input ')' (at position 6)"),
        ("2* = 0", Q, "expected a variable, constant or scalar, found '=' (at position 3)"),
        ("- = 0", Q, "expected a number (at position 2)"),
        ("1/ = 0", Q, "expected a denominator (at position 3)"),
        ("X1(x) & \u00e9", Q, "unexpected character '\u00e9' (at position 7)"),
        ("x + = 0", Q, "expected a variable, constant or scalar, found '=' (at position 4)"),
        ("(x = 0", Q, "expected ')', found 'end of input' (at position 6)"),
        ("Xa(x)", Q, "unexpected character 'X' (at position 0)"),
    ],
)
def test_syntax_error_texts_are_pinned(text, field, message):
    """Each malformed text fails with this exact message and position; an
    unknown character is reported at the end of the token before it."""
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(text, field)
    assert str(exc.value) == message



def test_parser_builds_each_term_once(monkeypatch):
    """Each term's summands are added up in plain maps and normalised by
    one Term.make; the parser runs no term arithmetic."""
    calls = dict.fromkeys(("make", "combine", "scale", "var", "const"), 0)
    for name in calls:
        original = Term.__dict__[name]
        static = isinstance(original, staticmethod)
        fn = original.__func__ if static else original

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(Term, name, staticmethod(counted) if static else counted)
    phi = parse_formula("1/2*x + -3/4*$c + y + 2*x = $c", Q)
    assert calls == {"make": 2, "combine": 0, "scale": 0, "var": 0, "const": 0}
    assert phi == Eq(Term.make(Q, {"x": Fraction(5, 2), "y": 1}, {"c": Fraction(-3, 4)}), Term.make(Q, {}, {"c": 1}))

def test_terms_normalize_zero_coefficients():
    t = parse_term("x + -1*x", Q)
    assert t.is_zero()


def _scalars(field):
    ints = st.integers(min_value=-6, max_value=6)
    if field.is_infinite:
        return st.builds(lambda n, d: field.of(Fraction(n, d)), ints, st.integers(min_value=1, max_value=4))
    return ints.map(field.of)


def _made_terms(field):
    def entries(names):
        return st.lists(st.tuples(st.sampled_from(names), _scalars(field)), max_size=3)

    return st.builds(lambda vs, cs: Term.make(field, dict(vs), dict(cs)), entries(["x", "y", "z"]), entries(["c", "d"]))


def _parts(v):
    """The two sorted entry tuples of a term or a model element."""
    return (v.vars, v.consts) if isinstance(v, Term) else (v.axis_part, v.free_part)


def _dict_sum(field, *summands):
    """The sum of s*v over the (s, v) ``summands``, terms or model
    elements alike, added up in plain dicts and normalised once by the
    type's ``make``."""
    sums = ({}, {})
    for s, v in summands:
        for acc, part in zip(sums, _parts(v)):
            for key, c in part:
                acc[key] = acc.get(key, 0) + s * c
    return type(v).make(field, *sums)


@st.composite
def _arith_cases(draw):
    field = draw(st.sampled_from([Q, GF5]))
    a, b = draw(_made_terms(field)), draw(_made_terms(field))
    if draw(st.booleans()):
        # b repeats a scaled, so sums and differences cancel entries of a
        b = _dict_sum(field, (draw(_scalars(field)), a), (1, b))
    return field, a, b, draw(_scalars(field))


def _assert_same(got, want):
    """Equal tuple for tuple and scalar type for scalar type (terms or
    model elements)."""
    assert type(got) is type(want) and got.field == want.field and _parts(got) == _parts(want)
    assert [type(c) for part in _parts(got) for _, c in part] == [type(c) for part in _parts(want) for _, c in part]


@settings(max_examples=400, deadline=None)
@given(_arith_cases())
def test_term_arithmetic_equals_make_over_dict_sums(case):
    """Over Q and GF(5), every arithmetic operation on terms gives, tuple
    for tuple, what Term.make gives on the same sums done in dicts."""
    field, a, b, s = case
    zero = Term.zero(field)
    _assert_same(a.combine(s, b), _dict_sum(field, (1, a), (s, b)))
    _assert_same(a.combine(field.zero, b), a)
    _assert_same(a.scale(s).combine(field.neg(s), a), zero)
    _assert_same(a + b, _dict_sum(field, (1, a), (1, b)))
    _assert_same(a - b, _dict_sum(field, (1, a), (-1, b)))
    _assert_same(a.scale(s), _dict_sum(field, (s, a)))
    _assert_same(a.scale(field.zero), zero)
    _assert_same(a - a, zero)
    _assert_same(a + a.scale(field.of(-1)), zero)


def _made_elements(field):
    def entries(keys):
        return st.lists(st.tuples(keys, _scalars(field)), max_size=4)

    axis_keys = st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=1))
    return st.builds(
        lambda ap, fp: ModelElement.make(field, dict(ap), dict(fp)),
        entries(axis_keys),
        entries(st.integers(min_value=0, max_value=2)),
    )


@st.composite
def _element_cases(draw):
    field = draw(st.sampled_from([Q, GF5]))
    a, b = draw(_made_elements(field)), draw(_made_elements(field))
    if draw(st.booleans()):
        b = _dict_sum(field, (draw(_scalars(field)), a), (1, b))
    return field, a, b, draw(_scalars(field)), draw(st.integers(min_value=0, max_value=3))


@settings(max_examples=400, deadline=None)
@given(_element_cases())
def test_element_arithmetic_equals_make_over_dict_sums(case):
    """Over Q and GF(5), every arithmetic operation on model elements, and
    the projections, give, tuple for tuple, what ModelElement.make gives on
    the same sums done in dicts; span_basis builds canonical rows."""
    field, a, b, s, axis = case
    zero = ModelElement.zero(field)
    _assert_same(a + b, _dict_sum(field, (1, a), (1, b)))
    _assert_same(a - b, _dict_sum(field, (1, a), (-1, b)))
    _assert_same(-a, _dict_sum(field, (-1, a)))
    _assert_same(a.scale(s), _dict_sum(field, (s, a)))
    _assert_same(s * a, _dict_sum(field, (s, a)))
    _assert_same(a.scale(field.zero), zero)
    _assert_same(a - a, zero)
    _assert_same(a + a.scale(field.of(-1)), zero)
    _assert_same(combine(field, [s, 1, field.zero], [a, b, a]), _dict_sum(field, (s, a), (1, b)))
    _assert_same(combine(field, [1, field.neg(s)], [a.scale(s), a.scale(field.zero)]), _dict_sum(field, (s, a)))
    _assert_same(combine(field, [], []), zero)
    fa, fb = (ModelElement(field, el.axis_part, ()) for el in (a, b))
    on_axis = {k: c for k, c in fa.axis_part if k[0] == axis}
    _assert_same(proj_axis(fa, axis), ModelElement.make(field, on_axis))
    on_axes_of_b = {k: c for k, c in fa.axis_part if k[0] in fb.axes()}
    _assert_same(pi_A(fa, SubspaceHandle.of(fb, b.scale(field.zero))), ModelElement.make(field, on_axes_of_b))
    for row in span_basis(SubspaceHandle.of(a, b), field):
        _assert_same(row, ModelElement.make(field, dict(row.axis_part), dict(row.free_part)))


def _no_multiplication(op):
    """op(), failing if it makes a FieldCtx.mul call."""
    mul = FieldCtx.mul

    def refuse(self, a, b):
        raise AssertionError(f"multiplied {a} by {b}")

    FieldCtx.mul = refuse
    try:
        return op()
    finally:
        FieldCtx.mul = mul


@settings(max_examples=200, deadline=None)
@given(_arith_cases(), _element_cases())
def test_subtraction_multiplies_no_scalar(terms, elements):
    """a - b negates or subtracts b's scalars, over Q and GF(5), for terms
    and model elements, and equals a + (-1)*b."""
    field, a, b = terms[:3]
    _assert_same(_no_multiplication(lambda: a - b), a.combine(field.of(-1), b))
    _assert_same(a - b, _dict_sum(field, (1, a), (-1, b)))
    field, a, b = elements[:3]
    _assert_same(_no_multiplication(lambda: a - b), combine(field, [1, -1], [a, b]))
    _assert_same(a - b, _dict_sum(field, (1, a), (-1, b)))


def test_term_arithmetic_rejects_mixed_fields():
    """Terms over different fields do not combine, as model elements do
    not, even with a zero coefficient; equal fields held in two objects
    do."""
    x, x5 = Term.var(Q, "x"), Term.var(GF5, "x")
    for op in (
        lambda: x + x5,
        lambda: x - x5,
        lambda: x + Term.zero(GF5),
        lambda: x.combine(Q.zero, x5),
    ):
        with pytest.raises(FieldMismatch):
            op()
    with pytest.raises(FieldMismatch):
        combine(Q, [0], [rich_model(GF5).e(0, 0)])
    assert x + Term.var(FieldCtx.rationals(), "x") == Term.var(Q, "x", 2)


def test_term_hash_is_structural_and_survives_pickling_across_processes():
    """Equal terms written in another order are equal, hash alike and print
    alike.  A term pickled in a process with other string hashes, after
    its hash and text were taken there, has the bytes of one pickled fresh
    here, and its copy finds its equal in a set here."""
    t = parse_term("2*x + -1/3*$c", Q)
    u = parse_term("-1/3*$c + 2*x", Q)
    assert t == u and hash(t) == hash(u) and str(t) == str(u) and t is not u
    code = (
        "import pickle, sys; from axisspace.fields import FieldCtx; from axisspace.formula import parse_term; "
        "t = parse_term('2*x + -1/3*$c', FieldCtx.rationals()); hash(t); str(t); "
        "sys.stdout.buffer.write(pickle.dumps(t))"
    )
    uncached = pickle.dumps(parse_term("2*x + -1/3*$c", Q))
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
        data = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout
        assert data == uncached
        copy = pickle.loads(data)
        assert copy in {t} and str(copy) == "2*x + -1/3*$c"


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


def _reference_print(phi):
    """print_formula as a plain recursion, every node rendered where it
    stands."""
    if isinstance(phi, Eq):
        return f"{phi.lhs} = {phi.rhs}"
    if isinstance(phi, Xn):
        return f"X{phi.n}({phi.term})"
    if isinstance(phi, Not):
        return f"!{_reference_tight(phi.child)}"
    if isinstance(phi, And):
        return f"({_reference_operand(phi.lhs)} & {_reference_operand(phi.rhs)})"
    if isinstance(phi, Or):
        return f"({_reference_operand(phi.lhs)} | {_reference_operand(phi.rhs)})"
    if isinstance(phi, Exists):
        return f"E {phi.var}. {_reference_tight(phi.body)}"
    if isinstance(phi, Forall):
        return f"A {phi.var}. {_reference_tight(phi.body)}"
    raise TypeError(f"not a formula: {phi!r}")


def _reference_tight(phi):
    text = _reference_print(phi)
    return f"({text})" if isinstance(phi, (Eq, Exists, Forall)) else text


def _reference_operand(phi):
    text = _reference_print(phi)
    return f"({text})" if isinstance(phi, (Exists, Forall)) else text


@settings(max_examples=500, deadline=None)
@given(_formula_strategy(Q))
def test_parse_print_roundtrip(phi):
    assert parse_formula(print_formula(phi), Q) == phi
    assert print_formula(phi) == _reference_print(phi)


@settings(max_examples=200, deadline=None)
@given(_formula_strategy(GF3))
def test_parse_print_roundtrip_prime_field(phi):
    assert parse_formula(print_formula(phi), GF3) == phi
    assert print_formula(phi) == _reference_print(phi)


def test_print_formula_renders_shared_nodes_in_their_context():
    """A node shared by several positions prints with the parentheses of
    each position, on hand-made trees, nested formulas and QE outputs
    (one node per literal, shared by every disjunct)."""
    x = Term.var(Q, "x")
    eq, ex = Eq(x, Term.zero(Q)), Exists("x", Xn(1, x))
    for phi in (And(eq, Not(eq)), Or(Not(ex), And(ex, Forall("y", eq))), And(Not(eq), Not(eq))):
        assert print_formula(phi) == _reference_print(phi)
    assert print_formula(And(eq, Not(eq))) == "(x = 0 & !(x = 0))"
    rng = random.Random(2006)
    for _ in range(60):
        phi = parse_formula(random_nested_formula(rng), Q)
        for psi in (phi, eliminate_all(phi)):
            assert print_formula(psi) == _reference_print(psi)
    big = parse_formula("E x. !(!(X4(-1*x + -2*$c0) & !(X1(x + -1*$c1) | X1(x + -1*$c0))) | -2*$c1 = 2*$c0 + -1*$c1)", Q)
    out = eliminate_all(big)
    assert print_formula(out) == _reference_print(out)
    with pytest.raises(TypeError):
        print_formula(And(eq, 42))


def _reference_balanced(node, parts):
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return node(_reference_balanced(node, parts[:mid]), _reference_balanced(node, parts[mid:]))


def _shape(phi):
    """A tree's connectives, with every other node by identity."""
    if isinstance(phi, (And, Or)):
        return type(phi).__name__, _shape(phi.lhs), _shape(phi.rhs)
    return id(phi)


def test_balanced_builds_the_slicing_tree():
    x = Term.var(Q, "x")
    for n in range(1, 301):
        parts = [Xn(i, x) for i in range(n)]
        for node in (And, Or):
            assert _shape(_balanced(node, parts)) == _shape(_reference_balanced(node, parts))


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
    # with no field given, an empty environment names none
    with pytest.raises(UnboundSymbol):
        eval_qf(parse_formula("0 = 0", Q), {})
    # connectives short-circuit left to right: an atom after the deciding one is never read
    assert eval_qf(parse_formula("X0(0) | X1($missing)", Q), {}, Q)
    with pytest.raises(UnboundSymbol):
        eval_qf(parse_formula("X1($missing) | X0(0)", Q), {}, Q)


def test_eval_rejects_quantifiers(M):
    with pytest.raises(NotQuantifierFree):
        eval_qf(parse_formula("E x. X1(x)", Q), {}, Q)
    env = {"$c": M.e(0, 0)}
    with pytest.raises(NotQuantifierFree):
        eval_qf(parse_formula("X1($c) & (X1($c) | X0($c)) & E x. X1(x)", Q), env)
    assert eval_qf(parse_formula("X1($c) | E x. X1(x)", Q), env)


def test_eval_invariant_under_normalization(M):
    env = {"x": M.e(0, 0), "y": M.e(1, 0)}
    a = parse_formula("x + y + -1*y = x", Q)
    assert eval_qf(a, env)


def test_constants_resolved_with_dollar_prefix(M):
    env = {"$c": M.e(0, 0), "x": M.e(0, 0)}
    assert eval_qf(parse_formula("x + -1*$c = 0", Q), env)


@pytest.mark.parametrize(
    "build, first, second",
    [
        # X0(3*x) over GF(5), beside an atom over Q that holds
        (And, Xn(0, parse_term("3*x", GF5)), parse_formula("0 = 0", Q)),
        # x = 6*x over GF(5), where 6 = 1
        (Eq, parse_term("x", GF5), parse_term("6*x", GF5)),
        (Eq, parse_term("x", Q), parse_term("x", GF5)),
        # x = 0 with the zero over GF(5): a zero side is not evaluated
        (Eq, parse_term("x", Q), Term.zero(GF5)),
    ],
    ids=["xn-over-gf5", "equation-over-gf5", "equation-across-fields", "zero-side-over-gf5"],
)
@pytest.mark.parametrize("swapped", [False, True], ids=["as-written", "swapped"])
def test_eval_refuses_a_term_over_another_field(M, build, first, second, swapped):
    """Every term is evaluated over the environment's field only: a term
    over GF(5) under an environment over Q raises FieldMismatch, on
    either side of its connective or equation."""
    env = {"x": M.e(0, 0)}
    phi = build(second, first) if swapped else build(first, second)
    with pytest.raises(FieldMismatch):
        eval_qf(phi, env, Q)
    with pytest.raises(FieldMismatch):
        eval_qf(phi, env)


# ---------------------------------------------------------------------------
# symbol bookkeeping
# ---------------------------------------------------------------------------


def test_free_symbols():
    phi = parse_formula("E x. (x + -1*y = 0 & X1($c))", Q)
    assert free_symbols(phi) == {"y", "$c"}

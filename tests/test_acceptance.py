"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time

from axisspace.cli import main as cli_main
from axisspace.fields import FieldCtx
from axisspace.finitefield import brute_qf_equiv, construct_counterexample
from axisspace.formula import eval_qf, parse_formula, print_formula
from axisspace.invariant import (
    LinearMapFa,
    apply_fa,
    g_of,
    g_via_inclusion_exclusion,
    kernel_candidates,
    qf_equiv,
    qf_invariant,
    weights_oracle_via_witness,
)
from axisspace.iso import extend_to_hat, fragment_isomorphism_game
from axisspace.linalg import full_space, vec, zero_space
from axisspace.model import (
    SubspaceHandle,
    canonical_model,
    descriptor_iso,
    in_Xn,
    make_descriptor,
    rich_model,
    weight_of_subspace,
    z_multiple_check,
)
from axisspace.qe import decide_sentence, eliminate_exists, witness_search
from axisspace.typespace import SumType, classify, conjugacy_witness

from randgen import random_exists_formula, random_f_element, random_param_env

Q = FieldCtx.rationals()


# ---------------------------------------------------------------------------
# criterion 1: the finite-field pair, exhaustively, for p in {2, 3, 5}
# ---------------------------------------------------------------------------


def test_criterion_1_finite_field_pairs():
    import io

    for p in (2, 3, 5):
        t0 = time.monotonic()
        a, b, _ = construct_counterexample(p)
        assert brute_qf_equiv(a, b)
        assert weight_of_subspace(SubspaceHandle(a)) == p
        assert weight_of_subspace(SubspaceHandle(b)) == p + 1
        out = io.StringIO()
        assert cli_main(["ff-counterexample", "--p", str(p)], out=out, err=io.StringIO()) == 0
        text = out.getvalue()
        assert f"w(<a>) = {p}" in text and f"w(<b>) = {p + 1}" in text
        assert "qf-equivalent: true" in text
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"p={p} took {elapsed:.2f}s"
    print("PASS criterion 1: exhaustive qf-equivalent pairs with span weights (p, p+1) for p in {2,3,5}")


# ---------------------------------------------------------------------------
# criterion 2: multiplicity from weights alone, 500 random tuples
# ---------------------------------------------------------------------------


def test_criterion_2_inclusion_exclusion_agreement():
    from fractions import Fraction

    t0 = time.monotonic()
    model = rich_model(Q)
    rng = random.Random(2024)
    checked = 0
    for _ in range(500):
        arity = rng.randrange(1, 4)
        tuple_ = []
        for _ in range(arity):
            parts = {}
            for axis in rng.sample(range(5), rng.randrange(0, 4)):
                num = rng.randint(-9, 9)
                den = rng.randint(1, 9)
                if num:
                    parts[(axis, rng.randrange(2))] = Fraction(num, den)
            tuple_.append(model.element(parts))
        tuple_ = tuple(tuple_)
        inv = qf_invariant(tuple_)
        weights = weights_oracle_via_witness(tuple_)
        cands = kernel_candidates(tuple_)
        probes = list(cands) + [zero_space(Q, arity), full_space(Q, arity)]
        for V in probes:
            expected = g_of(inv, V)
            for r in range(expected + 2):
                assert g_via_inclusion_exclusion(weights, V, r, cands) == (expected >= r)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"PASS criterion 2: g_of vs inclusion-exclusion agree on 500 tuples ({checked} probes, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 3: hull extension on 100 equivalent pairs
# ---------------------------------------------------------------------------


def _automorphism(model, perm, scales):
    def apply(el):
        parts = {}
        for (axis, coord), c in el.axis_part:
            parts[(perm.get(axis, axis), coord)] = Q.mul(Q.of(scales.get(axis, 1)), c)
        return model.element(parts)

    return apply


def test_criterion_3_hull_extension_preserves_structure():
    model = rich_model(Q)
    rng = random.Random(314)
    for _ in range(100):
        arity = rng.randrange(1, 4)
        a = tuple(random_f_element(model, rng, max_axes=3) for _ in range(arity))
        axes = list(range(6))
        rng.shuffle(axes)
        perm = dict(enumerate(axes))
        scales = {axis: rng.choice([1, 2, -1, 3]) for axis in range(6)}
        auto = _automorphism(model, perm, scales)
        b = tuple(auto(el) for el in a)
        assert qf_equiv(a, b)
        h = extend_to_hat(a, b)
        fa, fb = LinearMapFa(a), LinearMapFa(b)
        seen = {}
        for _ in range(100):
            lam = vec(Q, [rng.randint(-4, 4) for _ in range(arity)])
            xa, xb = apply_fa(fa, lam), apply_fa(fb, lam)
            assert h.apply(xa) == xb
            for n in range(7):
                assert in_Xn(xa, n) == in_Xn(xb, n)
            # element equality is preserved across the map
            if xa in seen:
                assert seen[xa] == xb
            seen[xa] = xb
    print("PASS criterion 3: hull extension built for 100 automorphic pairs; map and sumset levels agree")


# ---------------------------------------------------------------------------
# criterion 4: elimination agrees with witness search; grid oracle
# ---------------------------------------------------------------------------


def _grid_candidates(model, env, scalars=(-2, -1, 0, 1, 2)):
    used = list(env.values())
    coords = sorted({k for el in used for k, _ in el.axis_part})
    a1 = model.fresh_axis(used)
    coords += [(a1, 0), (a1 + 1, 0)]
    free_coord = model.fresh_free_coord(used)
    for combo in itertools.product(scalars, repeat=len(coords) + 1):
        axis_part = dict(zip(coords, combo[:-1]))
        free_part = {free_coord: combo[-1]} if combo[-1] else {}
        yield model.element(axis_part, free_part)


def test_criterion_4_elimination_agreement_and_grid():
    t0 = time.monotonic()
    model = rich_model(Q)
    rng = random.Random(1729)
    for _ in range(100):
        phi, params = random_exists_formula(rng)
        out = eliminate_exists(phi.body, "x")
        for _ in range(20):
            env = random_param_env(model, rng, params)
            truth = eval_qf(out, env, Q)
            found = witness_search(phi.body, "x", env, model) is not None
            assert truth == found, print_formula(phi)
    # grid oracle: whenever the bounded grid contains a witness, the search
    # must have found one; checked on searches that came back empty
    grid_checked = 0
    while grid_checked < 12:
        phi, params = random_exists_formula(rng)
        env = random_param_env(model, rng, params, max_weight=1)
        if witness_search(phi.body, "x", env, model) is not None:
            continue
        for cand in _grid_candidates(model, env):
            env2 = dict(env)
            env2["x"] = cand
            assert not eval_qf(phi.body, env2, Q), print_formula(phi)
        grid_checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(
        f"PASS criterion 4: elimination = witness search on 100 formulas x 20 instantiations; "
        f"grid oracle found no false negatives on {grid_checked} empty searches ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 5: sentence decisions on axiom instances and false statements
# ---------------------------------------------------------------------------


NONZERO_X = "X1({v}) & !X0({v})"


def _pairwise_nonparallel(vs):
    clauses = [f"!X1({a} + {b})" for a, b in itertools.combinations(vs, 2)]
    return " & ".join(clauses)


TRUE_SENTENCES = [
    # scalar closure of the axes (instances)
    "A x. (X1(x) -> X1(2*x))",
    "A x. (X1(x) -> X1(-1/2*x))",
    "A x. (X1(x) -> X1(7*x))",
    # parallelism is transitive on the nonzero part of X
    "A x. A y. A z. ((X1(x) & X1(y) & X1(z) & !X0(x) & !X0(y) & !X0(z))"
    " -> ((X1(x + y) & X1(y + z)) -> X1(x + z)))",
    # a parallelism class with zero is closed under addition and scalars
    "A x. A y. ((X1(x) & X1(y) & !X0(x) & !X0(y) & X1(x + y)) -> X1(x + 2*y))",
    # at least three pairwise nonparallel nonzero members of X
    f"E x. E y. E z. ({NONZERO_X.format(v='x')} & {NONZERO_X.format(v='y')} & {NONZERO_X.format(v='z')}"
    f" & {_pairwise_nonparallel(['x', 'y', 'z'])})",
    # independence of three axes, coefficient instances
    "A x. A y. A z. ((X1(x) & X1(y) & X1(z) & !X0(x) & !X0(y) & !X0(z)"
    " & !X1(x + y) & !X1(y + z) & !X1(x + z)) -> !(x + y + z = 0))",
    "A x. A y. A z. ((X1(x) & X1(y) & X1(z) & !X0(x) & !X0(y) & !X0(z)"
    " & !X1(x + y) & !X1(y + z) & !X1(x + z)) -> !(x + 2*y + -3*z = 0))",
    # two independent axes give a point of X^2 outside X^1
    "E x. (!X1(x) & X2(x))",
]

FALSE_SENTENCES = [
    "A x. (X2(x) -> X1(x))",
    "A x. (X1(x) -> X0(x))",
    "A x. (X3(x) -> X2(x))",
    "E x. (X0(x) & !X1(x))",
    "A x. X1(x)",
    "E x. (X1(x) & !X0(x) & x + x = 0)",
    "A x. A y. ((X1(x) & X1(y)) -> X1(x + y))",
    "E x. (X2(x) & !X2(x))",
    # at most two axes
    "A x. A y. A z. ((X1(x) & X1(y) & X1(z) & !X0(x) & !X0(y) & !X0(z))"
    " -> (X1(x + y) | X1(y + z) | X1(x + z)))",
    # every point of X^2 splits over one axis pair with a given ratio
    "A x. (X2(x) -> X1(2*x))",
]


def test_criterion_5_sentence_decisions():
    for text in TRUE_SENTENCES:
        assert decide_sentence(parse_formula(text, Q)), text
    for text in FALSE_SENTENCES:
        assert not decide_sentence(parse_formula(text, Q)), text
    print(
        f"PASS criterion 5: {len(TRUE_SENTENCES)} axiom-instance sentences true, "
        f"{len(FALSE_SENTENCES)} curated sentences false"
    )


# ---------------------------------------------------------------------------
# criterion 6: uniqueness of the minimal sum type over a fragment
# ---------------------------------------------------------------------------


def test_criterion_6_sum_type_uniqueness():
    model = rich_model(Q)
    fragment = SubspaceHandle.of(model.e(0, 0) + model.e(1, 0), model.e(0, 1), model.fe(0))
    gens = tuple(fragment.generators)
    rng = random.Random(2718)
    for n in (1, 2, 3):
        for _ in range(50):
            a = _fresh_support(model, rng, n, 20)
            b = _fresh_support(model, rng, n, 50)
            assert classify(a, fragment) == SumType(n, model.zero())
            assert classify(b, fragment) == SumType(n, model.zero())
            f = conjugacy_witness(a, b, fragment)
            assert f.apply(a) == b
            for g in gens:
                assert f.apply(g) == g
            assert qf_equiv(gens + (a,), gens + (b,))
    print("PASS criterion 6: 50 conjugacy witnesses per sum level n in {1,2,3}, extended tuples equivalent")


def _fresh_support(model, rng, n, start):
    axes = rng.sample(range(start, start + 12), n)
    out = model.zero()
    for axis in axes:
        out = out + model.e(axis, rng.randrange(2), rng.choice([1, 2, -1, 3]))
    return out


# ---------------------------------------------------------------------------
# criterion 7: descriptor equality decides the fragment game
# ---------------------------------------------------------------------------


def test_criterion_7_descriptor_iso_matches_game():
    rng = random.Random(97)
    pairs = 0
    while pairs < 20:
        d1 = _random_fragment(rng)
        d2 = d1 if rng.random() < 0.45 else _random_fragment(rng)
        m1 = canonical_model(d1, Q)
        m2 = canonical_model(d2, Q)
        game = fragment_isomorphism_game(m1, m2)
        assert (game is not None) == descriptor_iso(d1, d2)
        if game is not None:
            for el in m1.basis_elements():
                assert game.contains(el)
        pairs += 1
    print("PASS criterion 7: generator-level isomorphism constructible iff descriptors equal (20 pairs)")


def _random_fragment(rng):
    census = {}
    for dim in rng.sample(range(1, 4), rng.randrange(1, 3)):
        census[dim] = rng.randrange(1, 3)
    return make_descriptor(rng.randrange(0, 3), census)


# ---------------------------------------------------------------------------
# criterion 8: integer multiples never climb the sumset hierarchy
# ---------------------------------------------------------------------------


def test_criterion_8_integer_multiples():
    model = rich_model(Q)
    rng = random.Random(555)
    for _ in range(200):
        a = random_f_element(model, rng, max_axes=4)
        k = rng.randint(-10, 10)
        assert z_multiple_check(a, k)
    print("PASS criterion 8: 200 integer multiples stay within the weight class")

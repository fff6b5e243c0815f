"""Tuple invariants: kernels per axis, multiplicities, weight-only reconstruction."""

import itertools
import random

import pytest

from axisspace.errors import ArityMismatch, FieldMismatch, NotInF
from axisspace.fields import FieldCtx
from axisspace.invariant import (
    LinearMapFa,
    QfInvariant,
    apply_fa,
    g_of,
    g_via_inclusion_exclusion,
    kernel_candidates,
    multiplicity_via_inclusion_exclusion,
    qf_equiv,
    qf_invariant,
    qf_invariant_mixed,
    weights_oracle_via_witness,
)
from axisspace.linalg import full_space, intersect, subspace_from_generators, subspace_sum, vec, zero_space
from axisspace.model import (
    ModelElement,
    SubspaceHandle,
    combine,
    rich_model,
    tuple_kernel,
    weight,
    weight_of_subspace,
)
from randgen import random_generators

Q = FieldCtx.rationals()
GF2 = FieldCtx.prime_field(2)


@pytest.fixture
def M():
    return rich_model(Q)


# ---------------------------------------------------------------------------
# apply_fa
# ---------------------------------------------------------------------------


def test_apply_fa_zero_and_basis(M):
    a = (M.e(0, 0), M.e(1, 0) + M.e(2, 0))
    fa = LinearMapFa(a)
    assert apply_fa(fa, vec(Q, (0, 0))).is_zero()
    assert apply_fa(fa, vec(Q, (1, 0))) == a[0]
    assert apply_fa(fa, vec(Q, (0, 1))) == a[1]
    assert apply_fa(fa, vec(Q, (1, 1))) == a[0] + a[1]


def test_apply_fa_linearity(M):
    rng = random.Random(3)
    a = (M.e(0, 0) + M.e(1, 0), M.e(0, 1), M.fe(0))
    fa = LinearMapFa(a)
    for _ in range(50):
        lam = vec(Q, [rng.randint(-3, 3) for _ in range(3)])
        mu = vec(Q, [rng.randint(-3, 3) for _ in range(3)])
        c = Q.of(rng.randint(-3, 3))
        s = tuple(Q.add(x, y) for x, y in zip(lam, mu))
        assert apply_fa(fa, s) == apply_fa(fa, lam) + apply_fa(fa, mu)
        assert apply_fa(fa, tuple(Q.mul(c, x) for x in lam)) == apply_fa(fa, lam).scale(c)


def test_apply_fa_arity_mismatch(M):
    with pytest.raises(ArityMismatch):
        apply_fa(LinearMapFa((M.e(0, 0),)), vec(Q, (1, 2)))


def test_apply_fa_empty_map_is_a_typed_error():
    """The empty map has no field to take its value in."""
    with pytest.raises(ArityMismatch, match="empty"):
        apply_fa(LinearMapFa(()), ())
    with pytest.raises(ArityMismatch, match="empty"):
        LinearMapFa(()).field


# ---------------------------------------------------------------------------
# qf_invariant
# ---------------------------------------------------------------------------


def test_single_axis_element_invariant(M):
    inv = qf_invariant((M.e(0, 0),))
    assert inv.arity == 1
    assert inv.v_f == full_space(Q, 1)
    assert inv.kernels == (zero_space(Q, 1),)


def test_two_generator_invariant_kernels(M):
    """Tuple (e00 + e10, e01): axis 0 carries independent components (trivial
    kernel), axis 1 kills the second coordinate."""
    a = (M.e(0, 0) + M.e(1, 0), M.e(0, 1))
    inv = qf_invariant(a)
    assert inv.v_f == full_space(Q, 2)
    expected = sorted(
        [zero_space(Q, 2), subspace_from_generators(Q, [vec(Q, (0, 1))])],
        key=lambda s: s.key(),
    )
    assert list(inv.kernels) == expected


def test_invariant_rejects_free_parts(M):
    with pytest.raises(NotInF):
        qf_invariant((M.fe(0),))


def test_mixed_invariant_handles_free_parts(M):
    a = (M.e(0, 0) + M.fe(0), M.e(0, 1))
    inv = qf_invariant_mixed(a)
    # combinations in F are exactly those with no weight on the first entry
    assert inv.v_f == subspace_from_generators(Q, [vec(Q, (0, 1))])
    assert len(inv.kernels) == 1
    assert inv.kernels[0] == zero_space(Q, 2)


def test_counterexample_tuples_kernel_counts():
    """Over GF(2) the standard pair: one side spans 2 kernels, the other 3.

    The expected kernel sets are computed here by brute force over all four
    coefficient vectors, independently of the library's kernel computation.
    """
    N = rich_model(GF2)
    m0, m0p = N.e(0, 0), N.e(0, 1)
    m1, m1p = N.e(1, 0), N.e(1, 1)
    m = N.e(2, 0)
    a = (m0 + m1, m0p + m1p)
    b = (m0 + m1, m + m1)

    def brute_kernels(pair):
        kernels = []
        axes = sorted({ax for el in pair for ax in el.axes()})
        for axis in axes:
            killed = []
            for lam, mu in itertools.product(range(2), repeat=2):
                el = pair[0].scale(lam) + pair[1].scale(mu)
                if not el.coords_on_axis(axis):
                    killed.append(vec(GF2, (lam, mu)))
            kernels.append(subspace_from_generators(GF2, killed, 2))
        return sorted(kernels, key=lambda s: s.key())

    inv_a, inv_b = qf_invariant(a), qf_invariant(b)
    assert len(inv_a.kernels) == 2
    assert len(inv_b.kernels) == 3
    assert list(inv_a.kernels) == brute_kernels(a)
    assert list(inv_b.kernels) == brute_kernels(b)


def test_invariant_serialization_golden(M):
    a = (M.e(0, 0) + M.e(1, 0), M.e(0, 1))
    assert qf_invariant(a).to_text() == "arity=2 v_f={(1,0),(0,1)} kernels=[{};{(0,1)}]"
    b = (M.e(0, 0) + M.fe(0),)
    assert qf_invariant_mixed(b).to_text() == "arity=1 v_f={} kernels=[]"


def _reference_invariant(tuple_, field):
    """v_f as the kernel of the entries' free parts, and the kernel of the
    projections onto each axis intersected with it, as the annihilator of
    the two annihilators; each kernel is a ``tuple_kernel``."""

    def kernel_of(parts):
        return tuple_kernel([ModelElement(field, axis_part, free_part) for axis_part, free_part in parts], field)

    v_f = kernel_of(((), el.free_part) for el in tuple_)
    kernels = []
    for axis in sorted({ax for el in tuple_ for ax in el.axes()}):
        ker = kernel_of((tuple(p for p in el.axis_part if p[0][0] == axis), ()) for el in tuple_)
        kernels.append(intersect(ker, v_f))
    kernels = [ker for ker in kernels if ker != v_f]
    return QfInvariant(len(tuple_), v_f, tuple(sorted(kernels, key=lambda s: s.key())))


def _mixed_tuple(model, rng, arity):
    """Entries on axes 0..4 with a free part half the time; half the time
    the last entry's free part is a combination of the others', so that
    v_f is neither 0 nor everything."""
    field = model.field
    out = []
    for _ in range(arity):
        parts = {}
        for axis in rng.sample(range(5), rng.randrange(0, 4)):
            for coord in rng.sample(range(2), rng.randint(1, 2)):
                parts[(axis, coord)] = rng.randint(-3, 3) if field.is_infinite else rng.randrange(field.p)
        free = {}
        if rng.random() < 0.5:
            free[rng.randrange(3)] = rng.choice([1, 2, -1])
        out.append(model.element(parts, free))
    if arity > 1 and rng.random() < 0.5:
        mix = combine(field, [rng.randint(-2, 2) for _ in out[:-1]], out[:-1])
        out[-1] = model.element(out[-1].axis_part, mix.free_part)
    return tuple(out)


def _automorphic_image(model, rng, tuple_):
    """The tuple moved by an automorphism: axes permuted and each rescaled,
    free coordinates permuted."""
    field = model.field
    axes = rng.sample(range(5), 5)
    scale = [field.of(rng.choice([1, 2, 3])) for _ in range(5)]
    frees = rng.sample(range(3), 3)
    return tuple(
        model.element(
            {(axes[axis], coord): field.mul(scale[axis], c) for (axis, coord), c in el.axis_part},
            {frees[coord]: c for coord, c in el.free_part},
        )
        for el in tuple_
    )


@pytest.mark.parametrize("field", [Q, GF2, FieldCtx.prime_field(5)], ids=["Q", "GF2", "GF5"])
def test_mixed_invariant_matches_intersection_of_kernels_with_v_f(field):
    """The stacked-kernel invariant equals the one built by intersecting
    each axis kernel with v_f, as text and in qf_equiv verdicts, on seeded
    tuples with and without free parts."""
    model = rich_model(field)
    rng = random.Random(59)
    verdicts = set()
    for _ in range(150):
        arity = rng.randint(1, 4)
        a = _mixed_tuple(model, rng, arity)
        b = _automorphic_image(model, rng, a) if rng.random() < 0.5 else _mixed_tuple(model, rng, arity)
        ref_a, ref_b = _reference_invariant(a, field), _reference_invariant(b, field)
        assert qf_invariant_mixed(a).to_text() == ref_a.to_text()
        assert qf_invariant_mixed(b) == ref_b
        verdict = qf_equiv(a, b)
        assert verdict == (ref_a == ref_b)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("field", [Q, FieldCtx.prime_field(5)], ids=["Q", "GF5"])
def test_tuple_kernel_is_v_f_cut_by_the_invariants_kernels(field):
    """A tuple's linear relations {c : sum_i c_i a_i = 0} are v_f
    intersected with every kernel of its invariant, and v_f itself when
    there is none: tuples with equal invariants satisfy equal relations."""
    model = rich_model(field)
    rng = random.Random(f"relations:{field}")
    seen = set()
    for _ in range(200):
        t = _mixed_tuple(model, rng, rng.randint(1, 4)) if rng.random() < 0.5 else random_generators(model, rng)
        inv = qf_invariant_mixed(t, field)
        expected = inv.v_f
        for ker in inv.kernels:
            expected = intersect(expected, ker)
        assert tuple_kernel(t, field) == expected
        seen.add((bool(inv.kernels), expected.is_zero()))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# ---------------------------------------------------------------------------
# g_of
# ---------------------------------------------------------------------------


def test_g_of_counts_multiplicity(M):
    a = (M.e(0, 0) + M.e(1, 0), M.e(0, 1))
    inv = qf_invariant(a)
    assert g_of(inv, subspace_from_generators(Q, [vec(Q, (0, 1))])) == 1
    assert g_of(inv, zero_space(Q, 2)) == 1
    assert g_of(inv, subspace_from_generators(Q, [vec(Q, (1, 1))])) == 0
    assert g_of(inv, full_space(Q, 2)) == 0  # kernels are proper


def test_kernel_intersection_is_tuple_kernel(M):
    """An element of the axis span with every projection zero is zero, so the
    tuple kernel inside v_f is the intersection of all axis kernels."""
    from axisspace.linalg import intersect
    from axisspace.model import tuple_kernel

    rng = random.Random(71)
    for _ in range(40):
        a = _random_tuple(M, rng)
        inv = qf_invariant(a)
        acc = inv.v_f
        for k in inv.kernels:
            acc = intersect(acc, k)
        assert acc == intersect(tuple_kernel(a, Q), inv.v_f)


def test_g_of_sum_equals_subspace_weight(M):
    rng = random.Random(17)
    for _ in range(40):
        a = _random_tuple(M, rng)
        inv = qf_invariant(a)
        assert len(inv.kernels) == weight_of_subspace(SubspaceHandle(a))


def test_weight_counts_noncontaining_kernels(M):
    rng = random.Random(19)
    for _ in range(40):
        a = _random_tuple(M, rng)
        inv = qf_invariant(a)
        fa = LinearMapFa(a)
        for _ in range(5):
            lam = vec(Q, [rng.randint(-3, 3) for _ in range(len(a))])
            el = apply_fa(fa, lam)
            from axisspace.linalg import member

            expected = sum(1 for k in inv.kernels if not member(lam, k))
            assert weight(el) == expected


# ---------------------------------------------------------------------------
# g from weights alone (the executable reconstruction)
# ---------------------------------------------------------------------------


def test_g_ie_r_zero_always_true(M):
    a = (M.e(0, 0),)
    weights = weights_oracle_via_witness(a)
    assert g_via_inclusion_exclusion(weights, zero_space(Q, 1), 0, kernel_candidates(a))


def test_g_ie_on_worked_example(M):
    a = (M.e(0, 0) + M.e(1, 0), M.e(0, 1))
    weights = weights_oracle_via_witness(a)
    cands = kernel_candidates(a)
    V = subspace_from_generators(Q, [vec(Q, (0, 1))])
    assert g_via_inclusion_exclusion(weights, V, 1, cands)
    assert not g_via_inclusion_exclusion(weights, V, 2, cands)


def test_empty_tuple_has_no_candidates_and_zero_weights():
    """The arity-0 tuple: no axis is met, and its only subspace has weight 0."""
    assert qf_invariant(()).arity == 0
    assert kernel_candidates(()) == []
    assert weights_oracle_via_witness(())(zero_space(Q, 0)) == 0


def test_empty_tuple_takes_the_callers_field():
    """An arity-0 invariant lives over the field the caller names (Q when
    none is named); a non-empty tuple over another field is refused."""
    GF5 = FieldCtx.prime_field(5)
    for invariant in (qf_invariant, qf_invariant_mixed):
        inv = invariant((), GF5)
        assert inv.arity == 0 and inv.v_f.field == GF5
        assert inv != invariant(())
        assert invariant(()) == invariant((), Q)
        with pytest.raises(FieldMismatch):
            invariant((rich_model(Q).e(0, 0),), GF5)
    assert qf_equiv((), (), GF5)
    with pytest.raises(FieldMismatch):
        qf_equiv((rich_model(GF5).e(0, 0),), (rich_model(Q).e(0, 0),))


def test_g_ie_agrees_with_g_of_on_random_tuples(M):
    rng = random.Random(97)
    for _ in range(120):
        a = _random_tuple(M, rng)
        inv = qf_invariant(a)
        weights = weights_oracle_via_witness(a)
        cands = kernel_candidates(a)
        probes = list(cands) + [zero_space(Q, len(a)), full_space(Q, len(a))]
        for V in probes:
            expected = g_of(inv, V)
            assert multiplicity_via_inclusion_exclusion(weights, V, cands) == expected
            for r in range(0, expected + 2):
                assert g_via_inclusion_exclusion(weights, V, r, cands) == (expected >= r)


@pytest.mark.parametrize("p", [5, 7])
def test_g_ie_agrees_with_g_of_over_prime_fields(p):
    """Over GF(p), on tuples of arity at most 3 whose entries each meet at
    most 3 of 5 axes on one or two coordinates with nonzero coefficients,
    both inclusion-exclusion routes give g_of's multiplicities."""
    field = FieldCtx.prime_field(p)
    model = rich_model(field)
    rng = random.Random(f"gf{p}")
    for _ in range(60):
        a = tuple(
            model.element(
                {
                    (axis, coord): rng.randrange(1, p)
                    for axis in rng.sample(range(5), rng.randint(1, 3))
                    for coord in rng.sample(range(2), rng.randint(1, 2))
                }
            )
            for _ in range(rng.randint(1, 3))
        )
        inv, weights, cands = qf_invariant(a), weights_oracle_via_witness(a), kernel_candidates(a)
        for V in cands + [zero_space(field, len(a)), full_space(field, len(a))]:
            expected = g_of(inv, V)
            assert multiplicity_via_inclusion_exclusion(weights, V, cands) == expected
            for r in range(expected + 2):
                assert g_via_inclusion_exclusion(weights, V, r, cands) == (expected >= r)


def _random_subspaces(field, n, rng, count):
    """``count`` spans of 1 to n random vectors of K^n, entries in -2..2."""
    spans = []
    for _ in range(count):
        gens = [vec(field, [rng.randint(-2, 2) for _ in range(n)]) for _ in range(rng.randint(1, n))]
        spans.append(subspace_from_generators(field, gens, n))
    return spans


def _contains(U, V):
    return subspace_sum(U, V) == U


def test_g_ie_ignores_extra_repeated_and_reordered_candidates(M):
    """Subspaces not containing V, repeats and a new order in the candidate
    list leave every count unchanged."""
    rng = random.Random(41)
    for _ in range(80):
        a = _random_tuple(M, rng)
        n = len(a)
        inv, weights, cands = qf_invariant(a), weights_oracle_via_witness(a), kernel_candidates(a)
        for V in cands + [zero_space(Q, n), full_space(Q, n)]:
            extras = [U for U in _random_subspaces(Q, n, rng, 4) if not _contains(U, V)]
            noisy = cands + extras + rng.choices(cands, k=2) if cands else extras
            rng.shuffle(noisy)
            expected = g_of(inv, V)
            assert multiplicity_via_inclusion_exclusion(weights, V, noisy) == expected
            for r in range(expected + 2):
                assert g_via_inclusion_exclusion(weights, V, r, noisy) == (expected >= r)


def test_g_ie_asks_only_about_candidates_above_v(M):
    """One count asks the oracle about the whole space, V and at most
    2^k - 1 subspaces enlarging V, for k distinct candidates strictly above
    V, however many other candidates the list holds."""
    rng = random.Random(43)
    skipped = 0
    for _ in range(80):
        a = _random_tuple(M, rng)
        n = len(a)
        weights, cands = weights_oracle_via_witness(a), kernel_candidates(a)
        for V in cands + [zero_space(Q, n)]:
            listed = cands + _random_subspaces(Q, n, rng, 3)
            above = {W for W in listed if W != V and _contains(W, V)}
            asked = []
            multiplicity_via_inclusion_exclusion(lambda U: asked.append(U) or weights(U), V, listed)
            assert asked[:2] == [full_space(Q, n), V]
            enlarged = asked[2:]
            assert len(enlarged) <= 2 ** len(above) - 1
            assert all(U != V and _contains(U, V) for U in enlarged)
            skipped += len({W for W in listed if not _contains(W, V)})
    assert skipped > 100  # candidates not containing V were offered


def test_weight_oracle_memo_answers_like_a_fresh_oracle(M, monkeypatch):
    """The oracle answers each distinct subspace once, with the value a
    fresh oracle gives, however often and in whatever order it is asked."""
    import axisspace.model as model_mod

    real = model_mod.witness_star
    witnessed = []
    monkeypatch.setattr(model_mod, "witness_star", lambda h: witnessed.append(h) or real(h))
    rng = random.Random(53)
    repeats = 0
    for _ in range(40):
        a = _random_tuple(M, rng)
        weights = weights_oracle_via_witness(a)
        asked = []

        def counted(U):
            asked.append(U)
            return weights(U)

        inv, cands = qf_invariant(a), kernel_candidates(a)
        witnessed.clear()
        for V in cands + [zero_space(Q, len(a)), full_space(Q, len(a))]:
            for r in range(g_of(inv, V) + 2):
                g_via_inclusion_exclusion(counted, V, r, cands)
        assert len(witnessed) <= len(set(asked))
        repeats += len(asked) - len(set(asked))
        for U in asked[::-1] + asked[:3]:
            assert weights(U) == weights_oracle_via_witness(a)(U)
    assert repeats > 100

    U = full_space(Q, 1)
    one_axis = weights_oracle_via_witness((M.e(0, 0),))
    two_axes = weights_oracle_via_witness((M.e(0, 0) + M.e(1, 0),))
    assert [one_axis(U), two_axes(U), one_axis(U), two_axes(U)] == [1, 2, 1, 2]


# ---------------------------------------------------------------------------
# qf_equiv
# ---------------------------------------------------------------------------


def test_qf_equiv_reflexive(M):
    a = (M.e(0, 0) + M.e(1, 0), M.e(0, 1))
    assert qf_equiv(a, a)


def test_qf_equiv_under_support_permutation(M):
    """An automorphism that swaps two axes and rescales coordinates leaves
    the invariant unchanged."""
    rng = random.Random(29)
    for _ in range(30):
        a = _random_tuple(M, rng)
        b = tuple(_swap_axes_rescale(M, el) for el in a)
        assert qf_equiv(a, b)


def test_qf_equiv_detects_weight_difference(M):
    a = (M.e(0, 0),)
    b = (M.e(0, 0) + M.e(1, 0),)
    assert not qf_equiv(a, b)


def test_qf_equiv_arity_mismatch(M):
    with pytest.raises(ArityMismatch):
        qf_equiv((M.e(0, 0),), (M.e(0, 0), M.e(1, 0)))


def test_qf_equiv_checks_each_entry_field_once(M, monkeypatch):
    """The field of every entry is checked once, where the coordinate
    matrix is built, and a mixed pair is still refused."""
    from axisspace import invariant, iso, model

    a = (M.e(0, 0) + M.e(1, 0), M.e(0, 1), M.fe(0), M.e(2, 0))
    b = (M.e(3, 0) + M.e(4, 0), M.e(3, 1), M.fe(1), M.e(5, 0))
    calls = []
    original = model.check_same_field

    def counting(x, y):
        calls.append(y)
        original(x, y)

    for module in (model, invariant, iso):
        monkeypatch.setattr(module, "check_same_field", counting, raising=False)
    assert qf_equiv(a, b)
    assert len(calls) == 8
    with pytest.raises(FieldMismatch):
        qf_equiv(a, a[:3] + (rich_model(GF2).e(0, 0),))


def test_qf_equiv_is_equivalence_on_random_tuples(M):
    rng = random.Random(41)
    tuples = [_random_tuple(M, rng, arity=2) for _ in range(12)]
    for a, b, c in itertools.islice(itertools.product(tuples, repeat=3), 400):
        if qf_equiv(a, b) and qf_equiv(b, c):
            assert qf_equiv(a, c)
        assert qf_equiv(a, b) == qf_equiv(b, a)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _random_tuple(model, rng, arity=None, max_axes=5):
    arity = arity or rng.randrange(1, 4)
    out = []
    for _ in range(arity):
        parts = {}
        for axis in rng.sample(range(max_axes), rng.randrange(0, 4)):
            parts[(axis, rng.randrange(2))] = rng.randint(-4, 4)
        out.append(model.element(parts))
    return tuple(out)


def _swap_axes_rescale(model, el):
    """Image under a fixed automorphism: swap axes 0 and 1, double axis 2."""
    parts = {}
    for (axis, coord), c in el.axis_part:
        if axis == 0:
            parts[(1, coord)] = c
        elif axis == 1:
            parts[(0, coord)] = c
        elif axis == 2:
            parts[(2, coord)] = Q.mul(Q.of(2), c)
        else:
            parts[(axis, coord)] = c
    return model.element(parts)

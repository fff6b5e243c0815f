"""Tuple invariants: kernels per axis, multiplicities, weight-only reconstruction."""

import itertools
import random

import pytest

from axisspace.errors import ArityMismatch, NotInF
from axisspace.fields import FieldCtx
from axisspace.invariant import (
    LinearMapFa,
    apply_fa,
    g_of,
    g_via_inclusion_exclusion,
    kernel_candidates,
    qf_equiv,
    qf_invariant,
    qf_invariant_mixed,
    weights_oracle_via_witness,
)
from axisspace.linalg import full_space, subspace_from_generators, vec, zero_space
from axisspace.model import SubspaceHandle, rich_model, weight, weight_of_subspace

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
            for r in range(0, expected + 2):
                assert g_via_inclusion_exclusion(weights, V, r, cands) == (expected >= r)


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

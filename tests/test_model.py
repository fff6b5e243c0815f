"""Canonical model: supports, weights, projections, hulls, generic witnesses."""

import itertools
import random

import pytest

from axisspace.errors import BadDescriptor, FieldMismatch, FragmentExhausted, NoGenericWitness, NotInF, NotOnAxis
from axisspace.fields import FieldCtx
from axisspace.linalg import subspace_from_generators
from axisspace.model import (
    ALEPH0,
    SubspaceHandle,
    axes_of,
    axes_of_subspace,
    canonical_model,
    descriptor_iso,
    hull_hat,
    in_Xn,
    make_descriptor,
    parallel,
    pi_A,
    proj_axis,
    rich_model,
    span_basis,
    span_membership,
    support,
    tuple_kernel,
    weight,
    weight_of_subspace,
    witness_star,
    z_multiple_check,
)

Q = FieldCtx.rationals()
GF2 = FieldCtx.prime_field(2)
GF3 = FieldCtx.prime_field(3)


@pytest.fixture
def M():
    return rich_model(Q)


# ---------------------------------------------------------------------------
# canonical_model and descriptors
# ---------------------------------------------------------------------------


def test_rich_model_never_exhausts(M):
    els = []
    for i in range(40):
        axis = M.fresh_axis(els)
        els.append(M.e(axis, M.fresh_coord(axis, els)))
        els.append(M.fe(M.fresh_free_coord(els)))
    assert len({e.axes()[0] for e in els if e.axes()}) == 40


def test_fragment_with_two_one_dim_axes():
    frag = canonical_model(make_descriptor(0, {1: 2}), Q)
    assert frag.axis_count == 2
    assert frag.axis_dim(0) == 1 and frag.axis_dim(1) == 1
    frag.e(0, 0)
    with pytest.raises(FragmentExhausted):
        frag.e(0, 1)  # axis 0 is one-dimensional
    with pytest.raises(FragmentExhausted):
        frag.e(2, 0)  # only two axes exist
    with pytest.raises(FragmentExhausted):
        frag.fe(0)  # codimension zero


def test_negative_indices_are_exhausted():
    """A negative axis, coordinate or free coordinate names nothing, in a
    fragment as in a rich model; it must not index from the end."""
    frag = canonical_model(make_descriptor(0, {2: 1}), Q)
    for model in (frag, rich_model(Q)):
        assert not model.has_axis(-1)
        for build in (
            lambda: model.e(0, -1),
            lambda: model.e(-1, 0),
            lambda: model.fe(-1),
            lambda: model.element({(-1, 0): 1}),
            lambda: model.element({}, {-1: 1}),
            lambda: model.axis_dim(-1),
        ):
            with pytest.raises(FragmentExhausted):
                build()


def test_non_integer_indices_are_type_errors():
    """An axis or coordinate index is an int; a float or a bool (an int
    subclass) names nothing and must not become part of an element's name."""
    frag = canonical_model(make_descriptor(0, {2: 1}), Q)
    for model in (frag, rich_model(Q)):
        assert not model.has_axis(0.5) and not model.has_axis(True)
        with pytest.raises(FragmentExhausted):
            model.axis_dim(0.5)
        for build in (
            lambda: model.e(0, 0.5),
            lambda: model.e(1.5, 0),
            lambda: model.e(True, 0),
            lambda: model.e(0, False),
            lambda: model.fe(2.5),
            lambda: model.fe(True),
            lambda: model.element({(1.5, 0): 1}),
            lambda: model.element({(0, 1.0): 1}),
            lambda: model.element({}, {True: 1}),
        ):
            with pytest.raises(TypeError):
                build()


def test_rich_descriptor_satisfies_saturation_surrogate(M):
    # every axis infinite-dimensional, infinitely many axes, infinite codimension
    assert M.is_rich
    assert M.axis_dim(12345) is ALEPH0
    assert M.descriptor.f_codim is ALEPH0


def test_zero_axis_rich_descriptor_rejected():
    with pytest.raises(BadDescriptor):
        canonical_model(make_descriptor(ALEPH0, {}), Q)


def test_boolean_cardinals_rejected():
    """True and False are not cardinals, although they are ints: else
    make_descriptor(True, {True: True}) equals make_descriptor(1, {1: 1})
    and the two dump to different context text."""
    for f_codim, census in ((True, {True: True}), (True, {}), (1, {True: 1}), (1, {1: True}), (False, {1: 1})):
        with pytest.raises(BadDescriptor):
            make_descriptor(f_codim, census)


def test_descriptor_iso_componentwise():
    d = make_descriptor(0, {1: 2})
    assert descriptor_iso(d, make_descriptor(0, {1: 2}))
    assert not descriptor_iso(d, make_descriptor(0, {1: 3}))
    assert not descriptor_iso(d, make_descriptor(1, {1: 2}))


# ---------------------------------------------------------------------------
# elements and arithmetic
# ---------------------------------------------------------------------------


def test_element_normalization_drops_zeros(M):
    a = M.e(0, 0) - M.e(0, 0)
    assert a.is_zero()
    b = M.element({(0, 0): 1, (1, 0): 0})
    assert b == M.e(0, 0)


def test_element_printing(M):
    a = M.e(0, 0) + M.e(0, 1).scale(2) + M.fe(3)
    assert str(a) == "e0_0 + 2*e0_1 + f3"
    assert str(M.zero()) == "0"


# ---------------------------------------------------------------------------
# support / weight / projections
# ---------------------------------------------------------------------------


def test_support_of_zero_is_empty(M):
    assert support(M.zero()) == set()
    assert weight(M.zero()) == 0


def test_support_splits_per_axis(M):
    a = M.e(0, 0) + M.e(1, 0)
    assert support(a) == {M.e(0, 0), M.e(1, 0)}


def test_same_axis_components_merge(M):
    a = M.e(0, 0) + M.e(0, 1).scale(2)
    assert support(a) == {a}
    assert weight(a) == 1


def test_support_sums_back_and_is_nonparallel(M):
    rng = random.Random(11)
    for _ in range(50):
        a = _random_f_element(M, rng)
        parts = support(a)
        total = M.zero()
        for p in parts:
            total = total + p
        assert total == a
        for p, q in itertools.combinations(parts, 2):
            assert not parallel(p, q)


def test_proj_axis_absent_is_zero(M):
    a = M.e(0, 0) + M.e(1, 0)
    assert proj_axis(a, 7).is_zero()
    assert proj_axis(a, 0) == M.e(0, 0)


def test_support_requires_membership_in_F(M):
    with pytest.raises(NotInF):
        support(M.fe(0))


# ---------------------------------------------------------------------------
# X^n membership
# ---------------------------------------------------------------------------


def test_in_X0_only_zero(M):
    assert in_Xn(M.zero(), 0)
    assert not in_Xn(M.e(0, 0), 0)


def test_in_Xn_weight_thresholds(M):
    a = M.e(0, 0) + M.e(1, 0)
    assert not in_Xn(a, 1) and in_Xn(a, 2) and in_Xn(a, 5)


def test_free_part_never_in_Xn(M):
    a = M.e(0, 0) + M.fe(0)
    for n in range(6):
        assert not in_Xn(a, n)


def test_sumset_semantics(M):
    rng = random.Random(5)
    for _ in range(100):
        a, b = _random_f_element(M, rng), _random_f_element(M, rng)
        assert weight(a + b) <= weight(a) + weight(b)
        assert in_Xn(a + b, weight(a) + weight(b))


# ---------------------------------------------------------------------------
# parallelism (axiom: equivalence relation on X minus 0)
# ---------------------------------------------------------------------------


def test_parallel_same_axis_true(M):
    assert parallel(M.e(0, 0), M.e(0, 1).scale(2))
    assert not parallel(M.e(0, 0), M.e(1, 0))


def test_parallel_rejects_off_X(M):
    with pytest.raises(NotOnAxis):
        parallel(M.zero(), M.e(0, 0))
    with pytest.raises(NotOnAxis):
        parallel(M.e(0, 0) + M.e(1, 0), M.e(0, 0))


def test_parallel_equivalence_on_random_triples(M):
    rng = random.Random(23)
    for _ in range(170):  # 510 random on-axis elements
        axis = rng.randrange(3)
        x, y, z = (_random_on_axis(M, rng, axis) for _ in range(3))
        assert parallel(x, x)
        assert parallel(x, y) == parallel(y, x)
        if parallel(x, y) and parallel(y, z):
            assert parallel(x, z)
        # each class with 0 is closed under + and scalar action
        s = x + y
        if not s.is_zero():
            assert parallel(x, s)
        assert parallel(x, x.scale(3))


def test_axis_independence(M):
    """Nonzero members of distinct axes are linearly independent."""
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randrange(1, 5)
        els = [_random_on_axis(M, rng, axis) for axis in range(n)]
        keys = sorted({k for el in els for k, _ in el.axis_part})
        vectors = [tuple(dict(el.axis_part).get(k, Q.zero) for k in keys) for el in els]
        V = subspace_from_generators(Q, vectors)
        assert V.dim == n


def test_linear_questions_reject_mixed_fields():
    """Span membership, apply, linear relations, classification, the axes,
    weight and hull of a handle, and pi_A refuse elements over another
    field than the handle's instead of answering silently."""
    from axisspace.iso import PartialIso
    from axisspace.typespace import classify

    mq, m5 = rich_model(Q), rich_model(FieldCtx.prime_field(5))
    g = mq.e(0, 0)
    axis_part = (mq.e(0, 0) + mq.e(1, 0), mq.e(0, 1))
    mixed = SubspaceHandle((g, m5.e(1, 0)))
    relabelled = SubspaceHandle((m5.e(0, 0),), Q)
    for question in (
        lambda: span_membership(m5.e(0, 0, 3), SubspaceHandle.of(g)),
        lambda: PartialIso(Q, (g,), (g,)).apply(m5.e(0, 0)),
        lambda: tuple_kernel([g, m5.e(0, 0)], Q),
        lambda: classify(m5.fe(0), SubspaceHandle(axis_part)),
        lambda: classify(m5.fe(0), SubspaceHandle(axis_part + (mq.fe(0),))),
        lambda: axes_of_subspace(mixed),
        lambda: weight_of_subspace(mixed),
        lambda: hull_hat(mixed),
        lambda: weight_of_subspace(relabelled),
        lambda: hull_hat(relabelled),
        lambda: pi_A(m5.e(1, 0), SubspaceHandle.of(mq.e(1, 0))),
    ):
        with pytest.raises(FieldMismatch):
            question()


def test_empty_handle_carries_its_field():
    """A handle with no generators spans {0} of its own field: it refuses
    elements of another field, and its generic witness is that zero."""
    zero5 = rich_model(FieldCtx.prime_field(5)).zero()
    empty = SubspaceHandle((), Q)
    with pytest.raises(FieldMismatch):
        span_membership(zero5, empty)
    assert span_membership(rich_model(Q).zero(), empty) == ()
    assert span_membership(rich_model(Q).e(0, 0), empty) is None
    assert witness_star(empty) == rich_model(Q).zero()
    assert SubspaceHandle(()).field == Q
    assert SubspaceHandle((zero5,)).field == zero5.field
    assert hull_hat(SubspaceHandle((zero5,))).field == zero5.field


# ---------------------------------------------------------------------------
# subspace handles: axes, weight, hull, pi_A
# ---------------------------------------------------------------------------


def test_axes_of_subspace_union_of_generators(M):
    h = SubspaceHandle.of(M.e(0, 0) + M.e(1, 0), M.e(0, 1))
    assert axes_of_subspace(h) == {0, 1}
    assert weight_of_subspace(h) == 2


def test_axes_of_zero_subspace(M):
    assert axes_of_subspace(SubspaceHandle.of(M.zero())) == set()
    assert weight_of_subspace(SubspaceHandle.of(M.zero())) == 0


def test_subspace_weight_is_max_element_weight(M):
    """Sampling can only bound the subspace weight from below; the generic
    witness certifies that the bound is attained."""
    rng = random.Random(43)
    for _ in range(12):
        h = SubspaceHandle(tuple(_random_f_element(M, rng) for _ in range(rng.randrange(1, 5))))
        w = weight_of_subspace(h)
        best = 0
        basis = span_basis(h, Q)
        for _ in range(200):
            el = M.zero()
            for b in basis:
                el = el + b.scale(Q.of(rng.randint(-5, 5)))
            best = max(best, weight(el))
        assert best <= w
        assert weight(witness_star(h)) == w


def test_hull_hat_splits_components(M):
    h = SubspaceHandle.of(M.e(0, 0) + M.e(1, 0))
    hat = hull_hat(h)
    gens = set(hat.generators)
    assert gens == {M.e(0, 0), M.e(1, 0)}
    assert len(span_basis(hat, Q)) == 2


def test_hull_of_split_subspace_is_itself(M):
    h = SubspaceHandle.of(M.e(0, 0), M.e(1, 0).scale(2))
    hat = hull_hat(h)
    assert {tuple(b.axis_part) for b in span_basis(hat, Q)} == {tuple(b.axis_part) for b in span_basis(h, Q)}


def test_hull_dimension_bound(M):
    rng = random.Random(59)
    for _ in range(20):
        gens = [_random_f_element(M, rng) for _ in range(rng.randrange(1, 4))]
        h = SubspaceHandle(tuple(gens))
        hat_dim = len(span_basis(hull_hat(h), Q))
        bound = len(gens) * max([weight(g) for g in gens] or [0])
        assert hat_dim <= bound


def test_pi_A_examples(M):
    a = M.e(0, 0) + M.e(2, 0)
    zero_h = SubspaceHandle.of(M.zero())
    assert pi_A(a, zero_h).is_zero()
    h01 = SubspaceHandle.of(M.e(0, 0), M.e(1, 0))
    assert pi_A(a, h01) == M.e(0, 0)
    h02 = SubspaceHandle.of(M.e(0, 5), M.e(2, 3))
    assert pi_A(a, h02) == a


def test_projection_decomposition_identity(M):
    rng = random.Random(61)
    for _ in range(80):
        a = _random_f_element(M, rng)
        total = M.zero()
        for axis in axes_of(a):
            total = total + proj_axis(a, axis)
        assert total == a


# ---------------------------------------------------------------------------
# witness_star
# ---------------------------------------------------------------------------


def test_witness_star_single_generator(M):
    a = M.e(0, 0)
    assert witness_star(SubspaceHandle.of(a)) == a


def test_witness_star_two_axes(M):
    h = SubspaceHandle.of(M.e(0, 0), M.e(1, 0))
    star = witness_star(h)
    assert axes_of(star) == {0, 1}


def test_witness_star_passes_a_cancelling_point_of_the_moment_curve(M):
    """The sum of the generators (k = 1) cancels axis 0; a later point of
    the moment curve meets both axes."""
    h = SubspaceHandle.of(M.e(0, 0), M.e(0, 0, -1) + M.e(1, 0))
    star = witness_star(h)
    assert axes_of(star) == {0, 1}
    assert span_membership(star, h) is not None


def test_witness_star_over_a_prime_field():
    """Over GF(3) the sum of the generators cancels axis 1, and the
    exhaustive search still finds an element meeting all three axes."""
    N = rich_model(GF3)
    h = SubspaceHandle.of(N.e(0, 0) + N.e(1, 0), N.e(1, 0, 2) + N.e(2, 0))
    star = witness_star(h)
    assert axes_of(star) == {0, 1, 2}
    assert span_membership(star, h) is not None


def test_witness_star_fails_on_finite_field_pair():
    """The two-generator span over GF(2) whose weight exceeds every element's."""
    N = rich_model(GF2)
    m0, m1 = N.e(0, 0), N.e(1, 0)
    m = N.e(2, 0)
    b0 = m0 + m1
    b1 = m + m1  # lambda_1 = 1 enumerates GF(2) minus 0
    h = SubspaceHandle.of(b0, b1)
    assert weight_of_subspace(h) == 3
    # exhaustive check: every element of the span has weight at most 2
    best = 0
    for lam, mu in itertools.product(range(2), repeat=2):
        el = b0.scale(lam) + b1.scale(mu)
        best = max(best, weight(el))
    assert best == 2
    with pytest.raises(NoGenericWitness):
        witness_star(h)


# ---------------------------------------------------------------------------
# integer multiples stay put (the no-discrete-subgroup test)
# ---------------------------------------------------------------------------


def test_z_multiple_zero(M):
    assert z_multiple_check(M.zero(), 0)
    assert z_multiple_check(M.e(0, 0) + M.e(1, 0), 0)


def test_z_multiple_rational(M):
    a = M.e(0, 0) + M.e(1, 0)
    assert z_multiple_check(a, 5)


def test_z_multiple_mod_p():
    N = rich_model(GF2)
    a = N.e(0, 0) + N.e(1, 0)
    for k in range(-4, 5):
        assert z_multiple_check(a, k)


def test_z_multiple_random(M):
    rng = random.Random(71)
    for _ in range(200):
        a = _random_f_element(M, rng)
        k = rng.randint(-10, 10)
        assert z_multiple_check(a, k)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _random_f_element(model, rng, max_axes=4, max_coord=3):
    parts = {}
    for axis in rng.sample(range(6), rng.randrange(max_axes + 1)):
        for coord in range(rng.randrange(1, 3)):
            parts[(axis, rng.randrange(max_coord))] = rng.randint(-4, 4)
    return model.element(parts)


def _random_on_axis(model, rng, axis):
    while True:
        parts = {(axis, c): rng.randint(-3, 3) for c in range(rng.randrange(1, 3))}
        el = model.element(parts)
        if not el.is_zero():
            return el

"""Hull extension and back-and-forth: the partial-isomorphism layer."""

import random

import pytest

from axisspace.errors import FieldMismatch, NotQfEquivalent, TargetNotRich
from axisspace.fields import FieldCtx
from axisspace.invariant import LinearMapFa, apply_fa, qf_equiv
from axisspace.iso import (
    PartialIso,
    back_and_forth_step,
    extend_to_hat,
    fragment_isomorphism_game,
)
from axisspace.linalg import member, subspace_from_generators, vec
from axisspace.model import (
    canonical_model,
    descriptor_iso,
    in_Xn,
    make_descriptor,
    proj_axis,
    rich_model,
)
from randgen import random_generators, relabelled

Q = FieldCtx.rationals()
GF2 = FieldCtx.prime_field(2)


@pytest.fixture
def M():
    return rich_model(Q)


# ---------------------------------------------------------------------------
# PartialIso basics
# ---------------------------------------------------------------------------


def test_partial_iso_rejects_mismatched_relations(M):
    with pytest.raises(NotQfEquivalent):
        PartialIso(Q, (M.e(0, 0), M.e(0, 0).scale(2)), (M.e(1, 0), M.e(1, 0).scale(3)))


def test_partial_iso_apply_is_linear(M):
    f = PartialIso(Q, (M.e(0, 0), M.e(1, 0)), (M.e(2, 0), M.e(3, 0)))
    x = M.e(0, 0).scale(2) - M.e(1, 0).scale(5)
    assert f.apply(x) == M.e(2, 0).scale(2) - M.e(3, 0).scale(5)
    assert f.inverse().apply(f.apply(x)) == x


def test_partial_iso_refuses_elements_of_another_field(M):
    """contains and apply check the element's field, also on the map with
    no generators, whose span is {0} in every field."""
    zero5 = rich_model(FieldCtx.prime_field(5)).zero()
    for f in (PartialIso.empty(Q), PartialIso(Q, (M.e(0, 0),), (M.e(1, 0),))):
        with pytest.raises(FieldMismatch):
            f.contains(zero5)
        with pytest.raises(FieldMismatch):
            f.apply(zero5)


def _dense(field, elements):
    """Element-major vectors over the sorted coordinates the elements meet."""
    keys = sorted({("a",) + k for el in elements for k, _ in el.axis_part}
                  | {("f", k) for el in elements for k, _ in el.free_part})
    out = []
    for el in elements:
        values = {("a",) + k: c for k, c in el.axis_part}
        values.update((("f", k), c) for k, c in el.free_part)
        out.append(tuple(values.get(k, field.zero) for k in keys))
    return out


def _reference_reduced(field, dom, img):
    """The greedy loop: keep a generator when it leaves the span of the
    generators kept before it."""
    vectors = _dense(field, dom)
    kept = []
    for i, v in enumerate(vectors):
        span = subspace_from_generators(field, [vectors[j] for j in kept], len(v))
        if not member(v, span):
            kept.append(i)
    return tuple(dom[i] for i in kept), tuple(img[i] for i in kept)


@pytest.mark.parametrize("field", [Q, FieldCtx.prime_field(5)], ids=["Q", "GF5"])
def test_reduced_keeps_the_generators_outside_earlier_spans(field):
    """``reduced`` keeps, in order, exactly the generators outside the span
    of the ones before them, with their images, and maps every original
    generator as before."""
    model = rich_model(field)
    rng = random.Random(f"reduced:{field}")
    dropped = 0
    for _ in range(400):
        dom = random_generators(model, rng)
        img = relabelled(model, rng, dom)
        f = PartialIso(field, dom, img)
        g = f.reduced()
        assert (g.domain_generators, g.image_generators) == _reference_reduced(field, dom, img)
        for d, e in zip(dom, img):
            assert g.apply(d) == e
        dropped += len(g.domain_generators) < len(dom)
    assert dropped >= 100  # the dependent case is exercised, not just the independent one


# ---------------------------------------------------------------------------
# extend_to_hat
# ---------------------------------------------------------------------------


def test_extend_to_hat_identity(M):
    a = (M.e(0, 0) + M.e(1, 0), M.e(0, 1))
    h = extend_to_hat(a, a)
    for el in a:
        assert h.apply(el) == el
    assert h.apply(M.e(0, 0)) == M.e(0, 0)  # hull point, not just span point


def test_extend_to_hat_rejects_inequivalent(M):
    with pytest.raises(NotQfEquivalent):
        extend_to_hat((M.e(0, 0),), (M.e(0, 0) + M.e(1, 0),))


@pytest.mark.parametrize(
    "make",
    [
        lambda M: ((), (M.zero(),)),
        lambda M: ((M.e(0, 0),), (M.e(0, 0), M.e(1, 0))),
        lambda M: ((M.e(0, 0),), (rich_model(GF2).e(0, 0),)),
    ],
    ids=["empty-vs-zero", "one-vs-two", "q-vs-gf2"],
)
def test_extend_to_hat_rejects_arity_or_field_mismatch(M, make):
    a, b = make(M)
    with pytest.raises(NotQfEquivalent):
        extend_to_hat(a, b)


def test_extend_to_hat_of_empty_tuples_takes_the_callers_field(M):
    GF5 = FieldCtx.prime_field(5)
    assert extend_to_hat((), ()).field == Q
    assert extend_to_hat((), (), GF5) == PartialIso.empty(GF5)
    with pytest.raises(FieldMismatch):
        extend_to_hat((M.e(0, 0),), (M.e(1, 0),), GF5)


def test_counterexample_pair_is_rejected():
    N = rich_model(GF2)
    a = (N.e(0, 0) + N.e(1, 0), N.e(0, 1) + N.e(1, 1))
    b = (N.e(0, 0) + N.e(1, 0), N.e(2, 0) + N.e(1, 0))
    with pytest.raises(NotQfEquivalent):
        extend_to_hat(a, b)


def test_extend_to_hat_equal_kernels_still_work_over_gf2():
    """Over a finite field equal kernel multisets still drive the construction."""
    N = rich_model(GF2)
    a = (N.e(0, 0) + N.e(1, 0),)
    b = (N.e(5, 0) + N.e(7, 1),)
    h = extend_to_hat(a, b)
    assert h.apply(a[0]) == b[0]


def _automorphic_image(model, tuple_, axis_perm, scale_map):
    out = []
    for el in tuple_:
        parts = {}
        for (axis, coord), c in el.axis_part:
            parts[(axis_perm.get(axis, axis), coord)] = Q.mul(Q.of(scale_map.get(axis, 1)), c)
        out.append(model.element(parts))
    return tuple(out)


def test_extend_to_hat_on_automorphic_images(M):
    rng = random.Random(13)
    for _ in range(25):
        a = _random_tuple(M, rng)
        perm = {0: 3, 3: 0, 1: 4, 4: 1}
        b = _automorphic_image(M, a, perm, {0: 2, 1: 1, 2: 5})
        h = extend_to_hat(a, b)
        for ai, bi in zip(a, b):
            assert h.apply(ai) == bi
        # h sends each support element of a_i to a support element of b_i;
        # when the kernels pin the axis bijection down it is the automorphism
        for ai, bi in zip(a, b):
            images = {h.apply(proj_axis(ai, axis)) for axis in ai.axes()}
            assert images == {proj_axis(bi, axis) for axis in bi.axes()}


def test_extend_to_hat_preserves_levels_and_map(M):
    """For random coefficient vectors the images agree with f_b and sit in
    exactly the same sumset levels."""
    rng = random.Random(37)
    for _ in range(20):
        a = _random_tuple(M, rng)
        b = _automorphic_image(M, a, {0: 1, 1: 0}, {2: 3})
        h = extend_to_hat(a, b)
        fa, fb = LinearMapFa(a), LinearMapFa(b)
        for _ in range(100):
            lam = vec(Q, [rng.randint(-3, 3) for _ in range(len(a))])
            xa, xb = apply_fa(fa, lam), apply_fa(fb, lam)
            assert h.apply(xa) == xb
            for n in range(7):
                assert in_Xn(xa, n) == in_Xn(xb, n)


def test_hull_direct_sum_respected(M):
    """h commutes with axis projections along its axis bijection."""
    rng = random.Random(53)
    for _ in range(20):
        a = _random_tuple(M, rng)
        b = _automorphic_image(M, a, {0: 2, 2: 0}, {1: 7})
        h = extend_to_hat(a, b)
        sigma = h.sigma()
        fa = LinearMapFa(a)
        for _ in range(10):
            lam = vec(Q, [rng.randint(-2, 2) for _ in range(len(a))])
            x = apply_fa(fa, lam)
            for axis in x.axes():
                assert h.apply(proj_axis(x, axis)) == proj_axis(h.apply(x), sigma[axis])


# ---------------------------------------------------------------------------
# back_and_forth_step
# ---------------------------------------------------------------------------


def test_step_element_already_in_span(M):
    f = PartialIso(Q, (M.e(0, 0),), (M.e(1, 0),))
    g, b = back_and_forth_step(f, M.e(0, 0).scale(4), M, M)
    assert g == f and b == M.e(1, 0).scale(4)


def test_step_fresh_free_direction(M):
    f = PartialIso(Q, (M.fe(0),), (M.fe(5),))
    g, b = back_and_forth_step(f, M.fe(1), M, M)
    assert not b.in_F()
    assert qf_equiv(g.domain_generators, g.image_generators)


def test_step_mixed_parallel_and_fresh_axis(M):
    dom = (M.e(0, 0),)
    img = (M.e(0, 5),)
    f = PartialIso(Q, dom, img)
    a = M.e(0, 7) + M.e(9, 0)  # leans on the known axis, plus a fresh axis
    g, b = back_and_forth_step(f, a, M, M)
    assert qf_equiv(g.domain_generators, g.image_generators)
    # image has one component parallel to the matched axis, one fresh
    axes = b.axes()
    assert len(axes) == 2 and 0 in axes
    assert proj_axis(b, 0) != M.e(0, 5)  # genuinely fresh coordinate


def test_step_hull_case_maps_through_hat(M):
    a_tuple = (M.e(0, 0) + M.e(1, 0),)
    b_tuple = (M.e(2, 0) + M.e(3, 0),)
    f = PartialIso(Q, a_tuple, b_tuple)
    g, b = back_and_forth_step(f, M.e(0, 0), M, M)
    # the hull determines the image completely: it must be a projection of b
    assert b in (proj_axis(b_tuple[0], 2), proj_axis(b_tuple[0], 3))
    assert qf_equiv(g.domain_generators, g.image_generators)


def test_steps_preserve_qf_equivalence_randomly(M):
    rng = random.Random(61)
    for _ in range(25):
        f = PartialIso.empty(Q)
        for _ in range(4):
            a = _random_any_element(M, rng)
            f, _ = back_and_forth_step(f, a, M, M)
            assert qf_equiv(f.domain_generators, f.image_generators)


def test_step_fails_without_rich_target(M):
    frag = canonical_model(make_descriptor(0, {1: 1}), Q)
    f = PartialIso(Q, (M.e(0, 0),), (frag.e(0, 0),))
    with pytest.raises(TargetNotRich):
        back_and_forth_step(f, M.e(5, 0), M, frag)


# ---------------------------------------------------------------------------
# the fragment isomorphism game (generator-level descriptor check)
# ---------------------------------------------------------------------------


def test_game_succeeds_on_equal_descriptors():
    d = make_descriptor(2, {1: 1, 2: 2})
    m1, m2 = canonical_model(d, Q), canonical_model(d, Q)
    f = fragment_isomorphism_game(m1, m2)
    assert f is not None
    for el in m1.basis_elements():
        assert f.contains(el)
    for el in m2.basis_elements():
        assert f.inverse().contains(el)


def test_game_asks_each_basis_element_once(monkeypatch):
    """A domain span only grows, so one pass over each basis covers it."""
    d = make_descriptor(2, {1: 1, 2: 2, 3: 1})
    m1, m2 = canonical_model(d, Q), canonical_model(d, Q)
    asked = []
    contains = PartialIso.contains

    def counting(self, el):
        asked.append(el)
        return contains(self, el)

    monkeypatch.setattr(PartialIso, "contains", counting)
    f = fragment_isomorphism_game(m1, m2)
    assert asked == m1.basis_elements() + m2.basis_elements()
    monkeypatch.undo()
    assert all(f.contains(el) for el in m1.basis_elements())
    assert all(f.inverse().contains(el) for el in m2.basis_elements())


@pytest.mark.parametrize(
    "d1,d2",
    [
        (make_descriptor(0, {1: 1}), make_descriptor(0, {1: 2})),
        (make_descriptor(0, {1: 1}), make_descriptor(0, {2: 1})),
        (make_descriptor(1, {1: 1}), make_descriptor(0, {1: 1})),
        (make_descriptor(0, {1: 1, 2: 1}), make_descriptor(0, {1: 2})),
    ],
)
def test_game_fails_on_different_descriptors(d1, d2):
    m1, m2 = canonical_model(d1, Q), canonical_model(d2, Q)
    assert fragment_isomorphism_game(m1, m2) is None
    assert fragment_isomorphism_game(m2, m1) is None


def test_game_matches_descriptor_iso_on_random_fragments():
    rng = random.Random(101)
    for _ in range(20):
        d1 = _random_fragment_descriptor(rng)
        d2 = d1 if rng.random() < 0.5 else _random_fragment_descriptor(rng)
        m1, m2 = canonical_model(d1, Q), canonical_model(d2, Q)
        game = fragment_isomorphism_game(m1, m2)
        assert (game is not None) == descriptor_iso(d1, d2)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _random_tuple(model, rng, max_axes=5):
    arity = rng.randrange(1, 4)
    out = []
    for _ in range(arity):
        parts = {}
        for axis in rng.sample(range(max_axes), rng.randrange(0, 4)):
            parts[(axis, rng.randrange(2))] = rng.randint(-4, 4)
        out.append(model.element(parts))
    return tuple(out)


def _random_any_element(model, rng):
    parts = {}
    for axis in rng.sample(range(5), rng.randrange(0, 3)):
        parts[(axis, rng.randrange(2))] = rng.randint(-3, 3)
    free = {}
    for coord in rng.sample(range(3), rng.randrange(0, 2)):
        free[coord] = rng.randint(-3, 3)
    return model.element(parts, free)


def _random_fragment_descriptor(rng):
    census = {}
    for dim in rng.sample(range(1, 4), rng.randrange(1, 3)):
        census[dim] = rng.randrange(1, 3)
    return make_descriptor(rng.randrange(0, 3), census)

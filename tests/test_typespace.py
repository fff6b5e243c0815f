"""1-type classification over fragments and explicit conjugacy witnesses."""

import itertools
import random

import pytest

from axisspace.errors import NotSameType
from axisspace.fields import FieldCtx
from axisspace.invariant import qf_equiv
from axisspace.linalg import kernel, solve_augmented
from axisspace.model import (
    ModelElement,
    SubspaceHandle,
    combine,
    rich_model,
    span_membership,
    weight,
)
from axisspace.typespace import (
    GenericFree,
    Realized,
    SumType,
    _min_weight_in_coset,
    classify,
    conjugacy_witness,
)

Q = FieldCtx.rationals()


@pytest.fixture
def M():
    return rich_model(Q)


@pytest.fixture
def fragment(M):
    return SubspaceHandle.of(M.e(0, 0) + M.e(1, 0), M.e(0, 1), M.fe(0))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_realized(M, fragment):
    a = (M.e(0, 0) + M.e(1, 0)).scale(3) + M.fe(0)
    t = classify(a, fragment)
    assert isinstance(t, Realized) and t.element == a


def test_classify_generic_free(M, fragment):
    assert isinstance(classify(M.fe(7), fragment), GenericFree)
    # axis parts do not rescue an independent free direction
    assert isinstance(classify(M.e(0, 0) + M.fe(7), fragment), GenericFree)


def test_classify_fresh_axes_sum_type(M, fragment):
    a = M.e(8, 0) + M.e(9, 0)
    t = classify(a, fragment)
    assert t == SumType(2, M.zero())


def test_classify_translated_sum_type(M, fragment):
    """A fragment translate reduces the weight; the minimal n sees it."""
    frag_el = M.e(0, 0) + M.e(1, 0)
    a = frag_el + M.e(8, 0)
    t = classify(a, fragment)
    assert isinstance(t, SumType)
    assert t.n == 1
    assert weight(a - t.coset) == 1


def test_classify_minimality_against_grid(M, fragment):
    """The reported n matches a brute-force search over fragment
    combinations with small coefficients."""
    rng = random.Random(5)
    gens = list(fragment.generators)
    grid = []
    for coeffs in itertools.product(range(-2, 3), repeat=len(gens)):
        m = M.zero()
        for c, g in zip(coeffs, gens):
            m = m + g.scale(c)
        grid.append(m)
    for _ in range(25):
        a = _random_mixed(M, rng)
        t = classify(a, fragment)
        if not isinstance(t, SumType):
            continue
        best = min((weight(a - m) for m in grid if (a - m).in_F()), default=None)
        assert best is not None
        assert t.n <= best
        assert (a - t.coset).in_F() and weight(a - t.coset) == t.n


def test_classify_coset_is_canonical(M, fragment):
    a = M.e(8, 0) + M.e(9, 0)
    b = M.e(10, 0) + M.e(11, 0)
    assert classify(a, fragment) == classify(b, fragment)


# ---------------------------------------------------------------------------
# differential: the coset search against the enumeration over every axis
# ---------------------------------------------------------------------------


def _reference_rows(field, elements):
    """One row per coordinate the elements meet, holding their values there."""
    entries = [dict(el.axis_part) | {("f", k): c for k, c in el.free_part} for el in elements]
    keys = sorted(set().union(*entries), key=str)
    return [tuple(e.get(k, field.zero) for e in entries) for k in keys]


def _reference_min_weight_in_coset(c0, f_basis, field):
    """Every subset of the axes c0 or f_basis meet, by size and then
    lexicographically; each solves its own system on shadow elements that
    keep only the matched axes."""
    axes = sorted(set(c0.axes()) | {ax for b in f_basis for ax in b.axes()})
    if not f_basis:
        return weight(c0), ModelElement.zero(field)
    for s in range(len(axes) + 1):
        for keep in itertools.combinations(axes, s):
            shadows = [
                ModelElement(field, tuple((k, c) for k, c in el.axis_part if k[0] not in keep), ())
                for el in f_basis + [c0]
            ]
            coeffs = solve_augmented(field, _reference_rows(field, shadows), len(f_basis))
            if coeffs is not None:
                v = combine(field, coeffs, f_basis)
                return weight(c0 - v), v
    raise AssertionError("keeping every axis always works")


def _reference_classify(a, fragment):
    field = a.field
    gens = list(fragment.generators)
    if span_membership(a, fragment) is not None:
        return Realized(a)
    n = len(gens)
    rows = _reference_rows(field, [ModelElement(field, (), el.free_part) for el in gens + [a]])
    free_coeffs, vf = solve_augmented(field, rows, n), kernel(field, [row[:n] for row in rows], n)
    if free_coeffs is None:
        return GenericFree()
    m0 = combine(field, free_coeffs, gens)
    n, v = _reference_min_weight_in_coset(a - m0, [combine(field, row, gens) for row in vf.basis], field)
    return SumType(n, m0 + v)


def _axis_element(model, rng, axes):
    """An element on one or two coordinates of each of ``axes``."""
    field = model.field
    parts = {}
    for axis in axes:
        for coord in rng.sample(range(3), rng.randint(1, 2)):
            c = rng.randint(-3, 3) if field.is_infinite else rng.randrange(field.p)
            parts[(axis, coord)] = c
    return model.element(parts)


@pytest.mark.parametrize("field", [Q, FieldCtx.prime_field(5)], ids=["Q", "GF5"])
def test_coset_search_matches_enumeration_over_every_axis(field):
    """(n, coset) equal the all-axes search exactly, on cosets whose c0
    shares axes with the fragment part and also meets axes of its own."""
    model = rich_model(field)
    rng = random.Random(23)
    moved = 0
    for _ in range(150):
        f_basis = [_axis_element(model, rng, rng.sample(range(5), rng.randint(1, 4)))
                   for _ in range(rng.randint(0, 3))]
        shared = combine(field, [rng.randint(-2, 2) for _ in f_basis], f_basis)
        c0 = shared + _axis_element(model, rng, rng.sample(range(8), rng.randint(0, 3)))
        got = _min_weight_in_coset(c0, f_basis, field)
        assert got == _reference_min_weight_in_coset(c0, f_basis, field)
        moved += not got[1].is_zero()
    assert moved >= 50


@pytest.mark.parametrize("field", [Q, FieldCtx.prime_field(5)], ids=["Q", "GF5"])
def test_classify_matches_enumeration_over_every_axis(field):
    """Seeded fragments whose generators carry free parts, and elements
    that meet the fragment's axes: classify gives the reference's
    descriptor, SumType (n, coset) included."""
    model = rich_model(field)
    rng = random.Random(41)
    kinds = {Realized: 0, GenericFree: 0, SumType: 0}
    for _ in range(120):
        gens = []
        for _ in range(rng.randint(1, 4)):
            g = _axis_element(model, rng, rng.sample(range(5), rng.randint(1, 3)))
            if rng.random() < 0.5:
                g = g + model.fe(rng.randrange(2), rng.choice([1, 2, -1]))
            gens.append(g)
        fragment = SubspaceHandle(tuple(gens))
        a = combine(field, [rng.randint(-2, 2) for _ in gens], gens)
        a = a + _axis_element(model, rng, rng.sample(range(7), rng.randint(0, 3)))
        if rng.random() < 0.2:
            a = a + model.fe(rng.randrange(3))
        t = classify(a, fragment)
        assert t == _reference_classify(a, fragment)
        kinds[type(t)] += 1
    assert kinds[SumType] >= 60 and kinds[Realized] and kinds[GenericFree]


# ---------------------------------------------------------------------------
# conjugacy witnesses
# ---------------------------------------------------------------------------


def test_conjugacy_identity_case(M, fragment):
    a = M.e(8, 0) + M.e(9, 0)
    f = conjugacy_witness(a, a, fragment)
    assert f.apply(a) == a
    for g in fragment.generators:
        assert f.apply(g) == g


def test_conjugacy_swaps_fresh_axes(M, fragment):
    a = M.e(8, 0) + M.e(9, 0)
    b = M.e(10, 0) + M.e(11, 0)
    f = conjugacy_witness(a, b, fragment)
    assert f.apply(a) == b
    for g in fragment.generators:
        assert f.apply(g) == g
    gens = tuple(fragment.generators)
    assert qf_equiv(gens + (a,), gens + (b,))


def test_conjugacy_generic_free(M, fragment):
    a, b = M.fe(5), M.fe(6) + M.e(0, 5)
    f = conjugacy_witness(a, b, fragment)
    assert f.apply(a) == b
    gens = tuple(fragment.generators)
    assert qf_equiv(gens + (a,), gens + (b,))


def test_conjugacy_rejects_different_types(M, fragment):
    a = M.e(8, 0) + M.e(9, 0)
    b = M.e(10, 0)
    with pytest.raises(NotSameType):
        conjugacy_witness(a, b, fragment)
    with pytest.raises(NotSameType):
        conjugacy_witness(a, M.fe(9), fragment)
    with pytest.raises(NotSameType):
        conjugacy_witness(a, fragment.generators[0], fragment)


def test_conjugacy_rejects_a_match_that_changes_the_invariant(M, fragment):
    """Equal descriptors, but a leans on a fragment axis and b does not:
    the matched map would not preserve the invariant."""
    a = M.e(0, 5) + M.e(8, 0)
    b = M.e(9, 0) + M.e(10, 0)
    assert classify(a, fragment) == classify(b, fragment) == SumType(2, M.zero())
    with pytest.raises(NotSameType):
        conjugacy_witness(a, b, fragment)


def test_conjugacy_uniqueness_property(M, fragment):
    """Equal descriptors with fresh supports are conjugate over the fragment:
    the testable core of type uniqueness."""
    rng = random.Random(31)
    gens = tuple(fragment.generators)
    for n in (1, 2, 3):
        for _ in range(25):
            a = _fresh_support_element(M, rng, n, start=20)
            b = _fresh_support_element(M, rng, n, start=40)
            assert classify(a, fragment) == SumType(n, M.zero())
            f = conjugacy_witness(a, b, fragment)
            assert f.apply(a) == b
            assert qf_equiv(gens + (a,), gens + (b,))


def test_classify_invariant_under_fragment_fixing_iso(M, fragment):
    """Conjugation by a fragment-fixing partial isomorphism preserves the
    descriptor."""
    rng = random.Random(47)
    for n in (1, 2):
        a = _fresh_support_element(M, rng, n, start=20)
        b = _fresh_support_element(M, rng, n, start=40)
        conjugacy_witness(a, b, fragment)
        assert classify(a, fragment) == classify(b, fragment)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _random_mixed(model, rng):
    parts = {}
    for axis in rng.sample(range(6), rng.randrange(1, 4)):
        parts[(axis, rng.randrange(2))] = rng.randint(-3, 3)
    free = {}
    if rng.random() < 0.5:
        free[0] = rng.randint(-2, 2)
    return model.element(parts, free)


def _fresh_support_element(model, rng, n, start):
    axes = rng.sample(range(start, start + 10), n)
    out = model.zero()
    for axis in axes:
        out = out + model.e(axis, rng.randrange(2), rng.choice([1, 2, -1]))
    return out

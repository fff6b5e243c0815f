"""Objects built from results already known to be valid pass the public checks.

``linalg`` computes subspaces as the reduced row-echelon form of some rows,
and ``iso`` and ``typespace`` build partial isomorphisms whose generator
tuples satisfy equal linear relations by construction.  Each such object is
rebuilt here through the public constructor, which checks the canonical
form or the relations, on seeded inputs over Q and GF(5) that include free
parts, zero generators and repeats.
"""

import random
from fractions import Fraction

import pytest

from axisspace import iso
from axisspace.errors import NotSameType
from axisspace.fields import FieldCtx
from axisspace.invariant import free_reduction, qf_invariant_mixed
from axisspace.iso import PartialIso, back_and_forth_step, fragment_isomorphism_game
from axisspace.linalg import (
    Subspace,
    full_space,
    intersect,
    kernel,
    subspace_from_generators,
    subspace_sum,
    vec,
    zero_space,
)
from axisspace.model import SubspaceHandle, canonical_model, make_descriptor, rich_model, tuple_kernel
from axisspace.typespace import SumType, classify, conjugacy_witness
from randgen import random_generators, relabelled

Q = FieldCtx.rationals()
GF5 = FieldCtx.prime_field(5)
FIELDS = pytest.mark.parametrize("field", [Q, GF5], ids=["Q", "GF5"])


def _assert_canonical(space):
    assert Subspace(space.field, space.ambient_dim, space.basis) == space


def _assert_valid(f):
    assert PartialIso(f.field, f.domain_generators, f.image_generators) == f


def _random_vectors(field, rng, n):
    """Zero vectors, repeats, combinations of earlier vectors and sparse
    fresh ones, all of length n."""
    entries = [0, 0, 1, -1, 2, 3, Fraction(1, 2)] if field.is_infinite else [0, 0, 1, 2, 3, 4]
    out = []
    for _ in range(rng.randrange(0, 6)):
        roll = rng.random()
        if roll < 0.15:
            out.append(vec(field, [0] * n))
        elif roll < 0.3 and out:
            out.append(rng.choice(out))
        elif roll < 0.5 and out:
            u, v, s = rng.choice(out), rng.choice(out), field.of(rng.choice(entries))
            out.append(tuple(field.add(x, field.mul(s, y)) for x, y in zip(u, v)))
        else:
            out.append(vec(field, [rng.choice(entries) for _ in range(n)]))
    return out


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


@FIELDS
def test_linalg_subspaces_pass_the_canonical_form_check(field):
    rng = random.Random(f"trusted-subspaces:{field}")
    for _ in range(300):
        n = rng.randint(0, 5)
        us, vs = _random_vectors(field, rng, n), _random_vectors(field, rng, n)
        a = subspace_from_generators(field, us, n)
        b = subspace_from_generators(field, vs, n)
        for space in (a, b, kernel(field, us, n), intersect(a, b), subspace_sum(a, b),
                      zero_space(field, n), full_space(field, n)):
            _assert_canonical(space)
        if us:  # the kernel of the transpose, with other column counts
            _assert_canonical(kernel(field, [tuple(col) for col in zip(*us)], len(us)))


@FIELDS
def test_model_subspaces_pass_the_canonical_form_check(field):
    """The relation kernel, v_f and the invariant's kernels of tuples of
    model elements."""
    model = rich_model(field)
    rng = random.Random(f"trusted-model-subspaces:{field}")
    for _ in range(150):
        gens = random_generators(model, rng)
        _assert_canonical(tuple_kernel(gens, field))
        inv = qf_invariant_mixed(gens, field)
        for space in (inv.v_f,) + inv.kernels:
            _assert_canonical(space)
        _, v_f = free_reduction(model.fe(0), gens)
        _assert_canonical(v_f)


# ---------------------------------------------------------------------------
# partial isomorphisms
# ---------------------------------------------------------------------------


@FIELDS
def test_reduced_and_inverse_pass_the_relation_check(field):
    model = rich_model(field)
    rng = random.Random(f"trusted-maps:{field}")
    for _ in range(200):
        dom = random_generators(model, rng)
        f = PartialIso(field, dom, relabelled(model, rng, dom))
        for g in (f.reduced(), f.inverse(), f.reduced().inverse(), f.inverse().reduced()):
            _assert_valid(g)


@FIELDS
def test_back_and_forth_steps_pass_the_relation_check(field):
    """Random steps from random maps reach every case of the step: already
    in the span, a fresh free direction, the hull and the mixed case.  The
    component of a domain generator on one of its axes is often in the
    hull and outside the span."""
    model = rich_model(field)
    rng = random.Random(f"trusted-steps:{field}")
    grown = 0
    for _ in range(60):
        dom = random_generators(model, rng)
        f = PartialIso(field, dom, relabelled(model, rng, dom))
        for _ in range(3):
            choices = list(random_generators(model, rng)) or [model.e(rng.randrange(8), 0)]
            for d in f.domain_generators:
                if d.axes():
                    axis = rng.choice(d.axes())
                    choices.append(model.element({k: v for k, v in d.axis_part if k[0] == axis}))
            a = rng.choice(choices)
            g, b = back_and_forth_step(f, a, model, model)
            _assert_valid(g)
            assert g.apply(a) == b
            grown += g != f
            f = g
    assert grown >= 60


@FIELDS
def test_fragment_game_maps_pass_the_relation_check(field, monkeypatch):
    """Every map the game passes to or gets from a step, and its result."""
    seen = []

    def recording_step(f, a, source, target):
        g, b = back_and_forth_step(f, a, source, target)
        seen.extend((f, g))
        return g, b

    monkeypatch.setattr(iso, "back_and_forth_step", recording_step)
    d = make_descriptor(2, {1: 1, 2: 2, 3: 1})
    result = fragment_isomorphism_game(canonical_model(d, field), canonical_model(d, field))
    assert result is not None and len(seen) >= 10
    for f in seen + [result]:
        _assert_valid(f)


@FIELDS
def test_conjugacy_witnesses_pass_the_relation_check(field):
    model = rich_model(field)
    fragment = SubspaceHandle.of(model.e(0, 0) + model.e(1, 0), model.e(0, 1), model.fe(0))
    rng = random.Random(f"trusted-conjugacy:{field}")

    def fresh(n, start):
        out = model.zero()
        for axis in rng.sample(range(start, start + 10), n):
            out = out + model.e(axis, rng.randrange(2), rng.choice([1, 2, -1]))
        return out

    witnesses = 0
    for n in (1, 2, 3):
        for _ in range(15):
            a, b = fresh(n, 20), fresh(n, 40)
            # a translate by a fragment element keeps the type
            shift = model.e(0, 1).scale(rng.choice([0, 1, 2]))
            f = conjugacy_witness(a + shift, b + shift, fragment)
            _assert_valid(f)
            witnesses += 1
    _assert_valid(conjugacy_witness(model.fe(5), model.fe(6) + model.e(0, 5), fragment))
    # supports that meet a fragment axis: some match, some do not
    for _ in range(40):
        a = fresh(2, 0)
        b = fresh(2, 30)
        ta = classify(a, fragment)
        if not isinstance(ta, SumType) or ta != classify(b, fragment):
            continue
        try:
            f = conjugacy_witness(a, b, fragment)
        except NotSameType:
            continue
        _assert_valid(f)
        witnesses += 1
    assert witnesses >= 45

"""The finite-field pair construction, verified exhaustively."""

import itertools

import pytest

from axisspace.errors import FieldNotFinite, NoGenericWitness, NotPrime
from axisspace.fields import FieldCtx
from axisspace.finitefield import brute_qf_equiv, combination_weight_table, construct_counterexample
from axisspace.invariant import qf_invariant
from axisspace.model import SubspaceHandle, weight, weight_of_subspace, witness_star


def test_gf2_instance_shape():
    (a0, a1), (b0, b1), model = construct_counterexample(2)
    m0, m1 = model.e(0, 0), model.e(1, 0)
    m = model.e(2, 0)
    assert a0 == m0 + m1
    assert a1 == model.e(0, 1) + model.e(1, 1)
    assert b0 == a0
    assert b1 == m + m1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_componentwise_weights(p):
    a, b, _ = construct_counterexample(p)
    assert weight(a[0]) == weight(a[1]) == p
    assert weight(b[0]) == weight(b[1]) == p


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pairs_equivalent_but_spans_differ(p):
    a, b, _ = construct_counterexample(p)
    assert brute_qf_equiv(a, b)
    assert weight_of_subspace(SubspaceHandle(a)) == p
    assert weight_of_subspace(SubspaceHandle(b)) == p + 1
    # span weight over a finite field computed by exhausting all p^2 combos
    field = a[0].field
    for pair, expected in ((a, p), (b, p + 1)):
        axes = set()
        for lam, mu in itertools.product(field.elements(), repeat=2):
            axes.update((pair[0].scale(lam) + pair[1].scale(mu)).axes())
        assert len(axes) == expected


@pytest.mark.parametrize("p", [2, 3, 5])
def test_all_nonzero_combinations_have_weight_p(p):
    a, b, _ = construct_counterexample(p)
    field = a[0].field
    for pair in (a, b):
        for lam, mu in itertools.product(field.nonzero_elements(), repeat=2):
            assert weight(pair[0].scale(lam) + pair[1].scale(mu)) == p


@pytest.mark.parametrize("p", [2, 3])
def test_no_single_element_meets_every_axis(p):
    """The generic-witness construction must fail on the wide span."""
    _, b, _ = construct_counterexample(p)
    with pytest.raises(NoGenericWitness):
        witness_star(SubspaceHandle(b))


def test_kernel_counts_differ():
    a, b, _ = construct_counterexample(2)
    assert len(qf_invariant(a).kernels) == 2
    assert len(qf_invariant(b).kernels) == 3


def test_weight_table_is_exhaustive():
    a, _, _ = construct_counterexample(3)
    table = combination_weight_table(a)
    assert len(table) == 9
    assert table[0] == (0, 0, 0)


def test_rejects_non_prime():
    with pytest.raises(NotPrime):
        construct_counterexample(4)


def test_brute_equiv_needs_finite_field():
    from axisspace.model import rich_model

    M = rich_model(FieldCtx.rationals())
    pair = (M.e(0, 0), M.e(1, 0))
    with pytest.raises(FieldNotFinite):
        brute_qf_equiv(pair, pair)


def test_brute_equiv_reflexive():
    a, _, _ = construct_counterexample(3)
    assert brute_qf_equiv(a, a)


def test_brute_equiv_tells_a_pair_from_a_repeated_element():
    """a0 - a1 has weight 3, while a0 - a0 is zero."""
    a, _, _ = construct_counterexample(3)
    assert not brute_qf_equiv(a, (a[0], a[0]))

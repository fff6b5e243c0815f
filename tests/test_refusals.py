"""Refusals through the public API: each documented error at the statement
that raises it, for inputs that no other test or workload gives."""

import pickle
import re
from fractions import Fraction

import pytest

from axisspace.errors import BadDescriptor, DimensionMismatch, FieldNotFinite, NotInF, NotQfEquivalent
from axisspace.fields import FieldCtx
from axisspace.formula import Term, Xn
from axisspace.invariant import QfInvariant, g_of, multiplicity_via_inclusion_exclusion, qf_invariant
from axisspace.iso import PartialIso, extend_to_hat
from axisspace.linalg import (
    Subspace,
    full_space,
    intersect,
    kernel,
    member,
    rref,
    solve_augmented,
    subspace_from_generators,
    subspace_sum,
    zero_space,
)
from axisspace.model import ALEPH0, ModelDescriptor, SubspaceHandle, axes_of_subspace, rich_model
from axisspace.typespace import SumType

Q = FieldCtx.rationals()
M = rich_model(Q)
ONE, TWO = zero_space(Q, 1), zero_space(Q, 2)

# (id, call, error, text the message contains)
REFUSALS = [
    ("rref-ragged", lambda: rref(Q, [(1, 2), (1,)]), DimensionMismatch, "ragged"),
    ("subspace-row-length", lambda: Subspace(Q, 2, ((Fraction(1),),)), DimensionMismatch, "basis row length"),
    ("generators-no-ambient", lambda: subspace_from_generators(Q, []), DimensionMismatch, "explicit ambient"),
    ("member", lambda: member((1,), full_space(Q, 2)), DimensionMismatch, "vector length 1"),
    ("subspace-sum", lambda: subspace_sum(ONE, TWO), DimensionMismatch, "different ambient"),
    ("kernel", lambda: kernel(Q, [(1, 2)], 3), DimensionMismatch, "declared column count"),
    ("intersect", lambda: intersect(ONE, TWO), DimensionMismatch, "different ambient"),
    ("solve-augmented", lambda: solve_augmented(Q, [(1, 2)], 2), DimensionMismatch, "unknowns + 1"),
    ("qf-invariant-kernel", lambda: QfInvariant(2, full_space(Q, 2), (ONE,)), DimensionMismatch, "!= arity"),
    ("g-of", lambda: g_of(qf_invariant((M.e(0, 0),)), TWO), DimensionMismatch, "against arity 1"),
    (
        "inclusion-exclusion-candidate",
        lambda: multiplicity_via_inclusion_exclusion(lambda U: 0, ONE, [TWO]),
        DimensionMismatch,
        "candidate ambient",
    ),
    ("subspace-not-canonical", lambda: Subspace(Q, 1, ((Fraction(2),),)), ValueError, "canonical"),
    ("xn-negative-index", lambda: Xn(-1, Term.var(Q, "t")), ValueError, "nonnegative"),
    ("sum-type-zero-index", lambda: SumType(0, M.zero()), ValueError, "positive"),
    ("census-repeated", lambda: ModelDescriptor(ALEPH0, ((1, 1), (1, 2))), BadDescriptor, "duplicate"),
    ("census-order", lambda: ModelDescriptor(ALEPH0, ((2, 1), (1, 1))), BadDescriptor, "canonical order"),
    ("rich-basis", lambda: M.basis_elements(), BadDescriptor, "finite fragment"),
    ("hull-free-part", lambda: extend_to_hat((M.fe(0),), (M.fe(0),)), NotInF, "axis span"),
    ("axes-free-part", lambda: axes_of_subspace(SubspaceHandle.of(M.fe(0))), NotInF, "free part"),
    ("partial-iso-lengths", lambda: PartialIso(Q, (M.e(0, 0),), ()), NotQfEquivalent, "different lengths"),
    ("apply-outside-domain", lambda: PartialIso.empty(Q).apply(M.e(0, 0)), KeyError, "outside the domain"),
    ("enumerate-rationals", lambda: FieldCtx.rationals().elements(), FieldNotFinite, "rationals"),
]


@pytest.mark.parametrize("call, error, text", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS])
def test_refusal(call, error, text):
    with pytest.raises(error, match=re.escape(text)):
        call()


def test_inputs_at_the_edge_that_are_accepted():
    """A residue written past the modulus is reduced, and the cardinal
    symbol survives pickling as the one instance."""
    assert FieldCtx(5).of("7") == 2
    assert pickle.loads(pickle.dumps(ALEPH0)) is ALEPH0

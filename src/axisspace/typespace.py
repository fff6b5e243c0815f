"""Classification of 1-types over finitely generated fragments.

Over a fragment A there are three kinds of elements: those realized in A;
those adding a fresh free direction (one type: no translate ever meets the
axis span); and those with x - m landing in some sumset X^n, classified by
the minimal such n together with a canonical translate m.  Two non-realized
elements with the same descriptor and fresh supports are conjugate over the
fragment, which :func:`conjugacy_witness` demonstrates explicitly.

The reduction of an element to the axis span and the membership subspace
v_f of the fragment generators come from
:func:`axisspace.invariant.free_reduction`; the coset search solves its
systems on the axis rows of :func:`axisspace.model.coordinate_rows`.  Both
read the one coordinate matrix the library builds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NotSameType
from .fields import FieldCtx
from .invariant import free_reduction, qf_equiv
from .iso import PartialIso
from .linalg import solve_augmented
from .model import (
    ModelElement,
    SubspaceHandle,
    combine,
    coordinate_rows,
    proj_axis,
    weight,
)


@dataclass(frozen=True)
class Realized:
    element: ModelElement

    def __repr__(self):
        return f"Realized({self.element})"


@dataclass(frozen=True)
class GenericFree:
    def __repr__(self):
        return "GenericFree"


@dataclass(frozen=True)
class SumType:
    n: int
    coset: ModelElement

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("sumset type index must be positive")

    def __repr__(self):
        return f"SumType(n={self.n}, coset={self.coset})"


TypeDescriptor = object  # Realized | GenericFree | SumType


def classify(a: ModelElement, fragment: SubspaceHandle) -> TypeDescriptor:
    """Type of ``a`` over the span of the fragment generators.

    GenericFree when no translate by a fragment element reaches the axis
    span; otherwise, for n the minimal weight of a - m over fragment
    translates m and m the canonical one attaining it (first in generator
    order), Realized when n = 0 (then a = m) and else SumType(n, m).
    """
    field = a.field
    gens = list(fragment.generators)
    free_coeffs, vf = free_reduction(a, gens)
    if free_coeffs is None:
        return GenericFree()
    m0 = combine(field, free_coeffs, gens)
    c0 = a - m0  # in the axis span
    assert c0.in_F()
    # translates keeping a - m in the axis span: m0 + (fragment axis-span part)
    f_basis = [combine(field, row, gens) for row in vf.basis]
    n, v = _min_weight_in_coset(c0, f_basis, field)
    return SumType(n, m0 + v) if n else Realized(a)


def _min_weight_in_coset(c0: ModelElement, f_basis: list, field: FieldCtx):
    """Minimize weight(c0 - v) over the span of f_basis.

    Enumerates candidate support sets ("keep sets") by size, then
    lexicographically: the weight is s exactly when some v matches c0 on
    all axes outside a chosen s-element set and no smaller set works.
    Returns (min weight, the canonical v attaining it: the canonical
    solution of the matching system of the first keep set that works).

    An axis that c0 meets and no element of f_basis meets is forced: v is 0
    there, so c0 - v never vanishes on it and every keep set that works
    holds it.  Only the movable axes, those f_basis meets, are enumerated,
    with the forced ones added to each keep set.  Adding one fixed set to
    keep sets of equal size does not change their lexicographic order (the
    least element of the symmetric difference decides it), so the first
    keep set that works, and hence v, is the one the enumeration over all
    axes would find.
    """
    n = len(f_basis)
    # one row per coordinate: the values of f_basis there, then c0's value
    axis_rows, _ = coordinate_rows(f_basis + [c0], field)
    movable = sorted({ax for b in f_basis for ax in b.axes()})
    for s in range(len(movable)):
        for keep in itertools.combinations(movable, s):
            matched = [row for axis in movable if axis not in keep for row in axis_rows[axis].values()]
            coeffs = solve_augmented(field, matched, n)
            if coeffs is not None:
                v = combine(field, coeffs, f_basis)
                return weight(c0 - v), v
    return weight(c0), ModelElement.zero(field)  # keeping every axis: v = 0


def conjugacy_witness(a: ModelElement, b: ModelElement, fragment: SubspaceHandle) -> PartialIso:
    """Partial isomorphism fixing the fragment pointwise with a -> b.

    Requires equal non-realized type descriptors; built by matching the
    support decompositions of the reduced elements piecewise.  The matched
    map has one check, :func:`~axisspace.invariant.qf_equiv` of the
    extended tuples.  It implies the relation check of ``PartialIso``: a
    tuple's relations {c : sum_i c_i t_i = 0} are v_f intersected with
    every kernel of its invariant (v_f itself when there is none), so equal
    invariants give equal relations, and the map is built unchecked.  a and
    b are the last generators on each side, so the map carries a to b.  A
    failed match, like unequal descriptors, raises NotSameType.
    """
    ta, tb = classify(a, fragment), classify(b, fragment)
    if isinstance(ta, Realized) or isinstance(tb, Realized):
        raise NotSameType("conjugacy is for non-realized elements")
    if type(ta) is not type(tb):
        raise NotSameType(f"different classifications: {ta} vs {tb}")
    field = a.field
    gens = list(fragment.generators)

    if isinstance(ta, GenericFree):
        pairs = [(a, b)]
    else:
        if ta != tb:
            raise NotSameType(f"different sum types: {ta} vs {tb}")
        ra, rb = a - ta.coset, b - tb.coset
        parts_a = _ordered_support(ra)
        parts_b = _ordered_support(rb)
        pairs = list(zip(parts_a, parts_b)) + [(a, b)]

    dom = tuple(gens) + tuple(x for x, _ in pairs)
    img = tuple(gens) + tuple(y for _, y in pairs)
    if not qf_equiv(dom, img, field):
        raise NotSameType("support matching does not preserve the invariant")
    return PartialIso._trusted(field, dom, img)


def _ordered_support(el: ModelElement) -> list:
    return [proj_axis(el, axis) for axis in sorted(el.axes())]

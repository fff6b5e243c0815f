"""Partial isomorphisms: hull extension and the back-and-forth step.

A :class:`PartialIso` is a correspondence between two finite generator
tuples whose linear-relation kernels coincide, so sending one tuple to the
other extends to a well-defined linear bijection of the spans.  The public
constructor computes both kernels and compares them.  A map built from
another whose relations are already equal, in a way that keeps them equal,
skips that check: :meth:`PartialIso.reduced`, :meth:`PartialIso.inverse`
and the extension of a map by an element and its own image inside
:func:`back_and_forth_step`.

:func:`extend_to_hat` upgrades a quantifier-free equivalent pair of tuples
inside the axis span to an isomorphism of their hulls: the kernel multisets
match, any multiset-respecting bijection of axes transports each projected
component, and the result restricts to an isomorphism axis by axis.

:func:`back_and_forth_step` extends a partial isomorphism past one new
element, fabricating the witness on the other side out of three kinds of
material: the hull image where the element is already determined, fresh
coordinates on matched axes for components that lean on a known axis without
lying in the hull, and entirely fresh axes or free coordinates for the rest.

The per-axis projection kernels, the membership subspace v_f and the
free-part reduction used here are computed by :mod:`axisspace.invariant`
(:func:`~axisspace.invariant.axis_kernels`,
:func:`~axisspace.invariant.free_reduction`).  These, like span
membership, the generators' linear relations and
:meth:`PartialIso.reduced`, read the coordinate matrix of the generators
built by :func:`axisspace.model.coordinate_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .errors import FragmentExhausted, NotInF, NotQfEquivalent, TargetNotRich
from .fields import FieldCtx
from .invariant import axis_kernels, free_reduction
from .linalg import rref
from .model import (
    Model,
    ModelElement,
    SubspaceHandle,
    _stacked,
    combine,
    coordinate_rows,
    proj_axis,
    span_membership,
    tuple_field,
    tuple_kernel,
)


@dataclass(frozen=True)
class PartialIso:
    """Finite partial isomorphism presented on generators.

    ``PartialIso(field, dom, img)`` raises NotQfEquivalent unless the two
    tuples satisfy the same linear relations.  :meth:`_trusted` builds one
    without the check, for tuples whose relations are equal by
    construction; equality is structural either way.  ``axis_map`` is
    set by :func:`extend_to_hat` alone (see :meth:`sigma`).
    """

    field: FieldCtx
    domain_generators: tuple
    image_generators: tuple
    axis_map: tuple = dc_field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if len(self.domain_generators) != len(self.image_generators):
            raise NotQfEquivalent("generator lists of different lengths")
        if tuple_kernel(self.domain_generators, self.field) != tuple_kernel(self.image_generators, self.field):
            raise NotQfEquivalent("generator tuples satisfy different linear relations")

    @classmethod
    def _trusted(cls, field: FieldCtx, dom: tuple, img: tuple) -> "PartialIso":
        """The map dom -> img for tuples known to satisfy the same linear
        relations.  The relations are not checked."""
        f = object.__new__(cls)
        f.__dict__.update(field=field, domain_generators=dom, image_generators=img)
        return f

    @staticmethod
    def empty(field: FieldCtx) -> "PartialIso":
        return PartialIso(field, (), ())

    def _coefficients(self, a: ModelElement):
        """Coefficients of ``a`` over the domain generators, or None; ``a``
        must be over the map's field, also when there are no generators."""
        return span_membership(a, SubspaceHandle(self.domain_generators, self.field))

    def contains(self, a: ModelElement) -> bool:
        return self._coefficients(a) is not None

    def apply(self, a: ModelElement) -> ModelElement:
        coeffs = self._coefficients(a)
        if coeffs is None:
            raise KeyError(f"element outside the domain span: {a}")
        return combine(self.field, coeffs, self.image_generators)

    def extended(self, a: ModelElement, b: ModelElement) -> "PartialIso":
        return PartialIso(self.field, self.domain_generators + (a,), self.image_generators + (b,))

    def _extended_by_image(self, a: ModelElement):
        """(the map extended by a -> b, b) for b = ``self.apply(a)``, or
        None when ``a`` is outside the domain span.  b is the combination
        of the image generators that a is of the domain generators, so the
        extended tuples still satisfy the same relations and the extension
        is built unchecked."""
        coeffs = self._coefficients(a)
        if coeffs is None:
            return None
        b = combine(self.field, coeffs, self.image_generators)
        dom, img = self.domain_generators + (a,), self.image_generators + (b,)
        return PartialIso._trusted(self.field, dom, img), b

    def inverse(self) -> "PartialIso":
        """The map img -> dom; swapping the tuples keeps their relations
        equal, so it is built unchecked."""
        return PartialIso._trusted(self.field, self.image_generators, self.domain_generators)

    def sigma(self) -> dict:
        """The axis bijection of a hull extension built by
        :func:`extend_to_hat`: domain axis -> image axis.  Empty on every
        other map."""
        return dict(self.axis_map)

    def reduced(self) -> "PartialIso":
        """Same map on an independent generating subset; keeps spans stable
        across iterated extension instead of letting presentations grow.

        The kept generators are the pivot columns of the domain's
        coordinate matrix: in order, exactly those outside the span of the
        generators before them.  They are independent, and the image
        generators at the same places satisfy the same (no) relations, so
        the result is built unchecked."""
        _, keep = rref(self.field, _stacked(*coordinate_rows(self.domain_generators, self.field)))
        dom = tuple(self.domain_generators[i] for i in keep)
        img = tuple(self.image_generators[i] for i in keep)
        return PartialIso._trusted(self.field, dom, img)


# ---------------------------------------------------------------------------
# hull extension
# ---------------------------------------------------------------------------


def extend_to_hat(a: Sequence[ModelElement], b: Sequence[ModelElement], field: FieldCtx | None = None) -> PartialIso:
    """Extend a_i -> b_i to an isomorphism of the hulls of the spans.

    Both tuples must lie in the axis span and have equal invariants;
    otherwise NotQfEquivalent is raised.  In the axis span the invariant is
    the arity and the field together with the multiset of per-axis
    projection kernels, so those are what is compared.  The axis bijection is canonical: axes are
    grouped by their projection kernel and matched in axis-index order
    inside each group; ``field`` is as in :func:`~axisspace.model.tuple_field`.
    """
    a, b = tuple(a), tuple(b)
    for el in a + b:
        if not el.in_F():
            raise NotInF(f"hull extension needs tuples in the axis span, got {el}")
    if len(a) != len(b) or (a and a[0].field != b[0].field):
        raise NotQfEquivalent("tuples of different arities or over different fields")
    field = tuple_field(a + b, field)
    groups_a: dict = {}
    groups_b: dict = {}
    for groups, t in ((groups_a, a), (groups_b, b)):
        for axis, ker in axis_kernels(t, field).items():
            groups.setdefault(ker.key(), []).append(axis)
    if set(groups_a) != set(groups_b) or any(len(groups_a[k]) != len(groups_b[k]) for k in groups_a):
        raise NotQfEquivalent("projection-kernel multisets do not match")
    if not a:
        return PartialIso.empty(field)

    sigma = {}
    for key in groups_a:
        for ya, yb in zip(sorted(groups_a[key]), sorted(groups_b[key])):
            sigma[ya] = yb

    dom, img = [], []
    for ya, yb in sigma.items():
        for ai, bi in zip(a, b):
            pa, pb = proj_axis(ai, ya), proj_axis(bi, yb)
            if pa.is_zero():
                continue  # e_i in the kernel on both sides
            dom.append(pa)
            img.append(pb)
    dom.extend(a)
    img.extend(b)
    return PartialIso(field, tuple(dom), tuple(img), tuple(sorted(sigma.items())))


# ---------------------------------------------------------------------------
# the back-and-forth step
# ---------------------------------------------------------------------------


def back_and_forth_step(f: PartialIso, a: ModelElement, source: Model, target: Model):
    """Extend ``f`` so that its domain span contains ``a``.

    Returns (extended iso, image of ``a``).  Witness material that the
    target model cannot supply raises TargetNotRich; with a rich target the
    step always succeeds.
    """
    try:
        return _step(f, a, source, target)
    except FragmentExhausted as exc:
        raise TargetNotRich(str(exc)) from exc


def _step(f: PartialIso, a: ModelElement, source: Model, target: Model):
    field = f.field
    D, E = list(f.domain_generators), list(f.image_generators)
    coeffs = f._coefficients(a)
    if coeffs is not None:
        return f, combine(field, coeffs, E)

    # case (i): the element brings a new free direction; any fresh free
    # coordinate on the other side matches it.
    free_coeffs, vf = free_reduction(a, D)
    if free_coeffs is None:
        b = target.fe(target.fresh_free_coord(E))
        return f.extended(a, b), b

    # otherwise reduce to an element of the axis span
    a_f = a - combine(field, free_coeffs, D)  # in F(M)
    assert a_f.in_F()

    # hull of the axis-span part of the domain
    u = [combine(field, coeffs, D) for coeffs in vf.basis]
    u_img = [combine(field, coeffs, E) for coeffs in vf.basis]
    hat = extend_to_hat(u, u_img, field)
    # ``combined`` and the mixed case's extension by a_f -> b_f are valid by
    # the hull argument; the public constructor's check certifies it.
    combined = PartialIso(field, tuple(D) + hat.domain_generators, tuple(E) + hat.image_generators)
    # a - a_f lies in the span of D, so a is in the domain span exactly
    # when a_f is
    hull_case = combined._extended_by_image(a)
    if hull_case is not None:
        g, b = hull_case
        return g.reduced(), b

    # mixed case: mirror the support of a_f component by component
    sigma = hat.sigma()
    hull_axis = {}
    for ya, yb in sigma.items():
        hull_axis[ya] = ([proj_axis(el, ya) for el in u], [proj_axis(el, yb) for el in u_img])
    used_img = E + list(hat.image_generators)
    b_f = ModelElement.zero(field)
    for axis in a_f.axes():
        m_comp = proj_axis(a_f, axis)
        if axis in sigma:
            dom_projs, img_projs = hull_axis[axis]
            coeffs = span_membership(m_comp, SubspaceHandle(tuple(dom_projs)))
            if coeffs is not None:
                n_comp = combine(field, coeffs, img_projs)
            else:
                # on a known axis but outside the hull: fresh coordinate there
                n_comp = target.e(sigma[axis], target.fresh_coord(sigma[axis], used_img))
        else:
            dim_req = None if target.is_rich else source.axis_dim(axis)
            fresh_axis = target.fresh_axis(used_img, dim=dim_req)
            n_comp = target.e(fresh_axis, 0)
        used_img.append(n_comp)
        b_f = b_f + n_comp
    g, b = combined.extended(a_f, b_f)._extended_by_image(a)
    return g.reduced(), b


# ---------------------------------------------------------------------------
# the generator-level isomorphism game between fragments
# ---------------------------------------------------------------------------


def fragment_isomorphism_game(m1: Model, m2: Model) -> PartialIso | None:
    """Build an isomorphism between two finite fragments by iterated
    back-and-forth steps over their coordinate bases, or report failure.

    Success is equivalent to the fragments having equal descriptors; a step
    fails exactly when one side cannot supply matching fresh material.
    """
    f = PartialIso.empty(m1.field)
    try:
        # a domain span only grows, so an element covered stays covered
        for x in m1.basis_elements():
            if not f.contains(x):
                f, _ = back_and_forth_step(f, x, m1, m2)
        g = f.inverse()
        for y in m2.basis_elements():
            if not g.contains(y):
                g, _ = back_and_forth_step(g, y, m2, m1)
        return g.inverse()
    except (TargetNotRich, NotQfEquivalent):
        return None

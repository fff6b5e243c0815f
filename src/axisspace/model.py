"""Canonical models and the support / weight / projection calculus.

A canonical model is a direct sum of axis blocks and free coordinates.  An
element stores, per (axis, coordinate) pair and per free coordinate, a
nonzero scalar.  The distinguished set X consists of the elements supported
on at most one axis with no free part; X^n is the set of sums of n members
of X, equivalently the elements of weight at most n without free part.

Models are pure values: fresh axes and coordinates are computed relative to
explicit element sets rather than allocated from mutable counters, so every
operation here is a function and thread safety is trivial.

The coordinate matrix of a tuple of elements, one row per coordinate the
tuple meets, has one builder, :func:`coordinate_rows`.  Span membership,
linear relations and canonical span bases here, v_f and the axis kernels
in :mod:`axisspace.invariant`, the reduction of a partial isomorphism's
presentation and the coset search of type classification all read it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    BadDescriptor,
    FragmentExhausted,
    NoGenericWitness,
    NotInF,
    NotOnAxis,
)
from .fields import FieldCtx, check_same_field
from .linalg import (
    Subspace,
    _sparse,
    _sparse_axpy,
    _sparse_scale,
    kernel,
    rref,
    solve_augmented,
)


class _Aleph0:
    """The countable infinite cardinal symbol."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "aleph0"

    def __reduce__(self):
        return (_Aleph0, ())


ALEPH0 = _Aleph0()

CardinalSymbol = object  # int >= 0 or ALEPH0

AxisId = int


def _card_ok(c) -> bool:
    return c is ALEPH0 or (type(c) is int and c >= 0)


def _card_key(c):
    return (1, 0) if c is ALEPH0 else (0, c)


@dataclass(frozen=True)
class ModelDescriptor:
    """Isomorphism invariant of a model or fragment.

    ``f_codim`` is the codimension of the span of the axes; ``axis_census``
    maps an axis dimension (positive int or ALEPH0) to how many axes have
    that dimension (int or ALEPH0).  Stored sorted so equality is structural.
    """

    f_codim: CardinalSymbol
    axis_census: tuple  # tuple of (dimension, count), canonically sorted

    def __post_init__(self):
        if not _card_ok(self.f_codim):
            raise BadDescriptor(f"bad codimension symbol {self.f_codim!r}")
        seen = set()
        for dim, count in self.axis_census:
            if not _card_ok(dim) or dim == 0:
                raise BadDescriptor(f"bad axis dimension {dim!r}")
            if not _card_ok(count):
                raise BadDescriptor(f"bad axis count {count!r}")
            if dim in seen:
                raise BadDescriptor(f"duplicate census entry for dimension {dim!r}")
            seen.add(dim)
        expected = tuple(sorted((e for e in self.axis_census if e[1] != 0), key=lambda e: _card_key(e[0])))
        if tuple(self.axis_census) != expected:
            raise BadDescriptor("census not in canonical order (use make_descriptor)")

    @property
    def is_finite_fragment(self) -> bool:
        if self.f_codim is ALEPH0:
            return False
        return all(dim is not ALEPH0 and count is not ALEPH0 for dim, count in self.axis_census)

    @property
    def axis_count(self) -> CardinalSymbol:
        total = 0
        for _, count in self.axis_census:
            if count is ALEPH0:
                return ALEPH0
            total += count
        return total


def make_descriptor(f_codim, axis_census: Mapping) -> ModelDescriptor:
    """Build a descriptor from a {dimension: count} mapping."""
    entries = tuple(sorted(((d, c) for d, c in axis_census.items() if c != 0), key=lambda e: _card_key(e[0])))
    return ModelDescriptor(f_codim, entries)


RICH_DESCRIPTOR = make_descriptor(ALEPH0, {ALEPH0: ALEPH0})


def descriptor_iso(d1: ModelDescriptor, d2: ModelDescriptor) -> bool:
    """Componentwise equality; this decides isomorphism of the described models."""
    return d1 == d2


@dataclass(frozen=True)
class ModelElement:
    """Finite-support vector split into axis components and free coordinates.

    ``axis_part`` maps (axis, coordinate) to a nonzero scalar; ``free_part``
    maps a free coordinate to a nonzero scalar.  Both are sparse vectors in
    the sense of :mod:`linalg` (sorted tuples) so equality and hashing are
    structural.
    """

    field: FieldCtx
    axis_part: tuple  # sorted ((axis, coord), scalar) pairs, scalars nonzero
    free_part: tuple  # sorted (coord, scalar) pairs, scalars nonzero

    # -- constructors ----------------------------------------------------

    @staticmethod
    def make(field: FieldCtx, axis_part: Mapping = (), free_part: Mapping = ()) -> "ModelElement":
        return ModelElement(field, _sparse(field, axis_part), _sparse(field, free_part))

    @staticmethod
    def zero(field: FieldCtx) -> "ModelElement":
        return ModelElement(field, (), ())

    # -- views ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.axis_part and not self.free_part

    def in_F(self) -> bool:
        """True when the element lies in the span of the axes."""
        return not self.free_part

    def axes(self) -> tuple:
        return tuple(sorted({axis for (axis, _), _ in self.axis_part}))

    def coords_on_axis(self, axis: AxisId) -> dict:
        return {coord: c for (a, coord), c in self.axis_part if a == axis}

    # -- arithmetic --------------------------------------------------------

    def _axpy(self, s, other: "ModelElement") -> "ModelElement":
        """self + s*other for a nonzero scalar ``s`` in canonical form."""
        f = self.field
        check_same_field(f, other.field)
        ap = _sparse_axpy(f, self.axis_part, s, other.axis_part)
        return ModelElement(f, ap, _sparse_axpy(f, self.free_part, s, other.free_part))

    def __add__(self, other: "ModelElement") -> "ModelElement":
        return self._axpy(self.field.one, other)

    def __sub__(self, other: "ModelElement") -> "ModelElement":
        f = self.field
        return self._axpy(f.neg(f.one), other)

    def __neg__(self) -> "ModelElement":
        f = self.field
        return self.scale(f.neg(f.one))

    def scale(self, c) -> "ModelElement":
        f = self.field
        c = f.of(c)
        if f.is_zero(c):
            return ModelElement.zero(f)
        return ModelElement(f, _sparse_scale(f, c, self.axis_part), _sparse_scale(f, c, self.free_part))

    def __rmul__(self, c) -> "ModelElement":
        return self.scale(c)

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        f = self.field
        parts = []
        for (axis, coord), c in self.axis_part:
            atom = f"e{axis}_{coord}"
            parts.append(atom if c == f.one else f"{c}*{atom}")
        for coord, c in self.free_part:
            atom = f"f{coord}"
            parts.append(atom if c == f.one else f"{c}*{atom}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<{self} over {self.field}>"


def tuple_field(elements: Sequence[ModelElement], field: FieldCtx | None = None) -> FieldCtx:
    """The field of a tuple of elements: ``field`` when one is given, else
    the first entry's, else Q.  The entries are checked where their
    coordinate matrix is built (:func:`coordinate_rows`)."""
    if field is not None:
        return field
    return elements[0].field if elements else FieldCtx.rationals()


def combine(field: FieldCtx, coeffs: Iterable, elements: Iterable[ModelElement]) -> ModelElement:
    """The linear combination sum_i coeffs[i] * elements[i] over ``field``.

    Every layer that forms a scaled sum of model elements calls this.  The
    sum is folded left to right, one ``linalg._sparse_axpy`` merge per
    operand and part, so it stays sorted and free of zeros throughout.
    Every operand's field is checked, also where its coefficient is zero.
    """
    axis_part: tuple = ()
    free_part: tuple = ()
    for c, el in zip(coeffs, elements):
        check_same_field(field, el.field)
        c = field.of(c)
        if not field.is_zero(c):
            axis_part = _sparse_axpy(field, axis_part, c, el.axis_part)
            free_part = _sparse_axpy(field, free_part, c, el.free_part)
    return ModelElement(field, axis_part, free_part)


def _smallest_unused(taken: set) -> int:
    return next(c for c in itertools.count() if c not in taken)


class Model:
    """A canonical model (or finitely generated fragment) of the theory.

    The descriptor fixes which axes exist and how large they are; rich models
    (all cardinals ALEPH0) never exhaust.  Named constants, used by the
    formula evaluator and the CLI, live in ``constants``.
    """

    def __init__(self, descriptor: ModelDescriptor, field: FieldCtx, constants: Mapping | None = None):
        self.descriptor = descriptor
        self.field = field
        self.constants = dict(constants or {})
        # Materialized axis dimensions, in a deterministic order: finite
        # dimensions ascending, then ALEPH0 axes.  Fragments get a concrete
        # finite list; models with ALEPH0 many axes extend it on demand.
        dims: list = []
        for dim, count in descriptor.axis_census:
            if count is ALEPH0:
                self._tail_dim = dim  # axes from len(dims) on all have this dimension
                break
            dims.extend([dim] * count)
        else:
            self._tail_dim = None
        self._head_dims = dims

    # -- structure queries ----------------------------------------------

    @property
    def axis_count(self) -> CardinalSymbol:
        return ALEPH0 if self._tail_dim is not None else len(self._head_dims)

    def has_axis(self, axis: AxisId) -> bool:
        return type(axis) is int and axis >= 0 and (axis < len(self._head_dims) or self._tail_dim is not None)

    def axis_dim(self, axis: AxisId) -> CardinalSymbol:
        if not self.has_axis(axis):
            raise FragmentExhausted(f"axis {axis} does not exist in this model")
        return self._head_dims[axis] if axis < len(self._head_dims) else self._tail_dim

    @property
    def is_rich(self) -> bool:
        """Richness in the sense required by the quantifier-elimination engine:
        infinitely many axes, every axis infinite-dimensional, and infinite
        codimension of the span of the axes."""
        return (
            self.descriptor.f_codim is ALEPH0
            and self._tail_dim is ALEPH0
            and all(d is ALEPH0 for d in self._head_dims)
        )

    # -- element constructors ---------------------------------------------

    def e(self, axis: AxisId, coord: int, c=1) -> ModelElement:
        """Basis element of an axis block."""
        self._check_axis_coord(axis, coord)
        return ModelElement.make(self.field, {(axis, coord): c})

    def fe(self, coord: int, c=1) -> ModelElement:
        """Basis element of a free coordinate."""
        self._check_free_coord(coord)
        return ModelElement.make(self.field, {}, {coord: c})

    def zero(self) -> ModelElement:
        return ModelElement.zero(self.field)

    def element(self, axis_part: Mapping = (), free_part: Mapping = ()) -> ModelElement:
        el = ModelElement.make(self.field, axis_part, free_part)
        for (axis, coord), _ in el.axis_part:
            self._check_axis_coord(axis, coord)
        for coord, _ in el.free_part:
            self._check_free_coord(coord)
        return el

    def _check_axis_coord(self, axis: AxisId, coord: int) -> None:
        if type(axis) is not int or type(coord) is not int:  # bool included
            raise TypeError(f"axis and coordinate indices must be ints, not {axis!r}, {coord!r}")
        dim = self.axis_dim(axis)  # raises if the axis does not exist
        if coord < 0 or (dim is not ALEPH0 and coord >= dim):
            raise FragmentExhausted(f"coordinate {coord} outside dimension {dim} of axis {axis}")

    def _check_free_coord(self, coord: int) -> None:
        if type(coord) is not int:
            raise TypeError(f"free coordinate index must be an int, not {coord!r}")
        codim = self.descriptor.f_codim
        if coord < 0 or (codim is not ALEPH0 and coord >= codim):
            raise FragmentExhausted(f"free coordinate {coord} outside codimension {codim}")

    # -- fresh material, relative to explicit elements ---------------------

    def fresh_axis(self, used: Iterable[ModelElement] = (), dim=None) -> AxisId:
        """Smallest axis untouched by ``used`` whose dimension matches ``dim``
        (any dimension if None)."""
        taken = set()
        for el in used:
            taken.update(el.axes())
        axis = 0
        while True:
            if not self.has_axis(axis):
                raise FragmentExhausted("no fresh axis available in this fragment")
            if axis not in taken and (dim is None or self.axis_dim(axis) == dim):
                return axis
            axis += 1

    def fresh_coord(self, axis: AxisId, used: Iterable[ModelElement] = ()) -> int:
        """Smallest coordinate on ``axis`` unused by ``used``."""
        coord = _smallest_unused({coord for el in used for coord in el.coords_on_axis(axis)})
        self._check_axis_coord(axis, coord)
        return coord

    def fresh_free_coord(self, used: Iterable[ModelElement] = ()) -> int:
        """Smallest free coordinate unused by ``used``."""
        coord = _smallest_unused({coord for el in used for coord, _ in el.free_part})
        self._check_free_coord(coord)
        return coord

    def basis_elements(self) -> list:
        """The full coordinate basis; only available for finite fragments."""
        if not self.descriptor.is_finite_fragment:
            raise BadDescriptor("basis enumeration requires a finite fragment descriptor")
        out = []
        for axis, dim in enumerate(self._head_dims):
            for coord in range(dim):
                out.append(self.e(axis, coord))
        for coord in range(self.descriptor.f_codim):
            out.append(self.fe(coord))
        return out

    def __repr__(self):
        return f"Model({self.descriptor!r}, {self.field})"


def canonical_model(descriptor: ModelDescriptor, field: FieldCtx, constants: Mapping | None = None) -> Model:
    """The canonical model of the descriptor: every element has finite support
    split over independent axis blocks and free coordinates.

    A descriptor with no axes at all is rejected unless it is a pure finite
    fragment (models of the theory proper need infinitely many axes)."""
    if descriptor.axis_count == 0 and not descriptor.is_finite_fragment:
        raise BadDescriptor("a model with no axes cannot be rich")
    return Model(descriptor, field, constants)


def rich_model(field: FieldCtx, constants: Mapping | None = None) -> Model:
    return canonical_model(RICH_DESCRIPTOR, field, constants)


# ---------------------------------------------------------------------------
# support / weight / projection calculus
# ---------------------------------------------------------------------------


def _require_in_F(a: ModelElement) -> None:
    if not a.in_F():
        raise NotInF(f"element has a free part: {a}")


def proj_axis(a: ModelElement, axis: AxisId) -> ModelElement:
    """Component of ``a`` on the given axis (zero if absent)."""
    _require_in_F(a)
    return ModelElement(a.field, tuple(entry for entry in a.axis_part if entry[0][0] == axis), ())


def support(a: ModelElement) -> set:
    """The unique set of pairwise nonparallel X-members summing to ``a``."""
    _require_in_F(a)
    return {proj_axis(a, axis) for axis in a.axes()}


def axes_of(a: ModelElement) -> set:
    _require_in_F(a)
    return set(a.axes())


def weight(a: ModelElement) -> int:
    _require_in_F(a)
    return len(a.axes())


def in_Xn(a: ModelElement, n: int) -> bool:
    """Membership in the n-fold sumset X^n; X^0 = {0}."""
    return a.in_F() and len(a.axes()) <= n


def in_X(a: ModelElement) -> bool:
    return in_Xn(a, 1)


def parallel(a: ModelElement, b: ModelElement) -> bool:
    """Same-axis relation on X minus 0: equivalent to a + b landing in X."""
    for el in (a, b):
        if el.is_zero() or not in_X(el):
            raise NotOnAxis(f"parallelism needs a nonzero member of X, got {el}")
    return a.axes() == b.axes()


def z_multiple_check(a: ModelElement, k: int) -> bool:
    """Integer multiples never climb the sumset hierarchy: k*a stays in X^w(a)."""
    _require_in_F(a)
    return in_Xn(a.scale(a.field.of(k)), weight(a))


# ---------------------------------------------------------------------------
# finitely generated subspaces of a model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubspaceHandle:
    """Finitely generated subspace of a model, presented by generators.

    All operations depend only on the span, never on the presentation.
    ``field`` is the field of the span, worked out from the generators by
    :func:`tuple_field` when none is given, so a handle with no generators
    spans the zero of Q unless told otherwise.
    """

    generators: tuple  # tuple of ModelElement
    field: FieldCtx | None = None

    def __post_init__(self):
        object.__setattr__(self, "field", tuple_field(self.generators, self.field))

    @staticmethod
    def of(*gens: ModelElement) -> "SubspaceHandle":
        return SubspaceHandle(tuple(gens))

    def nonzero_generators(self) -> list:
        return [g for g in self.generators if not g.is_zero()]


def coordinate_rows(elements: Sequence[ModelElement], field: FieldCtx):
    """The coordinate matrix of the map c -> sum_i c_i elements_i, one row
    per coordinate the elements meet; a row holds their values there.

    Returns (axis -> {coordinate: row}, free coordinate -> row), axes and
    coordinates ascending.  Each element's field is checked against
    ``field``.
    """
    n = len(elements)
    axis_cells: dict = {}
    free_cells: dict = {}
    for i, el in enumerate(elements):
        check_same_field(field, el.field)
        for cells, part in ((axis_cells, el.axis_part), (free_cells, el.free_part)):
            for key, c in part:
                row = cells.get(key)
                if row is None:
                    row = cells[key] = [field.zero] * n
                row[i] = c
    axis_rows: dict = {}
    for axis, coord in sorted(axis_cells):
        axis_rows.setdefault(axis, {})[coord] = tuple(axis_cells[axis, coord])
    return axis_rows, {coord: tuple(free_cells[coord]) for coord in sorted(free_cells)}


def _stacked(axis_rows: dict, free_rows: dict) -> list:
    """The rows of :func:`coordinate_rows` as one matrix, axis rows first."""
    return [row for rows in axis_rows.values() for row in rows.values()] + list(free_rows.values())


def span_membership(a: ModelElement, handle: SubspaceHandle) -> tuple:
    """Coefficients expressing ``a`` over the generators, or None; ``a``
    must be over the handle's field."""
    gens, field = handle.generators, handle.field
    return solve_augmented(field, _stacked(*coordinate_rows((*gens, a), field)), len(gens))


def tuple_kernel(elements: Sequence[ModelElement], field: FieldCtx) -> Subspace:
    """Kernel {c : sum_i c_i elements_i = 0} as a subspace of K^len."""
    return kernel(field, _stacked(*coordinate_rows(elements, field)), len(elements))


def span_basis(handle: SubspaceHandle, field: FieldCtx) -> list:
    """Canonical basis of the span as model elements (RREF over coordinates)."""
    gens = handle.nonzero_generators()
    if not gens:
        return []
    axis_rows, free_rows = coordinate_rows(gens, field)
    axis_keys = [(axis, coord) for axis, rows in axis_rows.items() for coord in rows]
    reduced, _ = rref(field, list(zip(*_stacked(axis_rows, free_rows))))
    k = len(axis_keys)

    def part(keys, values):  # keys ascend, so the part is in canonical order
        return tuple((key, v) for key, v in zip(keys, values) if not field.is_zero(v))

    return [ModelElement(field, part(axis_keys, row[:k]), part(free_rows, row[k:])) for row in reduced]


def _require_handle_in_F(handle: SubspaceHandle) -> None:
    for g in handle.generators:
        check_same_field(handle.field, g.field)
        if not g.in_F():
            raise NotInF(f"generator has a free part: {g}")


def axes_of_subspace(handle: SubspaceHandle) -> set:
    """Axes with nonzero projection; by linearity, the union over generators."""
    _require_handle_in_F(handle)
    out: set = set()
    for g in handle.generators:
        out.update(g.axes())
    return out


def weight_of_subspace(handle: SubspaceHandle) -> int:
    return len(axes_of_subspace(handle))


def pi_A(a: ModelElement, handle: SubspaceHandle) -> ModelElement:
    """Sum of the projections of ``a`` onto the axes of the subspace."""
    _require_in_F(a)
    check_same_field(handle.field, a.field)
    axes = axes_of_subspace(handle)
    return ModelElement(a.field, tuple(entry for entry in a.axis_part if entry[0][0] in axes), ())


def hull_hat(handle: SubspaceHandle) -> SubspaceHandle:
    """Span of all axis projections of the generators; contains the span."""
    _require_handle_in_F(handle)
    comps = []
    for g in handle.generators:
        for axis in g.axes():
            comps.append(proj_axis(g, axis))
    return SubspaceHandle(tuple(comps), handle.field)


def witness_star(handle: SubspaceHandle) -> ModelElement:
    """An element of the span meeting every axis of the subspace.

    The first candidate combination meeting every axis is returned.  Over
    an infinite field the coefficients of the m nonzero generators g_i run
    along the moment curve (1, k, ..., k^(m-1)), k = 1, 2, ...: on each
    axis sum_i k^i proj(g_i) is a nonzero polynomial of degree below m, so
    at most (m - 1) * |axes| values of k fail.  Over a finite field every
    combination may miss an axis; the span is searched exhaustively,
    projectively over its canonical basis, and NoGenericWitness reports
    genuine failure.
    """
    target_axes = axes_of_subspace(handle)
    gens, field = handle.nonzero_generators(), handle.field
    if not gens:
        return ModelElement.zero(field)
    if field.is_infinite:
        candidates = ([k**i for i in range(len(gens))] for k in itertools.count(1))
    else:
        gens = span_basis(SubspaceHandle(tuple(gens), field), field)
        candidates = _iter_coeff_vectors(field, len(gens))
    for coeffs in candidates:
        el = combine(field, coeffs, gens)
        if set(el.axes()) == target_axes:
            return el
    raise NoGenericWitness(
        f"no single element of the span meets all {len(target_axes)} axes over {field}"
    )


def _iter_coeff_vectors(field: FieldCtx, n: int):
    """All coefficient vectors over a finite field with first nonzero entry 1."""
    for lead in range(n):
        # entries before `lead` are zero, entry at `lead` is one
        head = (field.zero,) * lead + (field.one,)
        for tail in itertools.product(range(field.p), repeat=n - lead - 1):
            yield head + tail

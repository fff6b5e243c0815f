"""Exact finite-dimensional linear algebra over a field context.

Vectors are tuples of canonical scalars.  A :class:`Subspace` is always held
in reduced row-echelon form with pivot columns strictly increasing, so two
subspaces are equal as sets exactly when they are structurally equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionMismatch
from .fields import FieldCtx, Scalar, check_same_field

Vector = tuple  # tuple of Scalar


def vec(field: FieldCtx, entries: Iterable) -> Vector:
    return tuple(field.of(x) for x in entries)


def zero_vec(field: FieldCtx, n: int) -> Vector:
    return (field.zero,) * n


def vec_add(field: FieldCtx, a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths {len(a)} vs {len(b)}")
    return tuple(field.add(x, y) for x, y in zip(a, b))


def vec_scale(field: FieldCtx, c: Scalar, a: Vector) -> Vector:
    return tuple(field.mul(c, x) for x in a)


def is_zero_vec(field: FieldCtx, a: Vector) -> bool:
    return all(field.is_zero(x) for x in a)


def rref(field: FieldCtx, rows: Sequence[Vector]) -> tuple[list[Vector], list[int]]:
    """Reduced row-echelon form; returns (nonzero rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    for r in m:
        if len(r) != ncols:
            raise DimensionMismatch("ragged matrix")
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(m)) if not field.is_zero(m[r][col])), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = field.inv(m[row][col])
        m[row] = [field.mul(inv, x) for x in m[row]]
        for r in range(len(m)):
            if r != row and not field.is_zero(m[r][col]):
                f = m[r][col]
                m[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return [tuple(r) for r in m[:row]], pivots


@dataclass(frozen=True)
class Subspace:
    """Subspace of K^n presented by its canonical reduced-echelon basis."""

    field: FieldCtx
    ambient_dim: int
    basis: tuple  # tuple of Vector, in RREF

    def __post_init__(self):
        last = -1
        for row in self.basis:
            if len(row) != self.ambient_dim:
                raise DimensionMismatch("basis row length != ambient dimension")
            lead = next((i for i, x in enumerate(row) if not self.field.is_zero(x)), None)
            if lead is None or lead <= last or row[lead] != self.field.one:
                raise ValueError("basis not in canonical reduced echelon form")
            last = lead

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def __le__(self, other: "Subspace") -> bool:
        return all(member(v, other) for v in self.basis)

    def key(self):
        """Total-order key; used to sort kernel multisets canonically."""
        return (self.ambient_dim, self.dim, tuple(tuple(str(x) for x in row) for row in self.basis))


def subspace_from_generators(field: FieldCtx, vectors: Sequence[Vector], ambient_dim: int | None = None) -> Subspace:
    """Span of the given vectors, in canonical form."""
    vectors = list(vectors)
    if ambient_dim is None:
        if not vectors:
            raise DimensionMismatch("empty generator list needs an explicit ambient dimension")
        ambient_dim = len(vectors[0])
    for v in vectors:
        if len(v) != ambient_dim:
            raise DimensionMismatch(f"vector length {len(v)} != ambient {ambient_dim}")
    rows, _ = rref(field, vectors)
    return Subspace(field, ambient_dim, tuple(rows))


def zero_space(field: FieldCtx, n: int) -> Subspace:
    return Subspace(field, n, ())


def full_space(field: FieldCtx, n: int) -> Subspace:
    rows = tuple(tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n))
    return Subspace(field, n, rows)


def member(v: Vector, space: Subspace) -> bool:
    """Exact membership test by elimination against the canonical basis."""
    field = space.field
    if len(v) != space.ambient_dim:
        raise DimensionMismatch(f"vector length {len(v)} != ambient {space.ambient_dim}")
    residue = list(v)
    for row in space.basis:
        lead = next(i for i, x in enumerate(row) if not field.is_zero(x))
        c = residue[lead]
        if not field.is_zero(c):
            residue = [field.sub(x, field.mul(c, y)) for x, y in zip(residue, row)]
    return all(field.is_zero(x) for x in residue)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    check_same_field(a.field, b.field)
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("sum of subspaces of different ambient spaces")
    return subspace_from_generators(a.field, list(a.basis) + list(b.basis), a.ambient_dim)


def kernel(field: FieldCtx, rows: Sequence[Vector], ncols: int) -> Subspace:
    """Null space {x : M x = 0} of the matrix with the given rows."""
    for r in rows:
        if len(r) != ncols:
            raise DimensionMismatch("matrix row length != declared column count")
    reduced, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    gens = []
    for fc in free_cols:
        sol = [field.zero] * ncols
        sol[fc] = field.one
        for row, pc in zip(reduced, pivots):
            sol[pc] = field.neg(row[fc])
        gens.append(tuple(sol))
    return subspace_from_generators(field, gens, ncols)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection via the kernel of the stacked coefficient system."""
    check_same_field(a.field, b.field)
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("intersection of subspaces of different ambient spaces")
    field = a.field
    if a.is_zero() or b.is_zero():
        return zero_space(field, a.ambient_dim)
    # columns: coefficients on a.basis then on b.basis; rows: ambient coordinates
    na, nb = a.dim, b.dim
    rows = []
    for coord in range(a.ambient_dim):
        rows.append(tuple([a.basis[i][coord] for i in range(na)] +
                          [field.neg(b.basis[j][coord]) for j in range(nb)]))
    ker = kernel(field, rows, na + nb)
    gens = []
    for combo in ker.basis:
        v = zero_vec(field, a.ambient_dim)
        for i in range(na):
            v = vec_add(field, v, vec_scale(field, combo[i], a.basis[i]))
        gens.append(v)
    return subspace_from_generators(field, gens, a.ambient_dim)


def solve(field: FieldCtx, rows: Sequence[Vector], rhs: Vector) -> Vector | None:
    """One solution x of rows^T ... -- precisely: sum_i x_i * rows[i] = rhs.

    Returns the canonical solution with free coefficients zero, or None.
    """
    if not rows:
        return () if is_zero_vec(field, rhs) else None
    ncols = len(rows[0])
    if len(rhs) != ncols:
        raise DimensionMismatch("right-hand side length mismatch")
    # Augment: transpose system A^T x = rhs with A rows as columns.
    aug = []
    for coord in range(ncols):
        aug.append(tuple([row[coord] for row in rows] + [rhs[coord]]))
    reduced, pivots = rref(field, aug)
    n = len(rows)
    sol = [field.zero] * n
    for row, pc in zip(reduced, pivots):
        if pc == n:  # pivot in the augmented column: inconsistent
            return None
        sol[pc] = row[n]
    return tuple(sol)

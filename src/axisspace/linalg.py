"""Exact finite-dimensional linear algebra over a field context.

Vectors are tuples of canonical scalars.  A :class:`Subspace` is always held
in reduced row-echelon form with pivot columns strictly increasing, so two
subspaces are equal as sets exactly when they are structurally equal.

:func:`rref` works on integer rows over Q (each row is scaled to integers
once, kept primitive by dividing out the gcd of its entries and divided by
its pivot only when the result is built) and on residues reduced ``% p``
over GF(p).  :func:`kernel` and :func:`intersect` are one elimination each,
of ``[M^T | I]`` and of Zassenhaus's rows ``(u | u)``, ``(v | 0)``; the rows
with a pivot in the right half are the canonical basis of the result.

Sparse vectors -- a term's coefficients on its symbols, a model element's
on its coordinates -- are tuples of ``(key, scalar)`` pairs sorted by key,
every scalar canonical and nonzero, so equal vectors are equal tuples.
:func:`_sparse` normalises a mapping, :func:`_sparse_axpy` computes
``a + s*b`` in one merge of the sorted tuples (Knuth, TAOCP vol. 1,
2.2.4) and :func:`_sparse_scale` multiplies by a nonzero scalar.  They
are private because the benchmark's tracer wraps every public function
and would time term arithmetic as ``linalg``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch
from .fields import FieldCtx, Scalar, check_same_field

Vector = tuple  # tuple of Scalar


def vec(field: FieldCtx, entries: Iterable) -> Vector:
    return tuple(field.of(x) for x in entries)


def _sparse(field: FieldCtx, pairs: Mapping) -> tuple:
    """The sparse vector with the coefficients ``pairs``, a map from keys
    to scalars in any form ``field.of`` accepts: coerced, zeros dropped,
    sorted by key."""
    out = []
    for k, c in dict(pairs).items():
        c = field.of(c)
        if not field.is_zero(c):
            out.append((k, c))
    return tuple(sorted(out))


def _sparse_axpy(field: FieldCtx, a: tuple, s: Scalar, b: tuple) -> tuple:
    """a + s*b for sparse vectors and a nonzero canonical scalar s, in one
    pass over both; entries that cancel are dropped."""
    if not b:
        return a
    add, mul, is_zero = field.add, field.mul, field.is_zero
    scaled = s != 1
    out = []
    i, n = 0, len(a)
    for k, c in b:
        if scaled:
            c = mul(s, c)
        while i < n and a[i][0] < k:
            out.append(a[i])
            i += 1
        if i < n and a[i][0] == k:
            c = add(a[i][1], c)
            i += 1
            if is_zero(c):
                continue
        out.append((k, c))
    out.extend(a[i:])
    return tuple(out)


def _sparse_scale(field: FieldCtx, c: Scalar, a: tuple) -> tuple:
    """c*a for a sparse vector and a nonzero canonical scalar c, which
    keeps the order and every entry nonzero."""
    mul = field.mul
    return tuple((k, mul(c, x)) for k, x in a)


def _primitive(row: list) -> list:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref(field: FieldCtx, rows: Sequence[Vector]) -> tuple[list[Vector], list[int]]:
    """Reduced row-echelon form; returns (nonzero rows, pivot columns).
    Over Q, int entries are accepted; the rows returned are canonical."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise DimensionMismatch("ragged matrix")
    p = None if field.is_infinite else field.p
    if p is None:
        m = []
        for r in rows:
            den = lcm(*(x.denominator for x in r))
            m.append(_primitive([x.numerator * (den // x.denominator) for x in r]))
    else:
        m = [[x % p for x in r] for r in rows]
    pivots: list[int] = []
    done = 0
    for col in range(ncols):
        pick = next((i for i in range(done, len(m)) if m[i][col]), None)
        if pick is None:
            continue
        m[done], m[pick] = m[pick], m[done]
        top = m[done]
        lead = top[col]
        if p is not None:
            inv = pow(lead, -1, p)
            top = m[done] = [x * inv % p for x in top]
        for i, r in enumerate(m):
            c = r[col]
            if c and i != done:
                if p is None:
                    m[i] = _primitive([lead * x - c * y for x, y in zip(r, top)])
                else:
                    m[i] = [(x - c * y) % p for x, y in zip(r, top)]
        pivots.append(col)
        done += 1
        if done == len(m):
            break
    if p is not None:
        return [tuple(r) for r in m[:done]], pivots
    zero = field.zero
    return [tuple(Fraction(x, r[col]) if x else zero for x in r) for r, col in zip(m, pivots)], pivots


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
    one, zero = field.one, field.zero
    aug = [tuple(r[j] for r in rows) + tuple(one if i == j else zero for i in range(ncols)) for j in range(ncols)]
    return _right_half(field, aug, len(rows), ncols)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection by Zassenhaus's elimination of (u | u) and (v | 0)."""
    check_same_field(a.field, b.field)
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("intersection of subspaces of different ambient spaces")
    n = a.ambient_dim
    zeros = (a.field.zero,) * n
    return _right_half(a.field, [u + u for u in a.basis] + [v + zeros for v in b.basis], n, n)


def _right_half(field: FieldCtx, rows: list, split: int, n: int) -> Subspace:
    """Span of the right halves of the reduced rows with a pivot right of ``split``."""
    reduced, pivots = rref(field, rows)
    return Subspace(field, n, tuple(r[split:] for r, col in zip(reduced, pivots) if col >= split))


def solve(field: FieldCtx, rows: Sequence[Vector], rhs: Vector) -> Vector | None:
    """One solution x of rows^T ... -- precisely: sum_i x_i * rows[i] = rhs.

    Returns the canonical solution with free coefficients zero, or None.
    """
    if not rows:
        return () if not any(rhs) else None
    if any(len(r) != len(rhs) for r in rows):
        raise DimensionMismatch("right-hand side length mismatch")
    # Augment: transpose system A^T x = rhs with A rows as columns.
    return solve_augmented(field, [col + (b,) for col, b in zip(zip(*rows), rhs)], len(rows))


def solve_augmented(field: FieldCtx, aug: Sequence[Vector], n: int) -> Vector | None:
    """The canonical solution x of A x = b (free coefficients zero), or
    None, given the rows of the augmented matrix [A | b] with n unknowns.

    The solution reads off the reduced form of the rows, which depends on
    their span only: row order and zero rows do not change it.
    """
    for r in aug:
        if len(r) != n + 1:
            raise DimensionMismatch("augmented row length != unknowns + 1")
    reduced, pivots = rref(field, aug)
    sol = [field.zero] * n
    for row, pc in zip(reduced, pivots):
        if pc == n:  # pivot in the augmented column: inconsistent
            return None
        sol[pc] = row[n]
    return tuple(sol)

"""Exact finite-dimensional linear algebra over a field context.

Vectors are tuples of canonical scalars.  A :class:`Subspace` is always held
in reduced row-echelon form with pivot columns strictly increasing, so two
subspaces are equal as sets exactly when they are structurally equal.  The
public constructor checks that form; the subspaces computed here are
canonical by construction and skip the check.

:func:`rref` works on integer rows over Q (each row is scaled to integers
once, kept primitive by dividing out the gcd of its entries and divided by
its pivot only when the result is built) and on residues reduced ``% p``
over GF(p).  :func:`kernel` reads the canonical null-space basis off one
elimination of M with its columns reversed, and :func:`intersect` is a
kernel of kernels, A ∩ B = (A^⊥ + B^⊥)^⊥.

Sparse vectors -- a term's coefficients on its symbols, a model element's
on its coordinates -- are tuples of ``(key, scalar)`` pairs sorted by key,
every scalar canonical and nonzero, so equal vectors are equal tuples.
:func:`_sparse` normalises a mapping, :func:`_sparse_axpy` computes
``a + s*b`` in one merge of the sorted tuples (Knuth, TAOCP vol. 1,
2.2.4), multiplying only by an s other than 1 and -1, and
:func:`_sparse_scale` multiplies by a nonzero scalar.  :func:`_sparse_text`
writes Σ c·atom, the one text of terms, model elements and qe's term
table.  They are private because the benchmark's tracer wraps every
public function and would time term arithmetic as ``linalg``'s.
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
    pass over both; entries that cancel are dropped.  Only an s other
    than 1 and -1 multiplies: for s = -1 an entry of b alone is negated
    and one that meets an entry of a is subtracted from it."""
    if not b:
        return a
    add, mul, is_zero = field.add, field.mul, field.is_zero
    scaled = s != 1
    # -1 is p - 1 over GF(p); over Q an int compares with a Fraction cheaply
    minus = scaled and (s == -1 if field.p is None else s == field.p - 1)
    if minus:
        scaled, sub, neg = False, field.sub, field.neg
    out = []
    i, n = 0, len(a)
    for k, c in b:
        while i < n and a[i][0] < k:
            out.append(a[i])
            i += 1
        if i < n and a[i][0] == k:
            c = sub(a[i][1], c) if minus else add(a[i][1], mul(s, c) if scaled else c)
            i += 1
            if is_zero(c):
                continue
        elif minus:
            c = neg(c)
        elif scaled:
            c = mul(s, c)
        out.append((k, c))
    out.extend(a[i:])
    return tuple(out)


def _sparse_scale(field: FieldCtx, c: Scalar, a: tuple) -> tuple:
    """c*a for a sparse vector and a nonzero canonical scalar c, which
    keeps the order and every entry nonzero."""
    mul = field.mul
    return tuple((k, mul(c, x)) for k, x in a)


def _sparse_text(pairs) -> str:
    """The text of the sum of c*atom over ``(atom, c)`` pairs, in their
    order: the atom alone when c is 1, else ``c*atom``, joined by
    `` + ``; ``0`` for the empty sum."""
    return " + ".join([atom if c == 1 else f"{c}*{atom}" for atom, c in pairs]) or "0"


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
    p = field.p
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
    """Subspace of K^n presented by its canonical reduced-echelon basis.

    ``Subspace(field, n, basis)`` checks that the basis is canonical.
    :meth:`_canonical` builds one without the check, for bases that are
    already canonical; equality is structural either way.
    """

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

    @classmethod
    def _canonical(cls, field: FieldCtx, n: int, basis: tuple) -> "Subspace":
        """The subspace of K^n with a basis known to be canonical, which is
        not checked."""
        space = object.__new__(cls)
        space.__dict__.update(field=field, ambient_dim=n, basis=basis)
        return space

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

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
    return Subspace._canonical(field, ambient_dim, tuple(rows))


def zero_space(field: FieldCtx, n: int) -> Subspace:
    return Subspace._canonical(field, n, ())


def full_space(field: FieldCtx, n: int) -> Subspace:
    rows = tuple(tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n))
    return Subspace._canonical(field, n, rows)


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
    """Null space {x : M x = 0} of the matrix with the given rows, read off
    R, M reduced with its columns reversed (Cohen, GTM 138, Alg. 2.3.1):
    free column f of R gives 1 at f and -R[i][f] at each pivot p_i < f,
    which in the original order leads with that 1 at n-1-f and is 0 at each
    other solution's lead, a free column, so the basis is canonical."""
    if any(len(r) != ncols for r in rows):
        raise DimensionMismatch("matrix row length != declared column count")
    reduced, pivots = rref(field, [r[::-1] for r in rows])
    p, last, basis = field.p, ncols - 1, []
    for f in (f for f in range(last, -1, -1) if f not in pivots):
        x = [field.zero] * ncols
        x[last - f] = field.one
        for row, col in zip(reduced, pivots):
            if row[f]:  # zero when col > f: the row is zero left of its pivot
                x[last - col] = -row[f] if p is None else p - row[f]
        basis.append(tuple(x))
    return Subspace._canonical(field, ncols, tuple(basis))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection A ∩ B = (A^⊥ + B^⊥)^⊥, with S^⊥ the kernel of S's
    basis; (S^⊥)^⊥ = S over GF(p) too, as the dot product is nondegenerate."""
    check_same_field(a.field, b.field)
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("intersection of subspaces of different ambient spaces")
    field, n = a.field, a.ambient_dim
    return kernel(field, kernel(field, a.basis, n).basis + kernel(field, b.basis, n).basis, n)


def solve_augmented(field: FieldCtx, aug: Sequence[Vector], n: int) -> Vector | None:
    """The canonical solution x of A x = b (free coefficients zero), or
    None, given the rows of the augmented matrix [A | b] with n unknowns.

    The solution reads off the reduced form of the rows, which depends on
    their span only: row order and zero rows do not change it."""
    if any(len(r) != n + 1 for r in aug):
        raise DimensionMismatch("augmented row length != unknowns + 1")
    reduced, pivots = rref(field, aug)
    sol = [field.zero] * n
    for row, pc in zip(reduced, pivots):
        if pc == n:  # pivot in the augmented column: inconsistent
            return None
        sol[pc] = row[n]
    return tuple(sol)

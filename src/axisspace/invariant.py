"""Quantifier-free type invariants of tuples.

For a tuple a = (a_0, ..., a_{k-1}) the invariant consists of

* the arity k,
* the membership subspace v_f = {c in K^k : sum_i c_i a_i has no free part},
* one kernel per axis met by the image of v_f: the subspace of v_f killed by
  projecting onto that axis, collected as a canonically sorted multiset.

Over an infinite field two tuples have the same quantifier-free type exactly
when their invariants coincide: the multiset determines every weight
w(f_a(c)) on v_f, and conversely the weights of subspace images recover each
kernel multiplicity through inclusion-exclusion, which
:func:`g_via_inclusion_exclusion` makes executable.

This module owns the three computations the rest of the library builds on:
v_f together with the free-part reduction of an element against generators
(:func:`free_reduction`), and the per-axis projection kernels
(:func:`axis_kernels`).  ``iso`` and ``typespace`` call them rather than
recomputing either.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ArityMismatch, DimensionMismatch, NotInF
from .fields import FieldCtx, Scalar
from .linalg import (
    Subspace,
    full_space,
    intersect,
    kernel,
    member,
    solve,
    subspace_from_generators,
    subspace_sum,
)
from .model import ModelElement, SubspaceHandle, combine


@dataclass(frozen=True)
class LinearMapFa:
    """The linear map K^k -> M sending a coefficient vector to a combination
    of the tuple."""

    tuple_: tuple  # tuple of ModelElement

    @property
    def arity(self) -> int:
        return len(self.tuple_)

    @property
    def field(self) -> FieldCtx:
        if not self.tuple_:
            raise ArityMismatch("the empty map LinearMapFa(()) has no field to take its value in")
        return self.tuple_[0].field

    def __call__(self, coeffs: Sequence[Scalar]) -> ModelElement:
        return apply_fa(self, coeffs)


def apply_fa(m: LinearMapFa, coeffs: Sequence[Scalar]) -> ModelElement:
    if len(coeffs) != m.arity:
        raise ArityMismatch(f"coefficient vector of length {len(coeffs)} for arity {m.arity}")
    return combine(m.field, coeffs, m.tuple_)


@dataclass(frozen=True)
class QfInvariant:
    """Complete quantifier-free-type invariant of a tuple."""

    arity: int
    v_f: Subspace
    kernels: tuple  # tuple of Subspace, canonically sorted

    def __post_init__(self):
        for k in self.kernels:
            if k.ambient_dim != self.arity:
                raise DimensionMismatch("kernel ambient dimension != arity")

    def to_text(self) -> str:
        """Canonical one-line serialization for golden-file comparisons."""

        def rows(space: Subspace) -> str:
            return "{" + ",".join("(" + ",".join(str(x) for x in row) + ")" for row in space.basis) + "}"

        ker = "[" + ";".join(rows(k) for k in self.kernels) + "]"
        return f"arity={self.arity} v_f={rows(self.v_f)} kernels={ker}"


def free_reduction(a: ModelElement, gens: Sequence[ModelElement]):
    """Reduce ``a`` against ``gens`` to the axis span.

    Returns (coeffs, v_f).  ``coeffs`` is the canonical solution (zero off
    the pivot generators) of free(a) = sum_i coeffs_i free(gens_i), so that
    ``a - combine(field, coeffs, gens)`` lies in the axis span; it is None
    when the free part of ``a`` leaves the span of the free parts of
    ``gens``.  ``v_f`` is the membership subspace of ``gens``: the
    coefficient vectors whose combination has no free part.
    """
    gens = tuple(gens)
    field = a.field
    coords = sorted({c for el in gens + (a,) for c, _ in el.free_part})

    def free_vector(el: ModelElement):
        free = el.free_dict()
        return tuple(free.get(c, field.zero) for c in coords)

    vectors = [free_vector(g) for g in gens]
    rows = [tuple(v[i] for v in vectors) for i in range(len(coords))]
    return solve(field, vectors, free_vector(a)), kernel(field, rows, len(gens))


def axis_kernels(tuple_: Sequence[ModelElement]) -> dict:
    """axis -> kernel of the tuple map followed by the projection onto that
    axis, for every axis the tuple meets, in axis order."""
    tuple_ = tuple(tuple_)
    if not tuple_:
        return {}
    field = tuple_[0].field
    out = {}
    for axis in sorted({axis for el in tuple_ for axis in el.axes()}):
        parts = [el.coords_on_axis(axis) for el in tuple_]
        coords = sorted({c for part in parts for c in part})
        rows = [tuple(part.get(c, field.zero) for part in parts) for c in coords]
        out[axis] = kernel(field, rows, len(tuple_))
    return out


def qf_invariant_mixed(tuple_: Sequence[ModelElement]) -> QfInvariant:
    """Invariant of an arbitrary tuple; elements may carry free parts.

    Each axis kernel is intersected with v_f and kept only when the axis
    actually meets the image of v_f.  The empty tuple gets the arity-0
    invariant over the rationals.
    """
    tuple_ = tuple(tuple_)
    field = tuple_[0].field if tuple_ else FieldCtx.rationals()
    _, v_f = free_reduction(ModelElement.zero(field), tuple_)
    kernels = [intersect(ker, v_f) for ker in axis_kernels(tuple_).values()]
    kernels = [ker for ker in kernels if ker != v_f]  # axes meeting the image of v_f
    return QfInvariant(len(tuple_), v_f, tuple(sorted(kernels, key=lambda s: s.key())))


def qf_invariant(tuple_: Sequence[ModelElement]) -> QfInvariant:
    """Invariant of a tuple inside the span of the axes.

    Tuples with free parts are the business of the quantifier-elimination
    layer, which splits them first; here they are rejected.
    """
    for el in tuple_:
        if not el.in_F():
            raise NotInF(f"tuple entry has a free part: {el}")
    return qf_invariant_mixed(tuple_)


def g_of(inv: QfInvariant, V: Subspace) -> int:
    """Multiplicity of V in the kernel multiset."""
    if V.ambient_dim != inv.arity:
        raise DimensionMismatch(f"subspace of K^{V.ambient_dim} against arity {inv.arity}")
    return sum(1 for k in inv.kernels if k == V)


def qf_equiv(a: Sequence[ModelElement], b: Sequence[ModelElement]) -> bool:
    """Equality of quantifier-free types, decided on the invariants."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ArityMismatch(f"tuples of lengths {len(a)} and {len(b)}")
    return qf_invariant_mixed(a) == qf_invariant_mixed(b)


# ---------------------------------------------------------------------------
# multiplicity from weight data alone
# ---------------------------------------------------------------------------


def g_via_inclusion_exclusion(
    weights: Callable[[Subspace], int],
    V: Subspace,
    r: int,
    candidates: Sequence[Subspace],
) -> bool:
    """Decide g(V) >= r from subspace weights alone.

    ``weights(U)`` must return the weight of the image of U under the tuple
    map.  ``candidates`` is a finite family of subspaces guaranteed to
    include every kernel realizable by an axis projection; for any tuple the
    kernels of the per-axis blocks of its coordinate matrix are such a
    family.  The decision itself never inspects a kernel: one test vector is
    drawn outside V from each candidate, and the size of the intersection of
    the corresponding axis sets is reconstructed from weights of enlarged
    subspaces by inclusion-exclusion.
    """
    if r <= 0:
        return True
    field = V.field
    n = V.ambient_dim
    total = weights(full_space(field, n))
    w_v = weights(V)
    if r > total - w_v:
        return False  # multiplicity is bounded by the total number of axes
    tests = []
    seen = set()
    for W in candidates:
        if W.ambient_dim != n:
            raise DimensionMismatch("candidate ambient dimension mismatch")
        u = _vector_outside(W, V)
        if u is not None and u not in seen:
            seen.add(u)
            tests.append(u)
    # |A_1 cap ... cap A_m| by inclusion-exclusion over union weights, where
    # A_u = axes(f(u)) minus axes(f(V)); the empty intersection is the set of
    # all axes vanishing on V.
    count = total - w_v
    if tests:
        count = 0
        for size in range(1, len(tests) + 1):
            sign = 1 if size % 2 == 1 else -1
            for subset in itertools.combinations(tests, size):
                enlarged = subspace_sum(V, subspace_from_generators(field, list(subset), n))
                count += sign * (weights(enlarged) - w_v)
    return count >= r


def _vector_outside(W: Subspace, V: Subspace):
    """Some basis vector of W outside V, or None when W is contained in V."""
    for row in W.basis:
        if not member(row, V):
            return row
    return None


def kernel_candidates(tuple_: Sequence[ModelElement]) -> list:
    """The distinct per-axis projection kernels of the tuple, in axis order:
    the only subspaces realizable as an axis-projection kernel."""
    out = {}
    for ker in axis_kernels(tuple_).values():
        out.setdefault(ker.key(), ker)
    return list(out.values())


def weights_oracle_via_witness(tuple_: Sequence[ModelElement]) -> Callable[[Subspace], int]:
    """Weight oracle U -> w(f(U)) that never reads an axis kernel.

    The image subspace is generated by pushing a basis of U through the
    tuple; its weight is certified by a single generic element produced with
    :func:`axisspace.model.witness_star`, so the data used is exactly what a
    quantifier-free type provides over an infinite field.
    """
    from .model import weight, witness_star

    fa = LinearMapFa(tuple(tuple_))

    def weights(U: Subspace) -> int:
        gens = [apply_fa(fa, row) for row in U.basis]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            return 0
        return weight(witness_star(SubspaceHandle(tuple(gens))))

    return weights

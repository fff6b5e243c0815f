"""Quantifier-free type invariants of tuples.

For a tuple a = (a_0, ..., a_{k-1}) the invariant consists of

* the arity k,
* the membership subspace v_f = {c in K^k : sum_i c_i a_i has no free part},
* one kernel per axis met by the image of v_f: the subspace of v_f killed by
  projecting onto that axis, collected as a canonically sorted multiset.

Over an infinite field two tuples have the same quantifier-free type exactly
when their invariants coincide: the multiset determines every weight
w(f_a(c)) on v_f, and conversely the weights of subspace images recover each
multiplicity g(V) by a Möbius inversion over the candidate kernels strictly
above V (:func:`multiplicity_via_inclusion_exclusion`): an axis vanishing on
V and not counted in g(V) has one of them as its kernel.

This module owns the three computations the rest of the library builds on:
v_f together with the free-part reduction of an element against generators
(:func:`free_reduction`), and the per-axis projection kernels
(:func:`axis_kernels`).  ``iso`` and ``typespace`` call them rather than
recomputing either.  All three read the coordinate matrix of the tuple map
from :func:`axisspace.model.coordinate_rows`, the one builder of that
matrix, once per tuple.
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
    kernel,
    rref,
    solve_augmented,
    subspace_from_generators,
)
from .model import ModelElement, SubspaceHandle, combine, coordinate_rows, tuple_field


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
    field, n = a.field, len(gens)
    _, free_rows = coordinate_rows((*gens, a), field)  # [free(gens) | free(a)]
    free_rows = list(free_rows.values())
    return solve_augmented(field, free_rows, n), kernel(field, [row[:n] for row in free_rows], n)


def axis_kernels(tuple_: Sequence[ModelElement], field: FieldCtx | None = None) -> dict:
    """axis -> kernel of the tuple map followed by the projection onto that
    axis, for every axis the tuple meets, in axis order.  ``field`` is as in
    :func:`~axisspace.model.tuple_field`."""
    tuple_ = tuple(tuple_)
    field = tuple_field(tuple_, field)
    axis_rows, _ = coordinate_rows(tuple_, field)
    return {axis: kernel(field, list(rows.values()), len(tuple_)) for axis, rows in axis_rows.items()}


def qf_invariant_mixed(tuple_: Sequence[ModelElement], field: FieldCtx | None = None) -> QfInvariant:
    """Invariant of an arbitrary tuple; elements may carry free parts.

    v_f is the kernel of the rows of the tuple map on the free coordinates.
    The kernel of an axis inside v_f, ker(pi_axis o f) cap v_f, is the
    kernel of that axis's rows stacked on the free rows, so each costs one
    elimination over the k columns of the arity; it is kept only when the
    axis meets the image of v_f, that is when it is smaller than v_f.
    ``field`` is the field of the entries (see
    :func:`~axisspace.model.tuple_field`); each entry is checked against it
    once, where the coordinate matrix is built.
    """
    tuple_ = tuple(tuple_)
    field = tuple_field(tuple_, field)
    n = len(tuple_)
    axis_rows, free_rows = coordinate_rows(tuple_, field)
    free_rows = list(free_rows.values())
    v_f = kernel(field, free_rows, n)
    kernels = [kernel(field, list(rows.values()) + free_rows, n) for rows in axis_rows.values()]
    kernels = [ker for ker in kernels if ker != v_f]  # axes meeting the image of v_f
    return QfInvariant(n, v_f, tuple(sorted(kernels, key=lambda s: s.key())))


def qf_invariant(tuple_: Sequence[ModelElement], field: FieldCtx | None = None) -> QfInvariant:
    """Invariant of a tuple inside the span of the axes.

    Tuples with free parts are the business of the quantifier-elimination
    layer, which splits them first; here they are rejected.
    """
    for el in tuple_:
        if not el.in_F():
            raise NotInF(f"tuple entry has a free part: {el}")
    return qf_invariant_mixed(tuple_, field)


def g_of(inv: QfInvariant, V: Subspace) -> int:
    """Multiplicity of V in the kernel multiset."""
    if V.ambient_dim != inv.arity:
        raise DimensionMismatch(f"subspace of K^{V.ambient_dim} against arity {inv.arity}")
    return sum(1 for k in inv.kernels if k == V)


def qf_equiv(a: Sequence[ModelElement], b: Sequence[ModelElement], field: FieldCtx | None = None) -> bool:
    """Equality of quantifier-free types, decided on the invariants."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ArityMismatch(f"tuples of lengths {len(a)} and {len(b)}")
    field = tuple_field(a + b, field)
    return qf_invariant_mixed(a, field) == qf_invariant_mixed(b, field)


# ---------------------------------------------------------------------------
# multiplicity from weight data alone
# ---------------------------------------------------------------------------


def multiplicity_via_inclusion_exclusion(
    weights: Callable[[Subspace], int],
    V: Subspace,
    candidates: Sequence[Subspace],
) -> int:
    """The multiplicity g(V) of V in the kernel multiset, from subspace
    weights alone.

    ``weights(U)`` must return the weight of the image of U under the tuple
    map.  ``candidates`` is a finite family of subspaces guaranteed to
    include every kernel realizable by an axis projection; for any tuple the
    kernels of the per-axis blocks of its coordinate matrix are such a
    family.  The count never inspects a kernel.  Each candidate W strictly
    above V gives one test vector, the first row of W's canonical basis
    whose pivot V lacks; the axes vanishing on V and on no test vector are
    counted by inclusion-exclusion over the weights of V + span(S) for the
    nonempty subsets S of the k test vectors, at most 2^k - 1 of them.  An
    axis vanishing on V has a kernel K containing V; when K != V, K's test
    vector excludes that axis, so candidates not above V are skipped.
    """
    total = weights(full_space(V.field, V.ambient_dim))
    w_v = weights(V)
    return _multiplicity(weights, V, candidates, total, w_v)


def g_via_inclusion_exclusion(
    weights: Callable[[Subspace], int],
    V: Subspace,
    r: int,
    candidates: Sequence[Subspace],
) -> bool:
    """Decide g(V) >= r from subspace weights alone, with the arguments of
    :func:`multiplicity_via_inclusion_exclusion`.  The count is skipped
    when r exceeds the number of axes vanishing on V, which bounds it."""
    if r <= 0:
        return True
    total = weights(full_space(V.field, V.ambient_dim))
    w_v = weights(V)
    # the multiplicity is bounded by the number of axes vanishing on V
    return r <= total - w_v and _multiplicity(weights, V, candidates, total, w_v) >= r


def _multiplicity(weights, V: Subspace, candidates, total: int, w_v: int) -> int:
    """The inclusion-exclusion count, given the number ``total`` of axes
    the tuple meets and w_v = w(f(V))."""
    field, n = V.field, V.ambient_dim
    v_pivots = set(_pivots(V))
    tests = {}  # one test vector per candidate strictly above V, each once
    for W in candidates:
        if W.ambient_dim != n:
            raise DimensionMismatch("candidate ambient dimension mismatch")
        w_pivots = _pivots(W)
        # V < W needs more pivots in W, V's among them, and W's rows to span
        # V's; then W's first row leading off V's pivots lies outside V
        if v_pivots < set(w_pivots) and rref(field, W.basis + V.basis)[0] == list(W.basis):
            tests[next(row for row, p in zip(W.basis, w_pivots) if p not in v_pivots)] = None
    # total - w(f(U)) axes vanish on U; the axes vanishing on V and on no
    # test vector, by inclusion-exclusion over U = V + span(S), S = {} first
    count = total - w_v
    for size in range(1, len(tests) + 1):
        for subset in itertools.combinations(tests, size):
            enlarged = subspace_from_generators(field, V.basis + subset, n)
            count += (-1) ** size * (total - weights(enlarged))
    return count


def _pivots(space: Subspace) -> list:
    """The pivot column of each row of the canonical basis, in order."""
    return [next(i for i, x in enumerate(row) if x) for row in space.basis]


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
    quantifier-free type provides over an infinite field.  Each distinct
    U is answered once; the answers live as long as the oracle.
    """
    from .model import weight, witness_star

    fa = LinearMapFa(tuple(tuple_))
    memo: dict = {}

    def weights(U: Subspace) -> int:
        w = memo.get(U)
        if w is None:
            gens = [g for g in (apply_fa(fa, row) for row in U.basis) if not g.is_zero()]
            w = memo[U] = weight(witness_star(SubspaceHandle(tuple(gens)))) if gens else 0
        return w

    return weights

"""Field contexts, canonical subspaces, and the exact rank identities."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from randgen import within

from axisspace.errors import DimensionMismatch, NotPrime
from axisspace.fields import FieldCtx
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
    vec,
    zero_space,
)

Q = FieldCtx.rationals()
GF2 = FieldCtx.prime_field(2)
GF5 = FieldCtx.prime_field(5)


# ---------------------------------------------------------------------------
# field contexts
# ---------------------------------------------------------------------------


def test_prime_field_rejects_composite():
    with pytest.raises(NotPrime):
        FieldCtx.prime_field(6)
    with pytest.raises(NotPrime):
        FieldCtx.prime_field(1)
    for not_an_int in (5.0, "5", True):
        with pytest.raises(NotPrime):
            FieldCtx.prime_field(not_an_int)


def test_prime_field_accepts_exactly_the_primes():
    """prime_field(n) succeeds exactly for the primes, checked against a
    naive reference: n > 1 with no divisor in 2 .. n - 1."""
    for n in range(-3, 2000):
        is_prime = n > 1 and all(n % d for d in range(2, n))
        try:
            FieldCtx.prime_field(n)
        except NotPrime:
            assert not is_prime, n
        else:
            assert is_prime, n


@pytest.mark.parametrize("p", [10**18 + 3, 2**64 + 13])
def test_prime_field_certifies_a_large_prime_at_once(p):
    assert within(1, FieldCtx.prime_field, p).p == p


def test_prime_field_refuses_strong_pseudoprimes():
    """Composites that are strong probable primes to many prime bases:
    318665857834031151167461 to every base up to 37.  psi_13, the least
    one to every base up to 41, and every larger modulus are refused as
    too large to certify."""
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(NotPrime, match="not prime"):
            within(1, FieldCtx.prime_field, n)
    with pytest.raises(NotPrime, match="too large"):
        within(1, FieldCtx.prime_field, 3317044064679887385961981)


def test_rational_scalars_are_reduced():
    a = Q.of("2/4")
    assert a == Q.of("1/2")
    assert str(a) == "1/2"


def test_prime_field_arithmetic_wraps():
    assert GF5.add(3, 4) == 2
    assert GF5.mul(2, 3) == 1
    assert GF5.inv(2) == 3
    assert GF5.of(-1) == 4
    assert GF5.of(Fraction(1, 2)) == 3
    with pytest.raises(ZeroDivisionError):
        GF5.of(Fraction(1, 10))
    for field in (Q, GF5):
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero)


def test_field_enumeration():
    assert list(GF5.nonzero_elements()) == [1, 2, 3, 4]
    assert Q.is_infinite and not GF5.is_infinite


# ---------------------------------------------------------------------------
# subspace_from_generators
# ---------------------------------------------------------------------------


def test_empty_span_is_zero_subspace():
    V = subspace_from_generators(Q, [], ambient_dim=2)
    assert V.basis == () and V.dim == 0


def test_standard_basis_spans_full_plane():
    V = subspace_from_generators(Q, [vec(Q, (1, 0)), vec(Q, (0, 1))])
    assert V == full_space(Q, 2)


def test_scalar_multiples_collapse_to_line():
    V = subspace_from_generators(Q, [vec(Q, (1, 1)), vec(Q, (2, 2))])
    assert V.dim == 1
    assert V.basis == (vec(Q, (1, 1)),)


def test_generation_is_idempotent():
    V = subspace_from_generators(Q, [vec(Q, (2, 4, 6)), vec(Q, (1, 0, 1)), vec(Q, (3, 4, 7))])
    again = subspace_from_generators(Q, list(V.basis), V.ambient_dim)
    assert V == again


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        subspace_from_generators(Q, [vec(Q, (1, 0)), vec(Q, (1, 0, 0))])


# ---------------------------------------------------------------------------
# member
# ---------------------------------------------------------------------------


def test_zero_vector_in_any_subspace():
    V = subspace_from_generators(Q, [vec(Q, (1, 2, 3))])
    assert member(vec(Q, (0, 0, 0)), V)


def test_member_basic():
    assert not member(vec(Q, (1, 0)), subspace_from_generators(Q, [vec(Q, (0, 1))]))
    assert member(vec(Q, (3, 3)), subspace_from_generators(Q, [vec(Q, (1, 1))]))


# ---------------------------------------------------------------------------
# sum / intersect / dim
# ---------------------------------------------------------------------------


def test_sum_with_zero_is_identity():
    V = subspace_from_generators(Q, [vec(Q, (1, 2)), vec(Q, (0, 1))])
    assert subspace_sum(V, zero_space(Q, 2)) == V


def test_intersection_of_transverse_lines_is_zero():
    V = subspace_from_generators(Q, [vec(Q, (1, 0))])
    W = subspace_from_generators(Q, [vec(Q, (0, 1))])
    assert intersect(V, W) == zero_space(Q, 2)


def test_sum_of_two_lines_has_dim_two():
    V = subspace_from_generators(Q, [vec(Q, (1, 0))])
    W = subspace_from_generators(Q, [vec(Q, (1, 1))])
    assert subspace_sum(V, W).dim == 2


def _random_subspace(rng, field, n, max_gens=3):
    gens = []
    for _ in range(rng.randrange(max_gens + 1)):
        gens.append(vec(field, [rng.randint(-3, 3) for _ in range(n)]))
    return subspace_from_generators(field, gens, n)


@pytest.mark.parametrize("field", [Q, GF5])
def test_rank_nullity_of_sum_and_intersection(field):
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(1, 5)
        V = _random_subspace(rng, field, n)
        W = _random_subspace(rng, field, n)
        S, I = subspace_sum(V, W), intersect(V, W)
        assert S.dim + I.dim == V.dim + W.dim
        for b in I.basis:
            assert member(b, V) and member(b, W)
        for b in V.basis:
            assert member(b, S)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_of_zero_matrix_is_full():
    assert kernel(Q, [vec(Q, (0, 0))], 2) == full_space(Q, 2)


def test_kernel_of_identity_is_zero():
    rows = [vec(Q, (1, 0)), vec(Q, (0, 1))]
    assert kernel(Q, rows, 2) == zero_space(Q, 2)


def test_kernel_mod2_sum_constraint():
    V = kernel(GF2, [vec(GF2, (1, 1))], 2)
    assert V.basis == (vec(GF2, (1, 1)),)


@pytest.mark.parametrize("field,pmax", [(GF2, 2), (GF5, 5)])
def test_member_agrees_with_exhaustive_enumeration(field, pmax):
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(1, 4)
        V = _random_subspace(rng, field, n, max_gens=3)
        # enumerate the subspace from its basis and compare with member()
        span = set()
        for coeffs in itertools.product(range(pmax), repeat=V.dim):
            v = [field.zero] * n
            for c, row in zip(coeffs, V.basis):
                v = [field.add(x, field.mul(c, y)) for x, y in zip(v, row)]
            span.add(tuple(v))
        for candidate in itertools.product(range(pmax), repeat=n):
            cv = vec(field, candidate)
            assert member(cv, V) == (cv in span)


# ---------------------------------------------------------------------------
# solve_augmented
# ---------------------------------------------------------------------------


def _augmented(rows, rhs):
    """[A | b] for the system sum_i x_i * rows[i] = rhs."""
    return [col + (b,) for col, b in zip(zip(*rows), rhs)]


def test_solve_finds_combination():
    rows = [vec(Q, (1, 0, 1)), vec(Q, (0, 1, 1))]
    sol = solve_augmented(Q, _augmented(rows, vec(Q, (2, 3, 5))), 2)
    assert sol == (Q.of(2), Q.of(3))
    assert solve_augmented(Q, _augmented(rows, vec(Q, (0, 0, 1))), 2) is None


# ---------------------------------------------------------------------------
# differential: rref, kernel, intersect and solve_augmented against naive
# Gauss-Jordan
# ---------------------------------------------------------------------------


def _reference_rref(field, rows):
    """Textbook Gauss-Jordan on field scalars: the pivot row is scaled to
    a leading one and cleared from every other row."""
    m = [[field.of(x) for x in r] for r in rows]
    pivots, done = [], 0
    for col in range(len(m[0]) if m else 0):
        pick = next((r for r in range(done, len(m)) if not field.is_zero(m[r][col])), None)
        if pick is None:
            continue
        m[done], m[pick] = m[pick], m[done]
        inv = field.inv(m[done][col])
        m[done] = [field.mul(inv, x) for x in m[done]]
        for r in range(len(m)):
            f = m[r][col]
            if r != done and not field.is_zero(f):
                m[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[r], m[done])]
        pivots.append(col)
        done += 1
    return [tuple(r) for r in m[:done]], pivots


def _reference_kernel(field, rows, ncols):
    """Null space from the free columns of the reduced matrix, re-spanned."""
    reduced, pivots = _reference_rref(field, rows)
    gens = []
    for free in (c for c in range(ncols) if c not in pivots):
        sol = [field.zero] * ncols
        sol[free] = field.one
        for row, pc in zip(reduced, pivots):
            sol[pc] = field.neg(row[free])
        gens.append(sol)
    return tuple(_reference_rref(field, gens)[0])


def _reference_intersect(field, a, b):
    """The a-part of the kernel of the coefficient system [a^T | -b^T]."""
    n = a.ambient_dim
    rows = [[u[k] for u in a.basis] + [field.neg(v[k]) for v in b.basis] for k in range(n)]
    gens = []
    for combo in _reference_kernel(field, rows, a.dim + b.dim):
        x = [field.zero] * n
        for c, u in zip(combo, a.basis):
            x = [field.add(s, field.mul(c, y)) for s, y in zip(x, u)]
        gens.append(x)
    return tuple(_reference_rref(field, gens)[0])


def _reference_solve(field, rows, rhs):
    n = len(rows)
    reduced, pivots = _reference_rref(field, [[r[k] for r in rows] + [rhs[k]] for k in range(len(rhs))])
    if n in pivots:
        return None
    sol = [field.zero] * n
    for row, pc in zip(reduced, pivots):
        sol[pc] = row[n]
    return tuple(sol)


def _random_matrix(rng, field, nrows, ncols):
    """Rows of random entries, zero rows, repeated rows and combinations of
    earlier rows; over Q the entries mix denominators and ints."""

    def entry():
        if not field.is_infinite:
            return rng.randrange(field.p)
        if rng.random() < 0.3:
            return rng.randint(-5, 5)  # a plain int
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.1:
            rows.append((0,) * ncols if field.is_infinite else (field.zero,) * ncols)
        elif roll < 0.2 and rows:
            rows.append(rng.choice(rows))
        elif roll < 0.4 and len(rows) >= 2:
            u, v = rng.sample(rows, 2)
            c, d = field.of(entry() or 1), field.of(entry())
            rows.append(tuple(field.add(field.mul(c, field.of(x)), field.mul(d, field.of(y))) for x, y in zip(u, v)))
        else:
            rows.append(tuple(entry() for _ in range(ncols)))
    return rows


def _assert_canonical_scalars(field, vectors):
    for v in vectors:
        for x in v:
            if field.is_infinite:
                assert type(x) is Fraction
            else:
                assert type(x) is int and 0 <= x < field.p


SHAPES = [(0, 3), (1, 1), (2, 2), (3, 3), (4, 4), (2, 6), (3, 7), (6, 2), (7, 3), (5, 5), (1, 5), (5, 1), (3, 0)]


@pytest.mark.parametrize("field", [Q, GF2, FieldCtx.prime_field(3), GF5, FieldCtx.prime_field(7)], ids=str)
def test_linear_algebra_matches_naive_gauss_jordan(field):
    rng = random.Random(f"linalg:{field}")
    cases = 40 if field.is_infinite else 12
    for nrows, ncols in SHAPES:
        for _ in range(cases):
            rows = _random_matrix(rng, field, nrows, ncols)
            reduced, pivots = rref(field, rows)
            assert (reduced, pivots) == _reference_rref(field, rows)
            _assert_canonical_scalars(field, reduced)
            canon = [vec(field, r) for r in rows]
            ker = kernel(field, canon, ncols)
            assert ker.basis == _reference_kernel(field, canon, ncols)
            _assert_canonical_scalars(field, ker.basis)
            if nrows and ncols:
                rhs = vec(field, rng.choice([rng.choice(rows), _random_matrix(rng, field, 1, ncols)[0]]))
                assert solve_augmented(field, _augmented(canon, rhs), nrows) == _reference_solve(field, canon, rhs)
            a = subspace_from_generators(field, canon, ncols)
            b = subspace_from_generators(field, [vec(field, r) for r in _random_matrix(rng, field, nrows, ncols)], ncols)
            both = intersect(a, b)
            assert both.basis == _reference_intersect(field, a, b)
            _assert_canonical_scalars(field, both.basis)
            assert intersect(b, a) == both
            assert subspace_sum(a, b).dim + both.dim == a.dim + b.dim


def _checked(space):
    """The space, after its basis has passed the public constructor's check."""
    assert Subspace(space.field, space.ambient_dim, space.basis) == space
    return space


@pytest.mark.parametrize("field", [Q, GF2, FieldCtx.prime_field(3), GF5, FieldCtx.prime_field(7)], ids=str)
def test_kernel_and_intersect_build_canonical_bases(field):
    """kernel and intersect build their results without the constructor's
    check; each result passes it, from the edge shapes (no rows: the full
    space; no columns) to random matrices and their annihilators."""
    for n in range(6):
        assert _checked(kernel(field, [], n)) == full_space(field, n)
    assert _checked(kernel(field, [(), ()], 0)) == zero_space(field, 0)
    assert _checked(intersect(zero_space(field, 0), full_space(field, 0))) == zero_space(field, 0)
    rng = random.Random(f"canonical:{field}")
    for nrows, ncols in SHAPES:
        for _ in range(10):
            canon = [vec(field, r) for r in _random_matrix(rng, field, nrows, ncols)]
            ker = _checked(kernel(field, canon, ncols))
            a = subspace_from_generators(field, canon, ncols)
            b = subspace_from_generators(field, [vec(field, r) for r in _random_matrix(rng, field, nrows, ncols)], ncols)
            _checked(intersect(a, b))
            assert _checked(intersect(a, ker)).basis == _reference_intersect(field, a, ker)


@pytest.mark.parametrize(
    "field,gens",
    [
        (GF2, [(1, 1)]),
        (GF5, [(1, 2)]),
        (FieldCtx.prime_field(3), [(1, 1, 1, 0)]),
        (GF2, [(1, 1, 0, 0), (0, 0, 1, 1)]),
        (FieldCtx.prime_field(7), [(1, 2, 3)]),
    ],
    ids=str,
)
def test_intersect_of_isotropic_subspaces(field, gens):
    """Over GF(p) a subspace can lie in its own annihilator (u . u = 0 for
    each u in it); intersect, a kernel of annihilators, still returns the
    subspace itself for A ∩ A and for A ∩ A^⊥."""
    n = len(gens[0])
    a = subspace_from_generators(field, [vec(field, g) for g in gens], n)
    ann = _checked(kernel(field, a.basis, n))
    assert all(member(u, ann) for u in a.basis)
    assert _checked(intersect(a, a)) == a
    assert _checked(intersect(a, ann)).basis == _reference_intersect(field, a, ann) == a.basis
    assert intersect(ann, a) == a


def test_rref_keeps_integer_rows_small():
    """A dense 24 x 24 rational matrix reduces at once; without the row gcd
    the integer rows double in length at every pivot."""
    rng = random.Random(24)
    rows = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(24)) for _ in range(24)]
    reduced, pivots = within(10, rref, Q, rows)
    assert (reduced, pivots) == _reference_rref(Q, rows)


# ---------------------------------------------------------------------------
# canonicity as a property
# ---------------------------------------------------------------------------


small_rational = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.lists(small_rational, min_size=3, max_size=3), min_size=0, max_size=4),
    st.lists(st.lists(small_rational, min_size=3, max_size=3), min_size=0, max_size=4),
)
def test_canonicity_presentation_independence(gens_a, gens_b):
    """Equal spans compare equal no matter how they are presented."""
    va = [vec(Q, g) for g in gens_a]
    vb = [vec(Q, g) for g in gens_b]
    A = subspace_from_generators(Q, va, 3)
    B = subspace_from_generators(Q, vb, 3)
    same_span = all(member(g, B) for g in va) and all(member(g, A) for g in vb)
    assert (A == B) == same_span

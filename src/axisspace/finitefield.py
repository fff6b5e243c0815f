"""Finite-field counterexample: quantifier-free equivalent pairs whose spans
have different weights.

Over GF(p) pick parallel independent pairs m_i, m_i' on p distinct axes and
one extra element m on a fresh axis, and set

    a0 = m_0 + ... + m_{p-1}        a1 = m_0' + ... + m_{p-1}'
    b0 = a0                         b1 = m + l_1 m_1 + ... + l_{p-1} m_{p-1}

with (l_i) running over every nonzero scalar.  Each combination
lambda a0 + mu a1 or lambda b0 + mu b1 with lambda, mu nonzero has weight
exactly p (on the b side, scaling makes exactly one coefficient cancel while
the fresh axis enters), so the pairs are quantifier-free equivalent; yet the
spans touch p and p + 1 axes.  The sum over the b side runs through all p - 1
nonzero scalars: stopping one short would leave b1 at weight p - 1 and break
the weight computation above.
"""

from __future__ import annotations

import itertools

from .fields import FieldCtx
from .model import combine, rich_model, weight


def construct_counterexample(p: int):
    """The pair of pairs (a, b) over GF(p), built in a rich model.

    Returns (a, b, model) with a = (a0, a1), b = (b0, b1).
    """
    field = FieldCtx.prime_field(p)
    model = rich_model(field)
    m = [model.e(i, 0) for i in range(p)]
    m_prime = [model.e(i, 1) for i in range(p)]
    fresh = model.e(p, 0)

    a0 = combine(field, [1] * p, m)
    a1 = combine(field, [1] * p, m_prime)
    b0 = a0
    b1 = fresh + combine(field, range(p), m)  # l_i = i; m_0 gets coefficient 0
    return (a0, a1), (b0, b1), model


def brute_qf_equiv(a, b) -> bool:
    """Exhaustive quantifier-free equivalence of two pairs over a finite
    field: every atom about a pair is a zero test or a sumset test of one
    scalar combination, and in the axis span an element is zero exactly
    when its weight is 0, so comparing the weights of all p^2 combinations
    decides equivalence completely.  Over an infinite field the enumeration
    raises FieldNotFinite."""
    return combination_weight_table(a) == combination_weight_table(b)


def combination_weight_table(pair):
    """Rows (lambda, mu, weight) for all scalar combinations of a pair."""
    field = pair[0].field
    rows = []
    for lam, mu in itertools.product(field.elements(), repeat=2):
        rows.append((lam, mu, weight(combine(field, (lam, mu), pair))))
    return rows

"""Reference computations the output checks use, written apart from the
library code they check.

Model elements are read through their stored coordinates only
(``axis_part`` and ``free_part``) and handled here as plain dictionaries;
formulas are walked by node class name.  Nothing in this module calls the
library's evaluator, arithmetic or linear algebra.
"""

from __future__ import annotations

import itertools

QUANTIFIERS = ("Exists", "Forall")


def coords(el) -> dict:
    """Element as {("a", axis, coord) | ("f", coord): nonzero scalar}."""
    out = {("a", axis, coord): v for (axis, coord), v in el.axis_part}
    out.update({("f", coord): v for coord, v in el.free_part})
    return out


def combine(pairs, p=None) -> dict:
    """Sum of c * v over (c, coordinate dict) pairs; modulo p when given."""
    acc: dict = {}
    for c, vec in pairs:
        for key, v in vec.items():
            acc[key] = acc.get(key, 0) + c * v
    if p is not None:
        acc = {k: v % p for k, v in acc.items()}
    return {k: v for k, v in acc.items() if v != 0}


def axes(vec: dict) -> set:
    return {key[1] for key in vec if key[0] == "a"}


def level(vec: dict):
    """Least n with the vector in X^n, or None when it has a free part."""
    if any(key[0] == "f" for key in vec):
        return None
    return len(axes(vec))


def eval_term(term, env: dict) -> dict:
    pairs = [(c, env[name]) for name, c in term.vars]
    pairs += [(c, env["$" + name]) for name, c in term.consts]
    return combine(pairs)


def evaluate(phi, env: dict) -> bool:
    """Truth of a quantifier-free formula; env maps names to coordinate dicts."""
    kind = type(phi).__name__
    if kind == "Eq":
        return combine([(1, eval_term(phi.lhs, env)), (-1, eval_term(phi.rhs, env))]) == {}
    if kind == "Xn":
        n = level(eval_term(phi.term, env))
        return n is not None and n <= phi.n
    if kind == "Not":
        return not evaluate(phi.child, env)
    if kind == "And":
        return evaluate(phi.lhs, env) and evaluate(phi.rhs, env)
    if kind == "Or":
        return evaluate(phi.lhs, env) or evaluate(phi.rhs, env)
    raise ValueError(f"not a quantifier-free formula node: {kind}")


def symbols(phi) -> set:
    """Free names and '$'-constants; raises ValueError on a quantifier."""
    out: set = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        kind = type(node).__name__
        if kind in QUANTIFIERS:
            raise ValueError("quantifier in a formula that should be quantifier-free")
        if kind == "Eq":
            terms = (node.lhs, node.rhs)
        elif kind == "Xn":
            terms = (node.term,)
        else:
            terms = ()
            stack.extend(getattr(node, a) for a in ("child", "lhs", "rhs") if hasattr(node, a))
        for t in terms:
            out.update(name for name, _ in t.vars)
            out.update("$" + name for name, _ in t.consts)
    return out


def disjunct_count(phi) -> int:
    """Number of top-level disjuncts (leaves of the outermost Or nodes)."""
    count = 0
    stack = [phi]
    while stack:
        node = stack.pop()
        if type(node).__name__ == "Or":
            stack.extend((node.lhs, node.rhs))
        else:
            count += 1
    return count


def dnf_size(phi, positive=True) -> int:
    """Number of disjuncts in the full DNF expansion of the negation normal
    form, before any deduplication; computed without expanding."""
    kind = type(phi).__name__
    if kind == "Not":
        return dnf_size(phi.child, not positive)
    if kind in ("And", "Or"):
        left, right = dnf_size(phi.lhs, positive), dnf_size(phi.rhs, positive)
        return left * right if (kind == "And") == positive else left + right
    return 1


def grid_witness(matrix, env: dict, var: str, scalars=(-2, -1, 0, 1, 2)):
    """Bounded grid search for a witness: every combination of the given
    scalars on the coordinates the parameters use, two fresh axes and one
    fresh free coordinate.  Returns a coordinate dict or None."""
    used = sorted({key for vec in env.values() for key in vec})
    axis_keys = [k for k in used if k[0] == "a"]
    fresh_axis = 1 + max([k[1] for k in axis_keys] + [-1])
    fresh_free = 1 + max([k[1] for k in used if k[0] == "f"] + [-1])
    keys = axis_keys + [("a", fresh_axis, 0), ("a", fresh_axis + 1, 0), ("f", fresh_free)]
    for combo in itertools.product(scalars, repeat=len(keys)):
        cand = {k: c for k, c in zip(keys, combo) if c != 0}
        if evaluate(matrix, dict(env, **{var: cand})):
            return cand
    return None


def grid_size(env: dict, scalars=5) -> int:
    axis_keys = {key for vec in env.values() for key in vec if key[0] == "a"}
    return scalars ** (len(axis_keys) + 3)


def span_axes(elements) -> set:
    out: set = set()
    for el in elements:
        out |= axes(coords(el))
    return out


def pair_profile(pair, p: int) -> list:
    """(zero?, weight) of every combination lam*pair[0] + mu*pair[1] over GF(p)."""
    a, b = coords(pair[0]), coords(pair[1])
    out = []
    for lam, mu in itertools.product(range(p), repeat=2):
        v = combine([(lam, a), (mu, b)], p)
        out.append((v == {}, len(axes(v))))
    return out

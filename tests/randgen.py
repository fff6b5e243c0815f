"""Seeded random generators shared by the quantifier-elimination tests, the
acceptance suite and the partial-isomorphism tests, and a time budget for
tests of slow inputs."""

import signal

import pytest

from axisspace.fields import FieldCtx
from axisspace.formula import And, Eq, Exists, Not, Or, Term, Xn

Q = FieldCtx.rationals()


def random_f_element(model, rng, max_axes=4, max_coord=2, lo=-4, hi=4):
    parts = {}
    for axis in rng.sample(range(max_axes + 2), rng.randrange(max_axes + 1)):
        for coord in range(rng.randrange(1, max_coord + 1)):
            parts[(axis, coord)] = rng.randint(lo, hi)
    return model.element(parts)


def random_element(model, rng, max_axes=3, free_chance=0.4):
    el = random_f_element(model, rng, max_axes=max_axes)
    if rng.random() < free_chance:
        el = el + model.fe(rng.randrange(3), rng.choice([1, 2, -1]))
    return el


def random_generators(model, rng):
    """Zero generators, repeats, scaled combinations of earlier ones and
    fresh elements, some with free parts."""
    field = model.field
    scalar = (lambda: rng.randint(-3, 3)) if field.is_infinite else (lambda: rng.randrange(field.p))
    out = []
    for _ in range(rng.randrange(0, 7)):
        roll = rng.random()
        if roll < 0.1:
            out.append(model.zero())
        elif roll < 0.2 and out:
            out.append(rng.choice(out))
        elif roll < 0.45 and out:
            u, v = rng.choice(out), rng.choice(out)
            out.append(u.scale(scalar() or 1) + v.scale(scalar()))
        else:
            parts = {(axis, rng.randrange(3)): scalar() for axis in rng.sample(range(5), rng.randrange(0, 3))}
            free = {coord: scalar() for coord in rng.sample(range(3), rng.randrange(0, 2))}
            out.append(model.element(parts, free))
    return tuple(out)


def relabelled(model, rng, elements):
    """The elements moved by an automorphism of the rich model: axes 0-4
    sent to axes 5-9 and each rescaled, free coordinates shifted by 3."""
    field = model.field
    perm = dict(zip(range(5), rng.sample(range(5, 10), 5)))
    scales = {axis: field.of(rng.choice([1, 2, 3])) for axis in range(5)}
    return tuple(
        model.element({(perm[a], c): field.mul(scales[a], v) for (a, c), v in el.axis_part},
                      {k + 3: v for k, v in el.free_part})
        for el in elements
    )

def random_exists_formula(rng, n_params=2, max_x_atoms=3, max_index=4):
    """A random existential formula over x with up to two named parameters.

    Atom terms draw small integer coefficients; the connective tree mixes
    conjunction, disjunction and negation.
    """
    var = "x"
    params = [f"c{i}" for i in range(rng.randrange(0, n_params + 1))]

    def rand_term(with_x):
        coeffs = {}
        if with_x:
            coeffs[var] = rng.choice([1, 1, 1, 2, -1])
        consts = {}
        for p in params:
            if rng.random() < 0.6:
                c = rng.randint(-2, 2)
                if c:
                    consts[p] = c
        return Term.make(Q, coeffs, consts)

    def rand_atom(with_x):
        t = rand_term(with_x)
        if rng.random() < 0.75:
            return Xn(rng.randrange(0, max_index + 1), t)
        return Eq(t, rand_term(False))

    n_x = rng.randrange(1, max_x_atoms + 1)
    atoms = [rand_atom(True) for _ in range(n_x)]
    for _ in range(rng.randrange(0, 2)):
        if params:
            atoms.append(rand_atom(False))

    tree = atoms[0]
    for atom in atoms[1:]:
        node = rng.choice([And, Or, And])
        lhs, rhs = (tree, atom) if rng.random() < 0.5 else (atom, tree)
        tree = node(lhs, rhs)
        if rng.random() < 0.3:
            tree = Not(tree)
    return Exists(var, tree), params


def random_nested_formula(rng):
    """Text of a random formula over the parameters $c0 and $c1 with two or
    three nested quantifiers, over x, y and z from the outside in.

    The innermost matrix joins two literals by &, | or ->.  Each level is
    E or A, is negated a third of the time, and most often meets a literal
    over the variables bound outside it through &, | or -> (either way
    round).  Atoms are X0..X2 of small integer terms, or equations; a
    fifth of the literals are negated.
    """
    variables = ["x", "y", "z"][: rng.randint(2, 3)]

    def term(scope):
        parts = [f"{rng.choice([1, 1, -1, 2])}*{v}" for v in scope if rng.random() < 0.4]
        parts += [f"{rng.choice([1, -1, 2, -2])}*$c{i}" for i in range(2) if rng.random() < 0.8]
        return " + ".join(parts) or "0"

    def literal(scope):
        atom = f"{term(scope)} = 0" if rng.random() < 0.15 else f"X{rng.randint(0, 2)}({term(scope)})"
        return "!" + atom if rng.random() < 0.2 else atom

    body = f"{literal(variables)} {rng.choice(['&', '|', '->'])} {literal(variables)}"
    for depth in reversed(range(len(variables))):
        body = f"{rng.choice('EA')} {variables[depth]}. ({body})"
        if rng.random() < 0.3:
            body = "!" + body
        if rng.random() < 0.8:
            other = literal(variables[:depth])
            body = rng.choice([f"({other}) {op} ({body})" for op in ("&", "|", "->")] + [f"({body}) -> ({other})"])
    return body


def random_param_env(model, rng, params, max_weight=2):
    env = {}
    for p in params:
        env["$" + p] = random_f_element(model, rng, max_axes=max_weight)
    return env


def within(seconds, fn, *args):
    """fn(*args), failing the test once it has run for ``seconds``."""

    def stop(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

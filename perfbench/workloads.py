"""Workload inputs and operations.

Each ``build_*`` function turns a seed into the fixed list of operations of
one round.  An operation's ``run`` is what gets timed; it looks every
library function up through the module at call time, so the tracer's
wrappers see the call.  Its ``check`` runs after timing, on the outcome of
the first round, and compares against ``oracle`` or against a property the
method must have.

The qe workloads keep the mix of formula shapes the same for every seed,
because elimination cost is extremely heavy-tailed in the shape (in a draw
of 1800 gate-shaped formulas, on a 2-vCPU 2.1 GHz VM with Python 3.11, two
took 3 s each and the median took 0.35 ms): a freshly drawn mix would make
every metric depend on the seed.  The seed
moves what leaves the amount of work alone: parameter names and signs,
parameter assignment and the evaluation environments.
"""

from __future__ import annotations

import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle


@dataclass
class Outcome:
    text: str  # what the op prints; its UTF-8 length counts in output_bytes
    extra: object  # small summary that every later round must reproduce
    obj: object = None  # data the check reads (kept for the first round only)
    error: str | None = None  # the exception the op raised, if any


@dataclass
class Op:
    label: str
    run: Callable[[], Outcome]
    # True when the output is right, False when it is wrong, a Missed
    # when its only flaw is that it misses witnesses (see KNOWN_INCOMPLETE)
    check: Callable[[Outcome], object]
    # the grid-search sample this op's check may add to (qe-random only)
    probes: GridProbes | None = None


@dataclass(frozen=True)
class Missed:
    """A qe check's verdict when the output is false in the environments
    ``envs`` (indices into the op's list) although witness_search finds a
    witness there that re-verifies, and right in every other check: the
    elimination lost solutions but claimed none that are absent."""

    envs: tuple


# The ops on which qe._fallback_condition (disjuncts with >= 4 distinct
# x-terms) is known to be incomplete, with the environments where each one
# misses a witness.  Formulas and environments do not depend on the seed,
# so these misses happen on every run.  They are counted in `failed`
# without making the run incorrect.  Any other failure of these ops (an
# exception, a wrong output, a miss elsewhere), and any failure of another
# op, makes the run incorrect.
KNOWN_INCOMPLETE = {
    "qe-wide/4lit/6": (0, 3),
    "qe-wide/4lit/18": (0,),
    "qe-wide/4lit/19": (3,),
    "qe-wide/4lit/26": (2, 3),
    "qe-wide/4lit/30": (2,),
    "qe-wide/4lit/34": (3,),
    "qe-wide/4lit/35": (3,),
    "qe-wide/4lit/40": (1,),
    "qe-wide/4lit/45": (2,),
}


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def random_element(model, rng, max_axes):
    """Up to ``max_axes`` axes, one or two coordinates each, entries in -4..4."""
    parts = {}
    for axis in rng.sample(range(max_axes + 2), rng.randrange(max_axes + 1)):
        for coord in range(rng.randrange(1, 3)):
            parts[(axis, coord)] = rng.randint(-4, 4)
    return model.element(parts)


def random_env(model, rng, params, max_axes=2):
    return {"$" + p: random_element(model, rng, max_axes) for p in params}


def term_text(x_coeff, consts: dict) -> str:
    parts = []
    if x_coeff:
        parts.append("x" if x_coeff == 1 else f"{x_coeff}*x")
    for name in sorted(consts):
        c = consts[name]
        if c:
            parts.append(f"${name}" if c == 1 else f"{c}*${name}")
    return " + ".join(parts) if parts else "0"


def formula_text(node) -> str:
    kind = node[0]
    if kind == "X":
        return f"X{node[1]}({term_text(*node[2])})"
    if kind == "Eq":
        return f"{term_text(*node[1])} = {term_text(*node[2])}"
    if kind == "not":
        inner = formula_text(node[1])
        return f"!({inner})" if node[1][0] == "Eq" else f"!{inner}"
    op = " & " if kind == "and" else " | "
    return "(" + formula_text(node[1]) + op + formula_text(node[2]) + ")"


def map_params(node, matrix):
    """Apply the parameter substitution c_j -> sum_i matrix[j][i] * c_i."""
    kind = node[0]

    def term(t):
        x, consts = t
        out = {}
        for name, c in consts.items():
            for i, m in enumerate(matrix[int(name[1:])]):
                out[f"c{i}"] = out.get(f"c{i}", 0) + c * m
        return (x, {k: v for k, v in out.items() if v})

    if kind == "X":
        return ("X", node[1], term(node[2]))
    if kind == "Eq":
        return ("Eq", term(node[1]), term(node[2]))
    if kind == "not":
        return ("not", map_params(node[1], matrix))
    return (kind, map_params(node[1], matrix), map_params(node[2], matrix))


def signed_permutation(rng, n=2):
    """Matrix of c_j -> +-c_pi(j): keeps every coefficient's size, so the
    printed output and the arithmetic stay the same size for every seed."""
    perm = rng.sample(range(n), n)
    return [[rng.choice((1, -1)) if i == perm[j] else 0 for i in range(n)] for j in range(n)]


def element_coords_env(env: dict) -> dict:
    return {k: oracle.coords(v) for k, v in env.items()}


# ---------------------------------------------------------------------------
# qe workloads
# ---------------------------------------------------------------------------


def gate_skeleton(rng, n_params=2, max_x_atoms=3, max_index=2):
    """An existential matrix of the acceptance gate's shape over x."""
    params = [f"c{i}" for i in range(rng.randrange(0, n_params + 1))]

    def term(with_x):
        x = rng.choice([1, 1, 1, 2, -1]) if with_x else 0
        consts = {}
        for p in params:
            if rng.random() < 0.6:
                c = rng.randint(-2, 2)
                if c:
                    consts[p] = c
        return (x, consts)

    def atom(with_x):
        t = term(with_x)
        if rng.random() < 0.75:
            return ("X", rng.randrange(0, max_index + 1), t)
        return ("Eq", t, term(False))

    atoms = [atom(True) for _ in range(rng.randrange(1, max_x_atoms + 1))]
    for _ in range(rng.randrange(0, 2)):
        if params:
            atoms.append(atom(False))
    tree = atoms[0]
    for a in atoms[1:]:
        kind = rng.choice(["and", "or", "and"])
        lhs, rhs = (tree, a) if rng.random() < 0.5 else (a, tree)
        tree = (kind, lhs, rhs)
        if rng.random() < 0.3:
            tree = ("not", tree)
    return tree


def qe_op(lib, label, text, envs, model, probes=None):
    """Parse, eliminate, print and evaluate under each environment."""
    Q = model.field
    formula, qe = lib.formula, lib.qe
    params = sorted(envs[0])

    def run():
        phi = formula.parse_formula(text, Q)
        out = qe.eliminate_exists(phi.body, phi.var)
        printed = formula.print_formula(out)
        truths = tuple(formula.eval_qf(out, env, Q) for env in envs)
        return Outcome(printed, truths, (phi, out))

    def check(outcome):
        phi, out = outcome.obj
        try:
            if not oracle.symbols(out) <= oracle.symbols(phi.body) - {phi.var}:
                return False
        except ValueError:
            return False
        verdicts = [_agrees(lib, phi, out, env, truth, model) for env, truth in zip(envs, outcome.extra)]
        if False in verdicts:
            return False
        if probes is not None and not probes.check(lib, label, phi, out, params, model):
            return False
        missed = tuple(i for i, v in enumerate(verdicts) if v == MISSED)
        return Missed(missed) if missed else True

    return Op(label, run, check, probes)


MISSED = "missed"


def _agrees(lib, phi, out, env, truth, model):
    """QE truth = witness existence, with the witness re-verified: True,
    False, or MISSED when QE says false although a witness exists."""
    cenv = element_coords_env(env)
    if oracle.evaluate(out, cenv) != truth:
        return False
    w = lib.qe.witness_search(phi.body, phi.var, env, model)
    if w is not None and not oracle.evaluate(phi.body, dict(cenv, **{phi.var: oracle.coords(w)})):
        return False
    if truth == (w is not None):
        return True
    return MISSED if w is not None else False


GRID_LIMIT = 5 ** 6  # grid candidates per probe
GRID_TRIES = 12  # parameter choices tried per op


class GridProbes:
    """A seeded sample of grid-search checks shared by a workload's ops.

    On a parameter choice where witness search finds nothing, the
    benchmark's own grid must find nothing and the QE output must be
    false.  Most formulas have a witness under every choice, so each op's
    check tries a few choices until ``needed`` probes have run; ``ran``
    shows whether the sample was filled."""

    def __init__(self, seed, needed):
        self.seed, self.needed, self.ran = seed, needed, 0

    def check(self, lib, label, phi, out, params, model) -> bool:
        if self.ran >= self.needed:
            return True
        rng = random.Random(f"grid:{self.seed}:{label}")
        for _ in range(GRID_TRIES):
            env = random_env(model, rng, [p[1:] for p in params], max_axes=1)
            cenv = element_coords_env(env)
            if oracle.grid_size(cenv) > GRID_LIMIT:
                continue
            if lib.qe.witness_search(phi.body, phi.var, env, model) is not None:
                continue
            self.ran += 1
            return not oracle.evaluate(out, cenv) and oracle.grid_witness(phi.body, cenv, phi.var) is None
        return True


QE_RANDOM_FORMULAS = 400
QE_RANDOM_ENVS = 6
QE_RANDOM_GRID_PROBES = 4
SKELETON_SEED = 20240901


def build_qe_random(lib, seed):
    model = lib.model.rich_model(lib.fields.FieldCtx.rationals())
    shape_rng = random.Random(SKELETON_SEED)
    skeletons = [gate_skeleton(shape_rng) for _ in range(QE_RANDOM_FORMULAS)]
    rng = random.Random(f"qe-random:{seed}")
    matrix = signed_permutation(rng)
    probes = GridProbes(seed, QE_RANDOM_GRID_PROBES)
    ops = []
    for i, sk in enumerate(skeletons):
        text = "E x. " + formula_text(map_params(sk, matrix))
        envs = [random_env(model, rng, ["c0", "c1"]) for _ in range(QE_RANDOM_ENVS)]
        ops.append(qe_op(lib, f"qe-random/{i}", text, envs, model, probes))
    return ops


SIGNED_LITERALS = [(s, k) for s in (True, False) for k in (0, 1, 2)]
WIDE_PARAMS = ["c0", "c1", "c2", "c3"]
WIDE_ENVS = 4
FIXED_FOUR_LITERAL = 48
FIXED_SEED = 4
THREE_LITERAL_SEED = 3
# Routed to the fallback; named as incomplete in the project's roadmap.
NAMED_FALLBACK = "E x. (X2(x + -1*$c2) & !X0(x + -1*$c1) & X1(x + -1*$c3) & X1(x + -1*$c0))"
# Criterion 4's 752-disjunct formula.
BIG_FORMULA = "E x. !(!(X4(-1*x + -2*$c0) & !(X1(x + -1*$c1) | X1(x + -1*$c0))) | -2*$c1 = 2*$c0 + -1*$c1)"


def conjunction_text(literals) -> str:
    parts = [("" if s else "!") + f"X{k}(x + -1*${p})" for s, k, p in literals]
    return "E x. (" + " & ".join(parts) + ")"


def build_qe_wide(lib, seed):
    model = lib.model.rich_model(lib.fields.FieldCtx.rationals())
    rng = random.Random(f"qe-wide:{seed}")
    ops = []
    # every sign/index class of a 3-literal conjunction, once.  Which three
    # parameters a class gets does not depend on the seed: it changes the
    # cost of a class by up to 2x, and classes of 0.2-0.4 s set the round's
    # 90th percentile.  The seed draws the environments.
    three = random.Random(THREE_LITERAL_SEED)
    for i, combo in enumerate(itertools.combinations_with_replacement(SIGNED_LITERALS, 3)):
        chosen = three.sample(WIDE_PARAMS, 3)
        text = conjunction_text([(s, k, p) for (s, k), p in zip(combo, chosen)])
        envs = [random_env(model, rng, WIDE_PARAMS) for _ in range(WIDE_ENVS)]
        ops.append(qe_op(lib, f"qe-wide/3lit/{i}", text, envs, model))
    envs = [random_env(model, rng, ["c0", "c1"]) for _ in range(WIDE_ENVS)]
    ops.append(qe_op(lib, "qe-wide/752", BIG_FORMULA, envs, model))
    # 4-literal conjunctions over four distinct parameters, which go to the
    # incomplete fallback.  Formulas and environments do not depend on the
    # seed, so the ops that the fallback answers wrongly fail on every run.
    fixed = random.Random(FIXED_SEED)
    for i in range(FIXED_FOUR_LITERAL):
        if i == 0:
            text = NAMED_FALLBACK
        else:
            lits = [(fixed.random() < 0.6, fixed.randrange(3)) for _ in range(4)]
            text = conjunction_text([(s, k, p) for (s, k), p in zip(lits, fixed.sample(WIDE_PARAMS, 4))])
        envs = [random_env(model, fixed, WIDE_PARAMS) for _ in range(WIDE_ENVS)]
        ops.append(qe_op(lib, f"qe-wide/4lit/{i}", text, envs, model))
    return ops


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

NONZERO_X = "X1({v}) & !X0({v})"


def _pairwise_nonparallel(vs):
    return " & ".join(f"!X1({a} + {b})" for a, b in itertools.combinations(vs, 2))


def _many_members(vs):
    body = " & ".join([NONZERO_X.format(v=v) for v in vs] + [_pairwise_nonparallel(vs)])
    return " ".join(f"E {v}." for v in vs) + f" ({body})"


def _independence(coeffs):
    x, y, z = "x", "y", "z"
    hyp = " & ".join(
        [f"X1({v})" for v in (x, y, z)] + [f"!X0({v})" for v in (x, y, z)] + [_pairwise_nonparallel([x, y, z])]
    )
    a, b, c = coeffs
    return f"A x. A y. A z. (({hyp}) -> !({a}*x + {b}*y + {c}*z = 0))"


CRITERION_5_TRUE = [
    "A x. (X1(x) -> X1(2*x))",
    "A x. (X1(x) -> X1(-1/2*x))",
    "A x. (X1(x) -> X1(7*x))",
    "A x. A y. A z. ((X1(x) & X1(y) & X1(z) & !X0(x) & !X0(y) & !X0(z))"
    " -> ((X1(x + y) & X1(y + z)) -> X1(x + z)))",
    "A x. A y. ((X1(x) & X1(y) & !X0(x) & !X0(y) & X1(x + y)) -> X1(x + 2*y))",
    _many_members(["x", "y", "z"]),
    _independence((1, 1, 1)),
    _independence((1, 2, -3)),
    "E x. (!X1(x) & X2(x))",
]

CRITERION_5_FALSE = [
    "A x. (X2(x) -> X1(x))",
    "A x. (X1(x) -> X0(x))",
    "A x. (X3(x) -> X2(x))",
    "E x. (X0(x) & !X1(x))",
    "A x. X1(x)",
    "E x. (X1(x) & !X0(x) & x + x = 0)",
    "A x. A y. ((X1(x) & X1(y)) -> X1(x + y))",
    "E x. (X2(x) & !X2(x))",
    "A x. A y. A z. ((X1(x) & X1(y) & X1(z) & !X0(x) & !X0(y) & !X0(z))"
    " -> (X1(x + y) | X1(y + z) | X1(x + z)))",
    "A x. (X2(x) -> X1(2*x))",
]


def _nonzero(rng, lo=-5, hi=5):
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


def _scalar_text(rng):
    num, den = _nonzero(rng, -7, 7), rng.randint(1, 4)
    f = Fraction(num, den)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def decide_sentences(rng):
    """(sentence, known truth) pairs of one round, in a fixed family mix."""
    out = [(s, True) for s in CRITERION_5_TRUE] + [(s, False) for s in CRITERION_5_FALSE]
    for _ in range(14):  # scalar closure of the sumsets
        n = rng.randint(1, 3)
        out.append((f"A x. (X{n}(x) -> X{n}({_scalar_text(rng)}*x))", True))
    for _ in range(12):  # X_n + X_m inside X_{n+m}, not inside X_{n+m-1}
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        a, b = _nonzero(rng, -3, 3), _nonzero(rng, -3, 3)
        hyp = f"A x. A y. ((X{n}(x) & X{m}(y)) -> X{{}}({a}*x + {b}*y))"
        out.append((hyp.format(n + m), True))
        out.append((hyp.format(n + m - 1), False))
    for _ in range(8):  # a point of X_n outside X_{n-1}
        n = rng.randint(1, 4)
        out.append((f"E x. (X{n}(x) & !X{n - 1}(x))", True))
    for k in (2, 2, 3, 3, 4, 4):  # k pairwise non-parallel nonzero members of X
        names = rng.sample(["x", "y", "z", "u", "v", "w"], k)
        out.append((_many_members(names), True))
    for _ in range(30):  # three independent axes, random coefficients
        out.append((_independence((_nonzero(rng), _nonzero(rng), _nonzero(rng))), True))
    return out


def build_decide(lib, seed):
    rng = random.Random(f"decide:{seed}")
    ops = []
    for i, (text, truth) in enumerate(decide_sentences(rng)):
        ops.append(_decide_op(lib, f"decide/{i}", text, truth))
    return ops


def _decide_op(lib, label, text, truth):
    cli = lib.cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        status = cli.main(["decide", "--field", "q", "--formula", text], out=out, err=err)
        return Outcome(out.getvalue(), (status, err.getvalue()))

    def check(outcome):
        status, err = outcome.extra
        return status == 0 and err == "" and outcome.text == ("true\n" if truth else "false\n")

    return Op(label, run, check)


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

INVARIANT_ITEMS_Q = 180
INVARIANT_ITEMS_GFP = 108
HULL_ITEMS = 72
CONJUGACY_ITEMS = 96
# Sum levels of the conjugacy items, in turn.  Level 3 items all cost about
# the same and are the costliest kind; with half the items at level 3 they
# make up a tenth of the round, so the round's 90th percentile falls among
# them.  With a third at level 3 it fell in the gap below them, and over
# ten runs on ten seeds it read between 20 and 28 ms.
CONJUGACY_LEVELS = (1, 2, 3, 3)
GFP_PRIMES_TUPLES = (5, 7, 11)
GFP_PRIMES_PAIR = (2, 3, 5, 7)
HULL_PROBES = 20


def _roundtrip(lib, model, constants):
    """dump -> load -> dump of a context holding the constants."""
    ctx = lib.model.canonical_model(model.descriptor, model.field, constants)
    text = lib.context.dump_context(ctx)
    loaded = lib.context.load_context(text)
    return text, lib.context.dump_context(loaded), loaded.constants == ctx.constants


def _invariant_op(lib, label, model, tuple_):
    inv_mod, linalg = lib.invariant, lib.linalg
    field = model.field
    constants = {f"a{i}": el for i, el in enumerate(tuple_)}

    def run():
        inv = inv_mod.qf_invariant(tuple_)
        weights = inv_mod.weights_oracle_via_witness(tuple_)
        cands = inv_mod.kernel_candidates(tuple_)
        arity = len(tuple_)
        probes = list(cands) + [linalg.zero_space(field, arity), linalg.full_space(field, arity)]
        routes = []
        for V in probes:
            g = inv_mod.g_of(inv, V)
            routes.append((g, tuple(inv_mod.g_via_inclusion_exclusion(weights, V, r, cands) for r in range(g + 2))))
        ctx = _roundtrip(lib, model, constants)
        return Outcome(inv.to_text(), (tuple(routes), ctx))

    def check(outcome):
        routes, (text, again, same) = outcome.extra
        if text != again or not same:
            return False
        return all(ie == tuple(g >= r for r in range(g + 2)) for g, ie in routes)

    return Op(label, run, check)


def _automorphism(model, perm, scales):
    """Axis permutation with per-axis scaling, on coordinate dicts."""

    def apply_coords(vec):
        return {("a", perm[k[1]], k[2]): scales[k[1]] * v for k, v in vec.items()}

    def apply(el):
        parts = {(perm[axis], coord): scales[axis] * v for (axis, coord), v in el.axis_part}
        return model.element(parts)

    return apply, apply_coords


def _hull_op(lib, label, model, rng, arity, support):
    a = tuple(_element_on_axes(model, rng, support, rational=True) for _ in range(arity))
    axes = list(range(6))
    rng.shuffle(axes)
    perm = dict(enumerate(axes))
    scales = {axis: Fraction(rng.choice([1, 2, -1, 3, Fraction(1, 2)])) for axis in range(6)}
    auto, auto_coords = _automorphism(model, perm, scales)
    b = tuple(auto(el) for el in a)
    lams = [[rng.randint(-4, 4) for _ in range(arity)] for _ in range(HULL_PROBES)]
    constants = {**{f"a{i}": el for i, el in enumerate(a)}, **{f"b{i}": el for i, el in enumerate(b)}}

    def run():
        h = lib.iso.extend_to_hat(a, b)
        ctx = _roundtrip(lib, model, constants)
        return Outcome("", (len(h.domain_generators), ctx), h)

    def check(outcome):
        _, (text, again, same) = outcome.extra
        if text != again or not same:
            return False
        h = outcome.obj
        for lam in lams:
            xa = oracle.combine([(c, oracle.coords(el)) for c, el in zip(lam, a)])
            expected = auto_coords(xa)
            got = oracle.coords(h.apply(_element(model, xa)))
            if got != expected or oracle.level(got) != oracle.level(xa):
                return False
        return True

    return Op(label, run, check)


def _element(model, vec):
    return model.element({(k[1], k[2]): v for k, v in vec.items() if k[0] == "a"},
                         {k[1]: v for k, v in vec.items() if k[0] == "f"})


def _fresh_support(model, rng, n, start):
    out = model.zero()
    for axis in rng.sample(range(start, start + 12), n):
        out = out + model.e(axis, rng.randrange(2), rng.choice([1, 2, -1, 3]))
    return out


def _conjugacy_op(lib, label, model, rng, n):
    fragment = lib.model.SubspaceHandle.of(model.e(0, 0) + model.e(1, 0), model.e(0, 1), model.fe(0))
    gens = tuple(fragment.generators)
    a = _fresh_support(model, rng, n, 20)
    b = _fresh_support(model, rng, n, 50)
    constants = {**{f"g{i}": g for i, g in enumerate(gens)}, "a": a, "b": b}
    ts = lib.typespace

    def run():
        ta, tb = ts.classify(a, fragment), ts.classify(b, fragment)
        f = ts.conjugacy_witness(a, b, fragment)
        ctx = _roundtrip(lib, model, constants)
        return Outcome("", ((repr(ta), repr(tb)), ctx), (ta, tb, f))

    def check(outcome):
        _, (text, again, same) = outcome.extra
        if text != again or not same:
            return False
        ta, tb, f = outcome.obj
        for t in (ta, tb):
            if type(t).__name__ != "SumType" or t.n != n or oracle.coords(t.coset):
                return False
        if oracle.coords(f.apply(a)) != oracle.coords(b):
            return False
        return all(oracle.coords(f.apply(g)) == oracle.coords(g) for g in gens)

    return Op(label, run, check)


def _gfp_pair_op(lib, label, p):
    ff = lib.finitefield

    def run():
        a, b, model = ff.construct_counterexample(p)
        equiv = ff.brute_qf_equiv(a, b)
        ctx = _roundtrip(lib, model, {"a0": a[0], "a1": a[1], "b0": b[0], "b1": b[1]})
        return Outcome("", (equiv, ctx), (a, b))

    def check(outcome):
        equiv, (text, again, same) = outcome.extra
        a, b = outcome.obj
        return (
            equiv
            and text == again
            and same
            and len(oracle.span_axes(a)) == p
            and len(oracle.span_axes(b)) == p + 1
            and oracle.pair_profile(a, p) == oracle.pair_profile(b, p)
        )

    return Op(label, run, check)


def _element_on_axes(model, rng, support, rational):
    """An element meeting exactly ``support`` of the axes 0..4, on one or
    two coordinates each, with nonzero coefficients."""
    parts = {}
    for axis in rng.sample(range(5), support):
        for coord in rng.sample(range(2), rng.randint(1, 2)):
            if rational:
                parts[(axis, coord)] = Fraction(_nonzero(rng, -9, 9), rng.randint(1, 9))
            else:
                parts[(axis, coord)] = rng.randrange(1, model.field.p)
    return model.element(parts)


def build_algebra(lib, seed):
    """Item sizes follow a fixed schedule (arity, axes met, sum level), so
    every seed gets the same mix; the seed draws axes, coordinates and
    coefficients."""
    rng = random.Random(f"algebra:{seed}")
    FieldCtx, rich_model = lib.fields.FieldCtx, lib.model.rich_model
    Q = rich_model(FieldCtx.rationals())
    ops = []
    for i in range(INVARIANT_ITEMS_Q):
        arity, support = 1 + i % 3, 1 + (i // 3) % 3
        tuple_ = tuple(_element_on_axes(Q, rng, support, True) for _ in range(arity))
        ops.append(_invariant_op(lib, f"algebra/inv-q/{i}", Q, tuple_))
    for i in range(INVARIANT_ITEMS_GFP):
        arity, support = 1 + i % 3, 1 + (i // 3) % 3
        model = rich_model(FieldCtx.prime_field(GFP_PRIMES_TUPLES[(i // 9) % len(GFP_PRIMES_TUPLES)]))
        tuple_ = tuple(_element_on_axes(model, rng, support, False) for _ in range(arity))
        ops.append(_invariant_op(lib, f"algebra/inv-gfp/{i}", model, tuple_))
    for i in range(HULL_ITEMS):
        ops.append(_hull_op(lib, f"algebra/hull/{i}", Q, rng, 1 + i % 3, 1 + (i // 3) % 3))
    for i in range(CONJUGACY_ITEMS):
        ops.append(_conjugacy_op(lib, f"algebra/conj/{i}", Q, rng, CONJUGACY_LEVELS[i % len(CONJUGACY_LEVELS)]))
    for p in GFP_PRIMES_PAIR:
        ops.append(_gfp_pair_op(lib, f"algebra/ff-pair/{p}", p))
    return ops


BUILDERS = {
    "qe-random": build_qe_random,
    "qe-wide": build_qe_wide,
    "decide": build_decide,
    "algebra": build_algebra,
}

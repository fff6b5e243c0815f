"""Batch command-line front end.

Subcommands::

    eval              evaluate a formula under a model context
    qe                print a quantifier-free equivalent of a formula
    decide            decide a sentence (true/false)
    qftp              print the quantifier-free invariant of named constants
    qfequiv           compare the invariants of two constant tuples
    iso               print the hull isomorphism extending tuple -> tuple
    ff-counterexample print the finite-field pair with its weight table
    model-iso         compare the descriptors of two model contexts

One result per line on stdout; diagnostics go to stderr as
``ERROR:<kind>: message``.  Exit status: 0 success, 1 semantic error,
2 parse or usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .context import field_from_token, load_context
from .errors import (
    AxisSpaceError,
    ContextFormatError,
    FieldMismatch,
    FormulaSyntaxError,
    UnboundSymbol,
)
from .fields import FieldCtx
from .finitefield import combination_weight_table, construct_counterexample
from .formula import eval_qf, is_quantifier_free, parse_formula, print_formula
from .invariant import qf_equiv, qf_invariant
from .iso import extend_to_hat
from .model import SubspaceHandle, descriptor_iso, rich_model, weight_of_subspace
from .qe import decide_sentence, eliminate_all


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs more
    than a small ``decide``, and ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="axisspace", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True, formula=False):
        p.add_argument("--field", help="scalar field: q or zp:<prime>")
        if model:
            p.add_argument("--model", help="model-context file (JSON)")
        if formula:
            p.add_argument("--formula", required=True, help="formula text, or @file")

    common(sub.add_parser("eval", help="evaluate a formula under a context"), formula=True)
    common(sub.add_parser("qe", help="print a quantifier-free equivalent"), formula=True)
    common(sub.add_parser("decide", help="decide a sentence"), formula=True)

    p = sub.add_parser("qftp", help="invariant of a tuple of named constants")
    common(p)
    p.add_argument("names", nargs="*", help="constant names (default: all, sorted)")

    for name in ("qfequiv", "iso"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--left", required=True, help="comma-separated constant names")
        p.add_argument("--right", required=True, help="comma-separated constant names")

    p = sub.add_parser("ff-counterexample", help="finite-field inequivalent-span pair")
    p.add_argument("--p", type=int, required=True, help="prime field size")

    p = sub.add_parser("model-iso", help="compare two model descriptors")
    p.add_argument("context1", help="first model-context file")
    p.add_argument("context2", help="second model-context file")
    return parser


def _read(path: str) -> str:
    """The text of a UTF-8 file; a file that is not UTF-8 is an OSError,
    reported as ``ERROR:IO:`` like a missing one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text: {exc}") from exc


def _load_model(args):
    field = field_from_token(args.field) if getattr(args, "field", None) else None
    model_path = getattr(args, "model", None)
    if model_path:
        model = load_context(_read(model_path))
        if field is not None and field != model.field:
            raise FieldMismatch(f"--field {args.field} conflicts with the context field {model.field}")
        return model
    return rich_model(field or FieldCtx.rationals())


def _formula_text(spec: str) -> str:
    return _read(spec[1:]) if spec.startswith("@") else spec


def _constant_env(model):
    return {"$" + name: el for name, el in model.constants.items()}


def _tuple_of(model, names):
    out = []
    for name in names:
        if name not in model.constants:
            raise UnboundSymbol(f"no constant named {name!r} in the context")
        out.append(model.constants[name])
    return tuple(out)


def _sides(model, args):
    """The tuples of ``--left`` and ``--right``, each a comma-separated
    list of constant names."""
    return [_tuple_of(model, [name.strip() for name in side.split(",")]) for side in (args.left, args.right)]


def _cmd_eval(args, out):
    model = _load_model(args)
    phi = parse_formula(_formula_text(args.formula), model.field)
    if not is_quantifier_free(phi):
        phi = eliminate_all(phi)
    result = eval_qf(phi, _constant_env(model), model.field)
    print("true" if result else "false", file=out)


def _cmd_qe(args, out):
    model = _load_model(args)
    phi = parse_formula(_formula_text(args.formula), model.field)
    print(print_formula(eliminate_all(phi)), file=out)


def _cmd_decide(args, out):
    model = _load_model(args)
    phi = parse_formula(_formula_text(args.formula), model.field)
    print("true" if decide_sentence(phi) else "false", file=out)


def _cmd_qftp(args, out):
    model = _load_model(args)
    tuple_ = _tuple_of(model, args.names or sorted(model.constants))
    print(qf_invariant(tuple_, model.field).to_text(), file=out)


def _cmd_qfequiv(args, out):
    model = _load_model(args)
    left, right = _sides(model, args)
    print("true" if qf_equiv(left, right, model.field) else "false", file=out)


def _cmd_iso(args, out):
    model = _load_model(args)
    left, right = _sides(model, args)
    h = extend_to_hat(left, right, model.field)
    for dom, img in zip(h.domain_generators, h.image_generators):
        print(f"{dom} -> {img}", file=out)


def _cmd_ff(args, out):
    a, b, _ = construct_counterexample(args.p)
    print(f"a0 = {a[0]}", file=out)
    print(f"a1 = {a[1]}", file=out)
    print(f"b0 = {b[0]}", file=out)
    print(f"b1 = {b[1]}", file=out)
    table_a = combination_weight_table(a)
    table_b = combination_weight_table(b)
    for (lam, mu, wa), (_, _, wb) in zip(table_a, table_b):
        print(f"lambda={lam} mu={mu} w(a)={wa} w(b)={wb}", file=out)
    print(f"w(<a>) = {weight_of_subspace(SubspaceHandle(a))}", file=out)
    print(f"w(<b>) = {weight_of_subspace(SubspaceHandle(b))}", file=out)
    # the tables printed above decide equivalence (finitefield.brute_qf_equiv)
    print(f"qf-equivalent: {'true' if table_a == table_b else 'false'}", file=out)


def _cmd_model_iso(args, out):
    models = [load_context(_read(path)) for path in (args.context1, args.context2)]
    print("true" if descriptor_iso(models[0].descriptor, models[1].descriptor) else "false", file=out)


_COMMANDS = {
    "eval": _cmd_eval,
    "qe": _cmd_qe,
    "decide": _cmd_decide,
    "qftp": _cmd_qftp,
    "qfequiv": _cmd_qfequiv,
    "iso": _cmd_iso,
    "ff-counterexample": _cmd_ff,
    "model-iso": _cmd_model_iso,
}

_PARSE_ERRORS = (FormulaSyntaxError, ContextFormatError)


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command](args, out)
        return 0
    except _PARSE_ERRORS as exc:
        print(f"ERROR:{exc.kind}: {exc}", file=err)
        return 2
    except AxisSpaceError as exc:
        print(f"ERROR:{exc.kind}: {exc}", file=err)
        return 1
    except OSError as exc:
        print(f"ERROR:IO: {exc}", file=err)
        return 1


if __name__ == "__main__":
    sys.exit(main())

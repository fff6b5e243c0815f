"""Command-line front end: outputs, exit codes, error rendering."""

import io
import json

import pytest

from axisspace.cli import main
from axisspace.context import dump_context
from axisspace.fields import FieldCtx
from axisspace.formula import eval_qf, parse_formula, print_formula
from axisspace.model import rich_model

Q = FieldCtx.rationals()


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def context_file(tmp_path):
    model = rich_model(Q)
    model.constants["c"] = model.e(0, 0)
    model.constants["d"] = model.e(0, 0) + model.e(1, 0)
    model.constants["e"] = model.e(1, 0) + model.e(0, 0)
    model.constants["f"] = model.e(0, 1)
    path = tmp_path / "ctx.json"
    path.write_text(dump_context(model))
    return str(path)


def test_decide_true_sentence():
    code, out, err = run(["decide", "--field", "q", "--formula", "A x. (X1(x) -> X2(x))"])
    assert (code, out, err) == (0, "true\n", "")


def test_decide_false_sentence():
    code, out, _ = run(["decide", "--field", "q", "--formula", "A x. (X2(x) -> X1(x))"])
    assert (code, out) == (0, "false\n")


def test_decide_refuses_nesting_deeper_than_the_limit():
    """3,000 leading ! or nested parentheses exhaust the parser's stack:
    they are a syntax error (exit 2), not a raw RecursionError."""
    from axisspace.formula import MAX_NESTING

    for text in ("!" * 3000 + "X0(0)", "(" * 3000 + "X0(0)" + ")" * 3000):
        code, out, err = run(["decide", "--field", "q", "--formula", text])
        assert (code, out) == (2, "")
        assert err.startswith("ERROR:FormulaSyntaxError:") and f"{MAX_NESTING} levels" in err
    deeper = "!" * (MAX_NESTING + 1) + "X0(0)"
    assert run(["decide", "--field", "q", "--formula", deeper])[0] == 2


def test_formulas_at_the_nesting_limit_decide():
    """At the limit a formula goes through parsing, the elimination walk
    of qe._dnf_literals, print_formula and eval_qf without a
    RecursionError."""
    from axisspace.formula import MAX_NESTING

    sentences = [
        ("!" * (MAX_NESTING - 2) + "A x. (X1(x) -> X2(x))", MAX_NESTING % 2 == 0),
        ("!" * (MAX_NESTING - 1) + "E x. X0(x)", MAX_NESTING % 2 == 1),
    ]
    for text, truth in sentences:
        assert run(["decide", "--field", "q", "--formula", text]) == (0, f"{str(truth).lower()}\n", "")
        assert print_formula(parse_formula(text, Q)).startswith("!" * (MAX_NESTING - 2))
    for text in ("!" * MAX_NESTING + "X0(0)", "(" * MAX_NESTING + "X0(0)" + ")" * MAX_NESTING):
        truth = MAX_NESTING % 2 == 0 or text.startswith("(")
        assert run(["decide", "--field", "q", "--formula", text]) == (0, f"{str(truth).lower()}\n", "")
        phi = parse_formula(text, Q)
        assert eval_qf(phi, {}, Q) is truth
        assert print_formula(phi).endswith("X0(0)")


def test_long_flat_chains_decide_without_recursion_error():
    """3,000 operands of one &, | or -> chain parse to a balanced tree, so
    no later walk of the formula runs out of stack."""
    n = 3000
    sentences = [
        (" & ".join(["X0(0)"] * n), "true"),
        ("E x. (" + " & ".join(["X1(x)"] * n) + ")", "true"),
        (" -> ".join(["X0(0)"] * n), "true"),
        (" | ".join(["!X0(0)"] * n), "false"),
    ]
    for text, truth in sentences:
        assert run(["decide", "--field", "q", "--formula", text]) == (0, truth + "\n", "")


def test_one_process_answers_after_a_usage_error(capsys):
    """The parser is built once per process; a usage error on it leaves
    later calls with the right answers and exit codes."""
    from axisspace.cli import _build_parser

    assert _build_parser() is _build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--field", "q"])  # --formula is required
    assert exc.value.code == 2
    assert "--formula" in capsys.readouterr().err
    assert run(["decide", "--field", "q", "--formula", "A x. (X1(x) -> X2(x))"]) == (0, "true\n", "")
    assert run(["qe", "--field", "q", "--formula", "E x. (X1(x + -1*$c) & X1(x + -1*$d))"]) == (
        0, "X2($c + -1*$d)\n", "")
    assert run(["decide", "--field", "q", "--formula", "A x. (X2(x) -> X1(x))"]) == (0, "false\n", "")
    assert run(["decide", "--field", "q", "--formula", "X1(x"])[0] == 2


def test_qe_refuses_finite_field():
    code, out, err = run(["qe", "--field", "zp:3", "--formula", "E x. X1(x)"])
    assert code == 1
    assert out == ""
    assert err.startswith("ERROR:FieldNotInfinite:")


def test_qe_emits_quantifier_free_text():
    code, out, _ = run(["qe", "--field", "q", "--formula", "E x. (x + -1*$c = 0)"])
    assert code == 0
    assert "E " not in out and "A " not in out


def test_qe_readme_example_prints_one_interval():
    """The levels 0, 1 and 2 of $c - $d join into one weight interval."""
    code, out, err = run(["qe", "--field", "q", "--formula", "E x. (X1(x + -1*$c) & X1(x + -1*$d))"])
    assert (code, out, err) == (0, "X2($c + -1*$d)\n", "")


def test_eval_with_context(context_file):
    code, out, _ = run(["eval", "--model", context_file, "--formula", "X1($c) & X2($d)"])
    assert (code, out) == (0, "true\n")
    code, out, _ = run(["eval", "--model", context_file, "--formula", "X1($d)"])
    assert (code, out) == (0, "false\n")


def test_eval_quantified_formula_with_constants(context_file):
    code, out, _ = run(["eval", "--model", context_file, "--formula", "E x. (X1(x) & X1(x + -1*$d) & !X0(x))"])
    assert (code, out) == (0, "true\n")


def test_parse_error_exit_code():
    code, out, err = run(["decide", "--field", "q", "--formula", "X1(x"])
    assert code == 2
    assert err.startswith("ERROR:FormulaSyntaxError:")


def test_zero_denominator_is_a_syntax_error():
    code, out, err = run(["qe", "--field", "q", "--formula", "E x. (x = 1/0*$c)"])
    assert (code, out) == (2, "")
    assert err.startswith("ERROR:FormulaSyntaxError:") and "denominator" in err


def test_bad_context_constants_are_typed_errors(tmp_path, context_file):
    """A zero denominator in a context scalar is a format error (exit 2);
    a negative axis names no axis of the model (exit 1)."""
    path = tmp_path / "bad.json"
    for entry, want_code, kind in (([0, 0, "1/0"], 2, "ContextFormatError"), ([-1, 0, "1"], 1, "FragmentExhausted")):
        doc = json.loads(open(context_file).read())
        doc["constants"]["c"]["axis"] = [entry]
        path.write_text(json.dumps(doc))
        code, out, err = run(["qftp", "--model", str(path), "c"])
        assert (code, out) == (want_code, "")
        assert err.startswith(f"ERROR:{kind}:")


def test_unknown_constant_is_semantic_error(context_file):
    code, _, err = run(["eval", "--model", context_file, "--formula", "X1($zz)"])
    assert code == 1
    assert err.startswith("ERROR:UnboundSymbol:")


def test_field_conflict_detected(context_file):
    code, _, err = run(["eval", "--model", context_file, "--field", "zp:5", "--formula", "0 = 0"])
    assert code == 1
    assert err.startswith("ERROR:FieldMismatch:")


def test_qftp_prints_invariant(context_file):
    code, out, _ = run(["qftp", "--model", context_file, "c", "d"])
    assert code == 0
    assert out.startswith("arity=2 v_f=")
    # deterministic across runs
    assert run(["qftp", "--model", context_file, "c", "d"])[1] == out


def test_qfequiv_true_and_false(context_file):
    code, out, _ = run(["qfequiv", "--model", context_file, "--left", "c,d", "--right", "c,e"])
    assert (code, out) == (0, "true\n")
    code, out, _ = run(["qfequiv", "--model", context_file, "--left", "c", "--right", "d"])
    assert (code, out) == (0, "false\n")


def test_iso_prints_generator_map(context_file):
    code, out, _ = run(["iso", "--model", context_file, "--left", "c,f", "--right", "f,c"])
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert all("->" in l for l in lines)


def test_iso_inequivalent_tuples(context_file):
    code, _, err = run(["iso", "--model", context_file, "--left", "c", "--right", "d"])
    assert code == 1
    assert err.startswith("ERROR:NotQfEquivalent:")


def test_ff_counterexample_output():
    code, out, _ = run(["ff-counterexample", "--p", "2"])
    assert code == 0
    assert "w(<a>) = 2" in out
    assert "w(<b>) = 3" in out
    assert "qf-equivalent: true" in out
    assert sum(1 for line in out.splitlines() if line.startswith("lambda=")) == 4


def test_ff_counterexample_rejects_composite():
    code, _, err = run(["ff-counterexample", "--p", "6"])
    assert code == 1 and err.startswith("ERROR:NotPrime:")


def test_model_iso(tmp_path, context_file):
    model2 = rich_model(Q)
    other = tmp_path / "ctx2.json"
    other.write_text(dump_context(model2))
    code, out, _ = run(["model-iso", context_file, str(other)])
    assert (code, out) == (0, "true\n")

    from axisspace.model import canonical_model, make_descriptor

    frag = canonical_model(make_descriptor(0, {1: 2}), Q)
    frag_path = tmp_path / "frag.json"
    frag_path.write_text(dump_context(frag))
    code, out, _ = run(["model-iso", context_file, str(frag_path)])
    assert (code, out) == (0, "false\n")


def test_formula_from_file(tmp_path):
    f = tmp_path / "phi.txt"
    f.write_text("A x. (X1(x) -> X2(x))\n")
    code, out, _ = run(["decide", "--field", "q", "--formula", f"@{f}"])
    assert (code, out) == (0, "true\n")


def test_missing_model_file():
    code, _, err = run(["eval", "--model", "/nonexistent/ctx.json", "--formula", "0 = 0"])
    assert code == 1 and err.startswith("ERROR:IO:")


def test_eval_quantifier_free_over_prime_field(tmp_path):
    """Evaluation (unlike elimination) works over finite fields."""
    model = rich_model(FieldCtx.prime_field(3))
    model.constants["c"] = model.e(0, 0) + model.e(1, 0)
    path = tmp_path / "zp.json"
    path.write_text(dump_context(model))
    code, out, _ = run(["eval", "--model", str(path), "--formula", "X2($c) & !X1($c) & X2(2*$c)"])
    assert (code, out) == (0, "true\n")

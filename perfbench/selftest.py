"""Tests of the benchmark's own machinery: the output checks, the failure
tally and the tracer.

Run from the repository root with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

sys.path.insert(0, run.SRC)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _tally_one(op, outcome, mismatched=False):
    """Tally one op over three rounds, leaving out the shared grid-search
    sample, which one op alone does not fill."""
    with contextlib.redirect_stderr(io.StringIO()):
        return run.tally([dataclasses.replace(op, probes=None)], [outcome], [mismatched], rounds=3)


def _negate(formula, outcome):
    phi, out = outcome.obj
    neg = formula.Not(out)
    return workloads.Outcome(formula.print_formula(neg), tuple(not t for t in outcome.extra), (phi, neg))


class CheckersCountWrongAnswers(unittest.TestCase):
    """Every checker passes the library's own answer and fails a wrong one."""

    @classmethod
    def setUpClass(cls):
        cls.lib = run.Library()

    def assert_detected(self, op, wrong):
        right = op.run()
        self.assertTrue(op.check(right), op.label)
        self.assertEqual(_tally_one(op, right), (0, []))
        self.assertEqual(_tally_one(op, wrong(right)), (3, [op.label]))

    def test_negated_qe_output(self):
        lib = self.lib
        formula = lib.formula
        for op in workloads.build_qe_random(lib, seed=3)[:40]:
            self.assert_detected(op, lambda o: _negate(formula, o))

    def test_qe_output_with_a_foreign_symbol(self):
        lib = self.lib
        formula = lib.formula
        Q = lib.fields.FieldCtx.rationals()
        op = workloads.build_qe_wide(lib, seed=1)[5]
        extra_atom = formula.parse_formula("X0($zz) | !X0($zz)", Q)

        def widen(outcome):
            phi, out = outcome.obj
            wide = formula.And(out, extra_atom)
            return workloads.Outcome(formula.print_formula(wide), outcome.extra, (phi, wide))

        self.assert_detected(op, widen)

    def test_flipped_verdict(self):
        flip = {"true\n": "false\n", "false\n": "true\n"}
        for op in workloads.build_decide(self.lib, seed=2)[:30]:
            self.assert_detected(op, lambda o: dataclasses.replace(o, text=flip[o.text]))

    def test_perturbed_invariant(self):
        def perturb(outcome):
            routes, ctx = outcome.extra
            (g, ie), rest = routes[0], routes[1:]
            return dataclasses.replace(outcome, extra=(((g + 1, ie),) + rest, ctx))

        ops = workloads.build_algebra(self.lib, seed=5)
        for op in [o for o in ops if "/inv-" in o.label][::20]:
            self.assert_detected(op, perturb)

    def test_wrong_hull_map(self):
        iso = self.lib.iso
        ops = [o for o in workloads.build_algebra(self.lib, seed=5) if "/hull/" in o.label]

        def identity_map(outcome):
            h = outcome.obj
            return dataclasses.replace(outcome, obj=iso.PartialIso(h.field, h.domain_generators, h.domain_generators))

        for op in ops[::10]:
            self.assert_detected(op, identity_map)

    def test_wrong_conjugacy_witness(self):
        ops = [o for o in workloads.build_algebra(self.lib, seed=5) if "/conj/" in o.label]

        def swap(outcome):
            ta, tb, f = outcome.obj
            return dataclasses.replace(outcome, obj=(ta, tb, f.inverse()))

        for op in ops[::10]:
            self.assert_detected(op, swap)

    def test_finite_field_pair_and_context_roundtrip(self):
        op = [o for o in workloads.build_algebra(self.lib, seed=5) if "/ff-pair/" in o.label][-1]

        def not_equivalent(outcome):
            equiv, ctx = outcome.extra
            return dataclasses.replace(outcome, extra=(not equiv, ctx))

        def bad_roundtrip(outcome):
            equiv, (text, again, same) = outcome.extra
            return dataclasses.replace(outcome, extra=(equiv, (text, again + " ", same)))

        self.assert_detected(op, not_equivalent)
        self.assert_detected(op, bad_roundtrip)

    def test_only_the_known_missed_witnesses_are_tolerated(self):
        ops = {op.label: op for op in workloads.build_qe_wide(self.lib, seed=1)}
        label = "qe-wide/4lit/6"
        op = ops[label]
        outcome = op.run()
        self.assertEqual(op.check(outcome), workloads.Missed(workloads.KNOWN_INCOMPLETE[label]))
        self.assertEqual(_tally_one(op, outcome), (3, []))
        # any other failure of a known op makes the run incorrect
        self.assertEqual(_tally_one(op, _negate(self.lib.formula, outcome)), (3, [label]))
        self.assertEqual(_tally_one(op, dataclasses.replace(outcome, error="RuntimeError: boom")), (3, [label]))
        self.assertEqual(_tally_one(op, outcome, mismatched=True), (3, [label]))
        self.assertEqual(_tally_one(op, dataclasses.replace(outcome, extra=(True,) * 4)), (3, [label]))
        # a missed witness on an op outside the known set makes it incorrect
        other = dataclasses.replace(op, label="qe-wide/4lit/0")
        self.assertEqual(_tally_one(other, outcome), (3, ["qe-wide/4lit/0"]))
        # a known op that stops missing passes, and the run says so
        passing = dataclasses.replace(op, check=lambda o: True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            self.assertEqual(run.tally([passing], [outcome], [False], rounds=3), (0, []))
        self.assertIn("update KNOWN_INCOMPLETE", err.getvalue())

    def test_a_later_round_that_differs_is_a_failure(self):
        op = workloads.build_decide(self.lib, seed=2)[0]
        self.assertEqual(_tally_one(op, op.run(), mismatched=True), (3, [op.label]))

    def test_an_unfilled_grid_search_sample_is_a_failure(self):
        ops = workloads.build_qe_random(self.lib, seed=3)[:5]
        ops[0].probes.needed = 10 ** 6
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(run.tally(ops, [op.run() for op in ops], [False] * 5, rounds=1), (0, ["grid-probes"]))


class TracerSelfTimes(unittest.TestCase):
    def test_self_times_add_up_on_a_nested_call_tree(self):
        tracer = tracing.Tracer()

        def busy(seconds):
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                pass

        def leaf():
            busy(0.002)

        def middle():
            busy(0.001)
            leaf()
            leaf()

        def root():
            busy(0.001)
            middle()
            leaf()
            middle()

        leaf = tracer.wrap(leaf, "t.leaf")
        middle = tracer.wrap(middle, "t.middle")
        root = tracer.wrap(root, "t.root")
        tracer.active = True
        root()
        tracer.active = False

        n = len(tracer.span_name)
        self.assertEqual(n, 1 + 2 + 5)
        duration = [tracer.span_end[i] - tracer.span_start[i] for i in range(n)]
        children = [0] * n
        for i in range(n):
            parent = tracer.span_parent[i]
            if parent >= 0:
                children[parent] += duration[i]
        roots = [i for i in range(n) if tracer.span_parent[i] < 0]
        self.assertEqual(len(roots), 1)
        total_self = sum(tracer.self_ns(name) for name in ("t.leaf", "t.middle", "t.root"))
        self.assertEqual(total_self, duration[roots[0]])
        # each name's recorded self time is its spans' durations minus their children's
        for name in ("t.leaf", "t.middle", "t.root"):
            nid = tracer.names.index(name)
            spans = [i for i in range(n) if tracer.span_name[i] == nid]
            self.assertEqual(tracer.self_ns(name), sum(duration[i] - children[i] for i in spans))
            self.assertEqual(tracer.calls(name), len(spans))
        self.assertGreater(tracer.self_ns("t.leaf"), 0.9 * 5 * 0.002e9)

    def test_inactive_tracer_records_nothing(self):
        tracer = tracing.Tracer()
        f = tracer.wrap(lambda x: x + 1, "t.f")
        self.assertEqual(f(1), 2)
        self.assertEqual(len(tracer.span_name), 0)


class TracerRestoresBindings(unittest.TestCase):
    def snapshot(self, lib):
        out = {}
        for layer in run.LAYER_MODULES + ("package",):
            ns = lib.package if layer == "package" else getattr(lib, layer)
            out[layer] = dict(vars(ns))
        for layer, class_name, _ in tracing.CLASS_METHODS:
            cls = getattr(getattr(lib, layer), class_name)
            out[class_name] = dict(vars(cls))
        return out

    def test_uninstall_restores_every_binding(self):
        lib = run.Library()
        before = self.snapshot(lib)
        tracer = tracing.Tracer()
        tracer.install(lib.package)
        during = self.snapshot(lib)
        changed = {(k, a) for k in before for a in before[k] if during[k][a] is not before[k][a]}
        for expected in [("qe", "eliminate_exists"), ("qe", "_two_direction_condition"), ("cli", "eliminate_all"),
                         ("formula", "eval_qf"), ("model", "rref"), ("package", "qf_invariant"),
                         ("Term", "__add__"), ("ModelElement", "scale"), ("FieldCtx", "mul")]:
            self.assertIn(expected, changed)
        tracer.uninstall()
        after = self.snapshot(lib)
        self.assertEqual(before.keys(), after.keys())
        for key in before:
            self.assertEqual(before[key].keys(), after[key].keys(), key)
            for attribute, value in before[key].items():
                self.assertIs(after[key][attribute], value, f"{key}.{attribute}")

    def test_traced_calls_reach_the_library(self):
        lib = run.Library()
        tracer = tracing.Tracer()
        tracer.install(lib.package)
        try:
            Q = lib.fields.FieldCtx.rationals()
            tracer.active = True
            phi = lib.formula.parse_formula("E x. (X1(x + -1*$c) & X1(x + -1*$d))", Q)
            lib.qe.eliminate_exists(phi.body, "x")
            tracer.active = False
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.calls("qe.eliminate_exists"), 1)
        self.assertGreater(tracer.calls("qe._dnf_literals"), 0)
        self.assertGreater(tracer.calls("fields.FieldCtx.mul"), 0)


if __name__ == "__main__":
    unittest.main()

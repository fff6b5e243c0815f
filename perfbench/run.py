"""Seeded benchmark of axisspace: quantifier elimination, sentence decision
and the invariant calculus.

Usage, from the repository root::

    python3 perfbench/run.py --workload qe-random --seed 1 --seconds 10 --trace 0

A run builds its inputs from the seed, then times ``SETUPS`` cold
set-ups, each in a fresh interpreter running this script with
``--setup-only``: from process start to the point where the first timed op
would run.  ``setup_s`` is their median.  It then runs rounds of the workload's
fixed operation list, each round from cold library caches, until
``--seconds`` of timed work have passed (always at least one round).
Throughput is ops per round over the median round's op time; the
latency quantiles pool every op of every round.  The time metrics are
scaled to a reference machine speed (see ``SpeedProbe``).  After the timed phase
every output of the first round is checked; later rounds must reproduce
it exactly.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a single traced round
with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import oracle
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

LAYER_MODULES = (
    "fields", "linalg", "model", "formula", "qe", "invariant",
    "iso", "typespace", "finitefield", "context", "cli",
)
SETUPS = 5  # cold set-ups per run; setup_s is their median
# Machine-speed probe: a fixed pure-Python loop timed between ops, about
# every SPEED_EVERY_S of op time.  Every time metric is scaled by
# SPEED_REFERENCE_S / (the run's median probe time).
SPEED_EVERY_S = 0.25
SPEED_REFERENCE_S = 0.0115


class Library:
    """The freshly imported package and its modules, by layer name."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "axisspace" or m.startswith("axisspace.")]:
            del sys.modules[name]
        self.package = importlib.import_module("axisspace")
        if os.path.dirname(os.path.abspath(self.package.__file__)) != os.path.join(SRC, "axisspace"):
            raise ImportError(f"axisspace imported from {self.package.__file__}, not from {SRC}")
        for layer in LAYER_MODULES:
            setattr(self, layer, importlib.import_module("axisspace." + layer))

    def clear_caches(self):
        """Empty every memo cache of the library, as a fresh process has."""
        for layer in LAYER_MODULES:
            for value in list(vars(getattr(self, layer)).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def set_up(workload, seed):
    """Import the library and build the op list; returns (lib, ops, seconds).

    The list is shuffled so that ops of one kind or cost class are spread
    over the round: a slow spell of the machine then lands on a mix of ops
    instead of on the few that set a quantile."""
    start = time.perf_counter()
    lib = Library()
    ops = workloads.BUILDERS[workload](lib, seed)
    random.Random(f"order:{workload}:{seed}").shuffle(ops)
    return lib, ops, time.perf_counter() - start


def cold_setup_seconds(workload, seed):
    """Wall time from starting a fresh interpreter on this script to the
    end of its set-up, which it reports by printing ``ready``."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        seconds = time.perf_counter() - start
        child.stdout.read()
    if line != "ready\n" or child.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed (exit status {child.returncode})")
    return seconds


def speed_loop():
    total = 0
    for i in range(150_000):
        total += i * i
    return total


class SpeedProbe:
    """Times ``speed_loop`` now and then, between timed work.

    The machine this runs on is shared, and its speed drifts by about 15%
    over tens of seconds; the drift moves the loop and the library alike
    (the per-process median round time of qe-random divided by the loop's
    median time varied 3% across processes, against 10% for the round time
    alone).  ``factor`` rescales a run's times to the speed at which the
    loop takes ``SPEED_REFERENCE_S``."""

    def __init__(self):
        self.samples, self.due = [], 0.0

    def sample(self):
        t0 = time.perf_counter()
        speed_loop()
        self.samples.append(time.perf_counter() - t0)

    def after(self, seconds):
        self.due += seconds
        if self.due >= SPEED_EVERY_S:
            self.due = 0.0
            self.sample()

    def factor(self):
        return SPEED_REFERENCE_S / statistics.median(self.samples)


def run_round(lib, ops, tracer=None, counters=None, speed=None):
    """Time every op once; returns (outcomes, latencies, seconds of op
    time, which leaves out the speed probes)."""
    lib.clear_caches()
    outcomes, latencies = [], []
    clock = time.perf_counter
    for op in ops:
        if tracer is not None:
            tracer.active = True
        t0 = clock()
        try:
            outcome = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            outcome = workloads.Outcome("", None, error=f"{type(exc).__name__}: {exc}")
        latencies.append(clock() - t0)
        if tracer is not None:
            tracer.active = False
            _count_disjuncts(tracer, counters)
        if speed is not None:
            speed.after(latencies[-1])
        outcomes.append(outcome)
    return outcomes, latencies, sum(latencies)


def _count_disjuncts(tracer, counters):
    """Disjunct counts around simplify (the DNF size it expands, the
    disjuncts it keeps) and of every eliminate_exists output."""
    for name, metric_in, metric_out in (
        ("qe.simplify", "qe.simplify.disjuncts_in", "qe.simplify.disjuncts_out"),
        ("qe.eliminate_exists", None, "qe.output_disjuncts"),
    ):
        calls = tracer.captured[name]
        for args, result in calls:
            if metric_in:
                counters[metric_in] = counters.get(metric_in, 0) + oracle.dnf_size(args[0])
            counters[metric_out] = counters.get(metric_out, 0) + oracle.disjunct_count(result)
        calls.clear()


def tally(ops, outcomes, mismatched, rounds):
    """Check the first round's outcomes; returns (failed ops over all
    rounds, labels of failures other than the known qe incompleteness)."""
    failed, unexpected = 0, []
    for op, outcome, bad_repeat in zip(ops, outcomes, mismatched):
        if outcome.error is not None:
            reason = f"raised {outcome.error}"
        elif bad_repeat:
            reason = "a later round differed from the first"
        else:
            verdict = _verdict(op, outcome)
            known = workloads.KNOWN_INCOMPLETE.get(op.label, ())
            missed = verdict.envs if isinstance(verdict, workloads.Missed) else ()
            if known and (verdict is True or (missed and set(missed) < set(known))):
                print(f"perfbench: {op.label} misses witnesses in environments {missed}, not {known} "
                      "as known; update KNOWN_INCOMPLETE in workloads.py and the README", file=sys.stderr)
            if verdict is True:
                continue
            if missed and set(missed) <= set(known):
                failed += rounds
                print(f"perfbench: failed (known fallback incompleteness) {op.label}", file=sys.stderr)
                continue
            reason = f"missed a witness in environments {missed}" if missed else "wrong output"
        failed += rounds
        print(f"perfbench: FAILED {op.label}: {reason}", file=sys.stderr)
        unexpected.append(op.label)
    for probes in {id(op.probes): op.probes for op in ops if op.probes is not None}.values():
        print(f"perfbench: grid search ran on {probes.ran} parameter choices without a witness "
              f"(sample of {probes.needed})", file=sys.stderr)
        if probes.ran < probes.needed:
            unexpected.append("grid-probes")
    return failed, unexpected


def _verdict(op, outcome):
    try:
        return op.check(outcome)
    except Exception:  # a check that cannot finish counts the op as failed
        traceback.print_exc()
        return False


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, print 'ready' and exit")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "axisspace")):
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.BUILDERS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(workloads.BUILDERS)}", file=sys.stderr)
        return 2

    lib, ops, own_setup = set_up(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    speed = None if args.trace else SpeedProbe()
    setup_times = []
    for _ in range(0 if args.trace else SETUPS):
        speed.sample()
        setup_times.append(cold_setup_seconds(args.workload, args.seed))

    tracer = None
    counters: dict = {}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.capture("qe.simplify", "qe.eliminate_exists")
        tracer.install(lib.package)

    first, latencies, walls = None, [], []
    mismatched = [False] * len(ops)
    while True:
        outcomes, lat, wall = run_round(lib, ops, tracer, counters, speed)
        latencies.extend(lat)
        walls.append(wall)
        if first is None:
            first = outcomes
        else:
            for i, (a, b) in enumerate(zip(first, outcomes)):
                if (a.text, a.extra, a.error) != (b.text, b.extra, b.error):
                    mismatched[i] = True
        if tracer is not None or sum(walls) >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    checks_start = time.perf_counter()
    rounds = len(walls)
    failed, unexpected = tally(ops, first, mismatched, rounds)
    checks_s = time.perf_counter() - checks_start

    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}"))
        metrics = tracing.layer_metrics(tracer, counters, rounds)
    else:
        speed.sample()
        raw = {
            "setup_s": statistics.median(setup_times),
            "throughput_ops_s": len(ops) / statistics.median(walls),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        }
        factor = speed.factor()
        print(f"perfbench: speed factor {factor:.4f} over {len(speed.samples)} probes; unscaled "
              + json.dumps(raw), file=sys.stderr)
        metrics = {
            "setup_s": {"value": raw["setup_s"] * factor, "unit": "s"},
            "throughput_ops_s": {"value": raw["throughput_ops_s"] / factor, "unit": "1/s"},
            "latency_p50_ms": {"value": raw["latency_p50_ms"] * factor, "unit": "ms"},
            "latency_p90_ms": {"value": raw["latency_p90_ms"] * factor, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "output_bytes": {"value": sum(len(o.text.encode("utf-8")) for o in first), "unit": "B"},
        }
    result = {
        "correct": not unexpected,
        "attempted": len(ops) * rounds,
        "failed": failed,
        "metrics": metrics,
    }
    print(
        f"perfbench: {args.workload} seed={args.seed} rounds={rounds} ops/round={len(ops)} "
        f"setup={own_setup:.2f}s cold setups={sum(setup_times):.2f}s timed={sum(walls):.2f}s checks={checks_s:.2f}s",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

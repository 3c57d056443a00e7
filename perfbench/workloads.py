"""The four workloads: their inputs, one timed pass, and its gate.

Every load is closed-loop from one client process: the next op starts when
the previous one has returned.  Only sweep_n8_jsonl_j2 starts worker
processes (two, inside `verify.sweep`).
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import toeplab.cli as cli
import toeplab.verify as verify
from toeplab.toeplitz import parse_literal

import gate as gates
import spans

SWEEP_N8_INSTANCES = 21_343

# Fixed members of large_instances: big n loads the boolmat kernel and graph
# extraction; T240 (period 12) and T150 (power index 147) load the power
# scan and the step-set run instead of row width.
LARGE_FIXED = ("T100<3,7;5>", "T200<3,7;5>", "T400<3,7;5>", "T240<5;7>", "T150<1;2>")
# Seeded picks from two frozen pools: LARGE_BELOW instances clearly cheaper
# than T200 and T240 (which cost about the same) and LARGE_ABOVE clearly
# costlier, each among the LARGE_WINDOW members nearest evenly spaced cost
# ranks.  With T100 below and T150, T400 above, the median op of every pass
# is T200 or T240, so op_p50_ms does not depend on the seed.
LARGE_BELOW = 5
LARGE_ABOVE = 3
LARGE_WINDOW = 3

CLI_KINDS = ("period", "competition", "graph", "psets", "walk", "walk_exact", "certificate", "bound")
# Per kind and pass; 8 * 150 = 1,200 calls put 12 samples beyond op_p99_ms.
CLI_PER_KIND = 150


def stratified(pool: list, k: int, rng: random.Random, width: int = 0) -> list:
    """k seeded picks from the pool sorted by frozen cost: one from each of k
    equal bands or, given a width, from the `width` members nearest the
    middle of each band.  Either way the sample's cost, and the rank of each
    pick in it, hardly depend on the seed."""
    ranked = sorted(pool, key=lambda e: (e["cost_s"], json.dumps(e, sort_keys=True)))
    picks = []
    for i in range(k):
        lo, hi = i * len(ranked) // k, (i + 1) * len(ranked) // k
        if width:
            lo = max(0, (lo + hi - width) // 2)
            hi = lo + width
        picks.append(rng.choice(ranked[lo:hi]))
    return picks


@dataclass
class PassResult:
    wall_ns: int
    latencies_ns: list = field(default_factory=list)
    stdout_bytes: int = 0


class OpTimer:
    """The one wrapper of an untraced pass: it times each call at the
    verify_instance boundary and notes reports that are not clean."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.unclean: list[str] = []
        self._undo: list = []

    def install(self):
        fn = verify.verify_instance
        latencies, unclean, clock = self.latencies_ns, self.unclean, time.perf_counter_ns

        def timed(*args, **kwargs):
            t0 = clock()
            report = fn(*args, **kwargs)
            latencies.append(clock() - t0)
            if not gates.report_is_clean(report):
                unclean.append(report.spec.literal)
            return report

        self._undo = spans.rebind(fn, timed)

    def uninstall(self):
        spans.restore(self._undo)


class Sweep:
    """`toeplab verify --nmax 8 --all` through cli.main, stdout hashed."""

    def __init__(self, name: str, argv: list, expected_sha256: str, workers: int):
        self.name = name
        self.argv = argv
        self.expected = expected_sha256
        self.workers = workers
        # In-process, each op is timed at the verify_instance boundary; the
        # workers of a multi-process sweep are neither timed nor traced.
        self.per_op_samples = workers == 0
        self.ops = SWEEP_N8_INSTANCES
        self.counts = {"instances": self.ops, "queries": 0}
        self.traced_spans = None if self.per_op_samples else spans.PARENT_SIDE
        self.op_span = "verify.verify_instance" if self.per_op_samples else "verify.SweepReport.add"

    def run_pass(self, gate: gates.Gate, tracer=None) -> PassResult:
        sink = gates.HashSink()
        timer = OpTimer()
        if tracer is not None:
            tracer.install(self.traced_spans, self.op_span, sink)
        if self.per_op_samples:
            timer.install()
        t0 = time.perf_counter_ns()
        try:
            with redirect_stdout(sink):
                code = cli.main(self.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a sweep that raises fails every op of its pass
            code = repr(exc)
        finally:
            wall = time.perf_counter_ns() - t0
            timer.uninstall()
            if tracer is not None:
                tracer.uninstall()
        gate.stream(self.ops, timer.unclean, code, sink.hexdigest(), self.expected)
        return PassResult(wall, timer.latencies_ns, sink.bytes)


class LargeInstances:
    """verify_instance on the fixed large members plus a seeded sample."""

    def __init__(self, seed: int, reference: dict):
        frozen = {e["spec"]: e["digest"] for e in reference["large_fixed"]}
        rng = random.Random(seed)
        sample = stratified(reference["large_below"], LARGE_BELOW, rng, LARGE_WINDOW)
        sample += stratified(reference["large_above"], LARGE_ABOVE, rng, LARGE_WINDOW)
        frozen.update((e["spec"], e["digest"]) for e in sample)
        self.name = "large_instances"
        self.literals = list(LARGE_FIXED) + [e["spec"] for e in sample]
        self.specs = [parse_literal(lit) for lit in self.literals]
        self.expected = [frozen[lit] for lit in self.literals]
        self.ops = len(self.specs)
        self.counts = {"instances": self.ops, "queries": 0}
        self.workers = 0
        self.per_op_samples = True
        self.traced_spans = None
        self.op_span = "verify.verify_instance"

    def run_pass(self, gate: gates.Gate, tracer=None) -> PassResult:
        timer = OpTimer()
        if tracer is not None:
            tracer.install(self.traced_spans, self.op_span)
        timer.install()
        outcomes = []
        t0 = time.perf_counter_ns()
        try:
            for spec in self.specs:
                try:
                    outcomes.append(verify.verify_instance(spec))
                except Exception as exc:  # an op that raises is a failed op
                    outcomes.append(exc)
        finally:
            wall = time.perf_counter_ns() - t0
            timer.uninstall()
            if tracer is not None:
                tracer.uninstall()
        for literal, expected, outcome in zip(self.literals, self.expected, outcomes):
            if isinstance(outcome, Exception):
                gate.op(False, f"{literal} raised {outcome!r}")
            else:
                ok = gates.report_is_clean(outcome) and gates.report_digest(outcome) == expected
                gate.op(ok, f"{literal} report differs from the reference")
        return PassResult(wall, timer.latencies_ns)


class CliQueries:
    """A seeded mix of single-instance CLI calls through cli.main."""

    def __init__(self, seed: int, reference: dict):
        rng = random.Random(seed)
        queries = []
        for kind in CLI_KINDS:
            # Every pooled query of the kind as often as fits, the remainder
            # drawn by cost band: the seed changes the mix and its order but
            # hardly the pass's cost or its slowest calls.
            pool = reference["cli_pool"][kind]
            repeats, extra = divmod(CLI_PER_KIND, len(pool))
            queries += pool * repeats + stratified(pool, extra, rng)
        rng.shuffle(queries)
        self.name = "cli_queries"
        self.queries = [q["argv"] for q in queries]
        self.expected = [q["digest"] for q in queries]
        self.ops = len(queries)
        self.counts = {"instances": len({q["argv"][1] for q in queries}), "queries": self.ops}
        self.workers = 0
        self.per_op_samples = True
        self.traced_spans = None
        self.op_span = "cli.main"

    def run_pass(self, gate: gates.Gate, tracer=None) -> PassResult:
        out = io.StringIO()
        outcomes = []
        latencies = []
        clock = time.perf_counter_ns
        if tracer is not None:
            tracer.install(self.traced_spans, self.op_span)
        t0 = clock()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                for argv in self.queries:
                    start = clock()
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    except Exception as exc:  # an op that raises is a failed op
                        code = repr(exc)
                    latencies.append(clock() - start)
                    outcomes.append((out.getvalue(), code))
                    out.seek(0)
                    out.truncate()
        finally:
            wall = clock() - t0
            if tracer is not None:
                tracer.uninstall()
        stdout_bytes = 0
        for argv, expected, (stdout, code) in zip(self.queries, self.expected, outcomes):
            stdout_bytes += len(stdout.encode())
            ok = code == 0 and gates.output_digest(stdout, code) == expected
            gate.op(ok, f"{' '.join(argv)} exited {code} or printed other output")
        return PassResult(wall, latencies, stdout_bytes)


NAMES = ("sweep_n8", "large_instances", "sweep_n8_jsonl_j2", "cli_queries")


def build(name: str, seed: int):
    """The workload's inputs; the two sweeps are exhaustive and ignore the seed."""
    if name == "sweep_n8":
        argv = ["verify", "--nmax", "8", "--all", "--format", "json", "--jobs", "1"]
        return Sweep(name, argv, gates.SWEEP_N8_JSON_SHA256, workers=0)
    if name == "sweep_n8_jsonl_j2":
        argv = ["verify", "--nmax", "8", "--all", "--format", "jsonl", "--jobs", "2"]
        return Sweep(name, argv, gates.SWEEP_N8_JSONL_SHA256, workers=2)
    if name == "large_instances":
        return LargeInstances(seed, gates.load_reference())
    if name == "cli_queries":
        return CliQueries(seed, gates.load_reference())
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")

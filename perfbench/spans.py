"""Spans around calls into toeplab's modules, installed from outside.

A traced pass rebinds each target function, in every toeplab module that
holds it, to a wrapper that records one span per call: name, start, end,
parent span and op id.  Spans stay in memory in flat arrays and are written
out once, after the pass.  Self time (duration minus direct child spans),
call counts and a few work counts computed from arguments and results are
accumulated as the spans close.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

TOEPLAB = "toeplab"


def _row_ors(args, kwargs, result):
    # The left operand's set bits: one row OR each.
    return (("row_ors", sum(r.bit_count() for r in args[0].rows)),)


def _power_steps(args, kwargs, result):
    tail = result[0]
    return (("steps", tail.index + tail.period),)


def _products(args, kwargs, result):
    # B_m for m past the power index repeats one product per cycle position.
    return (("products", len({id(b) for b in result[1]})),)


def _step_set_steps(args, kwargs, result):
    steps = len(result)
    table = args[2] if len(args) > 2 else kwargs.get("table")
    reused = 0
    if table is not None:
        # Steps at or past the power index read the realized set of a cycle
        # position; all but the first visit to each position are reuses.
        tail = table[0]
        reused = max(0, steps - tail.index + 1 - tail.period)
    return (("steps", steps), ("reused", reused))


def _edges(args, kwargs, result):
    return (("edges", len(result.edges)),)


def _incomplete(args, kwargs, result):
    return (("incomplete", int(result.incomplete)),)


# (module, attribute path, span name, work counter).  The span name is the
# metric prefix.  Every target is a function the sweep, the large instances
# or the CLI queries reach.
TARGETS = (
    ("boolmat", "BoolMatrix.multiply", "boolmat.multiply", _row_ors),
    ("boolmat", "BoolMatrix.transpose", "boolmat.transpose", None),
    ("boolmat", "BoolMatrix.fingerprint", "boolmat.fingerprint", None),
    ("boolmat", "BoolMatrix.power", "boolmat.power", None),
    ("spectra", "power_table", "spectra.power_table", _power_steps),
    ("spectra", "competition_table", "spectra.competition_table", _products),
    ("spectra", "power_is_eventually_toeplitz", "spectra.power_is_eventually_toeplitz", None),
    ("walks", "step_set_run", "walks.step_set_run", _step_set_steps),
    ("walks", "congruent_offsets", "walks.congruent_offsets", None),
    ("walks", "bound_hypothesis_holds", "walks.bound_hypothesis_holds", None),
    ("walks", "build_walk_with_counts", "walks.build_walk_with_counts", None),
    ("walks", "extend_walk_exact", "walks.extend_walk_exact", None),
    ("walks", "schedule_steps", "walks.schedule_steps", None),
    ("walks", "step_set_stabilization", "walks.step_set_stabilization", None),
    ("compgraph", "SimpleGraph.from_symmetric_matrix", "compgraph.from_symmetric_matrix", _edges),
    ("compgraph", "competition_graph_formula", "compgraph.competition_graph_formula", None),
    ("compgraph", "residue_clique_graph", "compgraph.residue_clique_graph", None),
    ("compgraph", "m_step_graph", "compgraph.m_step_graph", None),
    ("toeplitz", "pair_sum_gcd", "toeplitz.pair_sum_gcd", None),
    ("toeplitz", "build_matrix", "toeplitz.build_matrix", None),
    ("toeplitz", "bezout_certificate", "toeplitz.bezout_certificate", None),
    ("verify", "verify_instance", "verify.verify_instance", _incomplete),
    ("verify", "InstanceReport.to_json_dict", "verify.InstanceReport.to_json_dict", None),
    ("verify", "SweepReport.add", "verify.SweepReport.add", None),
    ("verify", "sweep", "verify.sweep", None),
    ("cli", "main", "cli.main", None),
)

# What the parent process of a multi-process sweep runs; the workers run
# everything else, and their spans are not recorded.
PARENT_SIDE = ("verify.InstanceReport.to_json_dict", "verify.SweepReport.add", "verify.sweep", "cli.main")


def rebind(original, replacement) -> list:
    """Replace `original` by `replacement` wherever a toeplab module or class
    holds it; return (owner, attribute, original) triples to undo with."""
    undo = []
    for name, module in list(sys.modules.items()):
        if name != TOEPLAB and not name.startswith(TOEPLAB + "."):
            continue
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, replacement)
                    undo.append((owner, attr, original))
    return undo


def restore(undo: list):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _resolve(module: str, path: str):
    owner = sys.modules[f"{TOEPLAB}.{module}"]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[attr]


class _JsonShim:
    """Stands in for the json module inside toeplab.verify, so that the
    per-line serialization of a streamed sweep is a span of its own."""

    def __init__(self, json_module, dumps):
        self._json = json_module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._json, name)


class Tracer:
    """Span store for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[list[int]] = []
        self._op = [-1]
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def wrap(self, name: str, fn, counter=None, starts_op: bool = False):
        """`fn` with a span per call; `starts_op` gives each call a new op id."""
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack, op, calls, self_ns, counts = self._stack, self._op, self.calls, self.self_ns, self.counts

        def traced(*args, **kwargs):
            idx = len(starts)
            if starts_op:
                op[0] += 1
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(op[0])
            ends.append(0)
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                ends[idx] = t0 + dur
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]
            if counter is not None:
                for key, value in counter(args, kwargs, result):
                    counts[f"{name}.{key}"] += value
            return result

        return functools.wraps(fn)(traced)

    def install(self, names=None, op_span=None, sink=None):
        """Wrap the TARGETS whose span name is in `names` (all when None).
        Wrapping `verify.sweep` also times verify's per-line json.dumps, and
        a given `sink` gets its writes timed as `sink.write`."""
        for module, path, name, counter in TARGETS:
            if names is not None and name not in names:
                continue
            raw = _resolve(module, path)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapped = self.wrap(name, fn, counter, starts_op=name == op_span)
            self._undo += rebind(raw, classmethod(wrapped) if is_classmethod else wrapped)
            if name == "verify.sweep":
                verify = sys.modules[f"{TOEPLAB}.verify"]
                shim = _JsonShim(verify.json, self.wrap("verify.json.dumps", verify.json.dumps))
                self._undo.append((verify, "json", verify.json))
                verify.json = shim
        if sink is not None:
            self._undo.append((sink, "write", sink.write))
            sink.write = self.wrap("sink.write", sink.write)

    def uninstall(self):
        restore(self._undo)
        self._undo = []

    def span_count(self) -> int:
        return len(self.start)

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def write(self, path):
        """One JSON header line, then the raw span arrays in header order."""
        fields = ("name", "parent", "op", "start", "end")
        header = {
            "spans": self.span_count(),
            "names": self.names,
            "fields": [[f, getattr(self, f).typecode, getattr(self, f).itemsize] for f in fields],
            "byteorder": sys.byteorder,
            "clock": "perf_counter_ns",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)

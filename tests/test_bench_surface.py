"""The part of toeplab that perfbench traces must stay in place.

perfbench/spans.py resolves each of its targets as vars(owner)[attr], so a
renamed or deleted function breaks every traced benchmark pass with a
KeyError, although no test of the library itself would notice.
"""

import importlib.util
import inspect
import io
import json
from pathlib import Path

import toeplab
import toeplab.cli
import toeplab.compgraph
import toeplab.toeplitz
import toeplab.verify
import toeplab.walks
from toeplab.packed import ToeplitzKernel
from toeplab.spectra import power_table

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    # spans.py uses the standard library only; load it without putting
    # perfbench/ on sys.path.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    spans = load_spans()
    assert spans.TARGETS
    for module, path, name, _ in spans.TARGETS:
        target = spans._resolve(module, path)
        fn = target.__func__ if isinstance(target, classmethod) else target
        assert callable(fn), name


def test_pair_sum_gcd_held_where_the_selftest_looks():
    # perfbench/selftest.py checks that tracing rebinds pair_sum_gcd in
    # each of these modules, which only works while each one holds it.
    original = toeplab.toeplitz.pair_sum_gcd
    holders = (toeplab, toeplab.verify, toeplab.walks, toeplab.compgraph, toeplab.cli)
    for module in holders:
        assert vars(module).get("pair_sum_gcd") is original, module.__name__


def test_step_set_counter_reads_the_power_table():
    # spans._step_set_steps takes the power table from step_set_run's third
    # positional argument or its table= keyword; if that parameter moved,
    # walks.step_set_run.realized_reuse_ratio would read 0 without an error.
    params = list(inspect.signature(toeplab.walks.step_set_run).parameters)
    assert params[2] == "table"

    spec = toeplab.toeplitz.parse_literal("T8<1,4;2,5>")
    table = power_table(ToeplitzKernel(spec))
    horizon = table[0].index + 2 * table[0].period
    run = toeplab.walks.step_set_run(spec, horizon, table=table)
    counts = dict(load_spans()._step_set_steps((spec, horizon), {"table": table}, run))
    assert counts["steps"] == horizon and counts["reused"] > 0


def test_verify_holds_the_json_module():
    # spans.Tracer.install swaps toeplab.verify.json for a shim that times
    # json.dumps, and reads verify.json.dumps to build it.
    assert toeplab.verify.json is json


def test_jsonl_stream_reads_to_json_dict():
    # perfbench/selftest.py alters one streamed line by rebinding
    # InstanceReport.to_json_dict, as spans.rebind does; the altered run
    # must fail the benchmark's stream hash.
    spans = load_spans()
    original = toeplab.verify.InstanceReport.to_json_dict
    calls = []

    def altered(self):
        calls.append(self.spec.literal)
        data = original(self)
        data["d"] += 1
        return data

    plain, changed = io.StringIO(), io.StringIO()
    toeplab.verify.sweep(3, require_conditions=False, report_stream=plain)
    undo = spans.rebind(original, altered)
    try:
        toeplab.verify.sweep(3, require_conditions=False, report_stream=changed)
    finally:
        spans.restore(undo)
    assert len(calls) == 10 and toeplab.verify.InstanceReport.to_json_dict is original
    assert [json.loads(line)["d"] for line in changed.getvalue().splitlines()] == [
        json.loads(line)["d"] + 1 for line in plain.getvalue().splitlines()
    ]

"""The part of toeplab that perfbench traces must stay in place.

perfbench/spans.py resolves each of its targets as vars(owner)[attr], so a
renamed or deleted function breaks every traced benchmark pass with a
KeyError, although no test of the library itself would notice.
"""

import importlib.util
from pathlib import Path

import toeplab
import toeplab.cli
import toeplab.compgraph
import toeplab.toeplitz
import toeplab.verify
import toeplab.walks

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

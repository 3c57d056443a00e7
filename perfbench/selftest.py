"""Self-test of the benchmark: the gate can fail, and exact counts repeat.

Usage, from the repository root:  python3 perfbench/selftest.py

Runs in about half a minute on a 2-core machine and exits nonzero on the
first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import program

program.load()

import toeplab  # noqa: E402
import toeplab.cli as cli  # noqa: E402
import toeplab.verify as verify  # noqa: E402
from toeplab.toeplitz import parse_literal  # noqa: E402

import gate as gates  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ORIGINAL_PAIR_SUM_GCD = toeplab.toeplitz.pair_sum_gcd
ORIGINAL_VERIFY_INSTANCE = verify.verify_instance


def expect(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def flip_one_check(report):
    name = next(n for n, outcome in report.checks.items() if outcome == verify.HOLDS)
    report.checks[name] = verify.FAILS


def test_gate_rejects_flipped_check():
    report = verify.verify_instance(parse_literal("T8<1,4;2,5>"))
    expected = gates.report_digest(report)
    gate = gates.Gate()
    gate.op(gates.report_is_clean(report) and gates.report_digest(report) == expected, "honest")
    expect(gate.correct, "the gate must pass an honest report")
    flip_one_check(report)
    gate.op(gates.report_is_clean(report) and gates.report_digest(report) == expected, "flipped")
    expect(gate.failed == 1 and gate.fail_ratio > 0, "the gate must fail a flipped check")


def test_gate_rejects_altered_stream():
    sink = gates.HashSink()
    lines = ['{"spec": "T2<1;1>", "d": 2}\n', '{"spec": "T3<1;1>", "d": 2}\n']
    for line in lines:
        sink.write(line)
    altered = gates.HashSink()
    altered.write(lines[0])
    altered.write(lines[1].replace('"d": 2', '"d": 1'))
    gate = gates.Gate()
    gate.stream(2, [], 0, sink.hexdigest(), sink.hexdigest())
    expect(gate.correct, "the gate must pass an unchanged stream")
    gate.stream(2, [], 0, altered.hexdigest(), sink.hexdigest())
    expect(gate.failed == 2 and gate.fail_ratio > 0, "the gate must fail an altered stream")


# Runs the real benchmark command in a fresh interpreter after patching one
# fault into the program; the command must report failed ops and exit 1.
FAULTY_RUN = """
import sys
sys.path.insert(0, {here!r})
import program
program.load()
import toeplab.verify as verify
import run
import selftest

kind = sys.argv[1]
state = {{"done": False}}
if kind == "flip":
    original = verify.verify_instance

    def faulty(*args, **kwargs):
        report = original(*args, **kwargs)
        if not state["done"]:
            state["done"] = True
            selftest.flip_one_check(report)
        return report

else:
    original = verify.InstanceReport.to_json_dict

    def faulty(self):
        data = original(self)
        if not state["done"]:
            state["done"] = True
            data["d"] += 1
        return data

import spans
spans.rebind(original, faulty)
sys.exit(run.main(sys.argv[2:]))
"""


def run_faulty(kind: str, workload: str):
    done = subprocess.run(
        [sys.executable, "-c", FAULTY_RUN.format(here=str(HERE)), kind,
         "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=program.ROOT,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expect(done.returncode == 1, f"{kind} on {workload}: exit {done.returncode}, wanted 1")
    expect(not result["correct"] and result["failed"] > 0, f"{kind} on {workload}: {result}")
    expect(result["failed"] / result["attempted"] > 0, "fail_ratio must be above 0")


def test_command_fails_on_flipped_check():
    run_faulty("flip", "large_instances")


def test_command_fails_on_altered_jsonl_line():
    run_faulty("alter", "sweep_n8_jsonl_j2")


def traced_counts(argv):
    tracer = spans.Tracer()
    sink = gates.HashSink()
    tracer.install(sink=sink, op_span="verify.verify_instance")
    try:
        wrapped = toeplab.toeplitz.pair_sum_gcd
        holders = (toeplab, toeplab.verify, toeplab.walks, toeplab.compgraph, toeplab.cli)
        expect(
            wrapped.__wrapped__ is ORIGINAL_PAIR_SUM_GCD
            and all(module.pair_sum_gcd is wrapped for module in holders),
            "a wrapped name must be rebound in every module that imported it",
        )
        with redirect_stdout(sink):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
    expect(code == 0, f"{argv} exited {code}")
    values = run.layer_values(tracer, workloads.PassResult(0, stdout_bytes=sink.bytes))
    return tracer, {n: v for n, v in values.items() if n.endswith(run.EXACT_SUFFIXES)}


def test_exact_counts_repeat():
    argv = ["verify", "--nmax", "5", "--all", "--format", "jsonl", "--jobs", "1"]
    instances = sum(1 for _ in verify.enumerate_specs(5, require_conditions=False))
    tracer, first = traced_counts(argv)
    _, second = traced_counts(argv)
    expect(first == second, f"exact counts differ: {first} vs {second}")
    expect(first["verify.verify_instance.calls"] == instances, "one verify_instance span per instance")
    expect(first["verify.verify_instance.incomplete"] == 0, "no instance may be incomplete")
    expect(first["boolmat.multiply.row_ors"] > 0 and first["compgraph.from_symmetric_matrix.edges"] > 0,
           "work counts must be recorded")
    expect(
        toeplab.verify.pair_sum_gcd is ORIGINAL_PAIR_SUM_GCD
        and toeplab.verify.verify_instance is ORIGINAL_VERIFY_INSTANCE
        and toeplab.boolmat.BoolMatrix.__mul__ is toeplab.boolmat.BoolMatrix.multiply
        and not hasattr(toeplab.boolmat.BoolMatrix.multiply, "__wrapped__"),
        "uninstall must restore every original",
    )
    run.OUT_DIR.mkdir(exist_ok=True)
    path = run.OUT_DIR / "spans-selftest.bin"
    tracer.write(path)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    size = sum(itemsize for _, _, itemsize in header["fields"]) * header["spans"]
    expect(header["spans"] == tracer.span_count() > 0, "every span is written")
    expect(path.stat().st_size == len(json.dumps(header)) + 1 + size, "span arrays are complete")
    path.unlink()


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

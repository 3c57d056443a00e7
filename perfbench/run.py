"""toeplab benchmark: one workload, timed end to end or traced per module.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep_n8, large_instances, sweep_n8_jsonl_j2, cli_queries (see
perfbench/README.md).  Passes of the workload repeat until S seconds have
gone by; every pass is checked by the gate.  With --trace 0 the run reports
the end-to-end metrics as medians over passes (quartiles and sample counts
on the lines above the result).  With --trace 1 it alternates untraced and
traced passes and reports the per-layer metrics and the tracing overhead,
and writes the spans of the last traced pass to .perfbench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every op passed
the gate, 1 when any op failed, and 2 when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import program
import spans

OUT_DIR = program.ROOT / ".perfbench_out"
# Fresh-interpreter set-up probes, run after the passes so that the only
# children reaped during the passes are pool workers (see peak_rss_mb).
SETUP_PROBES = 10
# Room left for the probes when deciding whether another pass fits.
PROBES_ALLOWANCE_S = 2.0
MB = 1024.0  # ru_maxrss is in KiB on Linux

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# name -> unit, in BENCHMARK.json order; "<span>.calls" and "<span>.self_s"
# come from the tracer, the rest are work counts or derived values.
PER_LAYER = {
    "boolmat.multiply.calls": "count",
    "boolmat.multiply.self_s": "s",
    "boolmat.multiply.row_ors": "count",
    "boolmat.transpose.calls": "count",
    "boolmat.transpose.self_s": "s",
    "boolmat.fingerprint.calls": "count",
    "boolmat.fingerprint.self_s": "s",
    "boolmat.power.self_s": "s",
    "spectra.power_table.calls": "count",
    "spectra.power_table.self_s": "s",
    "spectra.power_table.steps": "count",
    "spectra.competition_table.self_s": "s",
    "spectra.competition_table.products": "count",
    "spectra.power_is_eventually_toeplitz.self_s": "s",
    "walks.step_set_run.calls": "count",
    "walks.step_set_run.self_s": "s",
    "walks.step_set_run.steps": "count",
    "walks.step_set_run.realized_reuse_ratio": "ratio",
    "walks.congruent_offsets.calls": "count",
    "walks.congruent_offsets.self_s": "s",
    "walks.bound_hypothesis_holds.self_s": "s",
    "walks.build_walk_with_counts.self_s": "s",
    "walks.extend_walk_exact.self_s": "s",
    "walks.schedule_steps.self_s": "s",
    "walks.step_set_stabilization.self_s": "s",
    "compgraph.from_symmetric_matrix.calls": "count",
    "compgraph.from_symmetric_matrix.self_s": "s",
    "compgraph.from_symmetric_matrix.edges": "count",
    "compgraph.competition_graph_formula.self_s": "s",
    "compgraph.residue_clique_graph.self_s": "s",
    "compgraph.m_step_graph.self_s": "s",
    "toeplitz.pair_sum_gcd.calls": "count",
    "toeplitz.pair_sum_gcd.self_s": "s",
    "toeplitz.build_matrix.calls": "count",
    "toeplitz.bezout_certificate.self_s": "s",
    "verify.verify_instance.calls": "count",
    "verify.verify_instance.self_s": "s",
    "verify.verify_instance.incomplete": "count",
    "verify.InstanceReport.to_json_dict.self_s": "s",
    "verify.SweepReport.add.self_s": "s",
    "verify.sweep.parent_wait_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly between traced runs of the same code.
EXACT_SUFFIXES = (
    ".calls", ".steps", ".row_ors", ".edges", ".products", ".incomplete", ".stdout_bytes", ".spans",
)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def spread(values):
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, per pool worker, the largest peak of
    any child reaped so far."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers:
        own += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / MB


def pass_metrics(wl, result) -> dict:
    wall_s = result.wall_ns / 1e9
    if result.latencies_ns:
        lat = sorted(result.latencies_ns)
        p50, p99 = percentile(lat, 0.50) / 1e6, percentile(lat, 0.99) / 1e6
    else:
        # Reports of a multi-process sweep reach the parent in pool batches,
        # so only the amortised time per op is observable there.
        p50 = p99 = wall_s * 1e3 / wl.ops
    return {
        "wall_s": wall_s,
        "ops_per_s": wl.ops / wall_s,
        "op_p50_ms": p50,
        "op_p99_ms": p99,
        "peak_rss_mb": peak_rss_mb(wl.workers),
    }


def repeat_until(seconds: float, one_round) -> int:
    """Run rounds until the next one would end after `seconds`; at least one."""
    start = time.monotonic()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return rounds


def setup_seconds(name: str, seed: int) -> list[float]:
    """Fresh-interpreter set-up times: start to inputs generated."""
    probe = program.ROOT / "perfbench" / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, str(probe), name, str(seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append((int(done.stdout.split()[-1]) - t0) / 1e9)
    return times


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((program.SRC / "toeplab").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def git_sha() -> str | None:
    if not (program.ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(program.ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


def run_end_to_end(wl, gate, seed: int, seconds: float) -> tuple[dict, list[str]]:
    per_pass = []
    repeat_until(seconds - PROBES_ALLOWANCE_S, lambda: per_pass.append(pass_metrics(wl, wl.run_pass(gate))))
    setups = setup_seconds(wl.name, seed)
    per_pass_values = {name: [p[name] for p in per_pass] for name in END_TO_END if name != "setup_s"}
    per_pass_values["setup_s"] = setups
    metrics, lines = {}, []
    for name, unit in END_TO_END.items():
        med, q1, q3 = spread(per_pass_values[name])
        metrics[name] = {"value": med, "unit": unit}
        if name == "setup_s":
            basis = f"median of {len(setups)} fresh interpreters"
        else:
            basis = f"median of {len(per_pass)} passes"
        if name.startswith("op_p"):
            basis += (
                f", {wl.ops} samples per pass" if wl.per_op_samples
                else ", amortised wall_s / ops: no per-op samples in the parent"
            )
        lines.append(f"{name} = {med:.6g} {unit}  ({basis}; q1 {q1:.6g}, q3 {q3:.6g})")
    return metrics, lines


def layer_values(tracer, result) -> dict:
    values = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = tracer.calls_of(span)
        elif kind == "self_s":
            values[name] = tracer.self_s(span)
        else:
            values[name] = tracer.counts.get(name, 0)
    steps = values["walks.step_set_run.steps"]
    reused = tracer.counts.get("walks.step_set_run.reused", 0)
    values["walks.step_set_run.realized_reuse_ratio"] = reused / steps if steps else 0.0
    values["verify.sweep.parent_wait_s"] = tracer.self_s("verify.sweep")
    values["cli.stdout_bytes"] = result.stdout_bytes
    values["trace.spans"] = tracer.span_count()
    return values


def run_traced(wl, gate, seconds: float) -> tuple[dict, list[str]]:
    plain, traced, layers = [], [], []
    tracer = None

    def one_round():
        nonlocal tracer
        plain.append(wl.run_pass(gate).wall_ns / 1e9)
        tracer = spans.Tracer()  # only the last pass's spans stay in memory
        result = wl.run_pass(gate, tracer)
        traced.append(result.wall_ns / 1e9)
        layers.append(layer_values(tracer, result))

    repeat_until(seconds, one_round)
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{wl.name}.bin"
    tracer.write(span_file)
    lines = []
    exact = [n for n in PER_LAYER if n.endswith(EXACT_SUFFIXES)]
    if any(layer[n] != layers[0][n] for layer in layers for n in exact):
        lines.append("WARNING: exact counts differ between traced passes")
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = overhead
        elif name.endswith(EXACT_SUFFIXES):
            value = layers[0][name]
        else:
            value = statistics.median(layer[name] for layer in layers)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name} = {value:.6g} {unit}")
    lines.append(
        f"tracing overhead: traced wall_s {statistics.median(traced):.4g} s vs untraced "
        f"{statistics.median(plain):.4g} s over {len(traced)} pass pairs; spans in {span_file.name}"
    )
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="toeplab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        toeplab = program.load()
    except program.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import gate as gates
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()[0]
    wl = workloads.build(args.workload, args.seed)
    gate = gates.Gate()
    if args.trace:
        metrics, lines = run_traced(wl, gate, args.seconds)
    else:
        metrics, lines = run_end_to_end(wl, gate, args.seed, args.seconds)

    meta = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        **wl.counts,
        "ops_per_pass": wl.ops,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "toeplab_version": toeplab.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }
    print("meta " + json.dumps(meta))
    for line in lines:
        print(line)
    print(f"fail_ratio = {gate.fail_ratio:.6g} ({gate.failed}/{gate.attempted} ops)")
    for why in gate.failures:
        print(f"FAILED {why}")
    result = {"correct": gate.correct, "attempted": gate.attempted, "failed": gate.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())

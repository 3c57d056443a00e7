"""Freeze the reference for large_instances and cli_queries.

Usage, from the repository root:  python3 perfbench/freeze.py

Generates the fixed candidate pools from POOL_SEED, runs each candidate
once on the current sources, and writes its input, output digest and cost
to perfbench/reference.json.  Run it only on a commit whose outputs are
known good (the file in the repository was frozen on the seed commit),
because the benchmark gate trusts these digests.

Candidates that are incomplete, report a violation, exit nonzero, or fall
outside the cost bands below are left out of the pools and listed.  The
bands keep one pass of each workload within a few seconds on a 2-core
machine, and keep T200 or T240 the median op of large_instances.
"""

from __future__ import annotations

import io
import json
import platform
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import program

program.load()

import toeplab.cli as cli  # noqa: E402
from toeplab.toeplitz import parse_literal, predicted_period, validate_spec  # noqa: E402
from toeplab.verify import verify_instance  # noqa: E402
from toeplab.walks import build_walk_with_counts  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = 20220829
# Pool sizes, and cost bands as multiples of T200's cost in the same run:
# "below" stays clearly under T200 and T240, "above" clearly over both.
LARGE_BELOW_SIZE = 32
LARGE_ABOVE_SIZE = 24
LARGE_BELOW_MAX = 0.55
LARGE_ABOVE_RANGE = (1.5, 2.5)
CLI_POOL_PER_KIND = 40
CLI_COST_CAP_S = 0.05


def random_spec(rng, n_lo, n_hi, max_steps, conditions=False):
    while True:
        n = rng.randint(n_lo, n_hi)
        hi = max(2, n // 3)
        fwd = rng.sample(range(1, hi), rng.randint(1, min(max_steps, hi - 1)))
        bwd = rng.sample(range(1, hi), rng.randint(1, min(max_steps, hi - 1)))
        spec = validate_spec(n, fwd, bwd)
        if spec.conditions_hold or not conditions:
            return spec


def frozen_report(spec):
    t0 = time.perf_counter()
    report = verify_instance(spec)
    cost = time.perf_counter() - t0
    return report, cost


def large_pools(rng, rejected, unit_s):
    below, above, seen = [], [], set(workloads.LARGE_FIXED)
    lo, hi = (unit_s * f for f in LARGE_ABOVE_RANGE)
    while len(below) < LARGE_BELOW_SIZE or len(above) < LARGE_ABOVE_SIZE:
        spec = random_spec(rng, 60, 200, 3)
        # A long predicted period makes the step-set horizon quadratic in it.
        if spec.literal in seen or predicted_period(spec) > 6:
            continue
        seen.add(spec.literal)
        report, cost = frozen_report(spec)
        entry = {"spec": spec.literal, "digest": gate.report_digest(report), "cost_s": round(cost, 4)}
        if not gate.report_is_clean(report):
            rejected["large_unclean"].append(spec.literal)
        elif cost <= unit_s * LARGE_BELOW_MAX:
            if len(below) < LARGE_BELOW_SIZE:
                below.append(entry)
        elif lo <= cost <= hi:
            if len(above) < LARGE_ABOVE_SIZE:
                above.append(entry)
        else:
            rejected["large_outside_bands"].append(spec.literal)
    return below, above


def _random_counts(spec, rng):
    """Arc counts for the forward and backward steps 2.., and their --counts text."""
    s_counts = tuple(rng.randint(0, 4) for _ in spec.forward_steps[1:])
    t_counts = tuple(rng.randint(0, 4) for _ in spec.backward_steps[1:])
    text = ",".join(
        [f"s{i}={c}" for i, c in enumerate(s_counts, start=2)]
        + [f"t{i}={c}" for i, c in enumerate(t_counts, start=2)]
    )
    return text, s_counts, t_counts


def _walk_exact_argv(spec, rng):
    start = rng.randint(1, spec.n)
    counts, s_counts, t_counts = _random_counts(spec, rng)
    a_used, b_used = build_walk_with_counts(spec, start, s_counts, t_counts).arc_counts()
    s1 = a_used[0] + rng.randint(0, 6)
    shift = start + s1 * spec.forward_steps[0]
    shift += sum(c * s for c, s in zip(s_counts, spec.forward_steps[1:]))
    shift -= sum(c * t for c, t in zip(t_counts, spec.backward_steps[1:]))
    t1_choices = [
        t1 for t1 in range(b_used[0], b_used[0] + 60) if 1 <= shift - t1 * spec.backward_steps[0] <= spec.n
    ]
    if not t1_choices:
        return None
    t1 = rng.choice(t1_choices)
    return ["walk", spec.literal, "--start", str(start), "--counts", counts, "--exact",
            "--s1", str(s1), "--t1", str(t1)]


def cli_candidate(kind, rng):
    fmt = rng.choice(("text", "json"))
    if kind in ("walk", "walk_exact"):
        spec = random_spec(rng, 10, 80, 3, conditions=True)
        if kind == "walk_exact":
            argv = _walk_exact_argv(spec, rng)
            return None if argv is None else argv + ["--format", fmt]
        start = rng.randint(1, spec.n)
        counts = _random_counts(spec, rng)[0]
        return ["walk", spec.literal, "--start", str(start), "--counts", counts, "--format", fmt]
    spec = random_spec(rng, 10, 80, 3)
    if kind == "graph":
        fmt = rng.choice(("text", "json", "dot"))
        return ["graph", spec.literal, "--m", str(rng.randint(1, 6)), "--format", fmt]
    if kind == "psets":
        return ["psets", spec.literal, "--stabilize", "--format", fmt]
    return [kind, spec.literal, "--format", fmt]


def run_cli(argv):
    out = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), code, time.perf_counter() - t0


def cli_pool(rng, rejected):
    pools = {}
    for kind in workloads.CLI_KINDS:
        pool, seen = [], set()
        while len(pool) < CLI_POOL_PER_KIND:
            argv = cli_candidate(kind, rng)
            if argv is None or tuple(argv) in seen:
                continue
            seen.add(tuple(argv))
            stdout, code, cost = run_cli(argv)
            if code != 0:
                rejected["cli_nonzero_exit"].append(argv)
            elif cost > CLI_COST_CAP_S:
                rejected["cli_slow"].append(argv)
            else:
                pool.append({"argv": argv, "digest": gate.output_digest(stdout, code), "cost_s": round(cost, 5)})
        pools[kind] = pool
    return pools


def main() -> int:
    rng = random.Random(POOL_SEED)
    rejected = {"large_unclean": [], "large_outside_bands": [], "cli_nonzero_exit": [], "cli_slow": []}
    fixed = []
    for literal in workloads.LARGE_FIXED:
        report, cost = frozen_report(parse_literal(literal))
        if not gate.report_is_clean(report):
            print(f"refusing to freeze: {literal} is not clean", file=sys.stderr)
            return 1
        fixed.append({"spec": literal, "digest": gate.report_digest(report), "cost_s": round(cost, 4)})
    # The cheapest of three runs of T200 sets the scale of the cost bands.
    unit_s = min(frozen_report(parse_literal("T200<3,7;5>"))[1] for _ in range(3))
    below, above = large_pools(rng, rejected, unit_s)
    reference = {
        "python": platform.python_version(),
        "pool_seed": POOL_SEED,
        "large_fixed": fixed,
        "large_below": below,
        "large_above": above,
        "cli_pool": cli_pool(rng, rejected),
    }
    with gate.REFERENCE.open("w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {gate.REFERENCE}")
    # Left out of the pools; an unclean instance or a failing call is a
    # finding about the program, not only about the pool.
    for reason, items in rejected.items():
        print(f"left out ({reason}): {len(items)}")
        for item in items:
            print(f"  {item}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s) and asserts all
of its sub-checks exactly; there are no tolerances anywhere because every
quantity is a discrete identity.  The heavy exhaustive run (all instances
up to n = 10, no condition filter) executes once and feeds criteria 3, 5,
and 7; criterion 4 runs its own unfiltered sweep at n = 8.
"""

import hashlib
import json
import os
import random

import pytest

from toeplab.compgraph import SimpleGraph, strong_components
from toeplab.packed import members
from toeplab.toeplitz import build_matrix, pair_sum_gcd, parse_literal, validate_spec
from toeplab.verify import FAILS, HOLDS, NOT_APPLICABLE, sweep
from toeplab.walks import (
    WalkConstructionError,
    build_walk_with_counts,
    competition_index_bound,
    congruent_offsets,
    extend_walk_exact,
    schedule_steps,
    step_set_run,
    walk_length_bound,
)

import oracles
from generic import competition_table, power_table

# sha256 of `toeplab verify --nmax 8 --all --format json` at any --jobs.
SWEEP8_JSON_SHA256 = "6bfbe3c81c056737719eb99ed0db1a0859bda317de8641855cbf6535e9ec410e"

T5 = parse_literal("T5<2;4>")
T8 = parse_literal("T8<1,4;2,5>")
T6 = parse_literal("T6<2,4;4,5>")

T5_DISPLAYS = {
    2: "5\n00001\n00000\n10000\n00000\n00100",
    0: "5\n10000\n00000\n00100\n00000\n00001",
    1: "5\n00100\n00000\n00001\n00000\n10000",
}


def _verdict(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} [{label}]: {status}")
    assert not failures, f"criterion {num} ({label}): {failures}"


@pytest.fixture(scope="module")
def sweep10():
    # sweep gives the same aggregate for any worker count; the serial path
    # is criterion 4's own sweep and tests/test_verify.py's TestSweep.
    return sweep(10, require_conditions=False, jobs=os.cpu_count() or 1)


def test_criterion_1_power_display_regression():
    failures = []
    a = build_matrix(T5)
    for m in range(2, 8):
        if oracles.matrix_text(5, a.power(m).rows) != T5_DISPLAYS[m % 3]:
            failures.append(f"power {m} mismatch")
        if a.power(m).is_toeplitz():
            failures.append(f"power {m} unexpectedly Toeplitz")
    if power_table(a)[0].period != 3:
        failures.append("measured period != 3")
    _verdict(1, "T5<2;4> display regression", failures)


def test_criterion_2_running_example_regression():
    failures = []
    if pair_sum_gcd(T8) != 3:
        failures.append("pair-sum gcd != 3")
    target = frozenset({-6, -3, 0, 3, 6})
    first, _, third = (
        [frozenset(members(mask, T8.n)) for mask in step[:3]] for step in step_set_run(T8, 3)
    )
    for name, offsets in zip(("congruent", "combination", "realized"), third):
        if offsets != target:
            failures.append(f"{name} offsets at 3 wrong")
    if congruent_offsets(T8, 3) != target:
        failures.append("pointwise congruent offsets at 3 wrong")
    if first[0] != frozenset({-5, -2, 1, 4, 7}):
        failures.append("congruent offsets at 1 wrong")
    if first[2] != frozenset({-5, -2, 1, 4}):
        failures.append("realized offsets at 1 wrong")
    if not first[2] < first[0]:
        failures.append("containment at 1 not strict")

    a = build_matrix(T8)
    if power_table(a)[0].period != 3:
        failures.append("matrix period != 3")
    ct, bs = competition_table(a)
    if ct.period != 1:
        failures.append("competition period != 1")
    limit = bs[ct.index - 1]
    entries = [[limit.get(u, v) for v in range(1, 9)] for u in range(1, 9)]
    if entries != oracles.naive_residue_matrix(8, 3):
        failures.append("competition limit != residue block matrix")
    g = SimpleGraph.from_symmetric_matrix(8, limit.rows)
    if oracles.connected_components(8, g.edges) != ((1, 4, 7), (2, 5, 8), (3, 6)):
        failures.append("limit cliques wrong")
    if competition_index_bound(T8) != 30:
        failures.append("bound != 30")
    _verdict(2, "T8<1,4;2,5> regression", failures)


def test_criterion_3_exhaustive_theorem_sweep(sweep10):
    failures = []
    expected_total = sum((2 ** (n - 1) - 1) ** 2 for n in range(2, 11))
    if sweep10.instances != expected_total:
        failures.append(f"instance count {sweep10.instances} != {expected_total}")

    # Independent count of the condition-satisfying subset.
    expected_conditioned = 0
    for n in range(2, 11):
        extremes = []
        for mask in range(1, 1 << (n - 1)):
            elems = [e for e in range(1, n) if (mask >> (e - 1)) & 1]
            extremes.append((min(elems), max(elems)))
        for fmin, fmax in extremes:
            for bmin, bmax in extremes:
                if fmax + bmin <= n and fmin + bmax <= n:
                    expected_conditioned += 1
    if sweep10.condition_instances != expected_conditioned:
        failures.append("conditioned count mismatch")

    if sweep10.incomplete:
        failures.append(f"{len(sweep10.incomplete)} incomplete instances")

    for predicate in (
        "period_match",
        "competition_period_is_1",
        "limit_block_match",
        "limit_clique_match",
        "eventually_toeplitz",
        "pqr_stabilized",
        "p_recurrence",
    ):
        if sweep10.fails(predicate):
            failures.append(f"{predicate}: {sweep10.fails(predicate)} violations")
        if sweep10.holds(predicate) != sweep10.condition_instances:
            failures.append(f"{predicate}: not evaluated on every conditioned instance")

    for predicate in ("containment_chain", "gcd_equality"):
        if sweep10.fails(predicate):
            failures.append(f"{predicate}: {sweep10.fails(predicate)} violations")
        if sweep10.holds(predicate) != sweep10.instances:
            failures.append(f"{predicate}: not evaluated on every instance")
    _verdict(3, "conditioned theorems, n <= 10", failures)


def test_criterion_4_unconditional_sweep_and_counterexamples():
    failures = []
    agg = sweep(8, require_conditions=False)
    expected_total = sum((2 ** (n - 1) - 1) ** 2 for n in range(2, 9))
    if agg.instances != expected_total:
        failures.append(f"instance count {agg.instances} != {expected_total}")
    for predicate in ("adjacency_necessity", "gcd_equality", "containment_chain"):
        if agg.fails(predicate):
            failures.append(f"{predicate}: {agg.fails(predicate)} violations")
        if agg.holds(predicate) != agg.instances:
            failures.append(f"{predicate}: not evaluated everywhere")
    # The bytes of `toeplab verify --nmax 8 --all --format json`.
    digest = hashlib.sha256((json.dumps(agg.to_json_dict()) + "\n").encode()).hexdigest()
    if digest != SWEEP8_JSON_SHA256:
        failures.append(f"json aggregate sha256 {digest} != {SWEEP8_JSON_SHA256}")

    a5 = build_matrix(T5)
    if any(a5.power(m).is_toeplitz() for m in range(2, 8)):
        failures.append("a T5 power >= 2 is Toeplitz")
    if strong_components(build_matrix(T6).rows) != ((1, 3, 5), (2, 4, 6)):
        failures.append("T6 strong components wrong")
    try:
        build_walk_with_counts(T6, 1, s_counts=(0,), t_counts=(1,))
        failures.append("T6 walk construction unexpectedly succeeded")
    except WalkConstructionError:
        pass
    _verdict(4, "unconditional sweep, n <= 8", failures)


def test_criterion_5_competition_index_bound(sweep10):
    failures = []
    if sweep10.fails("bound_holds"):
        failures.append(f"{sweep10.fails('bound_holds')} bound violations")
    counts = sweep10.outcome_counts["bound_holds"]
    evaluated = counts[HOLDS] + counts[NOT_APPLICABLE]
    if evaluated != sweep10.instances:
        failures.append("bound predicate dropped instances")
    if counts[HOLDS] == 0:
        failures.append("bound hypothesis never held, check is vacuous")
    _verdict(5, "competition index <= bound, n <= 10", failures)


def test_criterion_6_randomized_walk_properties():
    failures = []
    rng = random.Random(20706)

    def random_conditioned_spec():
        while True:
            n = rng.randint(2, 16)
            fwd = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
            bwd = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
            spec = validate_spec(n, fwd, bwd)
            if spec.conditions_hold:
                return spec

    def revalidate(spec, walk, case):
        # Independent of Walk's own constructor checks.
        if len(walk.vertices) != len(walk.arcs) + 1:
            failures.append(f"{case}: length mismatch")
        for v in walk.vertices:
            if not 1 <= v <= spec.n:
                failures.append(f"{case}: vertex {v} out of range")
        for k, arc in enumerate(walk.arcs):
            delta = walk.vertices[k + 1] - walk.vertices[k]
            steps = spec.forward_steps if arc.kind == "s" else spec.backward_steps
            want = steps[arc.index - 1] if arc.kind == "s" else -steps[arc.index - 1]
            if delta != want:
                failures.append(f"{case}: arc {k} mismatch")

    for case in range(500):
        spec = random_conditioned_spec()
        start = rng.randint(1, spec.n)
        s_counts = tuple(rng.randint(0, 5) for _ in spec.forward_steps[1:])
        t_counts = tuple(rng.randint(0, 5) for _ in spec.backward_steps[1:])
        try:
            walk = build_walk_with_counts(spec, start, s_counts, t_counts)
        except Exception as exc:
            failures.append(f"case {case}: builder raised {exc}")
            continue
        revalidate(spec, walk, f"case {case}")
        a, b = walk.arc_counts()
        if a[1:] != s_counts or b[1:] != t_counts:
            failures.append(f"case {case}: arc multiset wrong")
        if walk.length > walk_length_bound(spec, sum(s_counts) + sum(t_counts)):
            failures.append(f"case {case}: length bound violated")

        # Exercise the scheduler through an exact extension.
        extra_s, extra_t = rng.randint(0, 4), rng.randint(0, 4)
        target = walk.end + extra_s * spec.min_forward - extra_t * spec.min_backward
        if 1 <= target <= spec.n:
            terms = [spec.min_forward] * extra_s + [-spec.min_backward] * extra_t
            try:
                order = schedule_steps(walk.end, tuple(terms), spec.n)
            except Exception as exc:
                failures.append(f"case {case}: scheduler raised {exc}")
                continue
            positions = oracles.prefix_positions(walk.end, order)
            if not all(1 <= p <= spec.n for p in positions):
                failures.append(f"case {case}: schedule left the range")
            try:
                full = extend_walk_exact(
                    spec, start, a[0] + extra_s, b[0] + extra_t, s_counts, t_counts
                )
            except Exception as exc:
                failures.append(f"case {case}: exact extension raised {exc}")
                continue
            revalidate(spec, full, f"case {case} exact")
            fa, fb = full.arc_counts()
            if fa != (a[0] + extra_s,) + s_counts or fb != (b[0] + extra_t,) + t_counts:
                failures.append(f"case {case}: exact multiset wrong")
    _verdict(6, "500 randomized walk constructions", failures)


def test_criterion_7_formula_cross_validation(sweep10):
    failures = []
    if sweep10.fails("formula_match"):
        failures.append(f"{sweep10.fails('formula_match')} formula mismatches")
    if sweep10.holds("formula_match") != sweep10.instances:
        failures.append("formula equivalence not evaluated on every instance")
    _verdict(7, "formula == one-step graph, n <= 10", failures)

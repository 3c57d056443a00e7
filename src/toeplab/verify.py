"""Exhaustive verification harness.

Enumerates every (n, forward set, backward set) instance up to a size cap,
measures all periodic data exactly, evaluates every structural predicate,
and aggregates the results.  Predicates are tri-state so that instances
violating a hypothesis are reported as not-applicable, never as violations
and never silently dropped; the violation list of a healthy run is empty.
"""

from __future__ import annotations

import json  # noqa: F401  perfbench/spans.py swaps verify.json for a timing shim
import os
import sys
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import cache, partial, reduce
from math import gcd
from operator import or_
from typing import Iterator

from . import spectra
from .compgraph import competition_formula
from .packed import ToeplitzKernel
from .spectra import BudgetExceeded, competition_table, power_table
from .toeplitz import ToeplitzSpec, pair_sum_gcd
from .walks import (
    bound_hypothesis_holds,
    certify_stabilization,
    competition_index_bound,
    congruence_step,
    containment_chain,
    step_set_masks,
)

__all__ = [
    "HOLDS",
    "FAILS",
    "NOT_APPLICABLE",
    "PREDICATES",
    "InstanceReport",
    "SweepReport",
    "enumerate_specs",
    "verify_instance",
    "sweep",
    "MAX_SWEEP_N",
]

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "n/a"

# Largest n a sweep enumerates.  The rows and the cached step sets of every
# size are built before the first instance runs, and their memory about
# doubles per size (tracemalloc peak of _rows: 2.6 MB at 14, 11 MB at 16).
MAX_SWEEP_N = 16

PREDICATES = (
    "gcd_equality",
    "period_match",
    "competition_period_is_1",
    "limit_block_match",
    "limit_clique_match",
    "eventually_toeplitz",
    "pqr_stabilized",
    "adjacency_necessity",
    "bound_holds",
    "p_recurrence",
    "containment_chain",
    "formula_match",
)

# Every outcome of a report before its checks run (copying it is faster
# than dict.fromkeys).
_UNCHECKED = dict.fromkeys(PREDICATES, NOT_APPLICABLE)


@dataclass(slots=True)
class InstanceReport:
    """Everything measured and checked for one instance."""

    spec: ToeplitzSpec
    d: int = 0
    d_prime: int = 0
    predicted: int = 0
    cond1: bool = False
    cond2: bool = False
    power_index: int | None = None
    power_period: int | None = None
    comp_index: int | None = None
    comp_period: int | None = None
    m_emp: int | None = None
    bound_value: int | None = None
    bound_hypothesis: bool | None = None
    checks: dict = field(default_factory=dict)
    incomplete: bool = False

    def violations(self) -> list[str]:
        return [name for name, outcome in self.checks.items() if outcome == FAILS]

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.literal,
            "d": self.d,
            "d_prime": self.d_prime,
            "predicted_period": self.predicted,
            "cond1": self.cond1,
            "cond2": self.cond2,
            "power_index": self.power_index,
            "power_period": self.power_period,
            "competition_index": self.comp_index,
            "competition_period": self.comp_period,
            "m_emp": self.m_emp,
            "bound_value": self.bound_value,
            "bound_hypothesis": self.bound_hypothesis,
            "checks": dict(self.checks),
            "incomplete": self.incomplete,
        }


@cache
def _subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """The nonempty step sets of size n, as step tuples, in ascending
    order of their bitmask integers (bit e - 1 stands for step e)."""
    return tuple(
        tuple(e for e in range(1, n) if (mask >> (e - 1)) & 1) for mask in range(1, 1 << (n - 1))
    )


def _rows(n_max: int) -> list[tuple[int, tuple[int, ...]]]:
    """The enumeration rows (n, forward set), in enumeration order."""
    if not 2 <= n_max <= MAX_SWEEP_N:
        raise ValueError(f"n_max must be in [2, {MAX_SWEEP_N}], got {n_max}")
    return [(n, fwd) for n in range(2, n_max + 1) for fwd in _subsets(n)]


def _row_specs(n: int, fwd: tuple[int, ...], require_conditions: bool) -> Iterator[ToeplitzSpec]:
    """The instances of one row, backward sets ascending."""
    for bwd in _subsets(n):
        spec = ToeplitzSpec(n, fwd, bwd)
        if require_conditions and not spec.conditions_hold:
            continue
        yield spec


def enumerate_specs(n_max: int, require_conditions: bool) -> Iterator[ToeplitzSpec]:
    """All instances with 2 <= n <= n_max, in deterministic order: n
    ascending, then the two step sets as bitmask integers ascending."""
    for n, fwd in _rows(n_max):
        yield from _row_specs(n, fwd, require_conditions)


def verify_instance(spec: ToeplitzSpec) -> InstanceReport:
    """Run every predicate on one instance with exact, tail-derived
    horizons.  Every predicate starts not-applicable and keeps that outcome
    when the instance runs past spectra.STEP_BUDGET (the report is then
    marked incomplete) or when its theorem's hypothesis fails: the step-fit
    conditions, or the bound's irreducibility hypothesis."""
    d = pair_sum_gcd(spec)
    s1 = spec.forward_steps[0]
    d_prime = gcd(d, s1)
    pi = d // d_prime
    cond1, cond2 = spec.cond1, spec.cond2
    report = InstanceReport(spec, d, d_prime, pi, cond1, cond2, checks=_UNCHECKED.copy())
    checks = report.checks

    # The offset generators are the differences within each step set and
    # the sums s + t, whose gcd is d: the gcds of the differences are kept
    # per step set, and d is computed apart from them.
    kernel = ToeplitzKernel(spec)
    checks["gcd_equality"] = (
        HOLDS if gcd(kernel.forward_diff_gcd, kernel.backward_diff_gcd, d) == d else FAILS
    )

    try:
        table = power_table(kernel)
        # bs holds B_1 up to its first repeat: every B_m, as B_{m+1} = A B_m A^T.
        ctail, bs = competition_table(kernel)
    except BudgetExceeded:
        report.incomplete = True
        return report
    tail = table[0]
    qa, pa = tail.index, tail.period
    report.power_index, report.power_period = qa, pa
    report.comp_index, report.comp_period = ctail.index, ctail.period

    # Unconditional checks -------------------------------------------------
    g = kernel.geometry
    off_diagonal = g.full ^ g.identity
    checks["formula_match"] = (
        HOLDS if competition_formula(kernel) == bs[0] & off_diagonal else FAILS
    )
    residues = g.residue_matrix(d)
    checks["adjacency_necessity"] = HOLDS if reduce(or_, bs) & ~residues == 0 else FAILS

    conditions = cond1 and cond2
    chain_horizon = qa + pa
    pqr_horizon = qa + 2 * pa * pi
    horizon = pqr_horizon if conditions else chain_horizon
    # Read off the module, so that a budget set on spectra holds here too.
    if horizon > spectra.STEP_BUDGET:
        report.incomplete = True
        return report
    report.bound_value = competition_index_bound(spec, d)
    congruent, combination, realized, toeplitz = step_set_masks(spec, horizon, table, g, d)
    checks["containment_chain"] = (
        HOLDS if containment_chain(congruent, combination, realized) else FAILS
    )

    if not conditions:
        return report

    # Conditional checks ---------------------------------------------------
    checks["period_match"] = HOLDS if pa == pi else FAILS
    checks["competition_period_is_1"] = HOLDS if ctail.period == 1 else FAILS

    if ctail.period == 1:
        limit = bs[ctail.index - 1]
        checks["limit_block_match"] = HOLDS if limit == residues else FAILS
        checks["limit_clique_match"] = (
            HOLDS if limit & off_diagonal == residues & off_diagonal else FAILS
        )
    else:
        checks["limit_block_match"] = FAILS
        checks["limit_clique_match"] = FAILS

    # The run covers the cycle, A^qa .. A^(qa+pa-1), as pqr_horizon >= qa + pa.
    cycle_toeplitz = False not in toeplitz[qa - 1 : qa - 1 + pa]
    checks["eventually_toeplitz"] = HOLDS if cycle_toeplitz else FAILS

    stab = certify_stabilization(congruent, combination, realized, tail, pi)
    report.m_emp = stab.m_emp
    checks["pqr_stabilized"] = HOLDS if (stab.m_emp is not None and stab.certified) else FAILS

    # Congruent sets P_1 .. P_{2 pi + 2}: each one congruence step from the
    # one before, periodic with period pi, and the first pi disjoint (their
    # bit counts add up to that of their union).
    congruents = g.congruent_masks(d)
    p_sets = [congruents[i * s1 % d] for i in range(1, 2 * pi + 3)]
    recurrence_ok = [congruence_step(spec, p) for p in p_sets[:-1]] == p_sets[1:]
    periodicity_ok = p_sets[: pi + 1] == p_sets[pi : 2 * pi + 1]
    first = p_sets[:pi]
    disjoint_ok = reduce(or_, first).bit_count() == sum(map(int.bit_count, first))
    checks["p_recurrence"] = HOLDS if (recurrence_ok and periodicity_ok and disjoint_ok) else FAILS

    report.bound_hypothesis = bound_hypothesis_holds(spec, d)
    if report.bound_hypothesis:
        checks["bound_holds"] = HOLDS if ctail.index <= report.bound_value else FAILS
    return report


# -- sweeping -------------------------------------------------------------------


@dataclass(slots=True)
class SweepReport:
    """Order-insensitive aggregate of a full enumeration."""

    n_max: int
    require_conditions: bool
    instances: int = 0
    condition_instances: int = 0
    outcome_counts: dict = field(
        default_factory=lambda: {
            name: {HOLDS: 0, FAILS: 0, NOT_APPLICABLE: 0} for name in PREDICATES
        }
    )
    violations: list = field(default_factory=list)
    incomplete: list = field(default_factory=list)

    def add(self, report: InstanceReport):
        """Fold in one report: extend's one-report case."""
        self.extend((report,))

    def extend(self, reports):
        """Fold in reports in order.  The incomplete instances and the
        violations are appended report by report; the outcomes are tallied
        by their checks tuple, in PREDICATES order as verify_instance
        builds them, and counted once per distinct tuple.  The keys are
        counted by one Counter over their list: a Counter incremented per
        report takes about twice as long."""
        keys = []
        conditions = 0
        incomplete, violations = self.incomplete, self.violations
        for report in reports:
            checks = report.checks
            key = tuple(checks.values())
            keys.append(key)
            if report.cond1 and report.cond2:
                conditions += 1
            if report.incomplete:
                incomplete.append(report.spec.literal)
            if FAILS in key:
                literal = report.spec.literal
                violations += [(literal, name) for name, out in checks.items() if out == FAILS]
        self.instances += len(keys)
        self.condition_instances += conditions
        outcome_counts = self.outcome_counts
        for key, count in Counter(keys).items():
            for name, outcome in zip(PREDICATES, key):
                outcome_counts[name][outcome] += count

    def merge(self, part: SweepReport):
        """Fold in the aggregate of the next stretch of the enumeration; the
        result equals add-ing that stretch's reports one by one."""
        self.instances += part.instances
        self.condition_instances += part.condition_instances
        self.incomplete += part.incomplete
        self.violations += part.violations
        outcome_counts = self.outcome_counts
        for name, counts in part.outcome_counts.items():
            for outcome, count in counts.items():
                outcome_counts[name][outcome] += count

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def fails(self, predicate: str) -> int:
        return self.outcome_counts[predicate][FAILS]

    def holds(self, predicate: str) -> int:
        return self.outcome_counts[predicate][HOLDS]

    def summary_table(self) -> str:
        lines = [
            f"instances={self.instances} (conditions hold on {self.condition_instances}), "
            f"n_max={self.n_max}, filtered={self.require_conditions}",
            f"{'predicate':<24} {'holds':>8} {'fails':>8} {'n/a':>8}",
        ]
        for name in PREDICATES:
            counts = self.outcome_counts[name]
            lines.append(
                f"{name:<24} {counts[HOLDS]:>8} "
                f"{counts[FAILS]:>8} {counts[NOT_APPLICABLE]:>8}"
            )
        if self.incomplete:
            lines.append(f"incomplete instances: {len(self.incomplete)}")
        lines.append(f"violations: {self.violation_count}")
        for literal, name in self.violations[:50]:
            lines.append(f"  VIOLATION {literal} {name}")
        if self.violation_count > 50:
            lines.append(f"  ... and {self.violation_count - 50} more")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "require_conditions": self.require_conditions,
            "instances": self.instances,
            "condition_instances": self.condition_instances,
            "outcome_counts": self.outcome_counts,
            "violations": [list(v) for v in self.violations],
            "incomplete": list(self.incomplete),
        }


def _jsonl_line(data: dict, checks_text: dict) -> str:
    """The line json.dumps(data) writes, newline-terminated, for a dict
    shaped like the one InstanceReport.to_json_dict returns, built from one
    template: ", " and ": " separators, null for None, true/false for
    bools.  The spec literal and the check names and outcomes need no
    escaping.  checks_text caches the text of each checks dict, keyed by
    its items."""
    checks = tuple(data["checks"].items())
    text = checks_text.get(checks)
    if text is None:
        text = checks_text[checks] = ", ".join(f'"{name}": "{outcome}"' for name, outcome in checks)
    pi, pp = data["power_index"], data["power_period"]
    ci, cp = data["competition_index"], data["competition_period"]
    m_emp, bound, hypothesis = data["m_emp"], data["bound_value"], data["bound_hypothesis"]
    return (
        f'{{"spec": "{data["spec"]}", "d": {data["d"]}, "d_prime": {data["d_prime"]}, '
        f'"predicted_period": {data["predicted_period"]}, '
        f'"cond1": {"true" if data["cond1"] else "false"}, '
        f'"cond2": {"true" if data["cond2"] else "false"}, '
        f'"power_index": {"null" if pi is None else pi}, '
        f'"power_period": {"null" if pp is None else pp}, '
        f'"competition_index": {"null" if ci is None else ci}, '
        f'"competition_period": {"null" if cp is None else cp}, '
        f'"m_emp": {"null" if m_emp is None else m_emp}, '
        f'"bound_value": {"null" if bound is None else bound}, '
        f'"bound_hypothesis": {"null" if hypothesis is None else "true" if hypothesis else "false"}, '
        f'"checks": {{{text}}}, "incomplete": {"true" if data["incomplete"] else "false"}}}\n'
    )


def _verify_row(
    row: tuple[int, tuple[int, ...]], require_conditions: bool, stream: bool
) -> tuple[SweepReport, str]:
    """Verify one enumeration row and fold it into a row-local aggregate;
    with `stream`, also return the row's JSON lines as one string."""
    n, fwd = row
    part = SweepReport(n_max=n, require_conditions=require_conditions)
    reports = map(verify_instance, _row_specs(n, fwd, require_conditions))
    if not stream:
        part.extend(reports)
        return part, ""
    reports = list(reports)  # kept for the row's lines
    part.extend(reports)
    checks_text = {}  # a row repeats a few checks outcomes
    return part, "".join([_jsonl_line(report.to_json_dict(), checks_text) for report in reports])


def sweep(
    n_max: int,
    require_conditions: bool,
    jobs: int = 1,
    report_stream=None,
    progress=None,
) -> SweepReport:
    """Verify every instance up to n_max and fold the reports.

    The unit of work is one enumeration row, (n, forward set): the row is
    verified, folded into a row-local SweepReport and, when report_stream
    is given, serialized to its JSON lines where it runs.  This process only
    merges the rows' aggregates and writes their lines, in enumeration
    order, so any worker count produces the same aggregate and the same
    stream.  jobs > 1 runs the rows on a process pool, at most one worker
    per CPU (a larger count is lowered to os.cpu_count()).  progress, when
    given, prints a line to stderr every `progress` instances and one for
    the total.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    agg = SweepReport(n_max=n_max, require_conditions=require_conditions)
    rows = _rows(n_max)
    verify_row = partial(
        _verify_row,
        require_conditions=require_conditions,
        stream=report_stream is not None,
    )
    with ExitStack() as stack:
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            # The parent reads each result in the thread that waits for it,
            # and the default start method (fork on Linux) lets the workers
            # share what this process has patched or cached.  The shutdown
            # cancels the rows still waiting, so an error here (a failed
            # write, Ctrl-C) ends the sweep once the rows already queued to
            # the workers finish.  Parent CPU per pass at n_max 8 on 2
            # cores: 0.08 s at one row a message, 0.055 s at two, and 0.035 s
            # at eight, whose last message can idle a worker longer.
            pool = ProcessPoolExecutor(jobs)
            stack.callback(pool.shutdown, cancel_futures=True)
            parts = pool.map(verify_row, rows, chunksize=2)
        else:
            parts = map(verify_row, rows)
        for part, text in parts:
            done = agg.instances
            agg.merge(part)
            if text:
                report_stream.write(text)
            if progress is not None:
                for count in range((done // progress + 1) * progress, agg.instances + 1, progress):
                    print(f"  ... {count} instances", file=sys.stderr, flush=True)
    if progress is not None and agg.instances % progress:
        print(f"  ... {agg.instances} instances", file=sys.stderr, flush=True)
    return agg

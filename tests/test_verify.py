import hashlib
import io
import json
import multiprocessing
import os
import random
import sys
from math import gcd

import pytest

from toeplab import spectra, verify
from toeplab.packed import ToeplitzKernel
from toeplab.spectra import power_from_table, power_table
from toeplab.toeplitz import parse_literal, validate_spec
from toeplab.verify import (
    FAILS,
    HOLDS,
    MAX_SWEEP_N,
    NOT_APPLICABLE,
    PREDICATES,
    InstanceReport,
    SweepReport,
    enumerate_specs,
    sweep,
    verify_instance,
)


class TestEnumerate:
    def test_smallest_universe(self):
        specs = list(enumerate_specs(2, False))
        assert [s.literal for s in specs] == ["T2<1;1>"]

    def test_count_up_to_three(self):
        assert len(list(enumerate_specs(3, False))) == 10

    def test_deterministic_bitmask_order(self):
        literals = [s.literal for s in enumerate_specs(3, False)]
        assert literals[:5] == [
            "T2<1;1>",
            "T3<1;1>",
            "T3<1;2>",
            "T3<1;1,2>",
            "T3<2;1>",
        ]

    def test_filtering_only_removes(self):
        for n_max in (2, 3, 4, 5, 6):
            unfiltered = list(enumerate_specs(n_max, False))
            filtered = list(enumerate_specs(n_max, True))
            assert len(filtered) <= len(unfiltered)
            kept = {s.literal for s in filtered}
            assert kept == {s.literal for s in unfiltered if s.conditions_hold}

    def test_small_cap_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_specs(1, False))

    def test_cap_above_max_sweep_n_rejected(self):
        assert MAX_SWEEP_N == 16
        with pytest.raises(ValueError):
            verify._rows(MAX_SWEEP_N + 1)
        with pytest.raises(ValueError):
            next(enumerate_specs(MAX_SWEEP_N + 1, False))

    def test_rows_concatenate_to_enumeration(self):
        # Sweep workers build their instances row by row; the rows, in
        # order, must be exactly the enumeration.
        for n_max in range(2, 7):
            for filtered in (False, True):
                rows = [
                    spec
                    for n, fwd in verify._rows(n_max)
                    for spec in verify._row_specs(n, fwd, filtered)
                ]
                assert rows == list(enumerate_specs(n_max, filtered)), (n_max, filtered)


class TestVerifyInstance:
    def test_running_example_report(self):
        report = verify_instance(parse_literal("T8<1,4;2,5>"))
        assert report.d == 3 and report.d_prime == 1 and report.predicted == 3
        assert report.power_period == 3
        assert report.comp_period == 1
        assert report.m_emp == 2
        assert report.bound_value == 30
        assert report.bound_hypothesis is True
        assert report.checks["period_match"] == HOLDS
        assert report.checks["competition_period_is_1"] == HOLDS
        assert report.checks["limit_block_match"] == HOLDS
        assert report.checks["limit_clique_match"] == HOLDS
        assert report.checks["pqr_stabilized"] == HOLDS
        assert report.checks["bound_holds"] == HOLDS
        assert report.violations() == []

    def test_counterexample_t5_not_applicable_not_violated(self):
        report = verify_instance(parse_literal("T5<2;4>"))
        assert not (report.cond1 or report.cond2)
        assert report.checks["eventually_toeplitz"] == NOT_APPLICABLE
        assert report.checks["period_match"] == NOT_APPLICABLE
        # Unconditional facts still evaluated, and hold.
        assert report.checks["gcd_equality"] == HOLDS
        assert report.checks["adjacency_necessity"] == HOLDS
        assert report.checks["containment_chain"] == HOLDS
        assert report.checks["formula_match"] == HOLDS
        assert report.violations() == []
        # Measurements are recorded even when the theorems do not apply.
        assert report.power_period == 3
        assert report.comp_period == 1

    def test_counterexample_t6_reported(self):
        report = verify_instance(parse_literal("T6<2,4;4,5>"))
        assert report.violations() == []
        assert report.checks["pqr_stabilized"] == NOT_APPLICABLE
        assert report.m_emp is None

    def test_every_predicate_present(self):
        report = verify_instance(parse_literal("T4<1;2>"))
        assert tuple(report.checks) == PREDICATES
        assert all(v in (HOLDS, FAILS, NOT_APPLICABLE) for v in report.checks.values())

    def test_budget_marks_incomplete_never_fails(self, monkeypatch):
        # Below and above packed.KEY_STEP_FROM, where the power scan takes
        # the key step.
        monkeypatch.setattr(spectra, "STEP_BUDGET", 2)
        for literal in ("T8<1,4;2,5>", "T100<3,7;5>"):
            report = verify_instance(parse_literal(literal))
            assert report.incomplete
            assert FAILS not in report.checks.values()
            assert report.checks["period_match"] == NOT_APPLICABLE

    def test_python_calls_per_instance(self):
        # The per-instance path runs without per-step objects: count the
        # Python-level calls (profiler "call" events; builtins and methods
        # written in C make none) over every instance with n <= 6, once the
        # size's tables are filled.
        specs = list(enumerate_specs(6, False))
        for spec in specs:
            verify_instance(spec)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            for spec in specs:
                verify_instance(spec)
        finally:
            sys.setprofile(None)
        assert calls <= 47 * len(specs)

    def test_json_round_trip_keys(self):
        report = verify_instance(parse_literal("T3<1;2>"))
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["spec"] == "T3<1;2>"
        assert set(data["checks"]) == set(PREDICATES)


class TestWielandtFamily:
    """For odd n, T_n<(n+1)/2; (n-1)/2, n-1> is Wielandt's digraph: an
    n-cycle plus one chord closing an (n-1)-cycle, n + 1 arcs in all."""

    @staticmethod
    def family(n):
        return validate_spec(n, [(n + 1) // 2], [(n - 1) // 2, n - 1])

    @pytest.mark.parametrize("n", range(3, 16, 2))
    def test_extremal_indices(self, n):
        spec = self.family(n)
        kernel = ToeplitzKernel(spec)
        assert sum(map(int.bit_count, kernel.geometry.rows(kernel.adjacency))) == n + 1
        report = verify_instance(spec)
        assert report.power_index == (n - 1) ** 2 + 1  # Wielandt's bound
        assert report.comp_index == ((n - 1) ** 2 + 2) // 2
        assert report.cond1 and not report.cond2
        assert report.violations() == [] and not report.incomplete

    def test_instances_at_the_square_bound_up_to_7(self):
        # Every instance with 3 <= n <= 7 whose power index reaches (n-1)^2
        # (at n = 2 every instance does): T_n<k; n-1-k, n-1> with k prime
        # to n - 1 at (n-1)^2, the family at (n-1)^2 + 1 for odd n, T4<3;1,2>
        # at 9, and the mirror of each.  All are primitive: period 1 and a
        # limit of all ones.
        expected = {}
        for n in range(3, 8):
            square = (n - 1) ** 2
            for k in range(1, n - 1):
                if gcd(k, n - 1) == 1:
                    expected[n, (k,), (n - 1 - k, n - 1)] = square
            if n % 2:
                expected[n, ((n + 1) // 2,), ((n - 1) // 2, n - 1)] = square + 1
        expected[4, (3,), (1, 2)] = 9
        expected.update({(n, b, a): i for (n, a, b), i in expected.items()})
        found = {}
        count = 0
        for spec in enumerate_specs(7, False):
            count += 1
            kernel = ToeplitzKernel(spec)
            tail, seq = power_table(kernel)
            if spec.n > 2 and tail.index >= (spec.n - 1) ** 2:
                assert tail.period == 1, spec.literal
                assert power_from_table(kernel, tail, seq, tail.index) == kernel.geometry.full
                found[spec.n, spec.forward_steps, spec.backward_steps] = tail.index
        assert count == 5214
        assert found == expected
        assert len(found) == 4 + 6 + 6 + 8 + 6  # n = 3, ..., 7

    def test_competition_bound_fails_outside_its_hypotheses(self):
        # Outside the theorem the bound need not hold, and here it does not;
        # bound_holds is then n/a, never a violation.
        report = verify_instance(parse_literal("T19<10;9,18>"))
        assert report.comp_index == 163 and report.bound_value == 146
        assert report.bound_hypothesis is None  # the conditions fail
        assert report.checks["bound_holds"] == NOT_APPLICABLE
        assert report.violations() == []


def fields(report, mirror=False):
    """The report without its spec; with `mirror`, as the mirror
    T<n><T;S> should have it, the two step-fit conditions swapped."""
    data = report.to_json_dict()
    del data["spec"]
    if mirror:
        data["cond1"], data["cond2"] = data["cond2"], data["cond1"]
    return data


class TestMirrorInvariance:
    def test_every_instance_up_to_7_matches_its_mirror(self):
        # Reversing the vertex order swaps the forward and backward steps,
        # which leaves every measurement and check unchanged.
        reports = {
            (spec.n, spec.forward_steps, spec.backward_steps): verify_instance(spec)
            for spec in enumerate_specs(7, False)
        }
        assert len(reports) == 5214
        for (n, fwd, bwd), report in reports.items():
            assert fields(reports[n, bwd, fwd], mirror=True) == fields(report), report.spec.literal

    def test_seeded_large_instances_match_their_mirrors(self):
        rng = random.Random(20261018)
        for _ in range(60):
            n = rng.randint(9, 40)
            fwd = rng.sample(range(1, n), rng.randint(1, 3))
            bwd = rng.sample(range(1, n), rng.randint(1, 3))
            report = verify_instance(validate_spec(n, fwd, bwd))
            mirror = verify_instance(validate_spec(n, bwd, fwd))
            assert fields(mirror, mirror=True) == fields(report), report.spec.literal


class TestSweep:
    def test_single_instance_universe(self):
        agg = sweep(2, require_conditions=False)
        assert agg.instances == 1
        assert agg.violation_count == 0
        assert agg.holds("period_match") == 1

    def test_small_sweep_clean(self):
        agg = sweep(5, require_conditions=False)
        assert agg.instances == 225 + 49 + 9 + 1
        assert agg.violation_count == 0
        assert agg.fails("adjacency_necessity") == 0
        assert agg.holds("adjacency_necessity") == agg.instances
        assert agg.holds("gcd_equality") == agg.instances
        assert agg.holds("containment_chain") == agg.instances
        assert agg.holds("formula_match") == agg.instances
        # Conditional predicates hold exactly on the conditioned subset.
        assert agg.holds("period_match") == agg.condition_instances
        assert (
            agg.outcome_counts["period_match"][NOT_APPLICABLE]
            == agg.instances - agg.condition_instances
        )

    def test_parallel_matches_serial(self):
        serial = sweep(4, require_conditions=False)
        parallel = sweep(4, require_conditions=False, jobs=2)
        assert serial.to_json_dict() == parallel.to_json_dict()

    def test_jobs_capped_at_cpu_count(self, monkeypatch, pool_sizes):
        # pool_sizes reports 2 CPUs and records each pool's worker count.
        serial = sweep(4, require_conditions=False).to_json_dict()
        for jobs in (2, 3, 10**6):
            assert sweep(4, require_conditions=False, jobs=jobs).to_json_dict() == serial
        assert pool_sizes == [2, 2, 2]
        # An unknown CPU count means one CPU: no pool at all.
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sweep(4, require_conditions=False, jobs=8).to_json_dict() == serial
        assert pool_sizes == [2, 2, 2]

    def test_pooled_matches_serial_under_a_canary(self, monkeypatch, pool_sizes):
        # With a planted bug the aggregate carries violations, so their
        # order across rows is compared too.
        monkeypatch.setattr(verify, "containment_chain", reversed_chain)
        serial = sweep(6, require_conditions=False).to_json_dict()
        assert len(serial["violations"]) > 1
        pooled = sweep(6, require_conditions=False, jobs=2).to_json_dict()
        assert json.dumps(pooled) == json.dumps(serial)
        assert pool_sizes == [2]

    def test_filtered_sweep(self):
        agg = sweep(5, require_conditions=True)
        assert agg.instances == agg.condition_instances
        assert agg.violation_count == 0

    def test_jsonl_stream(self):
        buf = io.StringIO()
        agg = sweep(3, require_conditions=False, report_stream=buf)
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(lines) == agg.instances == 10
        assert lines[0]["spec"] == "T2<1;1>"

    def test_summary_table_mentions_counts(self):
        agg = sweep(3, require_conditions=False)
        table = agg.summary_table()
        assert "violations: 0" in table
        assert "gcd_equality" in table


def reversed_chain(congruent, combination, realized):
    """A planted bug: containment_chain with its inclusions reversed."""
    for p, q, r in zip(congruent, combination, realized):
        if p & ~q or q & ~r:
            return False
    return True


def streamed(n_max, jobs=1):
    buf = io.StringIO()
    agg = sweep(n_max, require_conditions=False, jobs=jobs, report_stream=buf)
    return agg, buf.getvalue()


def dumped(n_max):
    """The stream as json.dumps writes each report, and the reports."""
    reports = [verify.verify_instance(spec) for spec in enumerate_specs(n_max, False)]
    return "".join(json.dumps(r.to_json_dict()) + "\n" for r in reports), reports


# sha256 of the n <= 6 stream, the same with one process and with two.
STREAM6_SHA256 = "ebcfedd83658b545608304b79c6494004cb3fb9b804ae0e2770165aa662173cd"


class TestJsonlLines:
    """Each streamed line is written from a template, not by json.dumps; it
    must be the bytes json.dumps writes for the report's to_json_dict()."""

    def test_every_report_up_to_6(self, monkeypatch):
        _, text = streamed(6)
        expected, reports = dumped(6)
        assert text == expected
        assert hashlib.sha256(text.encode()).hexdigest() == STREAM6_SHA256
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert streamed(6, jobs=2)[1] == text
        # Complete reports hold null m_emp and bound_hypothesis values; the
        # incomplete ones below hold null tails and bound values.
        assert None in {r.m_emp for r in reports}
        assert {None, True, False} <= {r.bound_hypothesis for r in reports}

    def test_incomplete_reports(self, monkeypatch):
        monkeypatch.setattr(spectra, "STEP_BUDGET", 4)
        _, text = streamed(5)
        expected, reports = dumped(5)
        assert text == expected
        incomplete = [r for r in reports if r.incomplete]
        assert incomplete and {r.bound_value for r in incomplete} == {None}
        assert None in {r.power_index for r in incomplete}

    def test_reports_with_violations(self, monkeypatch):
        monkeypatch.setattr(verify, "containment_chain", reversed_chain)
        agg, text = streamed(5)
        assert agg.violation_count > 1 and '"fails"' in text
        assert text == dumped(5)[0]

    def test_single_lines_against_json_dumps(self):
        # Field by field: every None, bool and int combination the template
        # branches on, and checks dicts in any order or outcome.
        report = verify_instance(parse_literal("T8<1,4;2,5>"))
        names = list(PREDICATES)
        random.Random(18).shuffle(names)
        outcomes = (HOLDS, FAILS, NOT_APPLICABLE)
        for i, value in enumerate((None, 0, 1, 7, 10**20)):
            for flag in (None, True, False):
                data = report.to_json_dict()
                for key in ("power_index", "power_period", "competition_index",
                            "competition_period", "m_emp", "bound_value"):
                    data[key] = value
                data["bound_hypothesis"] = flag
                data["cond1"] = data["incomplete"] = flag is True
                data["cond2"] = flag is False
                data["d"] = data["d_prime"] = data["predicted_period"] = i + 1
                data["checks"] = {name: outcomes[(i + j) % 3] for j, name in enumerate(names)}
                line = verify._jsonl_line(data, {})
                assert line == json.dumps(data) + "\n", (value, flag)

    def test_stream_goes_through_to_json_dict(self, monkeypatch):
        # A changed to_json_dict changes the stream, also where a real
        # two-process pool writes it.
        original = InstanceReport.to_json_dict

        def altered(self):
            data = original(self)
            data["d"] += 100
            return data

        _, plain = streamed(4)
        monkeypatch.setattr(InstanceReport, "to_json_dict", altered)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for jobs in (1, 2):
            _, text = streamed(4, jobs=jobs)
            assert text != plain
            assert [json.loads(line)["d"] for line in text.splitlines()] == [
                json.loads(line)["d"] + 100 for line in plain.splitlines()
            ]


class FailingStream:
    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error


class TestPooledSweepStops:
    @pytest.mark.parametrize("error", [OSError(32, "Broken pipe"), KeyboardInterrupt()])
    def test_failed_write_ends_a_two_process_sweep(self, monkeypatch, error):
        # The first write fails.  The rows still pending must not run: a
        # full n <= 9 sweep verifies 86,368 instances, about 4 s on two
        # workers, where only the rows already queued may finish.  The
        # workers count the instances they verify.
        verified = multiprocessing.Value("q", 0)

        def counted(spec):
            with verified.get_lock():
                verified.value += 1
            return verify_instance(spec)

        monkeypatch.setattr(verify, "verify_instance", counted)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(type(error)):
            sweep(9, require_conditions=False, jobs=2, report_stream=FailingStream(error))
        assert verified.value < 86_368 // 10, verified.value
        assert multiprocessing.active_children() == []


class TestMerge:
    @staticmethod
    def reports(monkeypatch):
        """Reports at n <= 5 with some incomplete (a small step budget) and
        some violations (planted), grouped by enumeration row."""
        monkeypatch.setattr(spectra, "STEP_BUDGET", 4)
        rows = []
        index = 0
        for n, fwd in verify._rows(5):
            row = []
            for spec in verify._row_specs(n, fwd, False):
                report = verify_instance(spec)
                if index % 7 == 3:
                    report.checks["gcd_equality"] = FAILS
                if index % 11 == 5:
                    report.checks["bound_holds"] = FAILS
                row.append(report)
                index += 1
            rows.append(row)
        return rows

    def test_merged_rows_equal_added_reports(self, monkeypatch):
        rows = self.reports(monkeypatch)
        added = SweepReport(n_max=5, require_conditions=False)
        for row in rows:
            for report in row:
                added.add(report)
        assert added.violations and added.incomplete

        merged = SweepReport(n_max=5, require_conditions=False)
        merged.merge(SweepReport(n_max=2, require_conditions=False))  # an empty first part
        for row in rows:
            part = SweepReport(n_max=row[0].spec.n, require_conditions=False)
            part.extend(row)  # one tally per row, as the sweep folds it
            merged.merge(part)
            merged.merge(SweepReport(n_max=5, require_conditions=False))  # a filtered-out row
        # json.dumps keeps key order, which the --format json output hashes.
        assert json.dumps(merged.to_json_dict()) == json.dumps(added.to_json_dict())
        assert list(merged.outcome_counts) == list(PREDICATES)
        reports = [report for row in rows for report in row]
        assert json.dumps(added.to_json_dict()) == json.dumps(reference_fold(reports))

    def test_row_tallies_equal_added_reports(self, monkeypatch):
        # The sweep tallies each row's outcomes once; with a planted FAILS
        # and a small step budget its aggregate, violations and incomplete
        # instances in order, must equal adding the reports one by one.
        monkeypatch.setattr(spectra, "STEP_BUDGET", 4)
        monkeypatch.setattr(verify, "containment_chain", reversed_chain)
        swept = sweep(5, require_conditions=False)
        reports = [verify.verify_instance(spec) for spec in enumerate_specs(5, False)]
        added = SweepReport(n_max=5, require_conditions=False)
        for report in reports:
            added.add(report)
        assert swept.violations and swept.incomplete
        expected = json.dumps(reference_fold(reports))
        assert json.dumps(swept.to_json_dict()) == json.dumps(added.to_json_dict()) == expected

    def test_merge_does_not_share_counts_with_the_part(self):
        part = SweepReport(n_max=2, require_conditions=False)
        part.add(verify_instance(parse_literal("T2<1;1>")))
        agg = SweepReport(n_max=2, require_conditions=False)
        agg.merge(part)
        agg.merge(part)
        assert agg.instances == 2 and agg.holds("gcd_equality") == 2
        assert part.holds("gcd_equality") == 1


def reference_fold(reports):
    """The aggregate of reports counted one outcome at a time, in the
    shape of SweepReport.to_json_dict for n_max 5, unfiltered."""
    counts = {name: {HOLDS: 0, FAILS: 0, NOT_APPLICABLE: 0} for name in PREDICATES}
    violations, incomplete = [], []
    for report in reports:
        if report.incomplete:
            incomplete.append(report.spec.literal)
        for name, outcome in report.checks.items():
            counts[name][outcome] += 1
            if outcome == FAILS:
                violations.append([report.spec.literal, name])
    return {
        "n_max": 5,
        "require_conditions": False,
        "instances": len(reports),
        "condition_instances": sum(r.cond1 and r.cond2 for r in reports),
        "outcome_counts": counts,
        "violations": violations,
        "incomplete": incomplete,
    }

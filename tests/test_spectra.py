import random

import pytest

from toeplab import spectra
from toeplab.boolmat import BoolMatrix
from toeplab.packed import ToeplitzKernel, geometry
from toeplab.spectra import (
    BudgetExceeded,
    competition_table,
    power_from_table,
    power_is_eventually_toeplitz,
    power_table,
    residue_classes,
)
from toeplab.toeplitz import build_matrix, parse_literal, predicted_period
from toeplab.verify import enumerate_specs
from toeplab.walks import step_set_run, step_set_stabilization

import generic
import oracles
from generic import competition_limit, competition_matrix


def as_lists(mat):
    return [[mat.get(i, j) for j in range(1, mat.n + 1)] for i in range(1, mat.n + 1)]


def random_matrix(rng, n):
    return BoolMatrix(n, (rng.getrandbits(n) for _ in range(n)))


def three_cycle():
    return build_matrix(parse_literal("T3<1;2>"))


class TestPowerTail:
    def test_t5_display_cycle(self):
        a = build_matrix(parse_literal("T5<2;4>"))
        tail, seq = generic.power_table(a)
        assert (tail.index, tail.period) == (2, 3)
        # The cycle is exactly the three displayed matrices, in order.
        assert seq[tail.index - 1 :] == [a.power(2), a.power(3), a.power(4)]
        # The first power is outside the cycle.
        assert a != a.power(4)

    def test_three_cycle_permutation(self):
        tail = generic.power_table(three_cycle())[0]
        assert (tail.index, tail.period) == (1, 3)

    def test_identity_fixed_point(self):
        tail = generic.power_table(BoolMatrix.identity(4))[0]
        assert (tail.index, tail.period) == (1, 1)

    def test_matches_definitional_oracle(self):
        rng = random.Random(13)
        for _ in range(40):
            a = random_matrix(rng, 5)
            tail = generic.power_table(a)[0]
            seq = oracles.naive_powers(as_lists(a), tail.index + 2 * tail.period + 4)
            assert oracles.naive_tail(seq) == (tail.index, tail.period)

    def test_minimality_invariants(self):
        rng = random.Random(29)
        for _ in range(30):
            a = random_matrix(rng, 6)
            tail = generic.power_table(a)[0]
            p = tail.period
            for m in range(tail.index, tail.index + 4):
                assert a.power(m) == a.power(m + p)
            if tail.index > 1:
                assert a.power(tail.index - 1) != a.power(tail.index - 1 + p)

    def test_budget_cap(self, monkeypatch):
        monkeypatch.setattr(spectra, "STEP_BUDGET", 2)
        a = build_matrix(parse_literal("T8<1,4;2,5>"))
        with pytest.raises(BudgetExceeded):
            generic.power_table(a)

    def test_budget_boundary_on_both_paths(self, monkeypatch):
        # A scan stores index + period - 1 terms and steps once more to the
        # repeat: a budget of index + period is enough, one less is not.
        budget = spectra.STEP_BUDGET
        for spec in enumerate_specs(5, False):
            kernel, a = ToeplitzKernel(spec), build_matrix(spec)
            for table, x in (
                (power_table, kernel),
                (generic.key_power_table, kernel),
                (competition_table, kernel),
                (generic.power_table, a),
                (generic.competition_table, a),
            ):
                monkeypatch.setattr(spectra, "STEP_BUDGET", budget)
                tail = table(x)[0]
                steps = tail.index + tail.period
                monkeypatch.setattr(spectra, "STEP_BUDGET", steps)
                assert table(x)[0] == tail, spec.literal
                monkeypatch.setattr(spectra, "STEP_BUDGET", steps - 1)
                with pytest.raises(BudgetExceeded):
                    table(x)

    def test_library_scans_are_bounded(self):
        # The power index of T151<76;75,150> is 150^2 + 1 = 22,501, past the
        # real budget: a library call that scans its powers stops at the
        # budget, with or without a horizon of its own.
        spec = parse_literal("T151<76;75,150>")
        assert spectra.STEP_BUDGET < 22_501
        for scan in (
            lambda: power_table(ToeplitzKernel(spec)),
            lambda: step_set_run(spec, 1),
            lambda: step_set_stabilization(spec),
        ):
            with pytest.raises(BudgetExceeded, match="power sequence exceeded"):
                scan()

    def test_scan_stopped_at_term_m(self, monkeypatch):
        # With last=m a scan that reaches A^m (B_m) before the first repeat
        # stops there and returns no tail; either way it yields the same X_m,
        # also with a budget of m.
        budget = spectra.STEP_BUDGET
        for spec in enumerate_specs(5, False):
            kernel = ToeplitzKernel(spec)
            for table in (power_table, generic.key_power_table, competition_table):
                monkeypatch.setattr(spectra, "STEP_BUDGET", budget)
                full = table(kernel)
                for m in range(1, len(full[1]) + 3):
                    monkeypatch.setattr(spectra, "STEP_BUDGET", m)
                    tail, seq = table(kernel, last=m)
                    if m < len(full[1]) + 1:
                        assert tail is None and seq == full[1][:m]
                    else:
                        assert tail == full[0]
                    expected = power_from_table(kernel, *full, m)
                    assert power_from_table(kernel, tail, seq, m) == expected

    def test_scan_stopped_before_term_1_is_an_error(self):
        # last = 0 or below used to run the whole scan.
        kernel = ToeplitzKernel(parse_literal("T8<1,4;2,5>"))
        for table in (power_table, generic.key_power_table, competition_table):
            for last in (0, -1, -7):
                with pytest.raises(ValueError, match=f"stops at a term m >= 1, not at {last}"):
                    table(kernel, last=last)

    def test_table_stopped_at_last_reads_no_further(self):
        # A table stopped at term 2 has no tail to run round: term 3 on is
        # an error, not an AttributeError on the missing tail.
        kernel = ToeplitzKernel(parse_literal("T13<2,5;3>"))
        for table in (power_table, competition_table):
            tail, seq = stopped = table(kernel, last=2)
            assert tail is None and len(seq) == 2
            assert power_from_table(kernel, *stopped, 2) == power_from_table(kernel, *table(kernel), 2)
            for m in (3, 4, 100):
                with pytest.raises(ValueError, match=f"sequence index {m} is not in 1..2"):
                    power_from_table(kernel, *stopped, m)
            with pytest.raises(ValueError, match="sequence index 0 is not in 1.."):
                power_from_table(kernel, *table(kernel), 0)

    def test_table_lookup_agrees_with_direct_powers(self):
        spec = parse_literal("T5<2;4>")
        kernel, a = ToeplitzKernel(spec), build_matrix(spec)
        table = power_table(kernel)
        for m in range(1, 20):
            rows = kernel.geometry.rows(power_from_table(kernel, *table, m))
            assert BoolMatrix(5, rows) == a.power(m)


class TestMatrixPeriod:
    def test_running_example_matches_prediction(self):
        spec = parse_literal("T8<1,4;2,5>")
        assert generic.power_table(build_matrix(spec))[0].period == 3 == predicted_period(spec)

    def test_two_cycle(self):
        assert generic.power_table(build_matrix(parse_literal("T2<1;1>")))[0].period == 2

    def test_prediction_on_conditioned_sweep(self):
        for spec in enumerate_specs(6, True):
            period = generic.power_table(build_matrix(spec))[0].period
            assert period == predicted_period(spec), spec.literal


class TestCompetitionMatrix:
    def test_first_step_is_row_intersection(self):
        rng = random.Random(3)
        for _ in range(20):
            a = random_matrix(rng, 6)
            assert as_lists(competition_matrix(a, 1)) == oracles.naive_competition(as_lists(a), 1)

    def test_permutation_matrix_gives_identity(self):
        a = three_cycle()
        for m in (1, 2, 5):
            assert competition_matrix(a, m) == BoolMatrix.identity(3)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            competition_matrix(BoolMatrix.identity(2), 0)

    def test_always_symmetric(self):
        rng = random.Random(19)
        for _ in range(30):
            a = random_matrix(rng, 7)
            m = competition_matrix(a, rng.randint(1, 6))
            assert m == m.transpose()


class TestCompetitionTail:
    def test_two_cycle_immediate(self):
        tail = generic.competition_table(build_matrix(parse_literal("T2<1;1>")))[0]
        assert (tail.index, tail.period) == (1, 1)

    def test_t5_period_one_despite_failed_conditions(self):
        a = build_matrix(parse_literal("T5<2;4>"))
        tail = generic.competition_table(a)[0]
        assert tail.period == 1
        bs = [oracles.naive_competition(as_lists(a), m) for m in range(1, 11)]
        index, period = oracles.naive_tail(bs)
        assert (tail.index, tail.period) == (index, period)

    def test_matches_definitional_oracle(self):
        # General matrices with n 2..8, sparse ones included.  Periods above
        # 1 are rare (about 1 in 200), so after the first 60 matrices only
        # cycling ones are checked until 5 have been.
        rng = random.Random(37)
        checked = cycling = 0
        for _ in range(20_000):
            if checked >= 60 and cycling >= 5:
                break
            n = rng.randint(2, 8)
            density = rng.choice((0.1, 0.2, 0.3, 0.5))
            rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
            a = BoolMatrix(n, rows)
            tail = generic.competition_table(a)[0]
            if checked >= 60 and tail.period == 1:
                continue
            horizon = tail.index + 2 * tail.period + 6
            bs = [oracles.naive_competition(as_lists(a), m) for m in range(1, horizon + 1)]
            assert oracles.naive_tail(bs) == (tail.index, tail.period)
            checked += 1
            cycling += tail.period > 1
        assert cycling >= 5

    def test_period_one_on_conditioned_sweep(self):
        for spec in enumerate_specs(6, True):
            assert generic.competition_table(build_matrix(spec))[0].period == 1, spec.literal

    def test_structural_relations_to_power_tail(self):
        rng = random.Random(41)
        for _ in range(25):
            a = random_matrix(rng, 6)
            p = generic.power_table(a)[0]
            c = generic.competition_table(a)[0]
            assert p.period % c.period == 0
            assert c.index <= p.index + p.period

    def test_diagonal_all_ones_under_conditions(self):
        # Every vertex keeps an out-neighbor, so each row of every power is
        # nonzero and each vertex competes with itself at every step.
        for spec in enumerate_specs(6, True):
            a = build_matrix(spec)
            tail = generic.power_table(a)[0]
            for m in range(1, tail.index + tail.period + 1):
                b = competition_matrix(a, m)
                assert all(b.get(v, v) == 1 for v in range(1, spec.n + 1)), spec.literal


class TestCompetitionLimit:
    def test_running_example_limit_is_residue_blocks(self):
        limit = competition_limit(build_matrix(parse_literal("T8<1,4;2,5>")))
        assert as_lists(limit) == oracles.naive_residue_matrix(8, 3)

    def test_permutation_limit_is_identity(self):
        assert competition_limit(three_cycle()) == BoolMatrix.identity(3)


def block_matrix(n, d):
    """Geometry's residue matrix: the expected competition limit."""
    return BoolMatrix(n, oracles.unpack(n, geometry(n).residue_matrix(d)))


class TestResidueBlocks:
    def test_sizes_running_example(self):
        classes = residue_classes(8, 3)
        assert classes == [(1, 4, 7), (2, 5, 8), (3, 6)]
        expected = block_matrix(8, 3)
        assert expected.get(1, 4) == 1 and expected.get(1, 2) == 0
        assert as_lists(expected) == oracles.naive_residue_matrix(8, 3)

    def test_single_class_is_all_ones(self):
        assert residue_classes(5, 1) == [(1, 2, 3, 4, 5)]
        assert block_matrix(5, 1) == BoolMatrix(5, [(1 << 5) - 1] * 5)

    def test_singleton_classes_give_identity(self):
        for d in (4, 5, 9):
            assert residue_classes(4, d) == [(1,), (2,), (3,), (4,)]
            assert block_matrix(4, d) == BoolMatrix.identity(4)

    def test_modulus_validated(self):
        for d in (0, -3):
            with pytest.raises(ValueError):
                residue_classes(4, d)

    def test_classes_match_definition(self):
        for n in range(1, 30):
            for d in range(1, n + 3):
                classes = [tuple(range(r, n + 1, d)) for r in range(1, min(d, n) + 1)]
                assert residue_classes(n, d) == classes, (n, d)


class TestEventuallyToeplitz:
    def test_t5_never_again(self):
        kernel = ToeplitzKernel(parse_literal("T5<2;4>"))
        holds, first_m = power_is_eventually_toeplitz(*power_table(kernel))
        assert holds is False and first_m is None

    def test_running_example_holds(self):
        spec = parse_literal("T8<1,4;2,5>")
        kernel, a = ToeplitzKernel(spec), build_matrix(spec)
        tail, seq = power_table(kernel)
        holds, first_m = power_is_eventually_toeplitz(tail, seq)
        assert holds is True
        # Independent threshold: scan a long prefix directly.
        flags = [a.power(m).is_toeplitz() for m in range(1, tail.index + tail.period + 1)]
        expected_first = len(flags)
        while expected_first > 1 and flags[expected_first - 2]:
            expected_first -= 1
        assert first_m == expected_first == 1

    def test_threshold_matches_generic_up_to_6(self):
        # The key signs against BoolMatrix.is_toeplitz: the powers from the
        # threshold on are the longest Toeplitz run that ends the scan, and
        # it must cover the cycle.
        for spec in enumerate_specs(6, False):
            tail, gseq = generic.power_table(build_matrix(spec))
            run = 0
            while run < len(gseq) and gseq[-1 - run].is_toeplitz():
                run += 1
            expected = (True, len(gseq) - run + 1) if run >= tail.period else (False, None)
            kernel = ToeplitzKernel(spec)
            assert power_is_eventually_toeplitz(*power_table(kernel)) == expected, spec.literal

    def test_conditioned_sweep_holds(self):
        for spec in enumerate_specs(6, True):
            kernel = ToeplitzKernel(spec)
            holds, _ = power_is_eventually_toeplitz(*power_table(kernel))
            assert holds, spec.literal

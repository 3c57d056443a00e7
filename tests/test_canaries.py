"""Mutation canaries: each test plants one plausible bug in the packed path
or the predicate glue and checks that the sweep at n <= 6 reports its own
predicate failing, that the embedded goldens report a mismatch, or that the
key step's differential test or its times_a pin fails.  A check never seen
to fail is no evidence."""

import random
from math import gcd

from toeplab import goldens, verify
from toeplab.packed import Geometry, ToeplitzKernel
from toeplab.spectra import power_table
from toeplab.toeplitz import parse_literal
from toeplab.verify import enumerate_specs, sweep
from toeplab.walks import walk_length_bound

import generic


def sweep_fails(predicate):
    return sweep(6, require_conditions=False).fails(predicate)


def mismatched_goldens():
    return {name for name, ok, _ in goldens.run_all() if not ok}


def residue_diagonals(self, d, first):
    # Geometry.residue_matrix with its diagonals counted from `first`.
    n, out = self.n, 0
    for ell in range(first, n, d):
        diagonal = self.identity & ((1 << (n - ell) * n) - 1)
        out |= (diagonal << ell) | (diagonal << ell * n)
    return out


def test_formula_match_catches_dropped_transpose(monkeypatch):
    def compete_times_a(self, b):
        y = 0
        for shift in self._rows_down:
            y |= b >> shift
        for shift in self._rows_up:
            y |= b << shift
        return self.times_a(y)  # A.B.A instead of A.B.A^T

    monkeypatch.setattr(ToeplitzKernel, "compete", compete_times_a)
    assert sweep_fails("formula_match") > 0


def test_adjacency_necessity_catches_shifted_residue_class(monkeypatch):
    monkeypatch.setattr(
        Geometry, "residue_matrix", lambda self, d: residue_diagonals(self, d, 1)
    )
    assert sweep_fails("adjacency_necessity") > 0


def reversed_chain(congruent, combination, realized):
    # walks.containment_chain with each containment turned around.
    for p, q, r in zip(congruent, combination, realized):
        if p & ~q or q & ~r:
            return False
    return True


def test_containment_chain_catches_reversed_comparison(monkeypatch):
    monkeypatch.setattr(verify, "containment_chain", reversed_chain)
    assert sweep_fails("containment_chain") > 0


def test_limit_block_match_catches_missing_main_diagonal(monkeypatch):
    monkeypatch.setattr(
        Geometry, "residue_matrix", lambda self, d: residue_diagonals(self, d, d)
    )
    assert sweep_fails("limit_block_match") > 0


def test_limit_clique_match_catches_unmasked_column_shift(monkeypatch):
    def compete_unmasked(self, b):
        y = 0
        for shift in self._rows_down:
            y |= b >> shift
        for shift in self._rows_up:
            y |= b << shift
        out = 0
        left, right = self._times_at
        for _, s in left:
            out |= (y >> s) & self.geometry.full  # column mask dropped: bits cross row ends
        for mask, t in right:
            out |= (y & mask) << t
        return out

    monkeypatch.setattr(ToeplitzKernel, "compete", compete_unmasked)
    assert sweep_fails("limit_clique_match") > 0


def test_eventually_toeplitz_catches_vertical_neighbour(monkeypatch):
    # Geometry.scan_key with its Toeplitz test comparing each entry with
    # the one below it instead of its lower-right neighbour.
    def key_vertical(self, x):
        stride, row, up, last = self._key_shifts
        if ((x >> (stride - 1)) ^ x) & self.inner:  # n where n+1 belongs
            return x
        return ~(((x & row) << up) | (x >> last))

    monkeypatch.setattr(Geometry, "scan_key", key_vertical)
    assert sweep_fails("eventually_toeplitz") > 0


def test_pqr_stabilized_catches_short_diagonal_pad(monkeypatch):
    # The powers the sweep reads are Toeplitz from some m on, so their
    # scan keys are the diagonals read off rows 1 and n; a row-n mask one
    # bit short of columns 1..n-1 never reads diagonal -1.  The fold's
    # short pad is caught in test_packed.py.
    def key_short_row(self, x):
        stride, row, up, last = self._key_shifts
        if ((x >> stride) ^ x) & self.inner:
            return x
        return ~(((x & row) << up) | ((x >> last) & (row >> 2)))

    monkeypatch.setattr(Geometry, "scan_key", key_short_row)
    assert sweep_fails("pqr_stabilized") > 0


def run_window_one_column_short(monkeypatch, run):
    # ToeplitzKernel._run_table with the window of one run missing its last
    # column's top entry, the highest offset the run covers.
    run_table = ToeplitzKernel._run_table

    def short_table(self):
        runs = list(run_table(self))
        forward, backward, window, outside = runs[run]
        top = 1 << window.bit_length() - 1
        runs[run] = (forward, backward, window ^ top, outside | top)
        self._runs = tuple(runs)
        return self._runs

    monkeypatch.setattr(ToeplitzKernel, "_run_table", short_table)


def test_key_step_differential_catches_short_run_window(monkeypatch):
    # The first run's short window lets a disagreement at that entry pass
    # as Toeplitz.  The powers of A never put one there up to n = 8, so the
    # whole scans still match; the one-step differential from arbitrary
    # Toeplitz matrices does not.
    run_window_one_column_short(monkeypatch, 0)
    assert list(generic.scan_mismatches(enumerate_specs(6, False))) == []
    assert next(generic.step_mismatches(enumerate_specs(7, False), random.Random(7)), None)


def test_key_step_pin_catches_short_last_run_window(monkeypatch):
    # The last run's short window leaves offset n - 1 unread, so no key
    # step ever finds X.A Toeplitz: every table stays right, but each step
    # falls back to the n^2-bit one, which the times_a pin on T400 catches.
    run_window_one_column_short(monkeypatch, -1)
    assert list(generic.scan_mismatches(enumerate_specs(6, False))) == []
    calls = []
    times_a = ToeplitzKernel.times_a
    kernel = ToeplitzKernel(parse_literal("T400<3,7;5>"))
    monkeypatch.setattr(ToeplitzKernel, "times_a", lambda k, x: calls.append(1) or times_a(k, x))
    power_table(kernel)
    assert len(calls) == 84  # one per step, where the pin asks for none


def test_gcd_equality_catches_steps_for_differences(monkeypatch):
    # gcd_equality reads the gcd of each step set's differences from the
    # set's Geometry entry.  The gcd of the steps themselves goes in its
    # place as each entry is read, so an entry a clean sweep has cached
    # carries the bug too.
    step_masks = Geometry.step_masks

    def steps_gcd(self, steps):
        *entry, _ = step_masks(self, steps)
        return (*entry, gcd(*steps))

    monkeypatch.setattr(Geometry, "step_masks", steps_gcd)
    assert sweep_fails("gcd_equality") > 0


def test_period_match_catches_dropped_backward_steps(monkeypatch):
    # t1 for s1 in the predicted period is no canary: every step pair sum
    # is a multiple of d, so gcd(d, t1) = gcd(d, s1).
    def times_a_shortest_backward(self, x):
        out = 0
        right, left = self._times_a
        for mask, s in right:
            out |= (x & mask) << s
        for mask, t in left[:1]:  # only t1 of the backward steps
            out |= (x & mask) >> t
        return out

    monkeypatch.setattr(ToeplitzKernel, "times_a", times_a_shortest_backward)
    assert sweep_fails("period_match") > 0


def test_competition_period_is_1_catches_missing_row_shift(monkeypatch):
    def compete_without_a(self, b):
        out = 0
        left, right = self._times_at
        for mask, s in left:
            out |= (b & mask) >> s
        for mask, t in right:
            out |= (b & mask) << t
        return out  # B.A^T instead of A.B.A^T

    monkeypatch.setattr(ToeplitzKernel, "compete", compete_without_a)
    assert sweep_fails("competition_period_is_1") > 0


def test_bound_holds_catches_dropped_constant_term(monkeypatch):
    def bound_without_constant(spec, d):
        requests = -(-spec.n // d) - 1
        return 2 * walk_length_bound(spec, requests)  # the 2*(s1+t1) term left out

    monkeypatch.setattr(verify, "competition_index_bound", bound_without_constant)
    assert sweep_fails("bound_holds") > 0


def test_p_recurrence_catches_swapped_shortest_steps(monkeypatch):
    def step_swapped(spec, mask):
        shifted = (mask << spec.min_backward) | (mask >> spec.min_forward)
        return shifted & ((1 << (2 * spec.n - 1)) - 1)

    monkeypatch.setattr(verify, "congruence_step", step_swapped)
    assert sweep_fails("p_recurrence") > 0


def test_warm_caches_carry_no_result_across_mutations(monkeypatch):
    # The per-size and per-step-set masks are cached process-wide.  After a
    # clean sweep has filled them, each canary must still fail, and a clean
    # sweep after the canaries must match the first one.
    clean = sweep(6, require_conditions=False)
    assert clean.violation_count == 0
    for canary in (
        test_adjacency_necessity_catches_shifted_residue_class,
        test_limit_block_match_catches_missing_main_diagonal,
        test_formula_match_catches_dropped_transpose,
        test_pqr_stabilized_catches_short_diagonal_pad,
        test_gcd_equality_catches_steps_for_differences,
    ):
        with monkeypatch.context() as patch:
            canary(patch)
    assert sweep(6, require_conditions=False).to_json_dict() == clean.to_json_dict()


def test_goldens_catch_compete_without_backward_rows(monkeypatch):
    def compete_forward_rows(self, b):
        y = 0
        for shift in self._rows_down:
            y |= b >> shift  # the backward row shifts left out
        out = 0
        left, right = self._times_at
        for mask, s in left:
            out |= (y & mask) >> s
        for mask, t in right:
            out |= (y & mask) << t
        return out

    monkeypatch.setattr(ToeplitzKernel, "compete", compete_forward_rows)
    assert "t8_limit" in mismatched_goldens()


def test_goldens_catch_times_a_without_backward_steps(monkeypatch):
    def times_a_forward(self, x):
        out = 0
        right, _ = self._times_a
        for mask, s in right:
            out |= (x & mask) << s
        return out  # the backward steps left out

    monkeypatch.setattr(ToeplitzKernel, "times_a", times_a_forward)
    expected = {"t5_power_cycle", "t5_tail", "t5_powers_not_toeplitz", "t8_period", "t8_step_sets"}
    assert expected <= mismatched_goldens()

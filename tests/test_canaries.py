"""Mutation canaries: each test plants one plausible bug in the packed path
and checks that the sweep at n <= 6 reports its own predicate failing.  A
predicate never seen to fail is no evidence."""

from toeplab.packed import ToeplitzKernel
from toeplab.verify import sweep
from toeplab.walks import StepSets


def sweep_fails(predicate):
    return sweep(6, require_conditions=False).fails(predicate)


def residue_diagonals(self, d, first):
    # ToeplitzKernel.residue_matrix with its diagonals counted from `first`.
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
        ToeplitzKernel, "residue_matrix", lambda self, d: residue_diagonals(self, d, 1)
    )
    assert sweep_fails("adjacency_necessity") > 0


def test_containment_chain_catches_reversed_comparison(monkeypatch):
    def reversed_chain(ss):
        p, q, r = ss.congruent_mask, ss.combination_mask, ss.realized_mask
        return p & ~q == 0 and q & ~r == 0

    monkeypatch.setattr(StepSets, "chain_holds", property(reversed_chain))
    assert sweep_fails("containment_chain") > 0


def test_limit_block_match_catches_missing_main_diagonal(monkeypatch):
    monkeypatch.setattr(
        ToeplitzKernel, "residue_matrix", lambda self, d: residue_diagonals(self, d, d)
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
            out |= (y >> s) & self.full  # column mask dropped: bits cross row ends
        for mask, t in right:
            out |= (y & mask) << t
        return out

    monkeypatch.setattr(ToeplitzKernel, "compete", compete_unmasked)
    assert sweep_fails("limit_clique_match") > 0


def test_eventually_toeplitz_catches_vertical_neighbour(monkeypatch):
    monkeypatch.setattr(
        ToeplitzKernel,
        "is_toeplitz",
        lambda self, x: ((x >> self.n) ^ x) & self._inner == 0,  # n where n+1 belongs
    )
    assert sweep_fails("eventually_toeplitz") > 0


def test_pqr_stabilized_catches_short_diagonal_pad(monkeypatch):
    init = ToeplitzKernel.__init__

    def short_pad(self, spec):
        init(self, spec)
        top = 1 << (spec.n * spec.n + spec.n - 1)  # last bit of the pad above
        self._pad_upper &= ~top
        self._pad_lower &= ~top

    monkeypatch.setattr(ToeplitzKernel, "__init__", short_pad)
    assert sweep_fails("pqr_stabilized") > 0

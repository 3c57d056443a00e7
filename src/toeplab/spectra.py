"""Eventual periodicity of Boolean power and competition sequences.

Both {A^m} and {A^m (A^T)^m} range over a finite set, so each is
eventually periodic; this module finds the exact entry point and cycle
length of each and groups the vertices into the residue classes whose
all-ones blocks the competition limit is expected to be.
"""

from __future__ import annotations

from typing import NamedTuple

from .packed import KEY_STEP_FROM, ToeplitzKernel

__all__ = [
    "STEP_BUDGET",
    "PeriodicTail",
    "BudgetExceeded",
    "within_budget",
    "power_table",
    "power_from_table",
    "competition_table",
    "residue_classes",
    "power_is_eventually_toeplitz",
]


# Steps any one scan, step-set run or walk may take.  By Wielandt the power
# index of an n x n primitive matrix can reach (n-1)^2 + 1, so every scan is
# capped: an instance past the cap is reported incomplete, never wrong.
STEP_BUDGET = 20_000


class BudgetExceeded(Exception):
    """Raised when a sequence scan exceeds its step budget."""


def within_budget(count: int, what: str):
    """Raise BudgetExceeded, naming `what`, when `count` steps pass STEP_BUDGET."""
    if count > STEP_BUDGET:
        raise BudgetExceeded(f"{what} {count} exceeds {STEP_BUDGET} steps")


class PeriodicTail(NamedTuple):
    """Entry index and cycle length of an eventually periodic sequence.

    index is the smallest m >= 1 with X_m = X_{m+period} for all later m;
    period is the smallest cycle length.  The cycle's terms are the last
    `period` entries of the scan's term list.
    """

    index: int
    period: int


def power_table(kernel: ToeplitzKernel, last: int | None = None):
    """Scan A^1, A^2, ... to the first repeat, or past STEP_BUDGET terms to
    BudgetExceeded.

    Returns (tail, seq) where seq lists A^1 .. A^{index+period-1} by their
    Geometry.scan_key: a Toeplitz power, as every power of A is from some m
    on, is stored and hashed as its 2n - 1 diagonal bits, not its n^2 bits.
    From n = packed.KEY_STEP_FROM on, a Toeplitz A^m steps to A^(m+1)'s key
    on those bits alone, per run of columns OR_s (x << s) | OR_t (x >> t) of
    its diagonal mask x (ToeplitzKernel.key_step).  With `last` (at least 1)
    the scan also stops at A^last when that comes first and returns tail
    None; power_from_table reads A^last either way, and no later term.
    """
    if kernel.spec.n < KEY_STEP_FROM:
        return _scan(kernel.adjacency, kernel.times_a, "power", last, kernel.geometry.scan_key)
    return _scan(kernel.geometry.scan_key(kernel.adjacency), kernel.key_step, "power", last)


def _scan(first, step, what: str, last: int | None = None, key=None):
    # Each term is a function of the one before, so the first repeat pins
    # the minimal index and period; the dict compares keys exactly, hashes
    # each term's key (the term itself without `key`) once, and its
    # insertion order is the sequence.  With `last` the scan also stops
    # after term `last` and returns no tail.
    if last is not None and last < 1:
        raise ValueError(f"a {what} scan stops at a term m >= 1, not at {last}")
    seen: dict = {}
    setdefault = seen.setdefault
    stop = STEP_BUDGET if last is None else min(STEP_BUDGET, last)
    x, m = first, 1
    while (first_m := setdefault(key(x) if key else x, m)) == m:
        if m >= stop:
            if m == last:
                return None, list(seen)
            raise BudgetExceeded(f"{what} sequence exceeded {STEP_BUDGET} steps")
        x = step(x)
        m += 1
    # tuple.__new__ skips the NamedTuple's Python-level __new__.
    return tuple.__new__(PeriodicTail, (first_m, m - first_m)), list(seen)


def power_from_table(kernel: ToeplitzKernel, tail: PeriodicTail, seq, m: int) -> int:
    """X_m as the kernel's packed int, read off a power_table or
    competition_table result of `kernel` (round the cycle beyond the scan).
    A power's scan key is decoded, so only the power asked for is rebuilt
    to n^2 bits; a competition term is stored as it is."""
    if m < 1 or (tail is None and m > len(seq)):
        raise ValueError(f"sequence index {m} is not in 1..{'' if tail else len(seq)}")
    if m > len(seq):
        m = tail.index + (m - tail.index) % tail.period
    return kernel.geometry.from_key(seq[m - 1])


def competition_table(kernel: ToeplitzKernel, last: int | None = None):
    """Tail of the competition sequence B_m = A^m (A^T)^m plus its prefix.

    Scans B_1 = A A^T, B_{m+1} = A B_m A^T up to the first repeat, so the
    prefix B_1 .. B_{index+period-1}, as the kernel's packed ints, holds
    every distinct B_m.  `last` and STEP_BUDGET stop the scan as in
    power_table, and power_from_table reads B_last either way.
    """
    first = kernel.compete(kernel.geometry.identity)
    return _scan(first, kernel.compete, "competition", last)


def residue_classes(n: int, d: int) -> list[tuple[int, ...]]:
    """Vertices 1..n grouped by residue mod d; class r holds v = r (mod d)
    for r = 1..min(d, n), with residue 0 filed under class d.  For d > n
    every vertex is a class of its own."""
    if d < 1:
        raise ValueError(f"modulus {d} is below 1")
    return [tuple(range(r, n + 1, d)) for r in range(1, min(d, n) + 1)]


def power_is_eventually_toeplitz(tail: PeriodicTail, seq):
    """Whether all large powers of A are Toeplitz, and the first threshold,
    read off the key signs of a power_table result (tail, seq).

    Checks one full cycle (enough, by periodicity) and then extends the
    threshold backwards through the pre-cycle powers.  The packed sweep
    reads the same signs off walks.step_set_masks instead.
    """
    first_m = tail.index
    if max(seq[first_m - 1 :]) >= 0:
        return False, None
    while first_m > 1 and seq[first_m - 2] < 0:
        first_m -= 1
    return True, first_m

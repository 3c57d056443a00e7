"""Eventual periodicity of Boolean power and competition sequences.

Both {A^m} and {A^m (A^T)^m} range over a finite set, so each is
eventually periodic; this module finds the exact entry point and cycle
length of each and groups the vertices into the residue classes whose
all-ones blocks the competition limit is expected to be.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .boolmat import BoolMatrix
from .packed import ToeplitzKernel, geometry, members

__all__ = [
    "PeriodicTail",
    "BudgetExceeded",
    "power_table",
    "power_from_table",
    "competition_matrix",
    "competition_table",
    "residue_classes",
    "power_is_eventually_toeplitz",
]


class BudgetExceeded(Exception):
    """Raised when a sequence scan exceeds its step budget."""


class PeriodicTail(NamedTuple):
    """Entry index and cycle of an eventually periodic matrix sequence.

    index is the smallest m >= 1 with X_m = X_{m+period} for all later m;
    period is the smallest cycle length; cycle holds the period distinct
    matrices X_index, ..., X_{index+period-1} in order, as BoolMatrix or,
    from a ToeplitzKernel, as packed ints.  A named tuple: immutable, and
    cheap to build once per scan.
    """

    index: int
    period: int
    cycle: tuple


def power_table(A, max_steps: int | None = None, last: int | None = None):
    """Scan A^1, A^2, ... to the first repeat.

    Returns (tail, seq) where seq lists A^1 .. A^{index+period-1}.  A is a
    BoolMatrix, or a ToeplitzKernel whose packed ints then fill the table.
    With `last`, the scan also stops at A^last when that comes first, and
    then returns tail None; power_from_table reads A^last either way.
    """
    if isinstance(A, ToeplitzKernel):
        return _scan(A.adjacency, A.times_a, max_steps, "power", last)
    return _scan(A, lambda x: x.multiply(A), max_steps, "power", last)


def _scan(first, step, max_steps: int | None, what: str, last: int | None = None):
    # Each term is a function of the one before, so the first repeat pins
    # the minimal index and period; the dict compares keys exactly, hashes
    # each term once, and its insertion order is the sequence.  With `last`
    # the scan also stops after term `last` and returns no tail.
    seen: dict = {}
    setdefault = seen.setdefault
    stop = min(sys.maxsize if max_steps is None else max_steps, last or sys.maxsize)
    x = first
    m = 1
    while (first_m := setdefault(x, m)) == m:
        if m >= stop:
            if m == last:
                return None, list(seen)
            raise BudgetExceeded(f"{what} sequence exceeded {max_steps} steps")
        x = step(x)
        m += 1
    seq = list(seen)
    return PeriodicTail(first_m, m - first_m, tuple(seq[first_m - 1 :])), seq


def power_from_table(tail: PeriodicTail, seq, m: int):
    """X_m read off a power_table or competition_table result (uses the
    cycle beyond the scan)."""
    if m < 1:
        raise ValueError("sequence index must be at least 1")
    if m <= len(seq):
        return seq[m - 1]
    return tail.cycle[(m - tail.index) % tail.period]


def competition_matrix(A: BoolMatrix, m: int) -> BoolMatrix:
    """A^m (A^T)^m: entry (i, j) is 1 iff rows i and j of A^m share a
    nonzero column."""
    if m < 1:
        raise ValueError("the competition sequence starts at m = 1")
    x = A.power(m)
    return x.multiply(x.transpose())


def competition_table(A, max_steps: int | None = None, last: int | None = None):
    """Tail of the competition sequence B_m = A^m (A^T)^m plus its prefix.

    Scans B_1 = A A^T, B_{m+1} = A B_m A^T up to the first repeat, so the
    prefix B_1 .. B_{index+period-1} holds every distinct B_m.  A is a
    BoolMatrix, or a ToeplitzKernel whose packed ints then fill the table.
    `last` stops the scan at B_last as in power_table.
    """
    if isinstance(A, ToeplitzKernel):
        first = A.compete(A.geometry.identity)
        return _scan(first, A.compete, max_steps, "competition", last)
    at = A.transpose()
    return _scan(
        A.multiply(at), lambda b: A.multiply(b).multiply(at), max_steps, "competition", last
    )


def residue_classes(n: int, d: int) -> list[tuple[int, ...]]:
    """Vertices 1..n grouped by residue mod d; class r holds v = r (mod d)
    for r = 1..min(d, n), with residue 0 filed under class d.  For d > n
    every vertex is a class of its own."""
    if d < 1:
        raise ValueError(f"modulus {d} is below 1")
    return [tuple(members(mask)) for mask in geometry(n).class_masks(d)]


def power_is_eventually_toeplitz(A: BoolMatrix, tail: PeriodicTail, seq=None):
    """Whether all large powers of A are Toeplitz, and the first threshold.

    Checks one full cycle (enough, by periodicity) and then extends the
    threshold backwards through the pre-cycle powers.  The packed sweep
    reads the same test off walks.step_set_masks instead.
    """
    if not all(mat.is_toeplitz() for mat in tail.cycle):
        return False, None
    if seq is None:
        seq = power_table(A)[1]
    first_m = tail.index
    while first_m > 1 and seq[first_m - 2].is_toeplitz():
        first_m -= 1
    return True, first_m

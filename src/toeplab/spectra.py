"""Eventual periodicity of Boolean power and competition sequences.

Both {A^m} and {A^m (A^T)^m} range over a finite set, so each is
eventually periodic; this module finds the exact entry point and cycle
length of each and groups the vertices into the residue classes whose
all-ones blocks the competition limit is expected to be.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class PeriodicTail:
    """Entry index and cycle of an eventually periodic matrix sequence.

    index is the smallest m >= 1 with X_m = X_{m+period} for all later m;
    period is the smallest cycle length; cycle holds the period distinct
    matrices X_index, ..., X_{index+period-1} in order, as BoolMatrix or,
    from a ToeplitzKernel, as packed ints.
    """

    index: int
    period: int
    cycle: tuple


def power_table(A, max_steps: int | None = None):
    """Scan A^1, A^2, ... to the first repeat.

    Returns (tail, seq) where seq lists A^1 .. A^{index+period-1}.  A is a
    BoolMatrix, or a ToeplitzKernel whose packed ints then fill the table.
    """
    if isinstance(A, ToeplitzKernel):
        return _scan(A.adjacency, A.times_a, max_steps, "power")
    return _scan(A, lambda x: x.multiply(A), max_steps, "power")


def _scan(first, step, max_steps: int | None, what: str):
    # Each term is a function of the one before, so the first repeat pins
    # the minimal index and period; the dict compares keys exactly.
    seen: dict = {}
    seq: list = []
    x = first
    m = 1
    while x not in seen:
        seen[x] = m
        seq.append(x)
        if max_steps is not None and m >= max_steps:
            raise BudgetExceeded(f"{what} sequence exceeded {max_steps} steps")
        x = step(x)
        m += 1
    first_m = seen[x]
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


def competition_table(A, max_steps: int | None = None):
    """Tail of the competition sequence B_m = A^m (A^T)^m plus its prefix.

    Scans B_1 = A A^T, B_{m+1} = A B_m A^T up to the first repeat, so the
    prefix B_1 .. B_{index+period-1} holds every distinct B_m.  A is a
    BoolMatrix, or a ToeplitzKernel whose packed ints then fill the table.
    """
    if isinstance(A, ToeplitzKernel):
        return _scan(A.compete(A.geometry.identity), A.compete, max_steps, "competition")
    at = A.transpose()
    return _scan(A.multiply(at), lambda b: A.multiply(b).multiply(at), max_steps, "competition")


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
    reads the same test off its step-set run instead (StepSets.toeplitz).
    """
    if not all(mat.is_toeplitz() for mat in tail.cycle):
        return False, None
    if seq is None:
        seq = power_table(A)[1]
    first_m = tail.index
    while first_m > 1 and seq[first_m - 2].is_toeplitz():
        first_m -= 1
    return True, first_m

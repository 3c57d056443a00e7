"""Tail tables of general Boolean matrices, the tests' generic reference.

The library scans only the packed Toeplitz kernel.  These tables run its
one tail routine, spectra._scan, on BoolMatrix terms instead, so the
routine stays under test on sequences that are not Toeplitz, and the
kernel's tables have a reference built from plain matrix products.  Each
returns (tail, seq) as spectra's tables do: seq lists X_1 up to
X_{index+period-1}, and its last `period` terms are the cycle.
"""

from toeplab.spectra import _scan


def power_table(A):
    """A^1, A^2, ... up to the first repeat."""
    return _scan(A, lambda x: x.multiply(A), "power")


def competition_table(A):
    """B_1 = A A^T, B_{m+1} = A B_m A^T up to the first repeat."""
    at = A.transpose()
    return _scan(A.multiply(at), lambda b: A.multiply(b).multiply(at), "competition")


def competition_matrix(A, m):
    """A^m (A^T)^m: entry (i, j) is 1 iff rows i and j of A^m share a
    nonzero column."""
    if m < 1:
        raise ValueError("the competition sequence starts at m = 1")
    x = A.power(m)
    return x.multiply(x.transpose())


def competition_limit(A):
    """The competition limit of A, which must have competition period 1."""
    tail, bs = competition_table(A)
    assert tail.period == 1, f"no limit: competition period is {tail.period}"
    return bs[tail.index - 1]

"""Tail tables of general Boolean matrices, the tests' generic reference.

The library scans only the packed Toeplitz kernel.  These tables run its
one tail routine, spectra._scan, on BoolMatrix terms instead, so the
routine stays under test on sequences that are not Toeplitz, and the
kernel's tables have a reference built from plain matrix products.  Two
more run the packed power scan with one power step forced at every n: on
n^2 bits, or on the diagonal bits of each Toeplitz power.  Each table
returns (tail, seq) as spectra's tables do: seq lists X_1 up to
X_{index+period-1}, and its last `period` terms are the cycle.  The two
mismatch generators compare the packed steps, over whole scans and over
single steps from arbitrary Toeplitz matrices.
"""

from toeplab.packed import ToeplitzKernel
from toeplab.spectra import _scan
from toeplab.toeplitz import build_matrix


def power_table(A):
    """A^1, A^2, ... up to the first repeat."""
    return _scan(A, lambda x: x.multiply(A), "power")


def competition_table(A):
    """B_1 = A A^T, B_{m+1} = A B_m A^T up to the first repeat."""
    at = A.transpose()
    return _scan(A.multiply(at), lambda b: A.multiply(b).multiply(at), "competition")


def square_power_table(kernel, last=None):
    """spectra.power_table of a packed kernel with every power stepped on
    its n^2 bits (ToeplitzKernel.times_a), whatever n."""
    return _scan(kernel.adjacency, kernel.times_a, "power", last, kernel.geometry.scan_key)


def key_power_table(kernel, last=None):
    """spectra.power_table of a packed kernel with every Toeplitz power
    stepped on its 2n - 1 diagonal bits (ToeplitzKernel.key_step), whatever n."""
    return _scan(kernel.geometry.scan_key(kernel.adjacency), kernel.key_step, "power", last)


def scan_mismatches(specs, cut=False):
    """The literals whose key-stepped power table differs from the n^2-bit
    one or whose tail differs from the BoolMatrix table's.  With `cut` the
    two packed scans are also compared when stopped before the index, at
    it, and at and past the first repeat."""
    for spec in specs:
        key, square = ToeplitzKernel(spec), ToeplitzKernel(spec)
        table = key_power_table(key)
        if table != square_power_table(square) or table[0] != power_table(build_matrix(spec))[0]:
            yield spec.literal
        elif cut:
            index, period = table[0]
            lasts = {1, max(1, index - 1), index, index + period - 1, index + period + 2}
            if any(key_power_table(key, m) != square_power_table(square, m) for m in lasts):
                yield spec.literal


def step_mismatches(specs, rng, per_spec=3):
    """The (literal, diagonal mask) pairs, over `per_spec` random Toeplitz X
    per instance, where key_step's key of X.A differs from the n^2-bit
    step's.  The masks are arbitrary, not only powers of A, so every run
    boundary meets bits on both sides."""
    for spec in specs:
        kernel, n = ToeplitzKernel(spec), spec.n
        g = kernel.geometry
        for _ in range(per_spec):
            x = rng.getrandbits(2 * n - 1)
            if kernel.key_step(~x) != g.scan_key(kernel.times_a(g.from_key(~x))):
                yield spec.literal, x


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

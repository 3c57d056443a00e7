"""Packed Toeplitz kernels: one int per matrix, products by shift-OR.

A packed matrix is one Python int holding all n*n entries, row stride n:
bit r*n + c is entry (r+1, c+1).  The adjacency matrix A of T_n<S;T> has
ones exactly on the diagonals s in S and -t for t in T, so a product with A
never needs a generic Boolean product.  With L_k keeping columns 1..n-k and
H_k keeping columns k+1..n, both repeated on every row:

    X.A   = OR_s ((X & L_s) << s)  |  OR_t ((X & H_t) >> t)
    A.B   = OR_s (B >> s*n)        |  OR_t (B << t*n)
    Y.A^T = OR_s ((Y & H_s) >> s)  |  OR_t ((Y & L_t) << t)

so a power step and a competition step B -> A.B.A^T each cost O(|S|+|T|)
big-int operations whatever the density.  Only the masks of the instance's
own steps are built.
"""

from __future__ import annotations

from .boolmat import BoolMatrix
from .toeplitz import ToeplitzSpec

__all__ = ["ToeplitzKernel"]


class ToeplitzKernel:
    """Packed matrix algebra for one instance: the adjacency matrix, the
    power and competition steps, full-diagonal offsets and the Toeplitz
    test, all on packed ints."""

    __slots__ = (
        "spec",
        "n",
        "full",
        "identity",
        "adjacency",
        "_times_a",
        "_rows_down",
        "_rows_up",
        "_times_at",
        "_inner",
        "_pad_upper",
        "_pad_lower",
    )

    def __init__(self, spec: ToeplitzSpec):
        n = spec.n
        self.spec = spec
        self.n = n
        row = (1 << n) - 1
        self.full = full = (1 << n * n) - 1
        ones = full // row  # bit 0 of every row
        self.identity = ((1 << n * (n + 1)) - 1) // ((1 << (n + 1)) - 1)
        steps = set(spec.forward_steps) | set(spec.backward_steps)
        low = {k: ones * ((1 << (n - k)) - 1) for k in steps}  # L_k
        high = {k: ones * (row ^ ((1 << k) - 1)) for k in steps}  # H_k
        # Lists, not tuple(generator): a tuple grown from a generator is
        # resized, which parks one cached tuple per call in another size's
        # free list and inflates peak memory over a sweep.
        fwd, bwd = spec.forward_steps, spec.backward_steps
        self._times_a = [(low[s], s) for s in fwd], [(high[t], t) for t in bwd]
        self._rows_down = [s * n for s in fwd]
        self._rows_up = [t * n for t in bwd]
        self._times_at = [(high[s], s) for s in fwd], [(low[t], t) for t in bwd]
        # Entries with a lower-right neighbour: rows and columns 1..n-1.
        self._inner = (ones >> n) * (row >> 1)
        # Diagonal fold pads: the strict lower (upper) triangle plus the n
        # bits just above the matrix read as ones.  Row r of identity - ones
        # is (1 << r) - 1, the strict lower triangle.
        lower = self.identity - ones
        above = row << (n * n)
        self._pad_lower = lower | above
        self._pad_upper = (full ^ lower) | above
        self.adjacency = self.times_a(self.identity)

    def times_a(self, x: int) -> int:
        """X.A: column shifts of X, masked so no bit crosses a row end."""
        out = 0
        right, left = self._times_a
        for mask, s in right:
            out |= (x & mask) << s
        for mask, t in left:
            out |= (x & mask) >> t
        return out

    def compete(self, b: int) -> int:
        """A.B.A^T: row shifts for A.B, then masked column shifts for .A^T.
        From B_0 = I this yields B_m = A^m (A^T)^m.  Rows shifted past row
        n are dropped by the column masks."""
        y = 0
        for shift in self._rows_down:
            y |= b >> shift
        for shift in self._rows_up:
            y |= b << shift
        out = 0
        left, right = self._times_at
        for mask, s in left:
            out |= (y & mask) >> s
        for mask, t in right:
            out |= (y & mask) << t
        return out

    def residue_matrix(self, d: int) -> int:
        """Entry (u, v) is 1 iff u = v (mod d): the diagonals at multiples of d."""
        n = self.n
        out = 0
        for ell in range(0, n, d):
            diagonal = self.identity & ((1 << (n - ell) * n) - 1)
            out |= (diagonal << ell) | (diagonal << ell * n)
        return out

    def is_toeplitz(self, x: int) -> bool:
        """Every entry equals its lower-right neighbour."""
        return ((x >> (self.n + 1)) ^ x) & self._inner == 0

    def full_diagonals(self, x: int) -> int:
        """Offsets ell whose whole diagonal (u, u+ell) is ones, as a mask
        over [-(n-1), n-1]: bit ell + n - 1 stands for ell.

        Bits of stride n+1 run down a diagonal and wrap into the next one,
        so one AND-fold along the stride, with the other triangle padded to
        ones, reads diagonal ell >= 0 at bit ell and diagonal -j at bit
        n+1-j.
        """
        n = self.n
        upper = self._fold(x | self._pad_lower)
        lower = self._fold(x | self._pad_upper)
        return ((upper & ((1 << n) - 1)) << (n - 1)) | ((lower >> 2) & ((1 << (n - 1)) - 1))

    def _fold(self, y: int) -> int:
        # Bit p of the result ANDs bits p, p+(n+1), ..., p+(n-1)(n+1) of y.
        n = self.n
        stride = n + 1
        span = 1
        while 2 * span <= n:
            y &= y >> (span * stride)
            span *= 2
        return y & (y >> ((n - span) * stride))

    def pack(self, mat: BoolMatrix) -> int:
        n = self.n
        return int("".join(format(r, f"0{n}b") for r in reversed(mat.rows)), 2)

    def unpack(self, x: int) -> BoolMatrix:
        n = self.n
        bits = format(x, f"0{n * n}b")
        return BoolMatrix._raw(n, tuple([int(bits[k : k + n], 2) for k in range(n * n - n, -1, -n)]))

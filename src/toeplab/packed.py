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
big-int operations whatever the density.  A power scan keys each power by
Geometry.scan_key.  A Toeplitz power, as the powers of A are from some m
on, is fixed by its full diagonals (the realized offsets), read off rows 1
and n, so it is hashed and stored as 2n - 1 bits; only a power that is not
Toeplitz is stored whole, as n^2 bits, and pays for the AND-fold along
stride n+1 when its diagonals are read.  From n = KEY_STEP_FROM on, a
Toeplitz X with diagonal mask x steps on those bits alone: each run of
columns a..b of X.A that use the same steps reads M = OR_s (x << s) |
OR_t (x >> t) on its offsets W = [a - n, b - 1], and X.A is Toeplitz, keyed
by ~AND_r (M | ~W), exactly when that equals OR_r (M & W).

Everything that depends on n and at most one step set or modulus lives in
one Geometry per size, shared by every kernel of that size: the fixed
masks, the Toeplitz test, the scan key and its decoding, the diagonal
fold, row reading and the text and JSON forms, and the tables filled on
first use (column masks per step, and whole diagonal pairs up to PAIR_BITS
bits; residue matrices and congruent offset masks per modulus; shift
lists, the set as one mask, the gcd of its differences and the one-step
partner rules per step set).  packed.geometry keeps the Geometry of the
last 128 sizes asked for.  A ToeplitzKernel keeps only what its own steps
pick: the shift lists, the two step masks and difference gcds, the
adjacency matrix, the two steps and, from its first key step, its runs.
closure is reachability over row masks, for any digraph given by its rows,
and members decodes a vertex or offset mask.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .toeplitz import ToeplitzSpec

__all__ = ["Geometry", "ToeplitzKernel", "geometry", "closure", "members"]

# Size from which Geometry.rows slices the rows out of a matrix's bytes
# instead of shifting them out: slicing copies only the row, but costs more
# per row.  Timed on T_n<3,7;5>, 2 cores, Python 3.11: slicing was 1.1x
# slower at n = 130, 1.2x faster at n = 150 and 3x at n = 400.
ROW_BYTES_FROM = 140

# Size from which power scans step Toeplitz powers on their 2n - 1 diagonal
# bits (ToeplitzKernel.key_step).  Whole scans, key step over n^2-bit step, 60
# seeded instances per size with 1-3 steps of each kind, 2 cores, Python 3.11:
# random steps 1.06x at n = 64, 1.00x at 80, 0.91x at 88; steps up to 12 0.94x,
# 0.76x, 0.59x; both mixes 1.1-1.5x slower at n <= 48 (Python cost per run).
KEY_STEP_FROM = 88

# Step sets whose shift lists and partner rules one Geometry keeps: all
# 2^(n-1) - 1 of a size up to n = 12, and a bound on memory for larger sizes.
STEP_SETS = 2048

# Diagonal pair bits one Geometry keeps, counting n^2 bits per pair: all
# n - 1 pairs of a size up to n = 80 (about n^3 bits, 64 KB at n = 80), and
# the first pairs asked for of a larger size (13 at n = 200, 2 at n = 512),
# where keeping all of them would take 8 MB at n = 400.
PAIR_BITS = 1 << 19

# Largest n for the commands that build an n x n matrix: a scan stores
# 2n - 1 bits per Toeplitz power and n^2 bits per other power or B_m, so
# even spectra.STEP_BUDGET stored terms of n^2 bits stay under 655 MB.
MAX_MATRIX_N = 512


class Geometry:
    """Everything of one size n that no single instance owns.

    The all-ones and identity matrices, the Toeplitz-test and diagonal-fold
    masks are built with the geometry; the diagonal pairs (kept up to
    PAIR_BITS bits) and the tables per modulus and per step set on first
    use.  Every entry depends on n and at most one step, step set or
    modulus, never on a whole instance.
    """

    __slots__ = (
        "n",
        "full",
        "identity",
        "inner",
        "pad_lower",
        "pad_upper",
        "fold_shifts",
        "_key_shifts",
        "_ones",
        "_pairs",
        "_pairs_left",
        "_residues",
        "_congruents",
        "_step_sets",
        "_partners",
    )

    def __init__(self, n: int):
        self.n = n
        row = (1 << n) - 1
        self.full = full = (1 << n * n) - 1
        self._ones = ones = full // row  # bit 0 of every row
        self.identity = ((1 << n * (n + 1)) - 1) // ((1 << (n + 1)) - 1)
        # Entries with a lower-right neighbour: rows and columns 1..n-1.
        self.inner = (ones >> n) * (row >> 1)
        # scan_key's Toeplitz-test shift, row 1 mask, row 1 and row n shifts.
        self._key_shifts = (n + 1, row, n - 1, n * (n - 1))
        # Diagonal fold pads: the strict lower (upper) triangle plus the n
        # bits just above the matrix read as ones.  Row r of identity - ones
        # is (1 << r) - 1, the strict lower triangle.
        lower = self.identity - ones
        above = row << (n * n)
        self.pad_lower = lower | above
        self.pad_upper = (full ^ lower) | above
        # AND-fold shifts along stride n+1: spans 1, 2, 4, ... and then the
        # rest, so bit p ends up ANDing bits p, p+(n+1), ..., p+(n-1)(n+1).
        stride = n + 1
        shifts = []
        span = 1
        while 2 * span <= n:
            shifts.append(span * stride)
            span *= 2
        shifts.append((n - span) * stride)
        self.fold_shifts = tuple(shifts)
        # Indexed by step 1..n-1; None until first asked for.
        self._pairs = [None] * n
        self._pairs_left = PAIR_BITS // (n * n)
        # Keyed by modulus d.
        self._residues: dict[int, int] = {}
        self._congruents: dict[int, tuple[int, ...]] = {}
        # Keyed by step set.
        self._step_sets: dict[tuple[int, ...], tuple] = {}
        self._partners: dict[tuple[int, ...], list] = {}

    # -- per step, diagonal and step set ------------------------------------------

    def step_masks(self, steps: tuple[int, ...]) -> tuple:
        """The (L_k, k) and (H_k, k) pairs, where L_k holds columns 1..n-k
        and H_k columns k+1..n of every row, the row shifts k*n, the step
        set as one mask (bit k stands for step k) and the gcd of its
        differences k' - k (0 for one step) of one step set, kept for the
        first STEP_SETS step sets asked for."""
        entry = self._step_sets.get(steps)
        if entry is None:
            first, ones, row = steps[0], self._ones, (1 << self.n) - 1
            # tuple(list), not tuple(generator): a tuple grown from a
            # generator is resized, which parks one cached tuple per call in
            # another size's free list and inflates peak memory over a sweep.
            entry = (
                tuple([(ones * (row >> k), k) for k in steps]),
                tuple([(ones * (row ^ ((1 << k) - 1)), k) for k in steps]),
                tuple([k * self.n for k in steps]),
                sum([1 << k for k in steps]),
                # Every difference k' - k is (k' - first) - (k - first).
                gcd(*[k - first for k in steps]),
            )
            if len(self._step_sets) < STEP_SETS:
                self._step_sets[steps] = entry
        return entry

    def partners(self, steps: tuple[int, ...], forward: bool) -> int:
        """The pairs the one-step competition formula admits for the step
        differences of one set, by the forward rule (forward=True) or the
        backward rule; see compgraph.competition_formula.  Both rules of
        the first STEP_SETS step sets asked for are kept, each built on
        first use."""
        rules = self._partners.get(steps)
        if rules is None:
            rules = [None, None]  # indexed by forward
            if len(self._partners) < STEP_SETS:
                self._partners[steps] = rules
        rule = rules[forward]
        if rule is None:
            rule = rules[forward] = self._partner_rule(steps, forward)
        return rule

    def _partner_rule(self, steps: tuple[int, ...], forward: bool) -> int:
        # Per delta, the smallest lower partner k of a pair k, k + delta of
        # steps bounds u: u <= n - delta - k forward, u >= k + 1 backward.
        lowest = {}
        for k in reversed(steps):
            for k2 in steps:
                if k2 > k:
                    lowest[k2 - k] = k
        out = 0
        for delta, k in lowest.items():
            last = self.n - delta
            lo, hi = (1, last - k) if forward else (k + 1, last)
            if lo <= hi:
                out |= self.segment(delta, lo, hi)
        return out

    def diagonal_pair(self, delta: int) -> int:
        """The whole diagonals delta and -delta, for delta = 1..n-1, kept
        while the pairs kept stay within PAIR_BITS."""
        mask = self._pairs[delta]
        if mask is None:
            mask = self.segment(delta, 1, self.n - delta)
            if self._pairs_left:
                self._pairs_left -= 1
                self._pairs[delta] = mask
        return mask

    def segment(self, delta: int, lo: int, hi: int) -> int:
        """Entries (u, u+delta) and (u+delta, u) for u = lo..hi."""
        n = self.n
        # Diagonal entries (u, u) for u = lo..hi, moved onto both diagonals.
        seg = (self.identity & ((1 << (hi - lo + 1) * n) - 1)) << (lo - 1) * (n + 1)
        return (seg << delta) | (seg << delta * n)

    # -- per modulus ----------------------------------------------------------------

    def residue_matrix(self, d: int) -> int:
        """Entry (u, v) is 1 iff u = v (mod d): the diagonals at multiples of d."""
        mask = self._residues.get(d)
        if mask is None:
            n = self.n
            mask = self.identity
            for ell in range(d, n, d):
                mask |= self.segment(ell, 1, n - ell)
            self._residues[d] = mask
        return mask

    def congruent_masks(self, d: int) -> tuple[int, ...]:
        """Entry r: the offsets in [-(n-1), n-1] congruent to r mod d, as a
        mask where bit ell + n - 1 stands for ell."""
        masks = self._congruents.get(d)
        if masks is None:
            n = self.n
            masks = [0] * d
            for k in range(2 * n - 1):
                masks[(k - n + 1) % d] |= 1 << k
            masks = self._congruents[d] = tuple(masks)
        return masks

    # -- matrices of this size ------------------------------------------------------

    def scan_key(self, x: int) -> int:
        """x's power-scan key: ~(its full diagonals) when x is Toeplitz (each
        entry equals its lower-right neighbour), whose row 1 holds diagonals
        0..n-1 and row n diagonals -(n-1)..-1 in mask order, and x itself
        otherwise.  Toeplitz keys are negative and the others not, so each key
        names exactly one matrix and scan_key(x) < 0 is the Toeplitz test.
        Entry (n, n) of row n is diagonal 0 again, so it ORs onto (1, 1)."""
        stride, row, up, last = self._key_shifts
        if ((x >> stride) ^ x) & self.inner:
            return x
        return ~(((x & row) << up) | (x >> last))

    def from_key(self, key: int) -> int:
        """The packed matrix a scan_key names: a Toeplitz one is two products
        with the identity, row r taking the diagonals from column r on, each
        cut to its triangle by a fold pad."""
        if key >= 0:
            return key
        n, x = self.n, ~key
        lower = (self.identity * ((x << 1) & ((1 << n) - 1))) >> n & self.pad_lower
        return ((self.identity * (x >> n - 1)) & self.pad_upper | lower) & self.full

    def fold_diagonals(self, x: int) -> int:
        """The full diagonals of any x, in two log-depth AND-folds.

        The full diagonals are the offsets ell whose whole diagonal
        (u, u+ell) is ones, as a mask over [-(n-1), n-1] where bit
        ell + n - 1 stands for ell.  Bits of stride n+1 run down a diagonal
        and wrap into the next one, so one AND-fold along the stride, with
        the other triangle padded to ones, reads diagonal ell >= 0 at bit
        ell and diagonal -j at bit n+1-j.  After the folds bit p ANDs bits
        p, p+(n+1), ..., p+(n-1)(n+1) of the padded x.
        """
        n = self.n
        upper = x | self.pad_lower
        lower = x | self.pad_upper
        for shift in self.fold_shifts:
            upper &= upper >> shift
            lower &= lower >> shift
        return ((upper & ((1 << n) - 1)) << (n - 1)) | ((lower >> 2) & ((1 << (n - 1)) - 1))

    def rows(self, x: int) -> list[int]:
        """The rows of x, row 1 first, each a mask where bit c - 1 stands
        for column c."""
        n = self.n
        row = (1 << n) - 1
        if n < ROW_BYTES_FROM:
            return [(x >> k) & row for k in range(0, n * n, n)]
        data = x.to_bytes((n * n + 7) >> 3, "little")
        return [
            (int.from_bytes(data[k >> 3 : (k + n + 7) >> 3], "little") >> (k & 7)) & row
            for k in range(0, n * n, n)
        ]

    # Text form: n on the first line, then one line of n characters 0/1 per
    # row, column 1 leftmost.  JSON form: {"n": n, "rows": [those lines]}.

    def row_strings(self, x: int) -> list[str]:
        """The rows of x as 0/1 strings, column 1 leftmost."""
        width = f"0{self.n}b"
        return [format(row, width)[::-1] for row in self.rows(x)]

    def to_text(self, x: int) -> str:
        return "\n".join([str(self.n), *self.row_strings(x)])

    def to_json_dict(self, x: int) -> dict:
        return {"n": self.n, "rows": self.row_strings(x)}


# 128 sizes hold every size one mix of traffic touches: the cli_queries
# benchmark mix asks for 71 (n 10-80), a sweep up to n = 16 for 15 and
# large_instances for 13, so none of them rebuilds a Geometry and refills
# its tables on a later call.
@lru_cache(maxsize=128)
def geometry(n: int) -> Geometry:
    """The Geometry of size n, built once while n stays among the 128 sizes
    asked for last."""
    return Geometry(n)


class ToeplitzKernel:
    """The power and competition steps of one instance, on packed ints.
    Everything that depends on n alone is the size's Geometry; the kernel
    keeps the shift lists of its own steps, each step set as a mask (bit k
    stands for step k) with the gcd of its differences, and the adjacency
    matrix."""

    __slots__ = (
        "spec",
        "geometry",
        "adjacency",
        "forward_bits",
        "backward_bits",
        "forward_diff_gcd",
        "backward_diff_gcd",
        "_times_a",
        "_rows_down",
        "_rows_up",
        "_times_at",
        "_runs",
    )

    def __init__(self, spec: ToeplitzSpec):
        self.spec = spec
        self.geometry = g = geometry(spec.n)
        fwd_low, fwd_high, self._rows_down, self.forward_bits, self.forward_diff_gcd = (
            g.step_masks(spec.forward_steps)
        )
        bwd_low, bwd_high, self._rows_up, self.backward_bits, self.backward_diff_gcd = (
            g.step_masks(spec.backward_steps)
        )
        self._times_a = fwd_low, bwd_high
        self._times_at = fwd_high, bwd_low
        self.adjacency = self.times_a(g.identity)
        self._runs = None

    def times_a(self, x: int) -> int:
        """X.A: column shifts of X, masked so no bit crosses a row end."""
        out = 0
        right, left = self._times_a
        for mask, s in right:
            out |= (x & mask) << s
        for mask, t in left:
            out |= (x & mask) >> t
        return out

    def key_step(self, key: int) -> int:
        """The scan key of X.A from X's: run by run on the 2n - 1 diagonal bits
        (module docstring) while X and X.A are Toeplitz, else by times_a."""
        if key < 0:
            x, ups, downs = ~key, [0], [0]
            for s in self.spec.forward_steps:
                ups.append(ups[-1] | x << s)
            for t in self.spec.backward_steps:
                downs.append(downs[-1] | x >> t)
            every, some = -1, 0  # column 1's run shifts nothing left: 2n - 1 bits
            for forward, backward, window, outside in self._runs or self._run_table():
                mask = ups[forward] | downs[backward]
                every &= mask | outside
                some |= mask & window
            if every == some:
                return ~every
            key = self.geometry.from_key(key)
        return self.geometry.scan_key(self.times_a(key))

    def _run_table(self) -> tuple:
        # Column j uses the steps s < j and t <= n - j: the cuts s + 1 and
        # n - t + 1 split columns 1..n into runs a..b - 1, each kept as its
        # step counts (prefixes of the sorted steps), W and ~W.
        n, fwd, bwd = self.spec.n, self.spec.forward_steps, self.spec.backward_steps
        cuts = sorted({1, n + 1, *[s + 1 for s in fwd], *[n - t + 1 for t in bwd]})
        full, runs = (1 << 2 * n - 1) - 1, []
        for a, b in zip(cuts, cuts[1:]):
            w = ((1 << n + b - 1 - a) - 1) << a - 1
            runs.append((sum(s < a for s in fwd), sum(t <= n - a for t in bwd), w, full ^ w))
        self._runs = runs = tuple(runs)
        return runs

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


def closure(rows, v: int) -> int:
    """Mask of the vertices reachable from vertex v (0-based, v included)
    along `rows`, where bit u of rows[k] is an arc from k to u."""
    reach = frontier = 1 << v
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~reach
        reach |= frontier
    return reach


def members(mask: int, offset: int = 0) -> list[int]:
    """p + 1 - offset for each set bit p of mask, ascending: the vertices of
    a vertex mask (bit v - 1 stands for v), or with offset n the offsets of
    an offset mask (bit ell + n - 1 stands for ell)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - offset)
        mask ^= low
    return out

"""Dense Boolean matrix algebra with bit-packed rows.

Entries live in {0, 1} under OR-addition and AND-multiplication, so matrix
products answer reachability questions: entry (i, j) of a product is 1
exactly when some k links i to j through both factors.  Each row is packed
into a single Python int (bit j-1 is column j), which turns the inner loop
of a multiplication into a handful of word-wide ORs.

The public interface is 1-indexed: vertices and rows/columns run over
1..n. Instances are immutable; all operations return new matrices.
"""

from __future__ import annotations

__all__ = ["BoolMatrix"]

# 128-bit FNV-1a, folded over 16-byte words of the packed rows.  Fast and
# deterministic; exact comparisons must always re-verify on collision.
_FNV_OFFSET = 0x6C62272E07BB014262B821756295C58D
_FNV_PRIME = 0x0000000001000000000000000000013B
_FNV_MASK = (1 << 128) - 1


class BoolMatrix:
    """Immutable square Boolean matrix, rows packed as ints."""

    __slots__ = ("n", "rows", "_fp")

    def __init__(self, n: int, rows):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        mask = (1 << n) - 1
        self.n = n
        # Canonical padding: bits at and beyond column n+1 are always zero,
        # so equality and hashing can stay bitwise.
        self.rows = tuple(r & mask for r in rows)
        self._fp = None

    @classmethod
    def _raw(cls, n: int, rows: tuple) -> "BoolMatrix":
        # Fast path for rows already known to be canonical.
        obj = object.__new__(cls)
        obj.n = n
        obj.rows = rows
        obj._fp = None
        return obj

    @classmethod
    def identity(cls, n: int) -> "BoolMatrix":
        if n < 1:
            raise ValueError("dimension must be at least 1")
        return cls._raw(n, tuple(1 << i for i in range(n)))

    def get(self, i: int, j: int) -> int:
        """Entry at row i, column j (both 1-indexed)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"entry ({i},{j}) outside 1..{self.n}")
        return (self.rows[i - 1] >> (j - 1)) & 1

    def multiply(self, other: "BoolMatrix") -> "BoolMatrix":
        """OR-AND product; row i of the result ORs the rows of `other`
        selected by the set bits of row i of `self`."""
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        brows = other.rows
        out = []
        append = out.append
        for r in self.rows:
            acc = 0
            while r:
                low = r & -r
                acc |= brows[low.bit_length() - 1]
                r ^= low
            append(acc)
        return BoolMatrix._raw(self.n, tuple(out))

    __mul__ = multiply

    def transpose(self) -> "BoolMatrix":
        n = self.n
        out = [0] * n
        for i, r in enumerate(self.rows):
            bit = 1 << i
            while r:
                low = r & -r
                out[low.bit_length() - 1] |= bit
                r ^= low
        return BoolMatrix._raw(n, tuple(out))

    def power(self, m: int) -> "BoolMatrix":
        """m-th power by repeated squaring; power 0 is the identity."""
        if m < 0:
            raise ValueError("exponent must be nonnegative")
        result = BoolMatrix.identity(self.n)
        base = self
        while m:
            if m & 1:
                result = result.multiply(base)
            base = base.multiply(base)
            m >>= 1
        return result

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, BoolMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def fingerprint(self) -> int:
        """128-bit digest of the packed rows; equal matrices always agree.

        Distinct matrices may in principle collide, so any exact use
        (cycle detection, dedup) must fall back to ==.
        """
        fp = self._fp
        if fp is None:
            h = _FNV_OFFSET
            nbytes = (self.n + 7) // 8
            buf = b"".join(r.to_bytes(nbytes, "little") for r in self.rows)
            for k in range(0, len(buf), 16):
                h ^= int.from_bytes(buf[k : k + 16], "little")
                h = (h * _FNV_PRIME) & _FNV_MASK
            self._fp = fp = h
        return fp

    def is_toeplitz(self) -> bool:
        """True when every diagonal is constant: (i,j) == (i+1,j+1)."""
        n = self.n
        if n == 1:
            return True
        low = (1 << (n - 1)) - 1
        rows = self.rows
        return all(rows[i] & low == rows[i + 1] >> 1 for i in range(n - 1))

    def count_ones(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def __repr__(self):
        return f"BoolMatrix({self.n}, ones={self.count_ones()})"


"""Competition graphs of the Toeplitz digraph.

Two vertices are adjacent in the m-step competition graph when some third
vertex is reachable from both by directed walks of length exactly m, i.e.
when the off-diagonal entry of A^m (A^T)^m is 1.  For m = 1 the edges also
admit a closed-form test straight from the step sets, which this module
implements on packed ints from the tables of the size's Geometry (the
partner rules per step set, the diagonal pairs, the step sets as masks)
and which the verify sweep cross-checks against the matrix route on every
instance.

The text, DOT and JSON forms of a graph are written straight from the row
masks of a symmetric matrix (text_from_rows, dot_from_rows, json_from_rows),
reading each row at its columns v > u as from_symmetric_matrix does, so
the `graph` command never builds an edge tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, repeat

from .packed import MAX_MATRIX_N, ToeplitzKernel, closure, members
# pair_sum_gcd is unused here: perfbench/selftest.py checks tracing rebinds it in this module.
from .toeplitz import ToeplitzSpec, pair_sum_gcd  # noqa: F401

__all__ = [
    "SimpleGraph",
    "m_step_graph",
    "competition_graph_formula",
    "competition_formula",
    "strong_components",
    "residue_clique_graph",
    "digraph_dot",
    "text_from_rows",
    "dot_from_rows",
    "json_from_rows",
]

# bytes.translate table from binary digits to 0/1 column selectors.
_DIGITS = bytes.maketrans(b"01", b"\0\1")

# str(v) for every vertex of a graph the CLI writes.
_NUMERALS = tuple(map(str, range(MAX_MATRIX_N + 1)))


@dataclass(frozen=True, slots=True)
class SimpleGraph:
    """Undirected loop-free graph on vertices 1..n.  The edges are one
    tuple of (u, v) pairs with u < v, strictly increasing, so equal graphs
    have equal tuples."""

    n: int
    edges: tuple

    def __post_init__(self):
        if not isinstance(self.edges, tuple):
            raise TypeError("edges must be a tuple of (u, v) pairs")
        n = self.n
        prev = (0, n)  # below every pair (u, v) with 1 <= u < v <= n
        for edge in self.edges:
            u, v = edge
            if not (prev < edge and u < v <= n):
                raise ValueError(f"edge {edge} is not ordered inside 1..{n} or not after {prev}")
            prev = edge

    @classmethod
    def from_symmetric_matrix(cls, n: int, rows) -> "SimpleGraph":
        """Off-diagonal support of a symmetric n x n matrix given by its row
        masks (bit c - 1 stands for column c), loops discarded: row u gives
        its columns v > u lowest first, so the edges come out in order."""
        edges = []
        for u, row in enumerate(rows, 1):
            # The binary digits of row >> u, lowest first, select columns u + 1, u + 2, ...
            digits = bin(row >> u)[:1:-1].encode().translate(_DIGITS)
            edges += zip(repeat(u), compress(count(u + 1), digits))
        return cls(n, tuple(edges))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": self.edges}

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, edges={len(self.edges)})"


def m_step_graph(A, m: int) -> SimpleGraph:
    """Competition graph after m steps of the BoolMatrix A: the off-diagonal
    part of A^m (A^T)^m."""
    if m < 1:
        raise ValueError("step count must be at least 1")
    x = A.power(m)
    return SimpleGraph.from_symmetric_matrix(A.n, x.multiply(x.transpose()).rows)


def competition_graph_formula(spec: ToeplitzSpec) -> SimpleGraph:
    """One-step competition graph computed from the step sets alone."""
    kernel = ToeplitzKernel(spec)
    rows = kernel.geometry.rows(competition_formula(kernel))
    return SimpleGraph.from_symmetric_matrix(spec.n, rows)


def competition_formula(kernel: ToeplitzKernel) -> int:
    """The one-step competition graph from the step sets alone, as a packed
    symmetric matrix with an empty diagonal.

    For u < v with delta = v - u, the pair shares an out-neighbor iff
      - delta = s' - s for forward steps with s <= n - v (then s' <= n - u
        holds automatically), or
      - delta = t' - t for backward steps with t <= u - 1 (then t' <= v - 1
        holds automatically), or
      - delta is a forward step plus a backward step.
    Each rule admits an interval of u per delta, laid down as one segment
    of the diagonals delta and -delta.  The first rule depends on (n, S)
    only and the second on (n, T) only, so the size's Geometry keeps each
    per step set (Geometry.partners); the third admits every u, the whole
    diagonal pair (Geometry.diagonal_pair) of each sum below n.  The sums
    S + T are one mask, the forward step mask shifted by each backward
    step, where bit delta stands for delta.
    """
    spec = kernel.spec
    g = kernel.geometry
    out = g.partners(spec.forward_steps, True) | g.partners(spec.backward_steps, False)
    forward = kernel.forward_bits
    sums = 0
    for t in spec.backward_steps:
        sums |= forward << t
    sums &= (1 << spec.n) - 1
    while sums:
        low = sums & -sums
        out |= g.diagonal_pair(low.bit_length() - 1)
        sums ^= low
    return out


def strong_components(rows) -> tuple[tuple[int, ...], ...]:
    """Strongly connected components of the digraph given by its row masks
    (bit u - 1 of rows[v - 1] is an arc v -> u), each sorted, ordered by
    smallest vertex.  u is in v's component when each one's closure holds
    the other."""
    reach = [closure(rows, v) for v in range(len(rows))]
    components = []
    placed = 0
    for v, ahead in enumerate(reach):
        if not placed >> v & 1:
            comp = tuple(u for u in members(ahead) if reach[u - 1] >> v & 1)
            placed |= sum([1 << u - 1 for u in comp])
            components.append(comp)
    return tuple(components)


def residue_clique_graph(n: int, d: int) -> SimpleGraph:
    """Disjoint cliques on the residue classes mod d."""
    if d < 1:
        raise ValueError(f"modulus {d} is below 1")
    return SimpleGraph(n, tuple((u, v) for u in range(1, n) for v in range(u + d, n + 1, d)))


# -- DOT rendering ------------------------------------------------------------


def digraph_dot(spec: ToeplitzSpec) -> str:
    """DOT for the digraph: solid arcs for forward steps (label s=k),
    dashed arcs for backward steps (label t=k)."""
    lines = [f'digraph "{spec.literal}" {{']
    for v in range(1, spec.n + 1):
        lines.append(f"  {v};")
    for i in range(1, spec.n + 1):
        for s in spec.forward_steps:
            if i + s <= spec.n:
                lines.append(f'  {i} -> {i + s} [label="s={s}"];')
        for t in spec.backward_steps:
            if i - t >= 1:
                lines.append(f'  {i} -> {i - t} [label="t={t}", style=dashed];')
    lines.append("}")
    return "\n".join(lines)


# -- Graph forms written from row masks ----------------------------------------
#
# rows is the list of n-bit row masks of a symmetric matrix (bit c - 1 stands
# for column c), read only at columns v > u: the diagonal and the lower triangle
# are ignored, as in SimpleGraph.from_symmetric_matrix.  Each row's edges
# come out lowest column first, in one join over its neighbors' numerals.


def _edges(n: int, rows, head: str, mid: str, tail: str, sep: str) -> str:
    """Every edge (u, v) as head + u + mid + v + tail, joined by sep."""
    numerals = _NUMERALS if n <= MAX_MATRIX_N else tuple(map(str, range(n + 1)))
    return sep.join(
        [
            f"{head}{u}{mid}"
            + f"{tail}{sep}{head}{u}{mid}".join(
                compress(numerals[u + 1 : n + 1], bin(row >> u)[:1:-1].encode().translate(_DIGITS))
            )
            + tail
            for u, row in enumerate(rows, 1)
            if row >> u
        ]
    )


def text_from_rows(n: int, rows) -> str:
    """A header line with the counts, then one line "u -- v" per edge."""
    size = sum([(row >> u).bit_count() for u, row in enumerate(rows, 1)])
    edges = _edges(n, rows, "\n", " -- ", "", "")
    return f"vertices={n} edges={size}{edges}"


def dot_from_rows(n: int, rows, name: str) -> str:
    """An undirected DOT graph: every vertex, then every edge."""
    vertices = "".join([f"\n  {v};" for v in range(1, n + 1)])
    edges = _edges(n, rows, "\n  ", " -- ", ";", "")
    return f'graph "{name}" {{{vertices}{edges}\n}}'


def json_from_rows(n: int, rows) -> str:
    """The graph's JSON object, the bytes json.dumps writes for
    SimpleGraph.to_json_dict."""
    edges = _edges(n, rows, "[", ", ", "]", ", ")
    return f'{{"n": {n}, "edges": [{edges}]}}'

"""Embedded regression goldens for the bundled worked examples.

Each golden re-derives a documented fact about one of the three running
instances (T5<2;4>, T8<1,4;2,5>, T6<2,4;4,5>) and diffs the result against
the frozen expectation.  Matrices, powers, tails and the competition limit
come from the packed kernel the sweep runs; a matrix is compared in its
text form.  The CLI `examples` command runs them all and exits nonzero on
any mismatch.
"""

from __future__ import annotations

from .compgraph import strong_components
from .packed import ToeplitzKernel, members
from .spectra import competition_table, power_from_table, power_table
from .toeplitz import pair_sum_gcd, parse_literal
from .walks import (
    Walk,
    WalkConstructionError,
    build_walk_with_counts,
    competition_index_bound,
    extend_walk_exact,
    step_set_run,
    walk_offset_decomposition,
)

T5 = "T5<2;4>"
T8 = "T8<1,4;2,5>"
T6 = "T6<2,4;4,5>"

_T5_MATRIX = """
5
00100
00010
00001
00000
10000
"""

# The three matrices the power sequence of T5<2;4> cycles through, starting
# at the square: exponents 2, 3, 4 modulo 3.
_T5_CYCLE = {
    2: """
5
00001
00000
10000
00000
00100
""",
    0: """
5
10000
00000
00100
00000
00001
""",
    1: """
5
00100
00000
00001
00000
10000
""",
}

_T8_MATRIX = """
8
01001000
00100100
10010010
01001001
00100100
10010010
01001001
00100100
"""

# The competition limit of T8<1,4;2,5>: entry (u, v) is 1 iff u = v (mod 3).
_T8_LIMIT = """
8
10010010
01001001
00100100
10010010
01001001
00100100
10010010
01001001
"""

_T6_MATRIX = """
6
001010
000101
000010
000001
100000
110000
"""


def _check(actual, expected) -> tuple[bool, str]:
    if actual == expected:
        return True, ""
    return False, f"expected {expected!r}, got {actual!r}"


def _kernel(literal: str) -> ToeplitzKernel:
    return ToeplitzKernel(parse_literal(literal))


def _adjacency_text(literal: str) -> str:
    kernel = _kernel(literal)
    return kernel.geometry.to_text(kernel.adjacency)


def golden_t5_matrix():
    return _check(_adjacency_text(T5), _T5_MATRIX.strip())


def golden_t5_power_cycle():
    kernel = _kernel(T5)
    table = power_table(kernel)
    for m in range(2, 8):
        text = kernel.geometry.to_text(power_from_table(kernel, *table, m))
        if text != _T5_CYCLE[m % 3].strip():
            return False, f"power {m} does not match the frozen cycle matrix"
    return True, ""


def golden_t5_tail():
    tail, _ = power_table(_kernel(T5))
    return _check((tail.index, tail.period), (2, 3))


def golden_t5_powers_not_toeplitz():
    kernel = _kernel(T5)
    table = power_table(kernel)
    key = kernel.geometry.scan_key
    bad = [m for m in range(2, 8) if key(power_from_table(kernel, *table, m)) < 0]
    return _check(bad, [])


def golden_t8_matrix():
    return _check(_adjacency_text(T8), _T8_MATRIX.strip())


def golden_t8_gcd():
    return _check(pair_sum_gcd(parse_literal(T8)), 3)


def golden_t8_step_sets():
    # The step-set run the sweep reads, decoded: P, Q and R at i = 3, then
    # P and R at i = 1.
    first, _, third = step_set_run(parse_literal(T8), 3)
    decoded = [members(mask, 8) for mask in (*third[:3], first[0], first[2])]
    return _check(decoded, [[-6, -3, 0, 3, 6]] * 3 + [[-5, -2, 1, 4, 7], [-5, -2, 1, 4]])


def golden_t8_period():
    tail, _ = power_table(_kernel(T8))
    return _check(tail.period, 3)


def golden_t8_limit():
    kernel = _kernel(T8)
    tail, bs = competition_table(kernel)
    limit = kernel.geometry.to_text(bs[tail.index - 1])
    return _check((tail.period, limit), (1, _T8_LIMIT.strip()))


def golden_t8_walk_witness():
    # 4 -> 5 -> 3 -> 1 realizes offset -3 in three arcs.
    spec = parse_literal(T8)
    walk = Walk(spec, (4, 5, 3, 1))
    a, b, length, offset = walk_offset_decomposition(walk)
    return _check((a, b, length, offset), ((1, 0), (2, 0), 3, -3))


def golden_t8_walk_counts():
    # From vertex 7: five arcs of +4 and six arcs of -5, shortest steps free.
    spec = parse_literal(T8)
    walk = build_walk_with_counts(spec, 7, s_counts=(5,), t_counts=(6,))
    a, b = walk.arc_counts()
    return _check((a[1], b[1]), (5, 6))


def golden_t8_three_shortest():
    # Offset +3 as three shortest forward steps: 1 -> 2 -> 3 -> 4.
    spec = parse_literal(T8)
    walk = extend_walk_exact(spec, 1, 3, 0, s_counts=(0,), t_counts=(0,))
    return _check(walk.vertices, (1, 2, 3, 4))


def golden_t8_bound():
    return _check(competition_index_bound(parse_literal(T8)), 30)


def golden_t2_matrix():
    return _check(_adjacency_text("T2<1;1>"), "2\n01\n10")


def golden_t6_matrix():
    return _check(_adjacency_text(T6), _T6_MATRIX.strip())


def golden_t6_components():
    kernel = _kernel(T6)
    comps = strong_components(kernel.geometry.rows(kernel.adjacency))
    return _check(comps, ((1, 3, 5), (2, 4, 6)))


def golden_t6_walk_fails():
    # No walk from vertex 1 can contain an arc dropping by 5: the only such
    # arc starts at 6, which is unreachable from 1.
    spec = parse_literal(T6)
    try:
        build_walk_with_counts(spec, 1, s_counts=(0,), t_counts=(1,))
    except WalkConstructionError:
        return True, ""
    return False, "walk construction unexpectedly succeeded"


GOLDENS = [
    ("t5_matrix", golden_t5_matrix),
    ("t5_power_cycle", golden_t5_power_cycle),
    ("t5_tail", golden_t5_tail),
    ("t5_powers_not_toeplitz", golden_t5_powers_not_toeplitz),
    ("t8_matrix", golden_t8_matrix),
    ("t8_gcd", golden_t8_gcd),
    ("t8_step_sets", golden_t8_step_sets),
    ("t8_period", golden_t8_period),
    ("t8_limit", golden_t8_limit),
    ("t8_walk_witness", golden_t8_walk_witness),
    ("t8_walk_counts", golden_t8_walk_counts),
    ("t8_three_shortest", golden_t8_three_shortest),
    ("t8_bound", golden_t8_bound),
    ("t2_matrix", golden_t2_matrix),
    ("t6_matrix", golden_t6_matrix),
    ("t6_components", golden_t6_components),
    ("t6_walk_fails", golden_t6_walk_fails),
]


def run_all():
    """Yield (name, ok, detail) for every golden."""
    for name, fn in GOLDENS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a mismatch, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        yield name, ok, detail

"""Independent brute-force oracles for the test suite.

Everything here works on plain lists of 0/1 lists (or adjacency lists) and
never calls into the package, so expected values stay independent of the
implementations they check.
"""

from itertools import combinations, product
from math import gcd


def naive_from_spec(n, fwd, bwd):
    m = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if (j - i) in fwd or (i - j) in bwd:
                m[i - 1][j - 1] = 1
    return m


def naive_multiply(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if a[i][k] and b[k][j]:
                    out[i][j] = 1
                    break
    return out


def naive_transpose(a):
    n = len(a)
    return [[a[j][i] for j in range(n)] for i in range(n)]


def naive_power(a, m):
    n = len(a)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(m):
        out = naive_multiply(out, a)
    return out


def naive_is_toeplitz(a):
    n = len(a)
    return all(a[i][j] == a[i + 1][j + 1] for i in range(n - 1) for j in range(n - 1))


def naive_residue_matrix(n, d):
    """Entry (u, v) is 1 iff u = v (mod d): the expected competition limit."""
    return [[int((u - v) % d == 0) for v in range(n)] for u in range(n)]


def naive_tail(seq):
    """(index, period) of an eventually periodic sequence, by definition:
    the smallest period p admitting a threshold, then the smallest
    threshold.  seq must extend beyond index + 2*period."""
    length = len(seq)
    for p in range(1, length):
        for start in range(length - p):
            if all(seq[m] == seq[m + p] for m in range(start, length - p)):
                return start + 1, p  # seq[0] is the first power
    raise AssertionError("sequence too short to expose its cycle")


def naive_powers(a, count):
    out = []
    cur = a
    for _ in range(count):
        out.append(cur)
        cur = naive_multiply(cur, a)
    return out


def naive_competition(a, m):
    am = naive_power(a, m)
    return naive_multiply(am, naive_transpose(am))


def naive_competition_edges(a, m):
    """Edges {u, v} with a common out-walk target of length exactly m,
    found by enumerating reach sets per vertex (1-indexed pairs)."""
    n = len(a)
    reach = [{v} for v in range(n)]
    for _ in range(m):
        reach = [{w for u in r for w in range(n) if a[u][w]} for r in reach]
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if reach[u] & reach[v]:
                edges.add((u + 1, v + 1))
    return edges


def naive_combination_offsets(n, fwd, bwd, i):
    """Exactly-i-term signed sums by full enumeration (small i only)."""
    steps = list(fwd) + [-t for t in bwd]
    sums = {sum(pick) for pick in product(steps, repeat=i)}
    return frozenset(v for v in sums if -(n - 1) <= v <= n - 1)


def combination_offsets(n, fwd, bwd, i):
    """Exactly-i-term signed sums, one shift-OR per term over a bitmask
    (bit v + j*max(bwd) holds sum v after j terms), clipped to
    [-(n-1), n-1] only at the end."""
    tmax = max(bwd)
    shifts = [s + tmax for s in fwd] + [tmax - t for t in bwd]
    mask = 1
    for _ in range(i):
        nxt = 0
        for sh in shifts:
            nxt |= mask << sh
        mask = nxt
    sums = (k - i * tmax for k in range(mask.bit_length()) if (mask >> k) & 1)
    return frozenset(v for v in sums if -(n - 1) <= v <= n - 1)


def combination_offsets_run(n, fwd, bwd, horizon):
    """combination_offsets for i = 1..horizon, as a list: one unclipped
    mask carried across the terms by the same shift-OR, with each i's
    window [-(n-1), n-1] read off it, so the run is one pass instead of
    one rebuild from i = 1 per i."""
    tmax = max(bwd)
    shifts = [s + tmax for s in fwd] + [tmax - t for t in bwd]
    width = (1 << (2 * n - 1)) - 1
    mask = 1
    out = []
    for i in range(1, horizon + 1):
        nxt = 0
        for sh in shifts:
            nxt |= mask << sh
        mask = nxt
        low = i * tmax - (n - 1)  # the bit of sum -(n-1) after i terms
        window = (mask >> low if low >= 0 else mask << -low) & width
        out.append(frozenset(k - (n - 1) for k in range(2 * n - 1) if (window >> k) & 1))
    return out


def full_diagonal_offsets(n, rows):
    """Offsets ell whose whole diagonal of entries (u, u+ell) is ones; row r
    is an int whose bit c is entry (r+1, c+1)."""
    out = []
    for off in range(-(n - 1), n):
        rng = range(0, n - off) if off >= 0 else range(-off, n)
        if all((rows[r] >> (r + off)) & 1 for r in rng):
            out.append(off)
    return frozenset(out)


def pack(n, rows):
    """The packed int of a matrix given by its row ints: row r takes bits
    r*n .. r*n + n - 1, so bit r*n + c is entry (r+1, c+1)."""
    return sum(row << r * n for r, row in enumerate(rows))


def unpack(n, x):
    """The n row ints of a packed matrix, row 1 first."""
    return tuple((x >> r * n) & ((1 << n) - 1) for r in range(n))


def row_strings(n, rows):
    """Each row int as n characters 0/1, column 1 leftmost, entry by entry."""
    return ["".join("1" if (row >> c) & 1 else "0" for c in range(n)) for row in rows]


def matrix_text(n, rows):
    """The text form of a matrix: n, then one row string per line."""
    return "\n".join([str(n)] + row_strings(n, rows))


def naive_strong_components(a):
    """Strong components of the digraph of a 0/1 list matrix: u ~ v iff
    each reaches the other in the reflexive-transitive closure.  Each is
    sorted, 1-based, ordered by smallest vertex."""
    n = len(a)
    reach = [[1 if i == j else a[i][j] for j in range(n)] for i in range(n)]
    for k in range(n):  # Warshall
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = 1
    out = []
    for u in range(n):
        comp = tuple(v + 1 for v in range(n) if reach[u][v] and reach[v][u])
        if comp[0] == u + 1:
            out.append(comp)
    return tuple(out)


def connected_components(n, edges):
    """Components of the undirected graph on 1..n with the given (u, v)
    edges, singletons included, each sorted, ordered by smallest vertex."""
    neighbors = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    seen = set()
    out = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            node = stack.pop()
            comp.append(node)
            for nxt in neighbors[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        out.append(tuple(sorted(comp)))
    return tuple(out)


def naive_realized_offsets(n, fwd, bwd, i):
    a = naive_from_spec(n, fwd, bwd)
    ai = naive_power(a, i)
    out = set()
    for ell in range(-(n - 1), n):
        pairs = [(u, u + ell) for u in range(1, n + 1) if 1 <= u + ell <= n]
        if all(ai[u - 1][v - 1] for u, v in pairs):
            out.add(ell)
    return frozenset(out)


def naive_congruent_offsets(n, fwd, bwd, i):
    d = 0
    for s in fwd:
        for t in bwd:
            d = gcd(d, s + t)
    target = (i * min(fwd)) % d
    return frozenset(v for v in range(-(n - 1), n) if v % d == target % d)


def offset_generators(spec):
    """Positive differences within each step set plus all pairwise sums.

    These generate every offset change achievable between two equal-length
    walks, hence the congruence class that competition edges live in.
    """
    fwd, bwd = spec.forward_steps, spec.backward_steps
    gens = {b - a for steps in (fwd, bwd) for a, b in combinations(steps, 2)}
    gens.update([s + t for s in fwd for t in bwd])
    return tuple(sorted(gens))


def prefix_positions(start, order):
    pos = [start]
    for step in order:
        pos.append(pos[-1] + step)
    return pos


def backtracking_schedule(start, terms, n):
    """An ordering of the signed steps `terms` whose every prefix keeps the
    position inside [1, n], or None if none does: a depth-first search that
    tries the larger step first at each position and remembers the
    (position, remaining counts) states already seen to fail."""
    terms = tuple(terms)
    keys = sorted(set(terms), reverse=True)
    remaining = tuple(terms.count(k) for k in keys)
    total = len(terms)

    order = []
    dead = set()
    frames = [[start, remaining, 0]]
    while frames:
        if len(order) == total:
            return tuple(order)
        pos, rem, ki = frames[-1]
        advanced = False
        while ki < len(keys):
            step = keys[ki]
            if rem[ki] > 0 and 1 <= pos + step <= n:
                child_rem = rem[:ki] + (rem[ki] - 1,) + rem[ki + 1 :]
                if (pos + step, child_rem) not in dead:
                    frames[-1][2] = ki + 1
                    order.append(step)
                    frames.append([pos + step, child_rem, 0])
                    advanced = True
                    break
            ki += 1
        if not advanced:
            dead.add((pos, rem))
            frames.pop()
            if order:
                order.pop()
    return None


def rows_bound_hypothesis(n, fwd, bwd, d):
    """Whether each residue class mod d is connected in the graph of
    B_1 = A A^T, by one closure per class over B_1's row masks: from the
    class's smallest vertex, stepping only inside the class.  Row u of A
    (0-based) holds u + s and u - t; row u of B_1 holds every v whose row
    of A meets row u."""
    a = [
        sum(1 << (u + s) for s in fwd if u + s < n) | sum(1 << (u - t) for t in bwd if u >= t)
        for u in range(n)
    ]
    b1 = [sum(1 << v for v in range(n) if a[u] & a[v]) for u in range(n)]
    for r in range(min(d, n)):
        within = sum(1 << v for v in range(r, n, d))
        reach = frontier = 1 << r
        while frontier:
            step = 0
            while frontier:
                low = frontier & -frontier
                step |= b1[low.bit_length() - 1]
                frontier ^= low
            frontier = step & within & ~reach
            reach |= frontier
        if reach != within:
            return False
    return True

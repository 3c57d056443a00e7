"""Offset step sets and constructive directed walks.

For a step count i, three nested sets of vertex offsets inside
[-n+1, n-1] matter:

  congruent    offsets matching i times the shortest forward step, mod the
               pair-sum gcd;
  combination  offsets writable as a signed combination of exactly i steps
               (forward steps count +, backward steps count -), with
               intermediate sums unconstrained;
  realized     offsets ell such that EVERY vertex pair at offset ell is
               joined by a directed walk of exactly i arcs.

realized <= combination <= congruent always; when both step-fit conditions
hold the three sets coincide from some step count on, and this module both
detects that point empirically and certifies it by periodicity.  The rest
of the module builds explicit walks with prescribed arc-type counts and
evaluates the competition-index bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import lcm
from typing import NamedTuple

from .packed import Geometry, ToeplitzKernel, geometry, members
from .spectra import PeriodicTail, power_table, within_budget
from .toeplitz import ToeplitzSpec, pair_sum_gcd, predicted_period

__all__ = [
    "StabilizationResult",
    "Arc",
    "Walk",
    "SchedulingFailure",
    "WalkConstructionError",
    "InsufficientArcCount",
    "EndpointOutOfRange",
    "congruent_offsets",
    "step_set_masks",
    "containment_chain",
    "step_set_run",
    "step_set_stabilization",
    "certify_stabilization",
    "congruence_step",
    "schedule_steps",
    "build_walk_with_counts",
    "extend_walk_exact",
    "walk_offset_decomposition",
    "walk_length_bound",
    "competition_index_bound",
    "bound_hypothesis_holds",
]


class SchedulingFailure(Exception):
    """No ordering of the requested steps stays inside the vertex range."""


class WalkConstructionError(Exception):
    """A requested arc cannot be positioned from the current vertex."""


class InsufficientArcCount(ValueError):
    """Requested total below what the base walk already uses."""


class EndpointOutOfRange(ValueError):
    """The prescribed arc counts land outside the vertex range."""


# -- step sets ---------------------------------------------------------------


def congruent_offsets(spec: ToeplitzSpec, i: int) -> frozenset:
    """Offsets in [-n+1, n-1] congruent to i * (min forward step) mod the
    pair-sum gcd."""
    if i < 1:
        raise ValueError("step count must be at least 1")
    d = pair_sum_gcd(spec)
    return frozenset(members(geometry(spec.n).congruent_masks(d)[i * spec.min_forward % d], spec.n))


def step_set_masks(
    spec: ToeplitzSpec, horizon: int, table, geometry: Geometry, d: int
) -> tuple[list[int], list[int], list[int], list[bool]]:
    """P_i, Q_i and R_i for i = 1..horizon as three lists of offset masks,
    and whether each A^i is Toeplitz, all indexed i - 1.  `table` is a
    power_table result of the instance's ToeplitzKernel, `geometry` its
    size's Geometry and `d` its pair-sum gcd; a table stopped early by
    `last` does for a horizon up to `last`.  The scan keys carry each
    distinct power's Toeplitz test and, for a Toeplitz power, its full
    diagonals; only a power that is not Toeplitz is folded, once.  Past
    the scanned powers the reads run round the cycle."""
    tail, seq = table
    n = spec.n
    fold_diagonals = geometry.fold_diagonals
    keys = seq[:horizon]
    toeplitz = [key < 0 for key in keys]
    realized = [~key if key < 0 else fold_diagonals(key) for key in keys]
    if horizon > len(seq):
        # seq ends with the cycle, and A^(len(seq) + 1) is its first entry.
        laps = (horizon - len(seq)) // tail.period + 1
        toeplitz += toeplitz[tail.index - 1 :] * laps
        realized += realized[tail.index - 1 :] * laps
        del toeplitz[horizon:], realized[horizon:]

    forward, backward = spec.forward_steps, spec.backward_steps
    s1 = forward[0]
    congruents = geometry.congruent_masks(d)
    width = (1 << (2 * n - 1)) - 1
    combination = 1 << (n - 1)  # Q_0 = {0}
    congruent, combinations = [], []
    # Q_i is stepped inside the window, dropping every partial sum outside
    # it.  That loses no sum that ends inside: no step is longer than n - 1,
    # so the steps can be ordered to stay inside.  Take a backward step while
    # the partial sum is positive and a forward step otherwise: a positive
    # sum minus at most n - 1 stays >= -(n - 2), a non-positive one plus at
    # most n - 1 stays <= n - 1, and once one kind runs out the rest move
    # monotonically to the end sum.
    for i in range(1, horizon + 1):
        nxt = 0
        for s in forward:
            nxt |= combination << s
        for t in backward:
            nxt |= combination >> t
        combination = nxt & width
        combinations.append(combination)
        congruent.append(congruents[i * s1 % d])
    return congruent, combinations, realized, toeplitz


def containment_chain(congruent, combination, realized) -> bool:
    """Whether R_i <= Q_i <= P_i at every step, over lists of offset masks
    as step_set_masks returns them."""
    for p, q, r in zip(congruent, combination, realized):
        if r & ~q or q & ~p:
            return False
    return True


def step_set_run(spec: ToeplitzSpec, horizon: int, table=None) -> list[tuple[int, int, int, bool]]:
    """(P_i, Q_i, R_i, A^i is Toeplitz) for i = 1..horizon, from one
    step_set_masks run.  `table` is a power_table result of the instance's
    ToeplitzKernel, scanned here when not given."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if table is None:
        table = power_table(ToeplitzKernel(spec))
    masks = step_set_masks(spec, horizon, table, geometry(spec.n), pair_sum_gcd(spec))
    return list(zip(*masks))


class StabilizationResult(NamedTuple):
    """Outcome of scanning for the point where the three step sets agree.

    m_emp is the smallest index whose whole suffix up to the horizon has
    all three sets equal (None if they differ at the horizon itself).
    certified means the outcome provably extends beyond the horizon: the
    congruent sets repeat with the predicted period and the realized sets
    repeat with the power cycle, so one clean combined period certifies
    "for every larger i" and one failure inside the periodic regime
    certifies "never".
    """

    m_emp: int | None
    certified: bool
    horizon: int


def certify_stabilization(
    congruent, combination, realized, tail: PeriodicTail, predicted: int
) -> StabilizationResult:
    """The stabilization verdict over P_i, Q_i and R_i for i = 1..horizon,
    three lists as step_set_masks returns them, given the power tail of A
    and the predicted period of the congruent sets."""
    horizon = len(congruent)
    m = horizon
    while m and congruent[m - 1] == combination[m - 1] == realized[m - 1]:
        m -= 1
    # The three sets agree at every step count in (m, horizon].
    if m == horizon:
        m_emp, certified = None, horizon >= tail.index
    else:
        m_emp = m + 1
        certified = horizon >= max(m_emp, tail.index) + lcm(predicted, tail.period) - 1
    # tuple.__new__ skips the NamedTuple's Python-level __new__.
    return tuple.__new__(StabilizationResult, (m_emp, certified, horizon))


def step_set_stabilization(spec: ToeplitzSpec, horizon: int | None = None) -> StabilizationResult:
    """Find and certify the first step count from which the three offset
    sets coincide for good; see StabilizationResult for the semantics.
    The default horizon is the power index plus two combined cycles of the
    power and the congruent sets.  STEP_BUDGET caps both the power scan
    and the horizon."""
    kernel = ToeplitzKernel(spec)
    table = power_table(kernel)
    tail = table[0]
    pi = predicted_period(spec)
    if horizon is None:
        horizon = tail.index + 2 * tail.period * pi
    within_budget(horizon, "stabilization horizon")
    masks = step_set_masks(spec, horizon, table, kernel.geometry, pair_sum_gcd(spec))
    return certify_stabilization(*masks[:3], tail, pi)


def congruence_step(spec: ToeplitzSpec, mask: int) -> int:
    """Offsets one shortest forward step above or one shortest backward
    step below an offset in `mask`, kept inside [-(n-1), n-1]."""
    shifted = (mask << spec.forward_steps[0]) | (mask >> spec.backward_steps[0])
    return shifted & ((1 << (2 * spec.n - 1)) - 1)


# -- walks --------------------------------------------------------------------


class Arc(NamedTuple):
    """One step of a walk: kind "s" moves up by the indexed forward step,
    kind "t" moves down by the indexed backward step (indices 1-based)."""

    kind: str
    index: int


def _arc_of_move(spec: ToeplitzSpec) -> dict:
    # S and -T are disjoint sets of distinct moves, so a move names one arc.
    arcs = {s: Arc("s", i) for i, s in enumerate(spec.forward_steps, 1)}
    arcs.update({-t: Arc("t", i) for i, t in enumerate(spec.backward_steps, 1)})
    return arcs


@dataclass(frozen=True, slots=True)
class Walk:
    """A validated directed walk, given by its vertices: each move v - u is
    a forward step up or a backward step down, and so names its arc."""

    spec: ToeplitzSpec
    vertices: tuple[int, ...]

    def __post_init__(self):
        spec = self.spec
        if not self.vertices:
            raise ValueError("a walk has at least one vertex")
        for v in self.vertices:
            if not 1 <= v <= spec.n:
                raise ValueError(f"vertex {v} outside [1, {spec.n}]")
        arcs = _arc_of_move(spec)
        for k, (u, v) in enumerate(zip(self.vertices, self.vertices[1:])):
            if v - u not in arcs:
                raise ValueError(f"move {k}: {u} -> {v} is not a step of {spec.literal}")

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """One typed arc per move."""
        arcs = _arc_of_move(self.spec)
        return tuple([arcs[v - u] for u, v in zip(self.vertices, self.vertices[1:])])

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def arc_counts(self):
        """(per-forward-step counts, per-backward-step counts)."""
        moves = Counter(v - u for u, v in zip(self.vertices, self.vertices[1:]))
        spec = self.spec
        return (
            tuple([moves[s] for s in spec.forward_steps]),
            tuple([moves[-t] for t in spec.backward_steps]),
        )

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arcs": [{"kind": kind, "index": index} for kind, index in self.arcs],
        }

    def __str__(self):
        return " -> ".join(map(str, self.vertices))


def walk_offset_decomposition(walk: Walk):
    """(forward counts, backward counts, length, end - start); the counts
    recombine into the length and the offset, as each move is one step."""
    a, b = walk.arc_counts()
    return a, b, walk.length, walk.end - walk.start


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def schedule_steps(start: int, terms, n: int) -> tuple[int, ...]:
    """Order a multiset of signed steps, of one up size and one down size,
    so every prefix keeps the position inside [1, n]: the up step whenever
    it fits, otherwise the down step.

    The greedy finds an ordering whenever one exists.  When up + down <= n
    one of the two moves fits while both kinds remain, and once one kind
    runs out the rest moves monotonically to the in-range end; when
    up + down > n at most one move fits at any position, so the ordering
    is forced.  Raises EndpointOutOfRange when start + sum(terms) is no
    vertex and SchedulingFailure when no ordering stays inside.
    """
    terms = tuple(terms)
    if 0 in terms:
        raise ValueError("steps must be nonzero")
    ups = {x for x in terms if x > 0}
    downs = set(terms) - ups
    if len(ups) > 1 or len(downs) > 1:
        raise ValueError("steps must be of one up size and one down size")
    if not 1 <= start <= n:
        raise ValueError(f"start vertex {start} outside [1, {n}]")
    end = start + sum(terms)
    if not 1 <= end <= n:
        raise EndpointOutOfRange(f"prescribed counts end at {end}, outside [1, {n}]")

    (up,) = ups or {0}
    (down,) = downs or {0}
    up_left, down_left = terms.count(up), terms.count(down)
    order: list[int] = []
    pos = start
    while up_left or down_left:
        if up_left and pos + up <= n:
            step = up
            up_left -= 1
        elif down_left and pos + down >= 1:
            step = down
            down_left -= 1
        else:
            counts = f"{terms.count(up)} x {up:+d}, {terms.count(down)} x {down:+d}"
            raise SchedulingFailure(f"no ordering of {counts} from {start} stays inside [1, {n}]")
        pos += step
        order.append(step)
    return tuple(order)


def build_walk_with_counts(spec: ToeplitzSpec, start: int, s_counts=(), t_counts=()) -> Walk:
    """Walk from `start` containing exactly the requested number of each
    higher-index arc (s_counts for forward steps 2.., t_counts for
    backward steps 2..); shortest-step arcs are inserted freely as
    positioning moves.

    Before each requested forward arc the walk descends by shortest
    backward steps just far enough for the arc to fit; before each
    requested backward arc it ascends symmetrically.  Under the two
    step-fit conditions this always succeeds and the total length stays
    within (sum of requests) * (max(ceil(tmax/s1), ceil(smax/t1)) + 1).
    """
    n = spec.n
    fwd, bwd = spec.forward_steps, spec.backward_steps
    if len(s_counts) != max(0, len(fwd) - 1):
        raise ValueError("s_counts must cover forward steps 2..k1")
    if len(t_counts) != max(0, len(bwd) - 1):
        raise ValueError("t_counts must cover backward steps 2..k2")
    if not 1 <= start <= n:
        raise ValueError(f"start vertex {start} outside [1, {n}]")
    if any(c < 0 for c in tuple(s_counts) + tuple(t_counts)):
        raise ValueError("arc counts must be nonnegative")

    s1, t1 = spec.min_forward, spec.min_backward
    verts = [start]
    w = start

    def descend_to(limit: int):
        # Take shortest backward steps until the position is <= limit.
        nonlocal w
        if w <= limit:
            return
        r0 = _ceil_div(w - limit, t1)
        if w - r0 * t1 < 1:
            raise WalkConstructionError(
                f"cannot descend from {w} to at most {limit} inside [1, {n}]"
            )
        for _ in range(r0):
            w -= t1
            verts.append(w)

    def ascend_to(limit: int):
        nonlocal w
        if w >= limit:
            return
        r0 = _ceil_div(limit - w, s1)
        if w + r0 * s1 > n:
            raise WalkConstructionError(
                f"cannot ascend from {w} to at least {limit} inside [1, {n}]"
            )
        for _ in range(r0):
            w += s1
            verts.append(w)

    for step, count in zip(fwd[1:], s_counts):
        for _ in range(count):
            descend_to(n - step)
            w += step
            verts.append(w)
    for step, count in zip(bwd[1:], t_counts):
        for _ in range(count):
            ascend_to(step + 1)
            w -= step
            verts.append(w)

    return Walk(spec, tuple(verts))


def extend_walk_exact(
    spec: ToeplitzSpec, start: int, s1_count: int, t1_count: int, s_counts=(), t_counts=()
) -> Walk:
    """Walk from `start` with the FULL arc-type multiset prescribed,
    including the two shortest steps.

    Builds the higher-index walk first, then appends schedule_steps'
    ordering of the leftover shortest steps.  Raises InsufficientArcCount
    when the shortest-step totals fall below what the base walk already
    used, EndpointOutOfRange when the prescribed counts do not land on a
    vertex.
    """
    base = build_walk_with_counts(spec, start, s_counts, t_counts)
    a_used, b_used = base.arc_counts()
    if s1_count < a_used[0]:
        raise InsufficientArcCount(
            f"need at least {a_used[0]} shortest forward arcs, got {s1_count}"
        )
    if t1_count < b_used[0]:
        raise InsufficientArcCount(
            f"need at least {b_used[0]} shortest backward arcs, got {t1_count}"
        )

    s1, t1 = spec.min_forward, spec.min_backward
    residual = [s1] * (s1_count - a_used[0]) + [-t1] * (t1_count - b_used[0])
    verts = list(base.vertices)
    for step in schedule_steps(base.end, residual, spec.n):
        verts.append(verts[-1] + step)
    return Walk(spec, tuple(verts))


# -- competition-index bound ---------------------------------------------------


def walk_length_bound(spec: ToeplitzSpec, total_requests: int) -> int:
    """Length cap for build_walk_with_counts with the given request total."""
    fwd, bwd = spec.forward_steps, spec.backward_steps
    per_arc = max(-(-bwd[-1] // fwd[0]), -(-fwd[-1] // bwd[0]))  # ceilings
    return total_requests * (per_arc + 1)


def competition_index_bound(spec: ToeplitzSpec, d: int | None = None) -> int:
    """2*(ceil(n/d)-1)*(max(ceil(tmax/s1), ceil(smax/t1))+1) + 2*(s1+t1).
    `d` accepts the pair-sum gcd when the caller already has it."""
    if d is None:
        d = pair_sum_gcd(spec)
    requests = -(-spec.n // d) - 1
    return 2 * walk_length_bound(spec, requests) + 2 * (
        spec.forward_steps[0] + spec.backward_steps[0]
    )


def bound_hypothesis_holds(spec: ToeplitzSpec, d: int | None = None) -> bool:
    """Whether each residue class induces an irreducible principal
    submatrix of B_1 = A A^T, i.e. a connected subgraph (loops ignored;
    single vertices count as irreducible): the closure of its smallest
    vertex inside the class is the class.  `d` accepts the pair-sum gcd.

    B_1 joins vertices with a common out-neighbour: a vertex mask's
    out-neighbours are the mask shifted up by each s and down by each t,
    and the reverse shifts lead back.  Every arc moves a vertex by
    s = -t (mod d), so B_1 joins only vertices of one class, and one search
    from the smallest vertex of each class, 1..min(d, n), grows them all."""
    if d is None:
        d = pair_sum_gcd(spec)
    fwd, bwd = spec.forward_steps, spec.backward_steps
    full = (1 << spec.n) - 1
    reach = frontier = (1 << min(d, spec.n)) - 1
    while frontier:
        out = 0
        for s in fwd:
            out |= frontier << s
        for t in bwd:
            out |= frontier >> t
        out &= full
        back = 0
        for s in fwd:
            back |= out >> s
        for t in bwd:
            back |= out << t
        frontier = back & full & ~reach
        reach |= frontier
    return reach == full

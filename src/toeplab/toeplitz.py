"""Toeplitz instances: validation, matrix construction, gcd machinery.

An instance is a dimension n together with two nonempty step sets inside
[1, n-1]: forward steps (entry (i, j) = 1 when j - i is a forward step)
and backward steps (entry 1 when i - j is a backward step).  Equivalently
the digraph on vertices 1..n has an arc i -> i+s for every forward step s
and i -> i-t for every backward step t, whenever the target stays in range.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import gcd

from .boolmat import BoolMatrix

__all__ = [
    "ToeplitzSpec",
    "validate_spec",
    "parse_literal",
    "build_matrix",
    "pair_sum_gcd",
    "predicted_period",
    "BezoutCertificate",
    "bezout_certificate",
]

_LITERAL_RE = re.compile(r"^T(\d+)<([0-9,\s]+);([0-9,\s]+)>$", re.ASCII)


@dataclass(frozen=True, slots=True)
class ToeplitzSpec:
    """Validated (n, forward steps, backward steps) triple."""

    n: int
    forward_steps: tuple[int, ...]
    backward_steps: tuple[int, ...]

    @property
    def min_forward(self) -> int:
        return self.forward_steps[0]

    @property
    def min_backward(self) -> int:
        return self.backward_steps[0]

    @property
    def cond1(self) -> bool:
        """Longest forward step plus shortest backward step fits in n."""
        return self.forward_steps[-1] + self.backward_steps[0] <= self.n

    @property
    def cond2(self) -> bool:
        """Shortest forward step plus longest backward step fits in n."""
        return self.forward_steps[0] + self.backward_steps[-1] <= self.n

    @property
    def conditions_hold(self) -> bool:
        return self.cond1 and self.cond2

    @property
    def literal(self) -> str:
        fwd = ",".join(map(str, self.forward_steps))
        bwd = ",".join(map(str, self.backward_steps))
        return f"T{self.n}<{fwd};{bwd}>"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "S": list(self.forward_steps), "T": list(self.backward_steps)}

    def __str__(self):
        return self.literal


def validate_spec(n: int, forward, backward) -> ToeplitzSpec:
    """Normalize and validate an instance; raises ValueError on bad input."""
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    fwd = tuple(sorted(set(forward)))
    bwd = tuple(sorted(set(backward)))
    if not fwd:
        raise ValueError("forward step set must be nonempty")
    if not bwd:
        raise ValueError("backward step set must be nonempty")
    for s in fwd:
        if not 1 <= s <= n - 1:
            raise ValueError(f"forward step {s} outside [1, {n - 1}]")
    for t in bwd:
        if not 1 <= t <= n - 1:
            raise ValueError(f"backward step {t} outside [1, {n - 1}]")
    return ToeplitzSpec(n, fwd, bwd)


def parse_literal(text: str) -> ToeplitzSpec:
    """Parse the literal syntax "T<n><s1,..;t1,..>", e.g. "T8<1,4;2,5>"."""
    m = _LITERAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed instance literal: {text!r}")
    n = int(m.group(1))
    fwd = [int(x) for x in m.group(2).split(",") if x.strip()]
    bwd = [int(x) for x in m.group(3).split(",") if x.strip()]
    return validate_spec(n, fwd, bwd)


def build_matrix(spec: ToeplitzSpec) -> BoolMatrix:
    """Adjacency matrix: entry (i, j) = 1 iff j-i is a forward step or
    i-j is a backward step."""
    n = spec.n
    rows = []
    for i in range(1, n + 1):
        r = 0
        for s in spec.forward_steps:
            if i + s <= n:
                r |= 1 << (i + s - 1)
        for t in spec.backward_steps:
            if i - t >= 1:
                r |= 1 << (i - t - 1)
        rows.append(r)
    return BoolMatrix._raw(n, tuple(rows))


def pair_sum_gcd(spec: ToeplitzSpec) -> int:
    """gcd of all sums s + t over forward steps s and backward steps t."""
    return gcd(*[s + t for s in spec.forward_steps for t in spec.backward_steps])


def predicted_period(spec: ToeplitzSpec) -> int:
    """d / gcd(d, min forward step) where d is the pair-sum gcd."""
    d = pair_sum_gcd(spec)
    return d // gcd(d, spec.min_forward)


# -- signed certificates ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class BezoutCertificate:
    """Signed coefficients with sum(a)+sum(b) = 0 writing the pair-sum gcd
    as sum(a_i * s_i) - sum(b_j * t_j)."""

    spec: ToeplitzSpec
    forward_coeffs: tuple[int, ...]
    backward_coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.value != pair_sum_gcd(self.spec):
            raise ValueError("certificate does not reach the gcd")
        if sum(self.forward_coeffs) + sum(self.backward_coeffs) != 0:
            raise ValueError("certificate coefficients do not cancel")

    @property
    def value(self) -> int:
        """sum(a_i * s_i) - sum(b_j * t_j); construction checks that it is
        the pair-sum gcd."""
        spec = self.spec
        total = sum(c * s for c, s in zip(self.forward_coeffs, spec.forward_steps))
        return total - sum(c * t for c, t in zip(self.backward_coeffs, spec.backward_steps))


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g for nonnegative a, b."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def bezout_certificate(spec: ToeplitzSpec) -> BezoutCertificate:
    """Deterministic zero-sum certificate for the pair-sum gcd.

    Runs the extended Euclidean algorithm across the offset generators in a
    fixed order (forward differences, backward differences, then sums).  With
    w the forward steps followed by the negated backward steps, every
    generator is w[p] - w[m] for one pair (p, m), so its coefficient c adds
    +c to the step at p and -c to the step at m and the step counts cancel.
    The certificate checks on construction that it reaches the pair-sum gcd.
    """
    k1 = len(spec.forward_steps)
    w = spec.forward_steps + tuple(-t for t in spec.backward_steps)
    pairs = [(j, i) for i, j in itertools.combinations(range(k1), 2)]
    pairs += itertools.combinations(range(k1, len(w)), 2)
    pairs += [(i, j) for i in range(k1) for j in range(k1, len(w))]

    # Step k folds generator k into the running gcd as g_k = x_k g_(k-1) + y_k
    # gen_k, so generator k's coefficient is y_k times every later x.
    g, steps = 0, []
    for p, m in pairs:
        g, x, y = _ext_gcd(g, w[p] - w[m])
        steps.append((x, y))

    v = [0] * len(w)
    scale = 1
    for (x, y), (p, m) in zip(reversed(steps), reversed(pairs)):
        c = y * scale
        v[p] += c
        v[m] -= c
        scale *= x
    return BezoutCertificate(spec, tuple(v[:k1]), tuple(v[k1:]))

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplab.packed import geometry, members
from toeplab.toeplitz import build_matrix, parse_literal, validate_spec
from toeplab.verify import enumerate_specs
from toeplab.walks import (
    Arc,
    EndpointOutOfRange,
    InsufficientArcCount,
    SchedulingFailure,
    Walk,
    WalkConstructionError,
    bound_hypothesis_holds,
    build_walk_with_counts,
    competition_index_bound,
    congruence_step,
    congruent_offsets,
    containment_chain,
    extend_walk_exact,
    schedule_steps,
    step_set_run,
    step_set_stabilization,
    walk_length_bound,
    walk_offset_decomposition,
)

import generic
import oracles

T8 = parse_literal("T8<1,4;2,5>")
T6 = parse_literal("T6<2,4;4,5>")


def decoded_run(spec, horizon):
    """(P_i, Q_i, R_i) for i = 1..horizon, as the sweep's step-set run has
    them, each decoded into a frozenset of offsets."""
    return [
        tuple(frozenset(members(mask, spec.n)) for mask in step[:3])
        for step in step_set_run(spec, horizon)
    ]


def combination_offsets(spec, i):
    return decoded_run(spec, i)[-1][1]


def realized_offsets(spec, i):
    return decoded_run(spec, i)[-1][2]


def random_conditioned_spec(rng, max_n=16):
    while True:
        n = rng.randint(2, max_n)
        fwd = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
        bwd = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
        spec = validate_spec(n, fwd, bwd)
        if spec.conditions_hold:
            return spec


class TestCongruentOffsets:
    def test_running_example_step_three(self):
        assert congruent_offsets(T8, 3) == {-6, -3, 0, 3, 6}

    def test_running_example_step_one(self):
        assert congruent_offsets(T8, 1) == {-5, -2, 1, 4, 7}

    def test_unit_gcd_fills_interval(self):
        spec = parse_literal("T6<1,2;3>")  # sums 4,5 -> gcd 1
        assert congruent_offsets(spec, 2) == set(range(-5, 6))

    def test_matches_oracle(self):
        for spec in enumerate_specs(5, False):
            for i in (1, 2, 3, 7):
                expected = oracles.naive_congruent_offsets(
                    spec.n, spec.forward_steps, spec.backward_steps, i
                )
                assert congruent_offsets(spec, i) == expected


class TestCombinationOffsets:
    def test_running_example_step_three(self):
        assert combination_offsets(T8, 3) == {-6, -3, 0, 3, 6}

    def test_single_step_base_case(self):
        spec = parse_literal("T6<1,2;3>")
        expected = frozenset({1, 2, -3})
        assert combination_offsets(spec, 1) == expected

    def test_matches_enumeration_oracle(self):
        for spec in enumerate_specs(4, False):
            run = decoded_run(spec, 5)
            for i in (1, 2, 3, 4, 5):
                expected = oracles.naive_combination_offsets(
                    spec.n, spec.forward_steps, spec.backward_steps, i
                )
                assert run[i - 1][1] == expected, (spec.literal, i)
                assert oracles.combination_offsets(
                    spec.n, spec.forward_steps, spec.backward_steps, i
                ) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_unbounded_oracle_at_long_horizons(self, data):
        # Q_i is stepped inside [-(n-1), n-1]; the oracle keeps every
        # partial sum and clips only at the end.
        n = data.draw(st.integers(2, 40))
        steps = st.lists(st.integers(1, n - 1), min_size=1, max_size=4, unique=True)
        spec = validate_spec(n, data.draw(steps), data.draw(steps))
        run = decoded_run(spec, data.draw(st.integers(1, 120)))
        expected = oracles.combination_offsets_run(
            n, spec.forward_steps, spec.backward_steps, len(run)
        )
        for i, ((_, q, _), sums) in enumerate(zip(run, expected), start=1):
            assert q == sums, (spec.literal, i)

    def test_carried_oracle_matches_per_step_oracle(self):
        # The carried run reads each i's window off one mask; the per-step
        # oracle rebuilds the mask from i = 1.  Narrow and wide step sets,
        # with a window far below the sums the mask reaches.
        literals = ["T8<1,4;2,5>", "T5<2;4>", "T6<2,4;4,5>", "T2<1;1>", "T9<8;1>", "T40<3,39;1,37>"]
        for literal in literals:
            spec = parse_literal(literal)
            n, fwd, bwd = spec.n, spec.forward_steps, spec.backward_steps
            run = oracles.combination_offsets_run(n, fwd, bwd, 60)
            assert len(run) == 60
            for i, sums in enumerate(run, start=1):
                assert sums == oracles.combination_offsets(n, fwd, bwd, i), (literal, i)

    def test_window_ordering_of_any_step_multiset(self):
        # Why the window loses no sum: steps of length at most n - 1 whose
        # total lies in [-(n-1), n-1] can be ordered so that every partial
        # sum does too, by stepping back while the partial sum is positive
        # and forward otherwise.
        rng = random.Random(2208)
        produced = 0
        while produced < 2000:
            n = rng.randint(2, 40)
            forward = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 12))]
            backward = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 12))]
            if abs(sum(forward) - sum(backward)) > n - 1:
                continue
            partial = 0
            while forward or backward:
                partial += -backward.pop() if backward and (partial > 0 or not forward) else forward.pop()
                assert -(n - 1) <= partial <= n - 1
            produced += 1

    def test_contained_in_congruent_with_matching_residue(self):
        from toeplab.toeplitz import pair_sum_gcd

        for spec in enumerate_specs(5, False):
            d = pair_sum_gcd(spec)
            for i, (_, q, _) in enumerate(decoded_run(spec, 12), start=1):
                assert q <= congruent_offsets(spec, i)
                assert all(v % d == (i * spec.min_forward) % d for v in q)


class TestRealizedOffsets:
    def test_running_example_step_one(self):
        assert realized_offsets(T8, 1) == {-5, -2, 1, 4}

    def test_running_example_step_three(self):
        assert realized_offsets(T8, 3) == {-6, -3, 0, 3, 6}

    def test_extreme_diagonal_single_pair(self):
        rng = random.Random(5)
        for _ in range(20):
            spec = random_conditioned_spec(rng, max_n=9)
            i = rng.randint(1, 6)
            a = build_matrix(spec).power(i)
            assert ((spec.n - 1) in realized_offsets(spec, i)) == (a.get(1, spec.n) == 1)

    def test_matches_oracle(self):
        for spec in enumerate_specs(4, False):
            run = decoded_run(spec, 6)
            for i in (1, 2, 3, 6):
                expected = oracles.naive_realized_offsets(
                    spec.n, spec.forward_steps, spec.backward_steps, i
                )
                assert run[i - 1][2] == expected


class TestStepSetRun:
    def test_agrees_with_pointwise_functions(self):
        for literal in ("T8<1,4;2,5>", "T5<2;4>", "T6<2,4;4,5>"):
            spec = parse_literal(literal)
            n, fwd, bwd = spec.n, spec.forward_steps, spec.backward_steps
            a = build_matrix(spec)
            run = decoded_run(spec, 14)
            for i, (p, q, r) in enumerate(run, start=1):
                assert p == congruent_offsets(spec, i)
                assert q == oracles.combination_offsets(n, fwd, bwd, i)
                assert r == oracles.full_diagonal_offsets(n, a.power(i).rows)

    def test_containment_chain_everywhere(self):
        for spec in enumerate_specs(5, False):
            congruent, combination, realized, _ = zip(*step_set_run(spec, 12))
            assert containment_chain(congruent, combination, realized), spec.literal
            for i, (p, q, r) in enumerate(decoded_run(spec, 12), start=1):
                assert r <= q <= p, (spec.literal, i)


class TestStabilization:
    def test_running_example_exact_point(self):
        # Independent scan: brute-force all three sets per step count.
        flags = []
        for i in range(1, 21):
            p = oracles.naive_congruent_offsets(8, (1, 4), (2, 5), i)
            r = oracles.naive_realized_offsets(8, (1, 4), (2, 5), i)
            q = (
                oracles.naive_combination_offsets(8, (1, 4), (2, 5), i)
                if i <= 6
                else None
            )
            flags.append(p == r and (q is None or p == q))
        expected = 21
        while expected > 1 and flags[expected - 2]:
            expected -= 1
        result = step_set_stabilization(T8)
        assert result.m_emp == expected == 2
        assert result.certified

    def test_counterexample_never_stabilizes(self):
        result = step_set_stabilization(T6)
        assert result.m_emp is None
        assert result.certified  # the failure sits inside the periodic regime

    def test_short_horizon_reports_uncertified(self):
        result = step_set_stabilization(T8, horizon=2)
        assert result.m_emp == 2
        assert not result.certified

    def test_default_horizon_is_two_combined_cycles_past_the_index(self):
        from toeplab.toeplitz import predicted_period

        for spec in enumerate_specs(5, False):
            tail = generic.power_table(build_matrix(spec))[0]
            expected = tail.index + 2 * tail.period * predicted_period(spec)
            result = step_set_stabilization(spec)
            assert result.horizon == expected, spec.literal
            assert (result.power_index, result.power_period) == (tail.index, tail.period)

    def test_conditioned_sweep_certifies(self):
        for spec in enumerate_specs(6, True):
            result = step_set_stabilization(spec)
            assert result.m_emp is not None and result.certified, spec.literal


def recurrence_holds(spec, i):
    """P_i is P_(i-1) moved one shortest forward step up or one shortest
    backward step down, inside [-(n-1), n-1]; the sets come from the
    oracle, the move is verify's congruence_step."""
    n, fwd, bwd = spec.n, spec.forward_steps, spec.backward_steps
    prev = oracles.naive_congruent_offsets(n, fwd, bwd, i - 1)
    moved = congruence_step(spec, sum(1 << (v + n - 1) for v in prev))
    cur = oracles.naive_congruent_offsets(n, fwd, bwd, i)
    return moved == sum(1 << (v + n - 1) for v in cur)


class TestRecurrence:
    def test_running_example_step_two(self):
        assert recurrence_holds(T8, 2)
        masks = geometry(8).congruent_masks(3)
        assert congruence_step(T8, masks[1]) == masks[2]

    def test_exhaustive_conditioned(self):
        from toeplab.toeplitz import predicted_period

        for spec in enumerate_specs(6, True):
            limit = 2 * predicted_period(spec) + 2
            for i in range(2, limit + 1):
                assert recurrence_holds(spec, i), (spec.literal, i)

    def test_consecutive_window_disjoint(self):
        from toeplab.toeplitz import predicted_period

        for spec in enumerate_specs(6, True):
            pi = predicted_period(spec)
            window = [congruent_offsets(spec, i) for i in range(1, pi + 1)]
            for a in range(pi):
                for b in range(a + 1, pi):
                    assert window[a].isdisjoint(window[b])

    def test_periodicity(self):
        from toeplab.toeplitz import predicted_period

        for spec in enumerate_specs(6, True):
            pi = predicted_period(spec)
            for i in range(1, pi + 2):
                assert congruent_offsets(spec, i) == congruent_offsets(spec, i + pi)


class TestScheduleSteps:
    def test_documented_example(self):
        terms = (-2, -2, -2, 4)
        valid = [
            order
            for order in set(permutations(terms))
            if all(1 <= p <= 8 for p in oracles.prefix_positions(7, order))
        ]
        assert valid  # at least one ordering works
        got = schedule_steps(7, terms, 8)
        assert sorted(got) == sorted(terms)
        assert all(1 <= p <= 8 for p in oracles.prefix_positions(7, got))

    def test_single_term(self):
        assert schedule_steps(3, (2,), 8) == (2,)

    def test_empty_terms(self):
        assert schedule_steps(4, (), 9) == ()

    def test_forced_failure_is_precondition(self):
        with pytest.raises(ValueError):
            schedule_steps(1, (7,), 5)  # endpoint 8 > 5

    def test_unschedulable_raises_distinct_error(self):
        # endpoint fine (2 + 2 - 2 = 2) but both first moves exit [1, 3]
        with pytest.raises(SchedulingFailure):
            schedule_steps(2, (2, -2), 3)

    def test_random_successes_stay_in_range(self):
        rng = random.Random(71)
        produced = 0
        while produced < 60:
            n = rng.randint(4, 12)
            s = rng.randint(1, n - 1)
            t = rng.randint(1, n - 1)
            start = rng.randint(1, n)
            terms = [s] * rng.randint(0, 4) + [-t] * rng.randint(0, 4)
            rng.shuffle(terms)
            if not 1 <= start + sum(terms) <= n:
                continue
            try:
                order = schedule_steps(start, tuple(terms), n)
            except SchedulingFailure:
                continue
            positions = oracles.prefix_positions(start, order)
            assert all(1 <= p <= n for p in positions)
            assert sorted(order) == sorted(terms)
            produced += 1


class TestBuildWalk:
    def test_narrative_example(self):
        walk = build_walk_with_counts(T8, 7, s_counts=(5,), t_counts=(6,))
        a, b = walk.arc_counts()
        assert a[1] == 5 and b[1] == 6
        assert walk.start == 7
        assert walk.length <= walk_length_bound(T8, 11)

    def test_zero_requests_is_single_vertex(self):
        walk = build_walk_with_counts(T8, 5, s_counts=(0,), t_counts=(0,))
        assert walk.vertices == (5,)
        assert walk.length == 0

    def test_deterministic(self):
        w1 = build_walk_with_counts(T8, 3, s_counts=(2,), t_counts=(3,))
        w2 = build_walk_with_counts(T8, 3, s_counts=(2,), t_counts=(3,))
        assert w1.vertices == w2.vertices and w1.arcs == w2.arcs

    def test_randomized_validity_counts_and_bound(self):
        rng = random.Random(97)
        for _ in range(120):
            spec = random_conditioned_spec(rng)
            start = rng.randint(1, spec.n)
            s_counts = tuple(rng.randint(0, 5) for _ in spec.forward_steps[1:])
            t_counts = tuple(rng.randint(0, 5) for _ in spec.backward_steps[1:])
            walk = build_walk_with_counts(spec, start, s_counts, t_counts)
            a, b = walk.arc_counts()
            assert a[1:] == s_counts and b[1:] == t_counts
            assert walk.length <= walk_length_bound(spec, sum(s_counts) + sum(t_counts))

    def test_counterexample_unreachable_arc(self):
        with pytest.raises(WalkConstructionError):
            build_walk_with_counts(T6, 1, s_counts=(0,), t_counts=(1,))

    def test_count_vector_length_checked(self):
        with pytest.raises(ValueError):
            build_walk_with_counts(T8, 1, s_counts=(1, 2), t_counts=(0,))


class TestExtendWalk:
    def test_zero_residual_round_trip(self):
        base = build_walk_with_counts(T8, 7, s_counts=(2,), t_counts=(1,))
        a, b = base.arc_counts()
        again = extend_walk_exact(T8, 7, a[0], b[0], s_counts=(2,), t_counts=(1,))
        assert again.vertices == base.vertices

    def test_three_short_steps(self):
        walk = extend_walk_exact(T8, 1, 3, 0, s_counts=(0,), t_counts=(0,))
        assert walk.vertices == (1, 2, 3, 4)
        assert all(arc == Arc("s", 1) for arc in walk.arcs)

    def test_insufficient_count_distinct_error(self):
        base = build_walk_with_counts(T8, 7, s_counts=(2,), t_counts=(0,))
        a, b = base.arc_counts()
        assert b[0] > 0  # positioning used shortest backward arcs
        with pytest.raises(InsufficientArcCount):
            extend_walk_exact(T8, 7, a[0], 0, s_counts=(2,), t_counts=(0,))

    def test_endpoint_out_of_range_distinct_error(self):
        with pytest.raises(EndpointOutOfRange):
            extend_walk_exact(T8, 1, 8, 0, s_counts=(0,), t_counts=(0,))

    def test_randomized_extensions_validate(self):
        rng = random.Random(131)
        produced = 0
        while produced < 80:
            spec = random_conditioned_spec(rng)
            start = rng.randint(1, spec.n)
            s_counts = tuple(rng.randint(0, 3) for _ in spec.forward_steps[1:])
            t_counts = tuple(rng.randint(0, 3) for _ in spec.backward_steps[1:])
            base = build_walk_with_counts(spec, start, s_counts, t_counts)
            a, b = base.arc_counts()
            s1_total = a[0] + rng.randint(0, 4)
            t1_total = b[0] + rng.randint(0, 4)
            try:
                walk = extend_walk_exact(spec, start, s1_total, t1_total, s_counts, t_counts)
            except EndpointOutOfRange:
                continue
            ga, gb = walk.arc_counts()
            assert ga == (s1_total,) + s_counts
            assert gb == (t1_total,) + t_counts
            produced += 1


class TestWalkType:
    def test_witness_walk_decomposition(self):
        walk = Walk(T8, (4, 5, 3, 1), (Arc("s", 1), Arc("t", 1), Arc("t", 1)))
        a, b, length, offset = walk_offset_decomposition(walk)
        assert (a, b, length, offset) == ((1, 0), (2, 0), 3, -3)

    def test_single_vertex_decomposition(self):
        walk = Walk(T8, (5,), ())
        assert walk_offset_decomposition(walk) == ((0, 0), (0, 0), 0, 0)

    def test_builder_outputs_round_trip(self):
        walk = build_walk_with_counts(T8, 7, s_counts=(3,), t_counts=(2,))
        a, b, length, offset = walk_offset_decomposition(walk)
        assert sum(a) + sum(b) == length == walk.length
        assert offset == walk.end - walk.start

    def test_mismatched_step_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            Walk(T8, (1, 3), (Arc("s", 1),))

    def test_vertex_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Walk(T8, (0, 1), (Arc("s", 1),))

    def test_json_shape(self):
        walk = Walk(T8, (4, 5), (Arc("s", 1),))
        assert walk.to_json_dict() == {
            "vertices": [4, 5],
            "arcs": [{"kind": "s", "index": 1}],
        }


class TestIndexBound:
    def test_running_example_value(self):
        assert competition_index_bound(T8) == 30

    def test_two_cycle_value(self):
        # 2*(ceil(2/2)-1)*(max(1,1)+1) + 2*(1+1): the leading term vanishes
        # because the pair-sum gcd is 2, leaving only the additive tail.
        assert competition_index_bound(parse_literal("T2<1;1>")) == 4

    def test_bound_dominates_measured_index_small(self):
        for spec in enumerate_specs(6, True):
            if bound_hypothesis_holds(spec):
                measured = generic.competition_table(build_matrix(spec))[0].index
                assert measured <= competition_index_bound(spec), spec.literal


class TestBoundHypothesis:
    def test_matches_connectivity_oracle(self):
        from toeplab.toeplitz import pair_sum_gcd

        def oracle(spec):
            a = oracles.naive_from_spec(spec.n, spec.forward_steps, spec.backward_steps)
            b = oracles.naive_multiply(a, oracles.naive_transpose(a))
            d = pair_sum_gcd(spec)
            for r in range(1, d + 1):
                verts = [v for v in range(1, spec.n + 1) if v % d == r % d]
                if len(verts) <= 1:
                    continue
                seen = {verts[0]}
                frontier = [verts[0]]
                while frontier:
                    u = frontier.pop()
                    for v in verts:
                        if v != u and v not in seen and b[u - 1][v - 1]:
                            seen.add(v)
                            frontier.append(v)
                if len(seen) != len(verts):
                    return False
            return True

        for spec in enumerate_specs(6, False):
            assert bound_hypothesis_holds(spec) == oracle(spec), spec.literal

    def test_singleton_classes_vacuous(self):
        assert bound_hypothesis_holds(parse_literal("T2<1;1>"))

    def test_counterexample_evaluated(self):
        assert bound_hypothesis_holds(T6) is False

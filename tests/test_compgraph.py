import json
import random
from itertools import combinations

import pytest

from toeplab.boolmat import BoolMatrix
from toeplab.compgraph import (
    SimpleGraph,
    competition_graph_formula,
    digraph_dot,
    dot_from_rows,
    json_from_rows,
    m_step_graph,
    residue_clique_graph,
    strong_components,
    text_from_rows,
)
from toeplab.packed import MAX_MATRIX_N, ToeplitzKernel
from toeplab.spectra import residue_classes
from toeplab.toeplitz import build_matrix, parse_literal, validate_spec
from toeplab.verify import HOLDS, enumerate_specs, verify_instance

import generic
import oracles
from generic import competition_limit, competition_matrix


def as_lists(mat):
    return [[mat.get(i, j) for j in range(1, mat.n + 1)] for i in range(1, mat.n + 1)]


class TestSimpleGraph:
    def test_from_symmetric_matrix_strips_diagonal(self):
        g = SimpleGraph.from_symmetric_matrix(3, [0b011, 0b111, 0b110])
        assert g.edges == ((1, 2), (2, 3))

    def test_edges_are_the_upper_entries_in_row_order(self):
        rng = random.Random(41)
        for n in (1, 2, 7, 8, 9, 64, 65, 150):
            for density in (0.0, 0.1, 0.6, 1.0):
                rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
                mat = BoolMatrix(n, rows)
                expected = tuple(
                    (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if mat.get(u, v)
                )
                assert SimpleGraph.from_symmetric_matrix(n, rows).edges == expected, (n, density)

    def test_edge_ordering_enforced(self):
        with pytest.raises(ValueError):
            SimpleGraph(3, ((2, 1),))
        with pytest.raises(ValueError):
            SimpleGraph(3, ((1, 4),))
        with pytest.raises(ValueError):
            SimpleGraph(3, ((0, 2),))
        # Out of order or repeated: equal graphs must have equal tuples.
        with pytest.raises(ValueError):
            SimpleGraph(3, ((1, 3), (1, 2)))
        with pytest.raises(ValueError):
            SimpleGraph(3, ((1, 2), (1, 2)))
        with pytest.raises(TypeError):
            SimpleGraph(3, frozenset({(1, 2)}))

    def test_json_edges_sorted(self):
        g = SimpleGraph(4, ((1, 2), (1, 3), (2, 4)))
        data = json.loads(json.dumps(g.to_json_dict()))
        assert data == {"n": 4, "edges": [[1, 2], [1, 3], [2, 4]]}


class TestRowWriters:
    """The graph forms written straight from row masks against the forms of
    the SimpleGraph that from_symmetric_matrix reads off the same rows."""

    @staticmethod
    def reference_dot(g, name):
        # The per-edge DOT rendering the row writer replaced.
        lines = [f'graph "{name}" {{']
        lines += [f"  {v};" for v in range(1, g.n + 1)]
        lines += [f"  {u} -- {v};" for u, v in g.edges]
        lines.append("}")
        return "\n".join(lines)

    def assert_forms_match(self, n, rows, name):
        g = SimpleGraph.from_symmetric_matrix(n, rows)
        text = "\n".join([f"vertices={n} edges={len(g.edges)}"] + [f"{u} -- {v}" for u, v in g.edges])
        assert text_from_rows(n, rows) == text, name
        assert dot_from_rows(n, rows, name) == self.reference_dot(g, name)
        assert json_from_rows(n, rows) == json.dumps(g.to_json_dict()), name
        return g

    def test_forms_match_the_simple_graph(self):
        # Random rows, not symmetric, with bits on and below the diagonal:
        # only the columns v > u may show.
        rng = random.Random(19)
        sizes = [2, 3, 7, 64, 65, 139, 140, 200] + [rng.randint(2, 200) for _ in range(8)]
        for n in sizes:
            for density in (0.0, 0.05, 0.5, 1.0):
                rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
                self.assert_forms_match(n, rows, f"T{n} d={density}")

    def test_lower_triangle_is_ignored(self):
        n = 6
        full = [(1 << n) - 1] * n
        lower = [(1 << u) - 1 for u in range(1, n + 1)]  # columns 1..u of row u
        assert text_from_rows(n, lower) == f"vertices={n} edges=0"
        assert json_from_rows(n, lower) == f'{{"n": {n}, "edges": []}}'
        assert text_from_rows(n, full).count("\n") == n * (n - 1) // 2

    def test_forms_at_the_matrix_cap(self):
        # The largest matrix the CLI builds: its edges to vertex 512 take the
        # last of compgraph's precomputed numerals.
        n = MAX_MATRIX_N
        rng = random.Random(41)
        rows = [sum(1 << j for j in range(n) if rng.random() < 0.01) for _ in range(n)]
        rows[0] |= 1 << (n - 1)
        rows[n - 2] |= 1 << (n - 1)
        g = self.assert_forms_match(n, rows, "cap")
        assert (1, n) in g.edges and (n - 1, n) in g.edges

    def test_graph_dot_past_the_matrix_cap(self):
        # The writers also take rows larger than any matrix the CLI builds.
        g = residue_clique_graph(600, 150)
        rows = [0] * g.n
        for u, v in g.edges:
            rows[u - 1] |= 1 << (v - 1)
        assert SimpleGraph.from_symmetric_matrix(600, rows) == g
        dot = dot_from_rows(600, rows, "big")
        assert dot == self.reference_dot(g, "big")
        assert "  450 -- 600;" in dot


class TestMStepGraph:
    def test_running_example_step_three(self):
        a = build_matrix(parse_literal("T8<1,4;2,5>"))
        g = m_step_graph(a, 3)
        assert (1, 4) in g.edges
        assert g.edges == tuple(sorted(oracles.naive_competition_edges(as_lists(a), 3)))

    def test_matches_walk_enumeration_oracle(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(2, 6)
            a = BoolMatrix(n, (rng.getrandbits(n) for _ in range(n)))
            m = rng.randint(1, 5)
            expected = tuple(sorted(oracles.naive_competition_edges(as_lists(a), m)))
            assert m_step_graph(a, m).edges == expected

    def test_zero_row_vertex_is_isolated(self):
        a = BoolMatrix(2, (0b10, 0b00))
        g = m_step_graph(a, 1)
        assert g.edges == ()

    def test_step_count_validated(self):
        with pytest.raises(ValueError):
            m_step_graph(BoolMatrix.identity(2), 0)


class TestFormulaGraph:
    def test_equals_one_step_graph_exhaustively(self):
        for spec in enumerate_specs(6, False):
            a = build_matrix(spec)
            assert competition_graph_formula(spec).edges == m_step_graph(a, 1).edges, spec.literal

    def test_running_example_difference_case(self):
        spec = parse_literal("T8<1,4;2,5>")
        g = competition_graph_formula(spec)
        # offset 3 = 4 - 1 with the long step fitting below vertex 1 and the
        # short step below vertex 4; both share out-neighbor 5.
        assert (1, 4) in g.edges
        a = as_lists(build_matrix(spec))
        common = [w for w in range(8) if a[0][w] and a[3][w]]
        assert common

    def test_minimal_instance_has_no_edges(self):
        spec = validate_spec(2, {1}, {1})
        assert competition_graph_formula(spec).edges == ()


def limit_graph(a):
    """The eventual competition graph: the off-diagonal part of the
    competition limit."""
    return SimpleGraph.from_symmetric_matrix(a.n, competition_limit(a).rows)


def components(g):
    return oracles.connected_components(g.n, g.edges)


class TestLimitGraph:
    def test_running_example_cliques(self):
        g = limit_graph(build_matrix(parse_literal("T8<1,4;2,5>")))
        assert components(g) == ((1, 4, 7), (2, 5, 8), (3, 6))
        assert g.edges == residue_clique_graph(8, 3).edges

    def test_three_cycle_limit_is_empty(self):
        g = limit_graph(build_matrix(parse_literal("T3<1;2>")))
        assert g.edges == ()
        assert components(g) == ((1,), (2,), (3,))

    def test_stabilization_point_is_minimal(self):
        # The competition index is the first m whose B_m is the limit.
        for literal in ("T8<1,4;2,5>", "T5<2;4>", "T6<1,2;3>"):
            a = build_matrix(parse_literal(literal))
            tail = generic.competition_table(a)[0]
            limit = competition_limit(a)
            assert competition_matrix(a, tail.index) == limit
            if tail.index > 1:
                assert competition_matrix(a, tail.index - 1) != limit

    def test_cycling_sequence_has_no_limit(self):
        # Conditions fail here and the competition sequence genuinely cycles.
        tail = generic.competition_table(build_matrix(parse_literal("T6<2,3,4;5>")))[0]
        assert tail.period == 3

    def test_residue_cliques_are_the_class_pairs_in_order(self):
        for n in range(1, 10):
            for d in range(1, n + 2):
                pairs = [e for cls in residue_classes(n, d) for e in combinations(cls, 2)]
                assert residue_clique_graph(n, d).edges == tuple(sorted(pairs)), (n, d)
        with pytest.raises(ValueError):
            residue_clique_graph(5, 0)

    def test_conditioned_sweep_limits_are_residue_cliques(self):
        from toeplab.toeplitz import pair_sum_gcd

        for spec in enumerate_specs(5, True):
            g = limit_graph(build_matrix(spec))
            assert g.edges == residue_clique_graph(spec.n, pair_sum_gcd(spec)).edges
            assert verify_instance(spec).checks["limit_clique_match"] == HOLDS


def adjacency_necessity(spec):
    return verify_instance(spec).checks["adjacency_necessity"]


class TestEdgesRespectResidues:
    def test_t5_counterexample_still_respects(self):
        spec = parse_literal("T5<2;4>")
        assert adjacency_necessity(spec) == HOLDS
        # Its competition sequence has a limit, inside the classes mod d = 6.
        limit = competition_limit(build_matrix(spec))
        edges = SimpleGraph.from_symmetric_matrix(5, limit.rows).edges
        assert all((v - u) % 6 == 0 for u, v in edges)

    def test_exhaustive_small_no_conditions(self):
        for spec in enumerate_specs(5, False):
            assert adjacency_necessity(spec) == HOLDS, spec.literal

    def test_unit_gcd_trivial(self):
        assert adjacency_necessity(parse_literal("T4<1;2>")) == HOLDS


class TestStrongComponents:
    def test_counterexample_split(self):
        comps = strong_components(build_matrix(parse_literal("T6<2,4;4,5>")).rows)
        assert comps == ((1, 3, 5), (2, 4, 6))

    def test_connected_instance(self):
        comps = strong_components(build_matrix(parse_literal("T8<1,4;2,5>")).rows)
        assert comps == ((1, 2, 3, 4, 5, 6, 7, 8),)

    def test_matches_reachability_definition(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(2, 6)
            a = BoolMatrix(n, (rng.getrandbits(n) for _ in range(n)))
            reach = as_lists(a)
            # reflexive-transitive closure by repeated squaring of (I | A)
            closure = a
            for _ in range(n):
                closure = BoolMatrix(
                    n, (closure.rows[i] | a.rows[i] | (1 << i) for i in range(n))
                ).multiply(
                    BoolMatrix(n, (closure.rows[i] | (1 << i) for i in range(n)))
                )
            comps = strong_components(a.rows)
            for comp in comps:
                for u in comp:
                    for v in comp:
                        assert closure.get(u, v) == 1
            flat = sorted(v for comp in comps for v in comp)
            assert flat == list(range(1, n + 1))

    def test_matches_oracle_on_seeded_matrices(self):
        rng = random.Random(37)
        cases = [BoolMatrix(n, [0] * n) for n in (1, 5, 12)]
        cases += [BoolMatrix(n, [(1 << n) - 1] * n) for n in (1, 5, 12)]
        for _ in range(300):
            n = rng.randint(1, 12)
            density = rng.choice((0.05, 0.1, 0.2, 0.4, 0.7))
            rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
            cases.append(BoolMatrix(n, rows))
        merged = 0
        for a in cases:
            expected = oracles.naive_strong_components(as_lists(a))
            assert strong_components(a.rows) == expected, a.rows
            merged += any(len(c) > 1 for c in expected) and len(expected) > 1
        assert merged > 50  # many cases mix a nontrivial component with others

    def test_kernel_rows_match_oracle_on_every_instance_up_to_7(self):
        for spec in enumerate_specs(7, False):
            kernel = ToeplitzKernel(spec)
            expected = oracles.naive_strong_components(
                oracles.naive_from_spec(spec.n, spec.forward_steps, spec.backward_steps)
            )
            rows = kernel.geometry.rows(kernel.adjacency)
            assert strong_components(rows) == expected, spec.literal


class TestDot:
    def test_digraph_arcs_match_figure(self):
        dot = digraph_dot(parse_literal("T6<2,4;4,5>"))
        arcs = set()
        for line in dot.splitlines():
            line = line.strip()
            if "->" in line:
                left, rest = line.split("->")
                arcs.add((int(left), int(rest.split("[")[0])))
        assert arcs == {(1, 3), (1, 5), (2, 4), (2, 6), (3, 5), (4, 6), (5, 1), (6, 2), (6, 1)}

    def test_digraph_styles(self):
        dot = digraph_dot(parse_literal("T6<2,4;4,5>"))
        assert 'label="s=2"' in dot
        assert 'label="t=5", style=dashed' in dot

    def test_graph_dot_lists_edges(self):
        dot = dot_from_rows(3, [1 << 2, 0, 0], "competition")
        assert "1 -- 3;" in dot and dot.startswith("graph")

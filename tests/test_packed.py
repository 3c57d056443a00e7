"""Differential tests: the packed Toeplitz kernel against the generic
BoolMatrix path and against the brute-force oracles."""

import gc
import random
import tracemalloc
from itertools import combinations
from math import gcd

from hypothesis import given, settings, strategies as st

from toeplab import cli
from toeplab.boolmat import BoolMatrix
from toeplab.compgraph import (
    SimpleGraph,
    competition_formula,
    competition_graph_formula,
    residue_clique_graph,
)
from toeplab import spectra
from toeplab.packed import (
    KEY_STEP_FROM,
    MAX_MATRIX_N,
    PAIR_BITS,
    ROW_BYTES_FROM,
    Geometry,
    ToeplitzKernel,
    geometry,
)
from toeplab.spectra import competition_table, power_from_table, power_table
from toeplab.toeplitz import (
    build_matrix,
    pair_sum_gcd,
    parse_literal,
    validate_spec,
)
from toeplab.verify import (
    FAILS,
    HOLDS,
    NOT_APPLICABLE,
    PREDICATES,
    InstanceReport,
    _row_specs,
    _subsets,
    enumerate_specs,
    verify_instance,
)
from toeplab.walks import (
    bound_hypothesis_holds,
    certify_stabilization,
    competition_index_bound,
)

import generic
import oracles
from oracles import offset_generators

MAX_N = 40

# Predicates whose theorem carries the two step-fit conditions as hypothesis.
CONDITIONAL = (
    "period_match",
    "competition_period_is_1",
    "limit_block_match",
    "limit_clique_match",
    "eventually_toeplitz",
    "pqr_stabilized",
    "bound_holds",
    "p_recurrence",
)


@st.composite
def specs(draw, max_n=MAX_N):
    n = draw(st.integers(2, max_n))
    steps = st.lists(st.integers(1, n - 1), min_size=1, max_size=4)
    return validate_spec(n, draw(steps), draw(steps))


@st.composite
def spec_and_matrix(draw, max_n=MAX_N):
    spec = draw(specs(max_n))
    n = spec.n
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return spec, BoolMatrix(n, rows)


def as_lists(mat):
    return [[(r >> j) & 1 for j in range(mat.n)] for r in mat.rows]


def naive_spec_matrix(spec):
    return oracles.naive_from_spec(spec.n, spec.forward_steps, spec.backward_steps)


def offsets_of(mask, n):
    return frozenset(k - (n - 1) for k in range(2 * n - 1) if (mask >> k) & 1)


def full_diagonal_offsets(mat):
    return oracles.full_diagonal_offsets(mat.n, mat.rows)


def pack(mat):
    return oracles.pack(mat.n, mat.rows)


def unpack(n, x):
    return BoolMatrix(n, oracles.unpack(n, x))


class TestPacking:
    @given(spec_and_matrix())
    @settings(max_examples=60, deadline=None)
    def test_pack_round_trip(self, case):
        _, x = case
        assert geometry(x.n).rows(pack(x)) == list(x.rows)
        assert unpack(x.n, pack(x)) == x

    @given(specs())
    @settings(max_examples=60, deadline=None)
    def test_adjacency_is_build_matrix(self, spec):
        g = geometry(spec.n)
        assert unpack(spec.n, ToeplitzKernel(spec).adjacency) == build_matrix(spec)
        assert unpack(spec.n, g.identity) == BoolMatrix.identity(spec.n)

    @given(specs(), st.integers(1, MAX_N))
    @settings(max_examples=60, deadline=None)
    def test_residue_matrix_is_residue_block_matrix(self, spec, d):
        g = geometry(spec.n)
        expected = oracles.naive_residue_matrix(spec.n, d)
        assert as_lists(unpack(spec.n, g.residue_matrix(d))) == expected

    def test_rows_round_trip_on_both_row_sources(self):
        # Rows are shifted out below ROW_BYTES_FROM and sliced out of the
        # matrix's bytes from there on.
        rng = random.Random(139)
        for n in (ROW_BYTES_FROM - 1, ROW_BYTES_FROM, 200):
            g = geometry(n)
            for density in (0.0, 0.05, 0.5, 1.0):
                rows = [sum(1 << c for c in range(n) if rng.random() < density) for _ in range(n)]
                packed = oracles.pack(n, rows)
                assert g.rows(packed) == rows
                assert oracles.unpack(n, packed) == tuple(rows)


class TestTextForms:
    def test_match_an_entry_scan_on_both_row_sources(self):
        # Sizes 1..150 read their rows from both sources, on either side of
        # ROW_BYTES_FROM.
        assert 1 < ROW_BYTES_FROM < 150
        rng = random.Random(16)
        for n in range(1, 151):
            g = geometry(n)
            dense = rng.getrandbits(n * n)
            sparse = dense & rng.getrandbits(n * n) & rng.getrandbits(n * n)
            for x in (0, sparse, dense, g.full):
                rows = oracles.unpack(n, x)
                assert g.row_strings(x) == oracles.row_strings(n, rows), n
                assert g.to_text(x) == oracles.matrix_text(n, rows), n
                assert g.to_json_dict(x) == {"n": n, "rows": oracles.row_strings(n, rows)}, n


class TestPowerStep:
    @given(spec_and_matrix())
    @settings(max_examples=40, deadline=None)
    def test_shift_or_step_matches_generic_and_oracle(self, case):
        spec, x = case
        step = unpack(spec.n, ToeplitzKernel(spec).times_a(pack(x)))
        assert step == x.multiply(build_matrix(spec))
        assert as_lists(step) == oracles.naive_multiply(as_lists(x), naive_spec_matrix(spec))

    @given(specs(max_n=20))
    @settings(max_examples=30, deadline=None)
    def test_power_table_matches_generic(self, spec):
        kernel = ToeplitzKernel(spec)
        tail, seq = power_table(kernel)
        gtail, gseq = generic.power_table(build_matrix(spec))
        assert (tail.index, tail.period) == (gtail.index, gtail.period)
        assert [unpack(spec.n, kernel.geometry.from_key(key)) for key in seq] == gseq


def keyed_table_matches_generic(spec):
    # The keyed power table against the generic one: the same tail, each
    # A^m decoded for m up to index + period + 2, and negative keys exactly
    # on the Toeplitz powers.
    kernel, a = ToeplitzKernel(spec), build_matrix(spec)
    tail, seq = table = power_table(kernel)
    gtail, gseq = generic.power_table(a)
    assert tail == gtail, spec.literal
    assert [key < 0 for key in seq] == [x.is_toeplitz() for x in gseq], spec.literal
    for m in range(1, tail.index + tail.period + 3):
        x = gseq[m - 1] if m <= len(gseq) else a.power(m)
        assert unpack(spec.n, power_from_table(kernel, *table, m)) == x, (spec.literal, m)


class TestKeyedPowerTable:
    def test_matches_generic_on_every_instance_up_to_6(self):
        for spec in enumerate_specs(6, False):
            keyed_table_matches_generic(spec)

    def test_matches_generic_where_powers_are_not_toeplitz(self):
        spec = parse_literal("T5<2;4>")
        keyed_table_matches_generic(spec)
        assert max(power_table(ToeplitzKernel(spec))[1][1:]) >= 0

    def test_matches_generic_on_large_instances(self):
        rng = random.Random(20261022)
        for _ in range(6):
            n = rng.randint(60, 200)
            fwd = rng.sample(range(1, n), rng.randint(1, 3))
            bwd = rng.sample(range(1, n), rng.randint(1, 3))
            keyed_table_matches_generic(validate_spec(n, fwd, bwd))

    def test_stored_powers_are_their_diagonals(self):
        # T400<3,7;5> stores 84 powers, each Toeplitz: 2n - 1 bits apiece in
        # place of n^2 (1.84 MB of powers kept as matrices).
        kernel = ToeplitzKernel(parse_literal("T400<3,7;5>"))
        tracemalloc.start()
        try:
            tail, seq = power_table(kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(seq) == 84 and max(seq) < 0
        assert peak < 1 << 19  # 0.5 MB


def seeded_large_specs(seed, count):
    # Half with random steps, half with steps up to 12, n 60-300; scans
    # past the step budget are left out.
    rng, out = random.Random(seed), []
    while len(out) < count:
        n = rng.randint(60, 300)
        top = n - 1 if len(out) % 2 else 12
        fwd = rng.sample(range(1, top + 1), rng.randint(1, 3))
        bwd = rng.sample(range(1, top + 1), rng.randint(1, 3))
        spec = validate_spec(n, fwd, bwd)
        if generic.square_power_table(ToeplitzKernel(spec))[0].index < 120:
            out.append(spec)
    return out


def toeplitz_again(seq):
    # Some Toeplitz power is followed by one that is not and later by a
    # Toeplitz one again.
    signs = "".join("T" if key < 0 else "N" for key in seq)
    return "TN" in signs and "T" in signs[signs.index("TN") + 1 :]


class TestKeyStep:
    """The power scan stepped on the 2n - 1 diagonal bits of each Toeplitz
    power (ToeplitzKernel.key_step), forced at every n, against the n^2-bit
    scan and the BoolMatrix tail."""

    def test_matches_on_every_instance_up_to_8(self):
        assert list(generic.scan_mismatches(enumerate_specs(8, False))) == []

    def test_stops_alike_before_at_and_past_the_index_up_to_6(self):
        assert list(generic.scan_mismatches(enumerate_specs(6, False), cut=True)) == []

    def test_matches_on_seeded_large_instances(self):
        specs = seeded_large_specs(20261030, 24)
        assert list(generic.scan_mismatches(specs, cut=True)) == []
        tables = [generic.key_power_table(ToeplitzKernel(spec))[1] for spec in specs]
        assert sum(map(toeplitz_again, tables)) >= 3

    def test_one_step_from_any_toeplitz_matrix(self):
        # Powers of A rarely put a disagreement at a run's edge; arbitrary
        # diagonal masks do.
        specs = list(enumerate_specs(7, False)) + seeded_large_specs(31, 8)
        assert list(generic.step_mismatches(specs, random.Random(7))) == []

    def test_power_table_takes_the_key_step_from_the_crossover(self, monkeypatch):
        calls = []
        key_step = ToeplitzKernel.key_step
        monkeypatch.setattr(ToeplitzKernel, "key_step", lambda k, key: calls.append(1) or key_step(k, key))
        for n in (KEY_STEP_FROM - 1, KEY_STEP_FROM):
            calls.clear()
            kernel = ToeplitzKernel(validate_spec(n, [3, 7], [5]))
            assert power_table(kernel) == generic.square_power_table(kernel)
            assert bool(calls) == (n >= KEY_STEP_FROM), n

    def test_toeplitz_powers_make_no_matrix_step(self, monkeypatch):
        # All 84 powers of T400<3,7;5> are Toeplitz, so its scan never
        # multiplies out n^2 bits.
        calls = []
        times_a = ToeplitzKernel.times_a
        kernel = ToeplitzKernel(parse_literal("T400<3,7;5>"))
        monkeypatch.setattr(ToeplitzKernel, "times_a", lambda k, x: calls.append(1) or times_a(k, x))
        tail, seq = power_table(kernel)
        assert (len(seq), max(seq) < 0, calls) == (84, True, [])

    def test_commands_print_what_the_square_scan_gives(self, capsys, monkeypatch):
        # power --m, psets --i and period above the crossover, with the key
        # step and with every power stepped on n^2 bits.
        literals = ["T100<3,7;5>", "T150<1;2>", "T199<144;10,106>", "T240<5;7>", "T113<14;43,107>"]
        argvs = [("period", lit, "--format", fmt) for lit in literals for fmt in ("text", "json")]
        argvs += [("power", lit, "--m", m) for lit in literals for m in ("1", "5", "147", "2000")]
        argvs += [("psets", lit, "--i", i) for lit in literals for i in ("1", "30", "400")]

        def outputs():
            out = []
            for argv in argvs:
                out.append((cli.main(list(argv)), capsys.readouterr()))
            return out

        assert all(KEY_STEP_FROM <= parse_literal(lit).n for lit in literals)
        keyed = outputs()
        monkeypatch.setattr(spectra, "KEY_STEP_FROM", MAX_MATRIX_N + 1)
        assert outputs() == keyed


class TestCompetitionStep:
    @given(specs(), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_recurrence_matches_generic_and_oracle(self, spec, m):
        kernel, g = ToeplitzKernel(spec), geometry(spec.n)
        b = g.identity
        for _ in range(m):
            b = kernel.compete(b)
        x = build_matrix(spec).power(m)
        assert unpack(spec.n, b) == x.multiply(x.transpose())
        assert as_lists(unpack(spec.n, b)) == oracles.naive_competition(naive_spec_matrix(spec), m)

    @given(specs(max_n=20))
    @settings(max_examples=30, deadline=None)
    def test_competition_table_matches_generic(self, spec):
        kernel = ToeplitzKernel(spec)
        tail, bs = competition_table(kernel)
        gtail, gbs = generic.competition_table(build_matrix(spec))
        assert (tail.index, tail.period) == (gtail.index, gtail.period)
        assert [unpack(spec.n, b) for b in bs] == gbs


def assert_scan_key(g, x, expected):
    # A Toeplitz x is keyed by ~(its full diagonals), any other x by
    # itself, and the key decodes back to x.
    key = g.scan_key(x)
    if g.scan_key(x) < 0:
        assert key < 0 and offsets_of(~key, g.n) == expected
    else:
        assert key == x
    assert g.from_key(key) == x


class TestFullDiagonals:
    @given(spec_and_matrix())
    @settings(max_examples=60, deadline=None)
    def test_fold_matches_generic(self, case):
        _, x = case
        g = geometry(x.n)
        # Random rows rarely fill a diagonal; filling some exercises both pads.
        rng = random.Random(x.count_ones())
        rows = list(x.rows)
        for ell in rng.sample(range(-(x.n - 1), x.n), rng.randint(0, x.n)):
            for r in range(max(0, -ell), min(x.n, x.n - ell)):
                rows[r] |= 1 << (r + ell)
        for mat in (x, BoolMatrix(x.n, rows)):
            packed = pack(mat)
            expected = full_diagonal_offsets(mat)
            assert offsets_of(g.fold_diagonals(packed), mat.n) == expected
            assert_scan_key(g, packed, expected)

    @given(specs(max_n=12), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_fold_of_power_matches_oracle(self, spec, i):
        kernel = ToeplitzKernel(spec)
        x = kernel.adjacency
        for _ in range(i - 1):
            x = kernel.times_a(x)
        expected = oracles.naive_realized_offsets(
            spec.n, spec.forward_steps, spec.backward_steps, i
        )
        g = kernel.geometry
        assert offsets_of(g.fold_diagonals(x), spec.n) == expected
        assert_scan_key(g, x, expected)

    @given(specs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_read_off_and_fold_on_toeplitz_matrices_and_one_flip(self, spec, data):
        # A Toeplitz matrix takes the row read-off; a one-bit flip off the
        # corners is not Toeplitz and takes the fold, with most diagonals
        # still full.
        n = spec.n
        g = geometry(n)
        diagonals = data.draw(st.integers(0, (1 << (2 * n - 1)) - 1))
        rows = [
            sum(1 << c for c in range(n) if (diagonals >> (c - r + n - 1)) & 1) for r in range(n)
        ]
        r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        flipped = list(rows)
        flipped[r] ^= 1 << c
        for mat in (BoolMatrix(n, rows), BoolMatrix(n, flipped)):
            x = pack(mat)
            expected = full_diagonal_offsets(mat)
            assert (g.scan_key(x) < 0) == mat.is_toeplitz()
            assert offsets_of(g.fold_diagonals(x), n) == expected
            assert_scan_key(g, x, expected)

    @given(specs(max_n=12), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_row_oracle_matches_list_oracle(self, spec, i):
        # The two oracles the tests read full diagonals with agree.
        n, fwd, bwd = spec.n, spec.forward_steps, spec.backward_steps
        x = build_matrix(spec).power(i)
        assert full_diagonal_offsets(x) == oracles.naive_realized_offsets(n, fwd, bwd, i)

    def test_read_off_matches_fold_on_every_power_up_to_7(self):
        for spec in enumerate_specs(7, False):
            kernel = ToeplitzKernel(spec)
            g = kernel.geometry
            for key in power_table(kernel)[1]:
                if key < 0:
                    assert ~key == g.fold_diagonals(g.from_key(key)), spec.literal


class TestToeplitzTest:
    @given(spec_and_matrix())
    @settings(max_examples=60, deadline=None)
    def test_matches_generic(self, case):
        _, x = case
        g = geometry(x.n)
        assert (g.scan_key(pack(x)) < 0) == x.is_toeplitz()

    @given(specs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_toeplitz_matrices_and_one_flip(self, spec, data):
        n = spec.n
        g = geometry(n)
        diagonals = data.draw(st.integers(0, (1 << (2 * n - 1)) - 1))
        rows = [
            sum(1 << c for c in range(n) if (diagonals >> (c - r + n - 1)) & 1) for r in range(n)
        ]
        x = BoolMatrix(n, rows)
        assert g.scan_key(pack(x)) < 0 and x.is_toeplitz()
        r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        rows[r] ^= 1 << c
        flipped = BoolMatrix(n, rows)
        assert (g.scan_key(pack(flipped)) < 0) == flipped.is_toeplitz()


# -- whole reports ----------------------------------------------------------------


def generic_report(spec):
    """verify_instance on the generic BoolMatrix path: products, transposes,
    SimpleGraph edges and frozenset step sets."""
    n, fwd, bwd = spec.n, spec.forward_steps, spec.backward_steps
    d = pair_sum_gcd(spec)
    d_prime = gcd(d, spec.min_forward)
    pi = d // d_prime
    report = InstanceReport(spec, d, d_prime, pi, spec.cond1, spec.cond2)
    checks = report.checks
    g = 0
    for v in offset_generators(spec):
        g = gcd(g, v)
    checks["gcd_equality"] = HOLDS if g == d else FAILS

    A = build_matrix(spec)
    tail, seq = generic.power_table(A)
    qa, pa = tail.index, tail.period
    report.power_index, report.power_period = qa, pa
    ctail, bs = generic.competition_table(A)
    report.comp_index, report.comp_period = ctail.index, ctail.period

    one_step = SimpleGraph.from_symmetric_matrix(n, bs[0].rows)
    checks["formula_match"] = (
        HOLDS if competition_graph_formula(spec).edges == one_step.edges else FAILS
    )
    adjacency_ok = all(
        (v - u) % d == 0 for b in bs for u, v in SimpleGraph.from_symmetric_matrix(n, b.rows).edges
    )
    checks["adjacency_necessity"] = HOLDS if adjacency_ok else FAILS

    horizon = qa + 2 * pa * pi if spec.conditions_hold else qa + pa
    p_sets, r_sets = [], []
    q_sets = oracles.combination_offsets_run(n, fwd, bwd, horizon)
    for i in range(1, horizon + 1):
        x = seq[i - 1] if i < qa else seq[qa - 1 + (i - qa) % pa]
        p_sets.append(oracles.naive_congruent_offsets(n, fwd, bwd, i))
        r_sets.append(full_diagonal_offsets(x))
    chain_ok = all(r <= q <= p for p, q, r in zip(p_sets, q_sets, r_sets))
    checks["containment_chain"] = HOLDS if chain_ok else FAILS

    report.bound_value = competition_index_bound(spec)
    if not spec.conditions_hold:
        checks.update((name, NOT_APPLICABLE) for name in CONDITIONAL)
        report.checks = {name: checks[name] for name in PREDICATES}
        return report

    checks["period_match"] = HOLDS if pa == pi else FAILS
    checks["competition_period_is_1"] = HOLDS if ctail.period == 1 else FAILS
    block_ok = clique_ok = False
    if ctail.period == 1:
        limit = bs[ctail.index - 1]
        block_ok = as_lists(limit) == oracles.naive_residue_matrix(n, d)
        clique_ok = (
            SimpleGraph.from_symmetric_matrix(n, limit.rows).edges
            == residue_clique_graph(n, d).edges
        )
    checks["limit_block_match"] = HOLDS if block_ok else FAILS
    checks["limit_clique_match"] = HOLDS if clique_ok else FAILS
    toeplitz_ok = all(x.is_toeplitz() for x in seq[qa - 1 :])
    checks["eventually_toeplitz"] = HOLDS if toeplitz_ok else FAILS

    # The verdict compares the three sets with == only, so frozensets do.
    stab = certify_stabilization(p_sets, q_sets, r_sets, tail, pi)
    report.m_emp = stab.m_emp
    checks["pqr_stabilized"] = HOLDS if stab.m_emp is not None and stab.certified else FAILS

    # P_0 .. P_(2 pi + 2), with P_i = P_(i-1) + s1 or - t1 inside the range.
    congruent = [oracles.naive_congruent_offsets(n, fwd, bwd, i) for i in range(2 * pi + 3)]
    s1, t1 = spec.min_forward, spec.min_backward
    recurrence_ok = (
        all(
            cur == {v for u in prev for v in (u + s1, u - t1) if -n < v < n}
            for prev, cur in zip(congruent[1:], congruent[2:])
        )
        and all(congruent[i] == congruent[i + pi] for i in range(1, pi + 2))
        and all(
            congruent[i].isdisjoint(congruent[j])
            for i in range(1, pi + 1)
            for j in range(i + 1, pi + 1)
        )
    )
    checks["p_recurrence"] = HOLDS if recurrence_ok else FAILS

    report.bound_hypothesis = bound_hypothesis_holds(spec)
    if report.bound_hypothesis:
        checks["bound_holds"] = HOLDS if ctail.index <= report.bound_value else FAILS
    else:
        checks["bound_holds"] = NOT_APPLICABLE
    report.checks = {name: checks[name] for name in PREDICATES}
    return report


def test_reports_match_generic_path_on_seeded_specs():
    rng = random.Random(20221208)
    for _ in range(200):
        n = rng.randint(9, 40)
        fwd = rng.sample(range(1, n), rng.randint(1, 3))
        bwd = rng.sample(range(1, n), rng.randint(1, 3))
        spec = validate_spec(n, fwd, bwd)
        assert verify_instance(spec).to_json_dict() == generic_report(spec).to_json_dict(), (
            spec.literal
        )


def test_reports_match_generic_path_on_small_sweep():
    for spec in enumerate_specs(5, False):
        assert verify_instance(spec).to_json_dict() == generic_report(spec).to_json_dict(), (
            spec.literal
        )


# -- per-size and per-step-set masks ---------------------------------------------


def matrix_of(n, entry):
    """The packed n x n matrix whose 0-based entry (r, c) is entry(r, c)."""
    return sum(1 << r * n + c for r in range(n) for c in range(n) if entry(r, c))


def geometry_from_scratch(n):
    """Every table of the Geometry of size n, bit by bit from its
    definition; the per-modulus tables for d = 1..2n-1."""
    above = sum(1 << n * n + c for c in range(n))
    moduli = range(1, 2 * n)
    return {
        "full": matrix_of(n, lambda r, c: True),
        "identity": matrix_of(n, lambda r, c: r == c),
        "inner": matrix_of(n, lambda r, c: r < n - 1 and c < n - 1),
        "pad_lower": matrix_of(n, lambda r, c: c < r) | above,
        "pad_upper": matrix_of(n, lambda r, c: c >= r) | above,
        "residue_matrix": [matrix_of(n, lambda r, c: (r - c) % d == 0) for d in moduli],
        "congruent_masks": [
            tuple(sum(1 << ell + n - 1 for ell in range(1 - n, n) if ell % d == r) for r in range(d))
            for d in moduli
        ],
    }


def geometry_tables(g):
    """The tables of Geometry g that geometry_from_scratch builds."""
    moduli = range(1, 2 * g.n)
    return {
        "full": g.full,
        "identity": g.identity,
        "inner": g.inner,
        "pad_lower": g.pad_lower,
        "pad_upper": g.pad_upper,
        "residue_matrix": [g.residue_matrix(d) for d in moduli],
        "congruent_masks": [g.congruent_masks(d) for d in moduli],
    }


def partners_from_scratch(n, steps, forward):
    """The pairs (u, u + k2 - k) and their mirrors for steps k < k2 with
    k <= n - (u + k2 - k) (forward) or k <= u - 1 (backward); 0-based here."""

    def admitted(r, c):
        u, v = min(r, c) + 1, max(r, c) + 1
        return any(
            k2 - k == v - u and k <= (n - v if forward else u - 1)
            for k in steps
            for k2 in steps
            if k2 > k
        )

    return matrix_of(n, admitted)


def kernel_from_scratch(spec):
    """Every mask a ToeplitzKernel picks for its steps, bit by bit from its
    definition."""
    n = spec.n

    def low(k):  # columns 1..n-k
        return matrix_of(n, lambda r, c: c < n - k)

    def high(k):  # columns k+1..n
        return matrix_of(n, lambda r, c: c >= k)

    fwd, bwd = spec.forward_steps, spec.backward_steps
    return {
        "adjacency": matrix_of(n, lambda r, c: c - r in fwd or r - c in bwd),
        "forward_bits": sum(1 << s for s in fwd),
        "backward_bits": sum(1 << t for t in bwd),
        "forward_diff_gcd": gcd(*[b - a for a, b in combinations(fwd, 2)]),
        "backward_diff_gcd": gcd(*[b - a for a, b in combinations(bwd, 2)]),
        "_times_a": (tuple((low(s), s) for s in fwd), tuple((high(t), t) for t in bwd)),
        "_rows_down": tuple(s * n for s in fwd),
        "_rows_up": tuple(t * n for t in bwd),
        "_times_at": (tuple((high(s), s) for s in fwd), tuple((low(t), t) for t in bwd)),
    }


class TestGeometry:
    def test_kernels_match_kernels_built_from_scratch(self):
        rng = random.Random(20261018)
        for n in range(2, MAX_N + 1):
            expected_geometry = geometry_from_scratch(n)
            for _ in range(3):
                # Twice per size and step set: the second kernel reads a warm geometry.
                fwd = rng.sample(range(1, n), rng.randint(1, min(4, n - 1)))
                bwd = rng.sample(range(1, n), rng.randint(1, min(4, n - 1)))
                spec = validate_spec(n, fwd, bwd)
                expected = kernel_from_scratch(spec)
                partners = [
                    partners_from_scratch(n, steps, forward)
                    for steps in (spec.forward_steps, spec.backward_steps)
                    for forward in (True, False)
                ]
                for kernel in (ToeplitzKernel(spec), ToeplitzKernel(spec)):
                    got = {name: getattr(kernel, name) for name in expected}
                    assert got == expected, spec.literal
                    assert geometry_tables(kernel.geometry) == expected_geometry, spec.literal
                    got = [
                        kernel.geometry.partners(steps, forward)
                        for steps in (spec.forward_steps, spec.backward_steps)
                        for forward in (True, False)
                    ]
                    assert got == partners, spec.literal

    def test_step_set_entries_match_the_offset_generators(self):
        # Each step set's mask and difference gcd, from a fresh Geometry and
        # from the cached one, against the within-set differences that
        # offset_generators lists.
        for n in range(2, 11):
            fresh = Geometry(n)
            for steps in _subsets(n):
                differences = {b - a for a, b in combinations(steps, 2)}
                expected = (sum(1 << k for k in steps), gcd(*differences))
                assert fresh.step_masks(steps)[3:] == expected, (n, steps)
                assert geometry(n).step_masks(steps)[3:] == expected, (n, steps)
        # Together with d they give the gcd of every offset generator.
        for spec in enumerate_specs(7, False):
            kernel = ToeplitzKernel(spec)
            diffs = gcd(kernel.forward_diff_gcd, kernel.backward_diff_gcd, pair_sum_gcd(spec))
            assert diffs == gcd(*offset_generators(spec)), spec.literal

    def test_one_geometry_per_size(self):
        a = ToeplitzKernel(validate_spec(9, (1, 4), (2,)))
        b = ToeplitzKernel(validate_spec(9, (3,), (5, 7)))
        assert a.geometry is b.geometry is geometry(9)
        assert ToeplitzKernel(validate_spec(10, (1,), (1,))).geometry is not a.geometry

    def test_every_size_of_a_query_mix_stays_cached(self):
        sizes = range(2, 81)
        for n in sizes:
            geometry(n)
        before = geometry.cache_info()
        for n in sizes:
            geometry(n)
        after = geometry.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (len(sizes), 0)

    def test_memory_kept_after_a_query_mix(self, capsys):
        # Five queries on one seeded instance of each size n = 10..80, as
        # many sizes as the cli_queries mix asks for.  The 71 Geometries
        # hold about 0.7 MB after it (Python 3.11).
        rng = random.Random(17)
        mix = []
        for n in range(10, 81):
            fwd = rng.sample(range(1, n), rng.randint(1, 3))
            bwd = rng.sample(range(1, n), rng.randint(1, 3))
            literal = validate_spec(n, fwd, bwd).literal
            mix += [
                ["period", literal],
                ["competition", literal, "--format", "json"],
                ["graph", literal, "--m", "2"],
                ["bound", literal],
                ["psets", literal, "--stabilize"],
            ]
        cli.main(mix[0])  # the parser and lazy imports, outside the trace
        geometry.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            for argv in mix:
                assert cli.main(argv) == 0, argv
            capsys.readouterr()
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert geometry.cache_info().currsize == 71
        assert kept < 3 << 19  # 1.5 MB


def naive_one_step_graph(spec):
    b = oracles.naive_competition(naive_spec_matrix(spec), 1)
    return [[b[u][v] if u != v else 0 for v in range(spec.n)] for u in range(spec.n)]


class TestCachedCompetitionFormula:
    def test_matches_oracle_on_every_instance_up_to_7(self):
        # Each step set meets every partner, so its cached segments are reused.
        for spec in enumerate_specs(7, False):
            kernel = ToeplitzKernel(spec)
            got = as_lists(unpack(spec.n, competition_formula(kernel)))
            assert got == naive_one_step_graph(spec), spec.literal

    @given(specs())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, spec):
        kernel = ToeplitzKernel(spec)
        got = as_lists(unpack(spec.n, competition_formula(kernel)))
        assert got == naive_one_step_graph(spec)

    def test_sum_mask_matches_the_sum_set(self):
        # Every instance up to 7, and a seeded sample with n 81-200, where
        # the size's Geometry keeps only some diagonal pairs: the formula
        # against the sums S + T taken as a set, and against the one-step
        # competition matrix of the kernel.
        rng = random.Random(2022)
        sample = []
        for _ in range(30):
            n = rng.randint(81, 200)
            fwd = rng.sample(range(1, n), rng.randint(1, 4))
            bwd = rng.sample(range(1, n), rng.randint(1, 4))
            sample.append(validate_spec(n, fwd, bwd))
        assert all(PAIR_BITS // spec.n**2 < spec.n - 1 for spec in sample)
        for spec in [*enumerate_specs(7, False), *sample]:
            kernel = ToeplitzKernel(spec)
            g = kernel.geometry
            got = competition_formula(kernel)
            assert got == formula_from_sum_set(kernel), spec.literal
            assert got == kernel.compete(g.identity) & (g.full ^ g.identity), spec.literal

    def test_warm_geometry_rebuilds_no_partner_rule(self, monkeypatch):
        # Both rules of all 2,047 step sets of n = 12 fit in one Geometry:
        # after a pass that asks for every one of them, a row of the n = 12
        # sweep (one forward set, every backward set) builds no rule again.
        for steps in _subsets(12):
            competition_formula(ToeplitzKernel(validate_spec(12, steps, steps)))
        kernels = [ToeplitzKernel(spec) for spec in _row_specs(12, (2, 3, 7), False)]
        assert len(kernels) == 2047
        builds = []
        build = Geometry._partner_rule

        def counted(self, steps, forward):
            builds.append((steps, forward))
            return build(self, steps, forward)

        monkeypatch.setattr(Geometry, "_partner_rule", counted)
        for kernel in kernels:
            competition_formula(kernel)
        assert builds == []

    def test_large_size_keeps_pairs_within_the_budget(self):
        # Every delta of n = 400 is a sum s + t here, so the formula reads
        # all 399 diagonal pairs, about n^3 bits = 8 MB if they were kept;
        # the budget keeps the first PAIR_BITS // n^2 = 3 of them.
        n = 400
        kernel = ToeplitzKernel(validate_spec(n, range(1, n), range(1, n)))
        tracemalloc.start()
        try:
            out = competition_formula(kernel)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out == kernel.geometry.full ^ kernel.geometry.identity
        assert kept < 1 << 20
        assert len(kept_pairs(kernel.geometry)) == PAIR_BITS // (n * n)

    def test_warm_large_instance_builds_no_diagonal_pair(self, monkeypatch):
        # T400<3,7;5> reads the pairs 8 and 12: both fit the budget, so a
        # second call builds no segment (its partner rules are kept too).
        # A Geometry of its own, so no earlier test has spent its budget.
        kernel = ToeplitzKernel(parse_literal("T400<3,7;5>"))
        kernel.geometry = g = Geometry(400)
        first = competition_formula(kernel)
        assert sorted(kept_pairs(g)) == [8, 12]
        assert sum(p.bit_length() for p in kept_pairs(g).values()) <= PAIR_BITS
        builds = []
        segment = Geometry.segment

        def counted(self, delta, lo, hi):
            builds.append(delta)
            return segment(self, delta, lo, hi)

        monkeypatch.setattr(Geometry, "segment", counted)
        assert competition_formula(kernel) == first
        assert builds == []

    def test_sweep_sizes_keep_their_diagonal_pairs(self):
        for n in (2, 16, 64, 80):
            g = Geometry(n)
            assert all(g.diagonal_pair(k) is g.diagonal_pair(k) for k in range(1, n))
        # At n = 81 the first 79 pairs fill the budget; the 80th is built on
        # every call.
        n = 81
        g = Geometry(n)
        assert all(g.diagonal_pair(k) is g.diagonal_pair(k) for k in range(1, n - 1))
        assert len(kept_pairs(g)) * n * n <= PAIR_BITS
        assert g.diagonal_pair(n - 1) is not g.diagonal_pair(n - 1)
        assert g.diagonal_pair(n - 1) == g.segment(n - 1, 1, 1)


def formula_from_sum_set(kernel):
    """competition_formula with the sums s + t below n taken from a set."""
    spec, g = kernel.spec, kernel.geometry
    out = g.partners(spec.forward_steps, True) | g.partners(spec.backward_steps, False)
    for delta in {s + t for s in spec.forward_steps for t in spec.backward_steps}:
        if delta < spec.n:
            out |= g.diagonal_pair(delta)
    return out


def kept_pairs(g):
    """delta -> the diagonal pair Geometry g keeps for it."""
    return {delta: pair for delta, pair in enumerate(g._pairs) if pair is not None}


def boolmatrix_bound_hypothesis(spec):
    """Each residue class connected in the graph of the generic B_1 = A A^T."""
    a = build_matrix(spec)
    b1 = SimpleGraph.from_symmetric_matrix(spec.n, a.multiply(a.transpose()).rows)
    d = pair_sum_gcd(spec)
    for r in range(d):
        members = [v for v in range(1, spec.n + 1) if v % d == r]
        index = {v: k for k, v in enumerate(members, start=1)}
        edges = frozenset((index[u], index[v]) for u, v in b1.edges if u in index and v in index)
        if len(oracles.connected_components(len(members), edges)) > 1:
            return False
    return True


class TestPackedBoundHypothesis:
    def test_matches_boolmatrix_path_on_every_instance_up_to_6(self):
        for spec in enumerate_specs(6, False):
            assert bound_hypothesis_holds(spec) == boolmatrix_bound_hypothesis(spec), spec.literal

    @given(specs())
    @settings(max_examples=60, deadline=None)
    def test_matches_boolmatrix_path(self, spec):
        expected = boolmatrix_bound_hypothesis(spec)
        assert bound_hypothesis_holds(spec, pair_sum_gcd(spec)) == expected
        assert bound_hypothesis_holds(spec) == expected

    def test_matches_row_closure_on_every_instance_up_to_7(self):
        for spec in enumerate_specs(7, False):
            expected = oracles.rows_bound_hypothesis(
                spec.n, spec.forward_steps, spec.backward_steps, pair_sum_gcd(spec)
            )
            assert bound_hypothesis_holds(spec) == expected, spec.literal

    def test_matches_row_closure_on_large_instances(self):
        # Step sets drawn inside one residue pair a, -a mod d, so the
        # pair-sum gcd is a multiple of d, kept when it is at most 4.
        rng = random.Random(20261021)
        outcomes, gcds = set(), []
        while len(gcds) < 40:
            n, d = rng.randint(60, 200), rng.randint(1, 4)
            a = rng.randrange(d)
            fwd = rng.sample(range(a or d, n, d), rng.randint(1, 3))
            bwd = rng.sample(range(-a % d or d, n, d), rng.randint(1, 3))
            spec = validate_spec(n, fwd, bwd)
            d = pair_sum_gcd(spec)
            if d > 4:
                continue
            expected = oracles.rows_bound_hypothesis(n, spec.forward_steps, spec.backward_steps, d)
            assert bound_hypothesis_holds(spec) == expected, spec.literal
            assert bound_hypothesis_holds(spec, d) == expected, spec.literal
            outcomes.add(expected)
            gcds.append(d)
        assert outcomes == {True, False} and set(gcds) == {1, 2, 3, 4}

    def test_matches_boolmatrix_path_on_both_row_sources(self):
        # Large instances, n from ROW_BYTES_FROM - 20 to 200, with both
        # outcomes.
        rng = random.Random(20261018)
        sizes = [ROW_BYTES_FROM - 1, ROW_BYTES_FROM, 200]
        sizes += [rng.randint(ROW_BYTES_FROM - 20, 200) for _ in range(27)]
        outcomes = set()
        for n in sizes:
            fwd = rng.sample(range(1, n), rng.randint(1, 3))
            bwd = rng.sample(range(1, n), rng.randint(1, 3))
            spec = validate_spec(n, fwd, bwd)
            expected = boolmatrix_bound_hypothesis(spec)
            assert bound_hypothesis_holds(spec) == expected, spec.literal
            outcomes.add(expected)
        assert outcomes == {True, False}

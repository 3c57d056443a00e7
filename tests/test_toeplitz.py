import hashlib
import itertools
import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import toeplab
from toeplab.boolmat import BoolMatrix
from toeplab.toeplitz import (
    BezoutCertificate,
    _ext_gcd,
    bezout_certificate,
    build_matrix,
    pair_sum_gcd,
    parse_literal,
    predicted_period,
    validate_spec,
)
from toeplab.verify import enumerate_specs

import oracles
from oracles import offset_generators

FIG1 = "8\n01001000\n00100100\n10010010\n01001001\n00100100\n10010010\n01001001\n00100100"


class TestValidate:
    def test_running_example_flags(self):
        spec = validate_spec(8, {1, 4}, {2, 5})
        assert spec.forward_steps == (1, 4)
        assert spec.backward_steps == (2, 5)
        assert spec.cond1 and spec.cond2

    def test_counterexample_flags_stored_not_rejected(self):
        spec = validate_spec(5, {2}, {4})
        assert not spec.cond1
        assert not spec.cond2

    def test_empty_forward_rejected(self):
        with pytest.raises(ValueError, match="forward step set must be nonempty"):
            validate_spec(4, set(), {1})

    def test_empty_backward_rejected(self):
        with pytest.raises(ValueError, match="backward step set must be nonempty"):
            validate_spec(4, {1}, set())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"forward step 4 outside \[1, 3\]"):
            validate_spec(4, {4}, {1})
        with pytest.raises(ValueError, match=r"backward step 0 outside"):
            validate_spec(4, {1}, {0})

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension must be at least 2"):
            validate_spec(1, {1}, {1})

    def test_normalization_sorts_and_dedups(self):
        spec = validate_spec(9, [4, 1, 4], (5, 2, 2))
        assert spec.forward_steps == (1, 4)
        assert spec.backward_steps == (2, 5)


class TestLiteral:
    def test_parse_running_example(self):
        spec = parse_literal("T8<1,4;2,5>")
        assert (spec.n, spec.forward_steps, spec.backward_steps) == (8, (1, 4), (2, 5))

    def test_round_trip(self):
        for text in ("T2<1;1>", "T8<1,4;2,5>", "T6<2,4;4,5>", "T10<1,2,9;3>"):
            assert parse_literal(text).literal == text

    @pytest.mark.parametrize(
        "bad",
        # "\u0668" is the Arabic-Indic digit eight; "\uff18", "\uff11" and
        # "\uff15" are the fullwidth digits eight, one and five.
        [
            "T8[1,4;2,5]",
            "8<1;1>",
            "T8<1,4>",
            "T8<;1>",
            "T8<1;>",
            "T8<1,a;2>",
            "T\u0668<1,4;2,5>",
            "T\uff18<1,4;2,5>",
            "T8<\uff11,4;2,5>",
            "T8<1,4;2,\uff15>",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError, match="malformed instance literal"):
            parse_literal(bad)

    def test_json_dict(self):
        assert parse_literal("T8<1,4;2,5>").to_json_dict() == {"n": 8, "S": [1, 4], "T": [2, 5]}

    def test_json_round_trip(self):
        spec = parse_literal("T9<2,3;1,8>")
        data = spec.to_json_dict()
        assert validate_spec(data["n"], data["S"], data["T"]) == spec


class TestBuildMatrix:
    def test_figure_matrix(self):
        assert oracles.matrix_text(8, build_matrix(parse_literal("T8<1,4;2,5>")).rows) == FIG1

    def test_t5_display(self):
        expected = "5\n00100\n00010\n00001\n00000\n10000"
        assert oracles.matrix_text(5, build_matrix(parse_literal("T5<2;4>")).rows) == expected

    def test_two_cycle(self):
        assert build_matrix(parse_literal("T2<1;1>")) == BoolMatrix(2, (0b10, 0b01))

    def test_entry_rule_matches_naive_everywhere(self):
        for spec in enumerate_specs(6, False):
            mat = build_matrix(spec)
            naive = oracles.naive_from_spec(spec.n, spec.forward_steps, spec.backward_steps)
            got = [
                [mat.get(i, j) for j in range(1, spec.n + 1)] for i in range(1, spec.n + 1)
            ]
            assert got == naive, spec.literal

    def test_always_toeplitz(self):
        for spec in enumerate_specs(5, False):
            assert build_matrix(spec).is_toeplitz()

    def test_rows_nonzero_under_first_condition(self):
        for spec in enumerate_specs(6, False):
            if spec.cond1:
                assert all(r != 0 for r in build_matrix(spec).rows), spec.literal


class TestGcds:
    def test_pair_sum_examples(self):
        assert pair_sum_gcd(parse_literal("T8<1,4;2,5>")) == 3
        assert pair_sum_gcd(parse_literal("T5<2;4>")) == 6
        assert pair_sum_gcd(validate_spec(6, {2}, {2})) == 4

    def test_generators_running_example(self):
        spec = parse_literal("T8<1,4;2,5>")
        assert offset_generators(spec) == (3, 6, 9)
        assert gcd(*offset_generators(spec)) == pair_sum_gcd(spec) == 3

    def test_singleton_sets_have_single_generator(self):
        spec = validate_spec(9, {3}, {5})
        assert offset_generators(spec) == (8,)
        assert gcd(*offset_generators(spec)) == 8

    def test_generator_gcd_equals_pair_sum_gcd_exhaustively(self):
        for spec in enumerate_specs(7, False):
            assert gcd(*offset_generators(spec)) == pair_sum_gcd(spec), spec.literal

    def test_divisibility_structure(self):
        for spec in enumerate_specs(6, False):
            d = pair_sum_gcd(spec)
            assert predicted_period(spec) * __import__("math").gcd(d, spec.min_forward) == d
            for s in spec.forward_steps:
                for t in spec.backward_steps:
                    assert (s + t) % d == 0


class TestPredictedPeriod:
    def test_running_example(self):
        assert predicted_period(parse_literal("T8<1,4;2,5>")) == 3

    def test_two_cycle_against_brute_force(self):
        spec = parse_literal("T2<1;1>")
        assert predicted_period(spec) == 2
        a = oracles.naive_from_spec(2, (1,), (1,))
        index, period = oracles.naive_tail(oracles.naive_powers(a, 10))
        assert period == 2

    def test_three_cycle_against_brute_force(self):
        spec = parse_literal("T3<1;2>")
        assert predicted_period(spec) == 3
        a = oracles.naive_from_spec(3, (1,), (2,))
        index, period = oracles.naive_tail(oracles.naive_powers(a, 12))
        assert (index, period) == (1, 3)


class TestBezout:
    def test_running_example_identities(self):
        spec = parse_literal("T8<1,4;2,5>")
        cert = bezout_certificate(spec)
        value = sum(c * s for c, s in zip(cert.forward_coeffs, spec.forward_steps))
        value -= sum(c * t for c, t in zip(cert.backward_coeffs, spec.backward_steps))
        assert value == 3
        assert sum(cert.forward_coeffs) + sum(cert.backward_coeffs) == 0

    def test_singletons_forced(self):
        cert = bezout_certificate(validate_spec(9, {3}, {5}))
        assert cert.forward_coeffs == (1,)
        assert cert.backward_coeffs == (-1,)

    def test_exhaustive_small(self):
        # Construction asserts both identities; surviving is the test.
        for spec in enumerate_specs(7, False):
            bezout_certificate(spec)

    def test_certificates_pinned_over_small_specs(self):
        # Validity alone admits many coefficient vectors; this pins the ones
        # the fixed generator order and extended Euclid chain produce.
        digest = hashlib.sha256()
        for spec in enumerate_specs(7, False):
            cert = bezout_certificate(spec)
            a, b = list(cert.forward_coeffs), list(cert.backward_coeffs)
            digest.update(f"{spec.literal} {a} {b}\n".encode())
        assert digest.hexdigest() == (
            "4be35729a0bcf2634b0e0146640daea436f658dd90f4fc84a2d4f9d0cec1cef0"
        )

    def test_matches_rescaling_every_step(self):
        # The extended-Euclid chain written out directly: every step rescales
        # the coefficients of all earlier generators by its x.
        rng = random.Random(2026)
        specs = [validate_spec(n, range(1, n), range(1, n)) for n in (2, 9, 20)]
        for _ in range(60):
            n = rng.randint(2, 40)
            fwd = rng.sample(range(1, n), rng.randint(1, min(5, n - 1)))
            bwd = rng.sample(range(1, n), rng.randint(1, min(5, n - 1)))
            specs.append(validate_spec(n, fwd, bwd))
        for spec in specs:
            fwd, bwd = spec.forward_steps, spec.backward_steps
            gens = [(j, i) for i, j in itertools.combinations(fwd, 2)]
            gens += [(-i, -j) for i, j in itertools.combinations(bwd, 2)]
            gens += [(s, -t) for s in fwd for t in bwd]
            g, coeffs = 0, []
            for up, down in gens:
                g, x, y = _ext_gcd(g, up - down)
                coeffs = [x * c for c in coeffs] + [y]
            a = {s: 0 for s in fwd}
            b = {t: 0 for t in bwd}
            for c, (up, down) in zip(coeffs, gens):
                for w, sign in ((up, 1), (down, -1)):
                    if w > 0:
                        a[w] += sign * c
                    else:
                        b[-w] += sign * c
            cert = bezout_certificate(spec)
            assert cert.forward_coeffs == tuple(a.values()), spec.literal
            assert cert.backward_coeffs == tuple(b.values()), spec.literal

    def test_full_step_sets_at_large_n(self):
        # About 2n^2 generators; construction checks both identities.
        for n in (60, 90):
            bezout_certificate(validate_spec(n, range(1, n), range(1, n)))

    def test_corrupted_certificate_raises(self):
        spec = parse_literal("T8<1,4;2,5>")
        with pytest.raises(ValueError, match="does not reach the gcd"):
            BezoutCertificate(spec, (1, 1), (0, 0))
        with pytest.raises(ValueError, match="do not cancel"):
            BezoutCertificate(spec, (3, 0), (0, 0))  # 3 * 1 = 3 with three terms

    def test_corrupted_certificate_raises_under_optimize(self):
        # python -O strips assert statements; the certificate check must stay.
        code = (
            "import sys\n"
            "from toeplab.toeplitz import BezoutCertificate, parse_literal\n"
            "assert sys.flags.optimize, 'not running under -O'\n"
            "try:\n"
            "    BezoutCertificate(parse_literal('T8<1,4;2,5>'), (1, 1), (0, 0))\n"
            "except ValueError as exc:\n"
            "    print('ValueError:', exc)\n"
        )
        src = str(Path(toeplab.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ValueError: certificate does not reach the gcd"

    def test_deterministic(self):
        spec = parse_literal("T9<2,3,7;1,4,8>")
        first = bezout_certificate(spec)
        second = bezout_certificate(spec)
        assert first.forward_coeffs == second.forward_coeffs
        assert first.backward_coeffs == second.backward_coeffs

import argparse
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import toeplab
from toeplab import cli
from toeplab.cli import (
    EXIT_BAD_FORMAT,
    EXIT_BROKEN_PIPE,
    EXIT_BAD_SPEC,
    EXIT_BUDGET,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from toeplab.compgraph import m_step_graph
from toeplab.toeplitz import build_matrix, pair_sum_gcd, parse_literal, validate_spec
from toeplab import spectra, verify
from toeplab.verify import MAX_SWEEP_N

import oracles
from generic import competition_table, power_table

PSETS_PIN = "7375ccd26c478dde6d021b78faa3d8394334790693e981f293aa4c19f74599a2"
GRAPH_PIN = "6ba9b8d67ce12fa0a0b027f00e4ffc52b5d142bc36dfe206ae1e1faea34a04eb"
GRAPH_WIDE_PIN = "2468a8893706b45abafce41a4514b9ef250b5f94f462c0afc0b4f8b2535c78c0"
MATRIX_PIN = "9b2a9ae7ac9ccbaabf1a8933a5bb4a367cfdf5b24d8c2d70f9edefaa64e17e6d"

ROOT = Path(__file__).resolve().parents[1]


# int() reads each of these as a number: Arabic-Indic two, three and seven,
# a fullwidth three, a digit group separator and an explicit plus sign.
NOT_ASCII_INTEGERS = ("\u0662", "\u0663", "\u0667", "\uff13", "1_0", "+3")


class CountingStdout:
    """A stdout that counts its write calls."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return len(text)

    def flush(self):
        pass


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_text_matrix(self, capsys):
        code, out, _ = run(capsys, "build", "T2<1;1>")
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["2", "01", "10"]

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "build", "T8<1,4;2,5>", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        a = build_matrix(parse_literal("T8<1,4;2,5>"))
        assert payload["matrix"] == {"n": 8, "rows": oracles.row_strings(8, a.rows)}
        assert payload["matrix"]["rows"][0] == "01001000"
        assert payload["spec"] == {"n": 8, "S": [1, 4], "T": [2, 5]}

    def test_dot_matches_figure_arcs(self, capsys):
        code, out, _ = run(capsys, "build", "T6<2,4;4,5>", "--format", "dot")
        assert code == EXIT_OK
        arcs = set()
        for line in out.splitlines():
            if "->" in line:
                left, rest = line.strip().split("->")
                arcs.add((int(left), int(rest.split("[")[0])))
        assert arcs == {(1, 3), (1, 5), (2, 4), (2, 6), (3, 5), (4, 6), (5, 1), (6, 2), (6, 1)}


def test_matrix_output_bytes_pinned(capsys):
    # Output of the commands that print a matrix: build in every format,
    # power --m in text and JSON at a few m, competition in text and JSON,
    # with the exit codes, for every instance with n <= 5 and three larger
    # ones, hashed together.
    literals = [spec.literal for spec in verify.enumerate_specs(5, False)]
    literals += ["T74<6,21;1,13,21>", "T200<3,7;5>", "T3<2;2>"]
    digest = hashlib.sha256()
    for literal in literals:
        calls = [("build", literal, "--format", fmt) for fmt in ("text", "json", "dot")]
        calls += [
            ("power", literal, "--m", str(m), "--format", fmt)
            for m in (0, 1, 2, 3, 7, 40)
            for fmt in ("text", "json")
        ]
        calls += [("competition", literal, "--format", fmt) for fmt in ("text", "json")]
        for argv in calls:
            code, out, err = run(capsys, *argv)
            assert err == "", argv
            digest.update(f"{' '.join(argv)} {code}\n{out}".encode())
    assert digest.hexdigest() == MATRIX_PIN


class TestPower:
    def test_matches_boolmatrix_power(self, capsys):
        for literal in ("T2<1;1>", "T5<2;4>", "T6<2,3,4;5>", "T8<1,4;2,5>", "T13<2,5;3>"):
            a = build_matrix(parse_literal(literal))
            for m in range(6):
                code, out, _ = run(capsys, "power", literal, "--m", str(m))
                assert code == EXIT_OK
                rows = a.power(m).rows
                assert out == oracles.matrix_text(a.n, rows) + "\n", (literal, m)
                code, out, _ = run(capsys, "power", literal, "--m", str(m), "--format", "json")
                expected = {"n": a.n, "rows": oracles.row_strings(a.n, rows)}
                assert json.loads(out)["matrix"] == expected, (literal, m)

    def test_huge_exponent_read_off_the_cycle(self, capsys):
        # The powers of T5<2;4> cycle with index 2 and period 3, and
        # 10**200 = 4 (mod 3).
        code, out, _ = run(capsys, "power", "T5<2;4>", "--m", str(10**200))
        assert code == EXIT_OK
        assert out.split() == ["5", "00100", "00000", "00001", "00000", "10000"]
        a4 = build_matrix(parse_literal("T5<2;4>")).power(4)
        assert out == oracles.matrix_text(5, a4.rows) + "\n"

    def test_small_m_on_a_tail_past_the_budget(self, capsys):
        # A Wielandt-type digraph: its power index, 199^2 + 1, is past
        # spectra.STEP_BUDGET, so the scan has to stop at A^m.
        literal = "T200<1;198,199>"
        a = build_matrix(parse_literal(literal))
        code, out, _ = run(capsys, "power", literal, "--m", "2")
        assert code == EXIT_OK
        assert out == oracles.matrix_text(200, a.power(2).rows) + "\n"
        code, out, _ = run(capsys, "graph", literal, "--m", "2", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["graph"] == json.loads(json.dumps(m_step_graph(a, 2).to_json_dict()))


class TestPeriod:
    def test_running_example_line(self, capsys):
        code, out, _ = run(capsys, "period", "T8<1,4;2,5>")
        assert code == EXIT_OK
        assert out.strip() == "period=3 predicted=3 (d=3, d'=1)"

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "period", "T5<2;4>", "--format", "json")
        payload = json.loads(out)
        assert payload["period"] == 3 and payload["predicted"] == 3
        assert payload["conditions_hold"] is False


class TestCompetition:
    def test_running_example(self, capsys):
        code, out, _ = run(capsys, "competition", "T8<1,4;2,5>", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["period"] == 1
        assert payload["block_match"] is True
        assert payload["classes"] == [[1, 4, 7], [2, 5, 8], [3, 6]]

    def test_text_mentions_both_views(self, capsys):
        code, out, _ = run(capsys, "competition", "T8<1,4;2,5>")
        assert "union of cliques" in out and "all-ones blocks" in out

    def test_gcd_above_n_lists_singleton_classes(self, capsys):
        # d = 2 + 2 = 4 exceeds n = 3: every residue class is one vertex.
        code, out, _ = run(capsys, "competition", "T3<2;2>", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["d"] == 4 and payload["period"] == 1
        assert payload["classes"] == [[1], [2], [3]]
        code, out, _ = run(capsys, "competition", "T3<2;2>")
        assert code == EXIT_OK
        assert "classes: {1} {2} {3}" in out


class TestGraph:
    def test_edges_sorted_lexicographically(self, capsys):
        code, out, _ = run(capsys, "graph", "T8<1,4;2,5>", "--m", "3", "--format", "json")
        payload = json.loads(out)
        edges = payload["graph"]["edges"]
        assert edges == sorted(edges)
        assert all(u < v for u, v in edges)

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "graph", "T3<1;2>", "--m", "2", "--format", "dot")
        assert code == EXIT_OK and out.startswith("graph")

    def test_output_bytes_pinned(self, capsys):
        # Text, dot and JSON output of `graph --m`, with the exit codes, for
        # every instance with n <= 5 at a few m and for three dense graphs
        # with n 74-76, hashed together.
        queries = [
            (spec.literal, m) for spec in verify.enumerate_specs(5, False) for m in (1, 2, 3, 7)
        ]
        queries += [
            (literal, m)
            for literal in ("T74<6,21;1,13,21>", "T75<5;11,12,13>", "T76<12,22,24;6,24>")
            for m in (3, 6)
        ]
        digest = hashlib.sha256()
        for literal, m in queries:
            for fmt in ("text", "dot", "json"):
                code, out, err = run(capsys, "graph", literal, "--m", str(m), "--format", fmt)
                assert err == "", (literal, m, fmt)
                digest.update(f"{literal} {m} {fmt} {code}\n{out}".encode())
        assert digest.hexdigest() == GRAPH_PIN

    def test_wide_output_bytes_pinned(self, capsys):
        # Text, dot and JSON output of `graph --m` at sizes from
        # packed.ROW_BYTES_FROM on, where Geometry.rows slices the rows out
        # of the matrix's bytes: two sparse graphs, a denser one, and two
        # empty ones, hashed together.
        queries = [
            ("T150<1;2>", 1),
            ("T150<1;2>", 3),
            ("T400<3,7;5>", 2),
            ("T150<149;149>", 1),
            ("T512<1;511>", 1),
        ]
        digest = hashlib.sha256()
        for literal, m in queries:
            for fmt in ("text", "dot", "json"):
                code, out, err = run(capsys, "graph", literal, "--m", str(m), "--format", fmt)
                assert err == "", (literal, m, fmt)
                digest.update(f"{literal} {m} {fmt} {code}\n{out}".encode())
        assert digest.hexdigest() == GRAPH_WIDE_PIN

    def test_dense_graph_written_in_at_most_two_writes(self, monkeypatch):
        # 2,698 edges: one print of the whole text, not one per edge.
        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        for fmt in ("text", "dot", "json"):
            stdout.writes = 0
            assert main(["graph", "T74<6,21;1,13,21>", "--m", "3", "--format", fmt]) == EXIT_OK
            assert stdout.writes <= 2, fmt


class TestPsets:
    def test_i_on_a_tail_past_the_budget(self, capsys):
        # The power index of T200<1;198,199> is past spectra.STEP_BUDGET;
        # --i 2 needs A^1 and A^2 only.
        spec = parse_literal("T200<1;198,199>")
        n, fwd, bwd = spec.n, spec.forward_steps, spec.backward_steps
        code, out, _ = run(capsys, "psets", spec.literal, "--i", "2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["P"] == sorted(oracles.naive_congruent_offsets(n, fwd, bwd, 2))
        assert payload["Q"] == sorted(oracles.combination_offsets(n, fwd, bwd, 2))
        a2 = build_matrix(spec).power(2)
        assert payload["R"] == sorted(oracles.full_diagonal_offsets(n, a2.rows))

    def test_step_three_sets(self, capsys):
        code, out, _ = run(capsys, "psets", "T8<1,4;2,5>", "--i", "3")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "P={-6,-3,0,3,6}",
            "Q={-6,-3,0,3,6}",
            "R={-6,-3,0,3,6}",
        ]

    def test_step_three_json(self, capsys):
        code, out, _ = run(capsys, "psets", "T8<1,4;2,5>", "--i", "3", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out) == {
            "spec": "T8<1,4;2,5>",
            "i": 3,
            "P": [-6, -3, 0, 3, 6],
            "Q": [-6, -3, 0, 3, 6],
            "R": [-6, -3, 0, 3, 6],
        }

    def test_output_bytes_pinned(self, capsys):
        # Text and JSON output of `psets --i` for every instance with n <= 5
        # at a few step counts, and for three literals at every step count
        # up to 40, hashed together.  No other test covers psets output
        # across instances, so any byte change to it has to update the pin.
        queries = [
            (spec.literal, i)
            for spec in verify.enumerate_specs(5, False)
            for i in (1, 2, 3, 7, 40)
        ]
        queries += [
            (literal, i)
            for literal in ("T8<1,4;2,5>", "T6<2,4;4,5>", "T5<2;4>")
            for i in range(1, 41)
        ]
        digest = hashlib.sha256()
        for literal, i in queries:
            for fmt in ("text", "json"):
                code, out, err = run(capsys, "psets", literal, "--i", str(i), "--format", fmt)
                assert code == EXIT_OK and err == "", (literal, i, fmt)
                digest.update(f"{literal} {i} {fmt}\n{out}".encode())
        assert digest.hexdigest() == PSETS_PIN

    def test_stabilize(self, capsys):
        code, out, _ = run(capsys, "psets", "T8<1,4;2,5>", "--stabilize", "--format", "json")
        payload = json.loads(out)
        assert payload["m_emp"] == 2 and payload["certified"] is True

    def test_requires_mode(self, capsys):
        code, _, err = run(capsys, "psets", "T8<1,4;2,5>")
        assert code == 2
        assert "provide --i or --stabilize" in err


class TestWalk:
    def test_narrative_walk(self, capsys):
        code, out, _ = run(
            capsys, "walk", "T8<1,4;2,5>", "--start", "7", "--counts", "s2=5,t2=6",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        kinds = [(a["kind"], a["index"]) for a in payload["walk"]["arcs"]]
        assert kinds.count(("s", 2)) == 5 and kinds.count(("t", 2)) == 6

    def test_exact_walk(self, capsys):
        code, out, _ = run(
            capsys, "walk", "T8<1,4;2,5>", "--start", "1", "--exact", "--s1", "3", "--t1", "0",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["walk"]["vertices"] == [1, 2, 3, 4]

    def test_impossible_walk_fails(self, capsys):
        code, _, err = run(capsys, "walk", "T6<2,4;4,5>", "--start", "1", "--counts", "t2=1")
        assert code == EXIT_FAILURE
        assert "error:" in err

    def test_malformed_counts(self, capsys):
        code, _, err = run(capsys, "walk", "T8<1,4;2,5>", "--start", "1", "--counts", "x9")
        assert code == 2
        # ASCII digits only, no underscores or signs but a minus on the
        # count, and each index named once.
        for counts in ("s\u0662=\u0661", "s2=1_0", "s2= +3", "s2=+3", "s2=1,s2=2", "s02=1,s2=1"):
            code, out, err = run(capsys, "walk", "T8<1,4;2,5>", "--start", "1", "--counts", counts)
            assert code == EXIT_USAGE and out == "", counts
            assert err.startswith("error: "), counts

    def test_scheduling_failure_names_counts_not_steps(self, capsys):
        code, out, err = run(
            capsys, "walk", "T10<6;5>", "--start", "1", "--exact", "--s1", "5000", "--t1", "6000"
        )
        assert code == EXIT_FAILURE and out == ""
        assert err == "error: no ordering of 5000 x +6, 6000 x -5 from 1 stays inside [1, 10]\n"


class TestBoundAndCertificate:
    def test_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "T8<1,4;2,5>", "--format", "json")
        payload = json.loads(out)
        assert payload["bound"] == 30 and payload["irreducibility_hypothesis"] is True

    def test_certificate(self, capsys):
        code, out, _ = run(capsys, "certificate", "T8<1,4;2,5>", "--format", "json")
        payload = json.loads(out)
        a, b = payload["forward_coeffs"], payload["backward_coeffs"]
        assert a[0] * 1 + a[1] * 4 - b[0] * 2 - b[1] * 5 == 3
        assert sum(a) + sum(b) == 0


class TestVerifyCommand:
    def test_small_sweep_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--nmax", "4", "--all", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["instances"] == 59
        assert payload["violations"] == []

    def test_jsonl_streams_instances(self, capsys):
        code, out, _ = run(capsys, "verify", "--nmax", "3", "--all", "--format", "jsonl")
        lines = out.strip().splitlines()
        assert code == EXIT_OK and len(lines) == 10
        assert json.loads(lines[0])["spec"] == "T2<1;1>"

    def test_progress_goes_to_stderr(self, capsys):
        code, out, err = run(
            capsys, "verify", "--nmax", "4", "--all", "--format", "jsonl", "--progress", "1"
        )
        lines = out.splitlines()
        assert code == EXIT_OK and len(lines) == 59
        assert all(isinstance(json.loads(line), dict) for line in lines)
        assert err.splitlines()[-1].strip() == "... 59 instances"

    def test_two_workers_write_the_same_bytes(self, capsys, monkeypatch):
        # A real two-process pool, whatever the CPU count.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for fmt in ("jsonl", "json"):
            argv = ("verify", "--nmax", "5", "--all", "--format", fmt, "--jobs")
            serial, pooled = run(capsys, *argv, "1"), run(capsys, *argv, "2")
            assert serial[0] == pooled[0] == EXIT_OK
            assert pooled[1] == serial[1], fmt

    def test_progress_lines_independent_of_jobs(self, capsys, pool_sizes):
        # 284 instances; multiples of 7 fall inside rows of 15 at n = 5.
        argv = ("verify", "--nmax", "5", "--all", "--format", "jsonl", "--progress", "7", "--jobs")
        code, out, err = run(capsys, *argv, "1")
        assert code == EXIT_OK
        expected = [f"... {k} instances" for k in range(7, 284, 7)] + ["... 284 instances"]
        assert [line.strip() for line in err.splitlines()] == expected
        assert all(isinstance(json.loads(line), dict) for line in out.splitlines())
        assert run(capsys, *argv, "2") == (code, out, err)
        assert pool_sizes == [2]

    def test_jobs_default_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("TOEPLAB_JOBS", "2")
        code, out, _ = run(capsys, "verify", "--nmax", "3", "--all", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["instances"] == 10


class TestExamplesCommand:
    def test_all_goldens_match(self, capsys):
        code, out, _ = run(capsys, "examples")
        assert code == EXIT_OK
        assert "MISMATCH" not in out
        assert out.strip().endswith("goldens match")

    def test_all_goldens_match_under_optimize(self):
        # python -O strips assert statements; every golden must still match.
        src = str(Path(toeplab.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-O", "-m", "toeplab.cli", "examples"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == EXIT_OK, result.stdout + result.stderr
        assert "MISMATCH" not in result.stdout
        assert result.stdout.strip().endswith("17/17 goldens match")

    def test_goldens_load_only_for_examples(self):
        # A fresh interpreter answers a query without importing the goldens,
        # and the examples command still imports and runs all of them.
        src = str(Path(toeplab.__file__).resolve().parent.parent)
        code = (
            "import sys\n"
            "import toeplab.cli as cli\n"
            "cli.main(['bound', 'T8<1,4;2,5>'])\n"
            "print('toeplab.goldens' in sys.modules)\n"
            "code = cli.main(['examples'])\n"
            "print('toeplab.goldens' in sys.modules)\n"
            "sys.exit(code)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == EXIT_OK, result.stderr
        lines = result.stdout.splitlines()
        assert lines[1] == "False" and lines[-1] == "True", result.stdout
        assert lines[-2] == "17/17 goldens match"


class TestExitCodes:
    def test_bad_literal(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "period", "T8[1;2]")
        assert exc.value.code == EXIT_BAD_SPEC

    def test_non_ascii_digit_is_bad_literal(self, capsys):
        # An Arabic-Indic and a fullwidth eight are not n = 8.
        for literal in ("T\u0668<1,4;2,5>", "T\uff18<1,4;2,5>"):
            with pytest.raises(SystemExit) as exc:
                run(capsys, "period", literal)
            assert exc.value.code == EXIT_BAD_SPEC == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: malformed instance literal")

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "period", "T2<1;1>", "--bogus")
        assert exc.value.code == 2

    def test_inapplicable_format_distinct(self, capsys):
        code, _, err = run(capsys, "period", "T2<1;1>", "--format", "dot")
        assert code == EXIT_BAD_FORMAT
        assert "does not apply" in err

    def test_scan_over_budget(self, capsys, monkeypatch):
        # The power index of T150<1;2> is 147.  power and graph stop at term
        # m when it comes before the first repeat, so their m is past the
        # budget.
        monkeypatch.setattr(spectra, "STEP_BUDGET", 10)
        for argv in (
            ("power", "T150<1;2>", "--m", "11"),
            ("period", "T150<1;2>"),
            ("competition", "T150<1;2>"),
            ("graph", "T150<1;2>", "--m", "11"),
            ("psets", "T150<1;2>", "--stabilize"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_BUDGET and out == "", argv
            assert err.startswith("error: ") and "10 steps" in err, argv

    def test_horizon_over_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(spectra, "STEP_BUDGET", 10)
        code, _, err = run(capsys, "psets", "T8<1,4;2,5>", "--stabilize", "--horizon", "11")
        assert code == EXIT_BUDGET and "horizon 11" in err
        assert run(capsys, "psets", "T8<1,4;2,5>", "--stabilize", "--horizon", "10")[0] == EXIT_OK

    def test_psets_i_over_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(spectra, "STEP_BUDGET", 10)
        code, out, err = run(capsys, "psets", "T8<1,4;2,5>", "--i", "11")
        assert code == EXIT_BUDGET and out == ""
        assert err.startswith("error: ") and "--i 11" in err
        assert run(capsys, "psets", "T8<1,4;2,5>", "--i", "10")[0] == EXIT_OK

    def test_walk_over_budget(self, capsys, monkeypatch):
        # With s1 = t1 = 1 each requested arc may take n - 1 positioning
        # moves, so one request bounds the walk by n.
        monkeypatch.setattr(spectra, "STEP_BUDGET", 10)
        code, out, err = run(capsys, "walk", "T11<1,2;1>", "--start", "1", "--counts", "s2=1")
        assert code == EXIT_BUDGET and out == ""
        assert err.startswith("error: ") and "bound 11" in err
        walk = ("walk", "T10<1,2;1>", "--start", "1", "--counts", "s2=1")
        assert run(capsys, *walk)[0] == EXIT_OK
        assert run(capsys, "walk", "T10<1,2;1>", "--start", "1", "--counts", "s2=2")[0] == EXIT_BUDGET

    def test_exact_walk_over_budget(self, capsys, monkeypatch):
        # T8<1,4;2,5>: one request bounds the base walk by 1 + 7 = 8, and
        # --exact adds the --s1 and --t1 totals.
        monkeypatch.setattr(spectra, "STEP_BUDGET", 10)
        walk = ("walk", "T8<1,4;2,5>", "--start", "1", "--counts", "s2=1", "--exact", "--t1", "0")
        code, out, err = run(capsys, *walk, "--s1", "3")
        assert code == EXIT_BUDGET and out == ""
        assert err.startswith("error: ") and "bound 11" in err
        assert run(capsys, *walk, "--s1", "2")[0] == EXIT_OK

    @pytest.mark.parametrize(
        "argv",
        [
            ("build",),
            ("power", "--m", "2"),
            ("period",),
            ("competition",),
            ("graph", "--m", "1"),
            ("psets", "--i", "1"),
            ("bound",),
        ],
    )
    def test_matrix_commands_cap_n_before_building(self, capsys, monkeypatch, argv):
        class Refused(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Refused

        for name in ("ToeplitzKernel", "competition_index_bound"):
            monkeypatch.setattr(cli, name, refuse)
        cap = cli.MAX_MATRIX_N
        command, options = argv[0], argv[1:]
        with pytest.raises(Refused):  # at the cap the command goes on to build
            run(capsys, command, f"T{cap}<1;1>", *options)
        code, out, err = run(capsys, command, f"T{cap + 1}<1;1>", *options)
        assert code == EXIT_BUDGET and out == ""
        assert err.startswith("error: ") and str(cap + 1) in err and str(cap) in err

    def test_walk_and_certificate_take_any_n(self, capsys):
        big = f"T{cli.MAX_MATRIX_N + 1}<1;1>"
        assert run(capsys, "certificate", big)[0] == EXIT_OK
        assert run(capsys, "walk", big, "--start", "1", "--counts", "")[0] == EXIT_OK

    def test_walk_shortest_counts_need_exact(self, capsys):
        # Without --exact a walk took no --s1 or --t1 total and printed a
        # length-0 walk; a zero total is the default and still passes.
        for option in ("--s1", "--t1"):
            argv = ("walk", "T8<1,4;2,5>", "--start", "1", option)
            code, out, err = run(capsys, *argv, "5")
            assert (code, out) == (EXIT_USAGE, ""), option
            assert err.startswith("error: ") and option in err and "--exact" in err, option
            assert run(capsys, *argv, "0")[0] == EXIT_OK
        code, out, _ = run(capsys, "walk", "T8<1,4;2,5>", "--start", "1", "--exact", "--s1", "5")
        assert code == EXIT_OK and "length=5" in out

    def test_psets_horizon_needs_stabilize(self, capsys):
        for argv in (("--horizon", "5"), ("--i", "2", "--horizon", "5")):
            code, out, err = run(capsys, "psets", "T8<1,4;2,5>", *argv)
            assert (code, out) == (EXIT_USAGE, ""), argv
            assert err.startswith("error: ") and "--horizon goes with --stabilize" in err, argv

    def test_psets_i_and_stabilize_exclude_each_other(self, capsys):
        code, out, err = run(capsys, "psets", "T8<1,4;2,5>", "--stabilize", "--i", "2")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and "not both" in err

    def test_verify_nmax_below_2_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--nmax", "1")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and "--nmax" in err

    def test_verify_nmax_above_cap_is_usage_error_before_enumerating(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("step sets enumerated before --nmax was checked")

        monkeypatch.setattr(verify, "_subsets", refuse)
        code, out, err = run(capsys, "verify", "--nmax", str(MAX_SWEEP_N + 1))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and "--nmax" in err and str(MAX_SWEEP_N) in err

    def test_verify_progress_below_1_is_usage_error(self, capsys):
        for value in ("0", "-3"):
            code, out, err = run(capsys, "verify", "--nmax", "3", "--progress", value)
            assert code == EXIT_USAGE and out == "", value
            assert err.startswith("error: ") and "--progress" in err, value

    def test_verify_jobs_below_1_is_usage_error(self, capsys, monkeypatch):
        for value in ("0", "-5"):
            code, out, err = run(capsys, "verify", "--nmax", "3", "--jobs", value)
            assert code == EXIT_USAGE and out == "", value
            assert err.startswith("error: ") and "--jobs" in err, value
            monkeypatch.setenv("TOEPLAB_JOBS", value)
            code, out, err = run(capsys, "verify", "--nmax", "3")
            assert code == EXIT_USAGE and out == "", value
            assert err.startswith("error: ") and "TOEPLAB_JOBS" in err, value

    def test_verify_non_integer_jobs_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("TOEPLAB_JOBS", "abc")
        code, out, err = run(capsys, "verify", "--nmax", "3")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and "TOEPLAB_JOBS" in err and "'abc'" in err
        # An explicit --jobs never reads the variable.
        assert run(capsys, "verify", "--nmax", "3", "--jobs", "1")[0] == EXIT_OK

    def test_integer_options_take_ascii_digits_only(self, capsys):
        # --m -1 is an integer: main refuses it as below its least value, not
        # the parser.
        code, out, err = run(capsys, "power", "T5<2;4>", "--m", "-1")
        assert (code, out) == (EXIT_USAGE, "") and "--m must be at least 0" in err
        for argv in (
            ("power", "T5<2;4>", "--m"),
            ("graph", "T5<2;4>", "--m"),
            ("psets", "T5<2;4>", "--i"),
            ("psets", "T5<2;4>", "--stabilize", "--horizon"),
            ("walk", "T8<1,4;2,5>", "--start"),
            ("walk", "T8<1,4;2,5>", "--start", "1", "--exact", "--s1"),
            ("walk", "T8<1,4;2,5>", "--start", "1", "--exact", "--t1"),
            ("verify", "--nmax"),
            ("verify", "--nmax", "3", "--jobs"),
            ("verify", "--nmax", "3", "--progress"),
        ):
            for value in NOT_ASCII_INTEGERS:
                with pytest.raises(SystemExit) as exc:
                    run(capsys, *argv, value)
                assert exc.value.code == EXIT_USAGE, (argv, value)
                captured = capsys.readouterr()
                assert captured.out == "", (argv, value)
                assert f"argument {argv[-1]}: invalid int value: {value!r}" in captured.err

    def test_verify_jobs_env_takes_ascii_digits_only(self, capsys, monkeypatch):
        for value in NOT_ASCII_INTEGERS:
            monkeypatch.setenv("TOEPLAB_JOBS", value)
            code, out, err = run(capsys, "verify", "--nmax", "3")
            assert (code, out) == (EXIT_USAGE, ""), value
            assert err == f"error: TOEPLAB_JOBS must be an integer, got {value!r}\n"

    def test_verify_jobs_capped_at_cpu_count(self, capsys, monkeypatch, pool_sizes):
        # pool_sizes reports 2 CPUs and records each pool's worker count.
        argv = ("verify", "--nmax", "4", "--all", "--format", "json")
        serial = run(capsys, *argv)[1]
        assert run(capsys, *argv, "--jobs", "100000")[1] == serial
        monkeypatch.setenv("TOEPLAB_JOBS", "100000")
        assert run(capsys, *argv)[1] == serial
        assert pool_sizes == [2, 2]

    def test_bad_step_counts_are_usage_errors(self, capsys):
        assert run(capsys, "power", "T2<1;1>", "--m", "-1")[0] == 2
        assert run(capsys, "graph", "T2<1;1>", "--m", "0")[0] == 2
        assert run(capsys, "psets", "T2<1;1>", "--i", "0")[0] == 2
        assert run(capsys, "psets", "T2<1;1>", "--stabilize", "--horizon", "0")[0] == 2
        for argv in (
            ("--start", "9", "--counts", "s2=1"),
            ("--start", "1", "--counts", "t2=-2"),
            ("--start", "1", "--exact", "--s1", "-1", "--t1", "0"),
        ):
            code, _, err = run(capsys, "walk", "T8<1,4;2,5>", *argv)
            assert code == 2 and err.startswith("error:"), argv

    def test_closed_in_process_stream_ends_with_the_pipe_code(self, monkeypatch):
        # Like io.StringIO, the stream has no descriptor to redirect.
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["graph", "T8<1,4;2,5>", "--m", "3"]) == EXIT_BROKEN_PIPE

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "T400<3,7;5>", "--m", "40"],
            ["verify", "--nmax", "7", "--all", "--format", "jsonl"],
        ],
    )
    def test_closed_pipe_ends_without_traceback(self, argv):
        # Each output is far larger than a pipe's buffer, so the command is
        # still writing when the reader closes its end after one line.
        src = str(Path(toeplab.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "toeplab.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read().decode()
        finally:
            proc.kill()
            proc.stderr.close()
        assert code == EXIT_BROKEN_PIPE, err
        assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_packed_commands_match_generic_path(capsys):
    """period, competition and graph run on the packed kernel; the generic
    BoolMatrix path is the reference."""
    rng = random.Random(20260301)
    specs = [validate_spec(6, (2, 3, 4), (5,)), validate_spec(7, (3, 4), (5,))]  # cycling
    for _ in range(30):
        n = rng.randint(2, 30)
        fwd = rng.sample(range(1, n), rng.randint(1, min(3, n - 1)))
        bwd = rng.sample(range(1, n), rng.randint(1, min(3, n - 1)))
        specs.append(validate_spec(n, fwd, bwd))
    for spec in specs:
        n = spec.n
        A = build_matrix(spec)
        d = pair_sum_gcd(spec)

        payload = json.loads(run(capsys, "period", spec.literal, "--format", "json")[1])
        tail = power_table(A)[0]
        assert (payload["index"], payload["period"]) == (tail.index, tail.period), spec.literal

        payload = json.loads(run(capsys, "competition", spec.literal, "--format", "json")[1])
        ctail, bs = competition_table(A)
        assert (payload["index"], payload["period"]) == (ctail.index, ctail.period), spec.literal
        if ctail.period == 1:
            limit = bs[ctail.index - 1]
            expected = {"n": n, "rows": oracles.row_strings(n, limit.rows)}
            assert payload["limit"] == expected, spec.literal
            expected = [sum(1 << c for c in range(n) if (r - c) % d == 0) for r in range(n)]
            assert payload["block_match"] == (limit.rows == tuple(expected)), spec.literal
            classes = [list(range(r, n + 1, d)) for r in range(1, min(d, n) + 1)]
            assert payload["classes"] == classes, spec.literal
        else:
            assert payload["limit"] is None, spec.literal

        for m in (1, 2, 3, 4, 1000):  # 1000 is read off the cycle
            code, out, _ = run(capsys, "graph", spec.literal, "--m", str(m), "--format", "json")
            assert code == EXIT_OK
            expected = json.loads(json.dumps(m_step_graph(A, m).to_json_dict()))
            assert json.loads(out)["graph"] == expected, spec.literal


def test_cli_pool_matches_its_frozen_digests(capsys):
    # perfbench/reference.json freezes every query of the benchmark's
    # cli_queries pool, 40 per kind, as sha256 of the exit code, a newline
    # and stdout (perfbench/gate.py output_digest); replay them all.
    pool = json.loads((ROOT / "perfbench" / "reference.json").read_text())["cli_pool"]
    assert len(pool) == 8
    replayed, mismatched = 0, []
    for queries in pool.values():
        for query in queries:
            code, out, _ = run(capsys, *query["argv"])
            replayed += 1
            if hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() != query["digest"]:
                mismatched.append(" ".join(query["argv"]))
    assert replayed == 320
    assert mismatched == []


def test_readme_cli_block_runs(capsys, pool_sizes):
    # Every line of README's CLI block exits 0, and the period line prints
    # the output its comment shows.
    block = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("```\n")[1]
    lines = block.splitlines()
    assert len(lines) == 15
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        assert program == "toeplab", line
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK, (line, err)
        if argv[0] == "period":
            assert out == line.split("# ", 1)[1] + "\n"


def test_python_calls_per_query(capsys):
    # A warm query's fixed cost: count the Python-level calls (profiler
    # "call" events; builtins and methods written in C make none) of one
    # query once the parser and the size's tables are built: only the
    # command's own parser parses, and only the asked-for form renders.
    # The graph forms are written one join per row: a Python call per row
    # or per edge would put T74's bounds out of reach.
    bounds = {
        ("period", "T40<3,7;5>"): 75,
        ("competition", "T40<3,7;5>", "--format", "json"): 100,
        ("bound", "T40<3,7;5>"): 70,
        ("graph", "T40<3,7;5>", "--m", "2"): 80,
    }
    for fmt in ("text", "json", "dot"):
        bounds["graph", "T74<6,21;1,13,21>", "--m", "3", "--format", fmt] = 90
    for argv, bound in bounds.items():
        argv = list(argv)
        assert main(argv) == EXIT_OK
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            main(argv)
        finally:
            sys.setprofile(None)
        capsys.readouterr()
        assert calls <= bound, (argv, calls)


def test_one_pair_sum_gcd_per_query(capsys):
    # period derives its prediction from the d it holds, and certificate
    # reads d off the certificate that checked it: one gcd over the pair
    # sums per warm query (profiler "call" events of pair_sum_gcd).
    code = pair_sum_gcd.__code__
    for command in ("period", "certificate"):
        argv = [command, "T40<3,7;5>"]
        assert main(argv) == EXIT_OK
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call" and frame.f_code is code

        sys.setprofile(count)
        try:
            main(argv)
        finally:
            sys.setprofile(None)
        capsys.readouterr()
        assert calls == 1, (argv, calls)


# Pairs of calls whose second member would go wrong if the first one left
# state in a reused parser: opposite flags, other formats, other modes.
_REUSE_EPISODES = (
    (("build", "T6<2,4;4,5>", "--format", "dot"), ("build", "T6<2,4;4,5>")),
    (("power", "T5<2;4>", "--m", "3", "--format", "json"), ("power", "T5<2;4>", "--m", "2")),
    (("period", "T8<1,4;2,5>", "--format", "json"), ("period", "T5<2;4>")),
    (("competition", "T8<1,4;2,5>", "--format", "json"), ("competition", "T7<3,4;5>")),
    (("graph", "T8<1,4;2,5>", "--m", "3", "--format", "dot"), ("graph", "T3<1;2>", "--m", "2")),
    (("psets", "T8<1,4;2,5>", "--stabilize", "--horizon", "12"), ("psets", "T8<1,4;2,5>", "--i", "3")),
    (
        ("psets", "T6<2,3,4;5>", "--stabilize", "--format", "json"),
        ("psets", "T6<2,3,4;5>", "--i", "4", "--format", "json"),
    ),
    (
        ("walk", "T8<1,4;2,5>", "--start", "1", "--exact", "--s1", "3", "--t1", "0"),
        ("walk", "T8<1,4;2,5>", "--start", "7", "--counts", "s2=5,t2=6"),
    ),
    (
        ("walk", "T8<1,4;2,5>", "--start", "2", "--counts", "s2=1", "--format", "json"),
        ("walk", "T6<2,4;4,5>", "--start", "1", "--counts", "t2=1"),
    ),
    (("bound", "T8<1,4;2,5>", "--format", "json"), ("bound", "T6<2,4;4,5>")),
    (("certificate", "T9<2,3,7;1,4,8>", "--format", "json"), ("certificate", "T8<1,4;2,5>")),
    (("verify", "--nmax", "3", "--all", "--format", "json"), ("verify", "--nmax", "3")),
    (("examples",), ("period", "T2<1;1>")),
    (("period", "T2<1;1>", "--bogus"), ("period", "T2<1;1>")),
    (("--help",), ("certificate", "T2<1;1>")),
    (("walk", "--help"), ("walk", "T8<1,4;2,5>", "--start", "3")),
    (("period", "T8[1;2]"), ("period", "T8<1,4;2,5>", "--format", "json")),
    (("graph", "T2<1;1>", "--m", "1", "--format", "jsonl"), ("graph", "T2<1;1>", "--m", "1")),
    (("psets", "T8<1,4;2,5>"), ("psets", "T8<1,4;2,5>", "--stabilize")),
    (("walk", "T8<1,4;2,5>", "--start", "1", "--counts", "x9"), ("bound", "T5<2;4>")),
)


# Argv that no command parser sees, or whose command parser leaves some of
# it over or stops with a usage error, and argv that are not canonical:
# main hands all of these to argparse.
_DISPATCH_EXTRAS = (
    (),
    ("nosuch",),
    ("--bogus", "period", "T2<1;1>"),
    ("period",),
    ("period", "T2<1;1>", "extra"),
    ("graph", "T3<1;2>", "--m", "x"),
    *(
        (command, "-h")
        for command in (
            "build", "power", "period", "competition", "graph", "psets",
            "walk", "bound", "certificate", "verify", "examples",
        )
    ),
    ("period", "T2<1;1>", "--form", "json"),
    ("walk", "T8<1,4;2,5>", "--st", "3"),
    ("period", "T2<1;1>", "--format=json"),
    ("power", "T5<2;4>", "--m", "2", "--m", "3"),
    ("psets", "T8<1,4;2,5>", "--stabilize", "--stabilize"),
    ("power", "--m", "3", "T5<2;4>"),
    ("power", "T5<2;4>", "--m", "-1"),
    ("period", "--", "T2<1;1>"),
    ("power", "T5<2;4>", "--m"),
    ("walk", "T8<1,4;2,5>", "--start", "1", "--counts"),
    ("walk", "T8<1,4;2,5>", "--start", "one"),
    ("walk", "T8<1,4;2,5>", "--start", "\u0667"),
    ("period", "T2<1;1>", "--format", "xml"),
    ("period", "T2<1;1>", "T2<1;1>"),
    ("verify", "T2<1;1>", "--nmax", "3"),
    ("examples", "--format", "json"),
    ("verify", "--nmax", "3", "--all", "1"),
    ("examples", "extra"),
)

# Canonical argv that exit 0: one per command, and every option of
# walk --exact, psets --stabilize, graph and verify.
_CANONICAL = (
    ("build", "T6<2,4;4,5>", "--format", "dot"),
    ("power", "T5<2;4>", "--m", "3", "--format", "json"),
    ("period", "T8<1,4;2,5>"),
    ("competition", "T7<3,4;5>", "--format", "json"),
    ("graph", "T8<1,4;2,5>", "--m", "3", "--format", "dot"),
    ("psets", "T8<1,4;2,5>", "--i", "3"),
    ("psets", "T8<1,4;2,5>", "--stabilize", "--horizon", "12", "--format", "json"),
    ("walk", "T8<1,4;2,5>", "--start", "7", "--counts", "s2=5,t2=6"),
    (
        "walk", "T8<1,4;2,5>", "--start", "1", "--counts", "s2=1", "--exact",
        "--s1", "3", "--t1", "1", "--format", "json",
    ),
    ("bound", "T8<1,4;2,5>"),
    ("certificate", "T9<2,3,7;1,4,8>", "--format", "json"),
    ("verify", "--nmax", "4", "--all", "--jobs", "1", "--progress", "50", "--format", "jsonl"),
    ("examples",),
)


def _outcome(capsys, call):
    """What call returns (or ("exit", code) on SystemExit), and what it
    printed to stdout and stderr."""
    try:
        value = call()
    except SystemExit as exc:
        value = ("exit", exc.code)
    captured = capsys.readouterr()
    return value, captured.out, captured.err


def _run_sequence(capsys, sequence):
    return [_outcome(capsys, lambda: main(list(argv))) for argv in sequence]


class TestParserReuse:
    def test_reused_parser_matches_fresh_parsers(self, capsys, monkeypatch):
        episodes = list(_REUSE_EPISODES)
        random.Random(4).shuffle(episodes)
        sequence = [argv for episode in episodes for argv in episode]
        assert {argv[0] for argv in sequence} - {"--help"} == {
            "build", "power", "period", "competition", "graph", "psets",
            "walk", "bound", "certificate", "verify", "examples",
        }
        reused = _run_sequence(capsys, sequence)
        fresh = []
        for argv in sequence:
            # The call alone: its one pass reads flag tables no other call has.
            tables = {name: cli._flag_table(c) for name, c in cli.COMMANDS.items()}
            monkeypatch.setattr(cli, "_FLAG_TABLES", tables)
            fresh += _run_sequence(capsys, [argv])
        for argv, got, want in zip(sequence, reused, fresh):
            assert got == want, argv
        # The sequence exercises usage errors, help and every exit path.
        codes = {code for code, _, _ in fresh}
        assert {EXIT_OK, EXIT_FAILURE, 2, EXIT_BAD_FORMAT, ("exit", 0), ("exit", 2)} <= codes
        assert ("exit", EXIT_BAD_SPEC) in codes

    def test_dispatch_matches_the_full_parse(self, capsys, monkeypatch):
        # Every declared command records the namespace it is called with
        # instead of running; main and parse_args read the same declarations.
        seen = []
        for name, command in list(cli.COMMANDS.items()):
            record = command._replace(fn=lambda args: seen.append(args) or EXIT_OK)
            monkeypatch.setitem(cli.COMMANDS, name, record)
        parser = cli.build_parser()
        argvs = [argv for episode in _REUSE_EPISODES for argv in episode]
        argvs += _DISPATCH_EXTRAS
        exits = []
        below_least = []
        for argv in argvs:
            got = _outcome(capsys, lambda: main(list(argv)))
            want = _outcome(capsys, lambda: parser.parse_args(list(argv)))
            args = want[0]
            if not isinstance(args, argparse.Namespace):
                # A usage error or help: same text, same exit code.
                assert got == want, argv
                exits.append(args[1])
                continue
            command = cli.COMMANDS[args.command]
            # main refuses an integer below its option's declared least value.
            low = [
                (flag, least)
                for flag, _, _, least, _ in command.options
                if least is not None and (value := getattr(args, flag[2:])) is not None
                and value < least
            ]
            allowed = command.formats
            if allowed is not None and args.format not in allowed:
                assert got[0] == EXIT_BAD_FORMAT and not seen, argv
            elif low:
                flag, least = low[0]
                assert got == (EXIT_USAGE, "", f"error: {flag} must be at least {least}\n"), argv
                assert not seen, argv
                below_least.append(argv)
            else:
                assert got == (EXIT_OK, "", "") and seen.pop() == args, argv
        assert seen == []
        assert below_least == [("power", "T5<2;4>", "--m", "-1")]
        # --help, walk --help and each command's -h; 17 usage errors.
        assert sorted(exits) == [0] * 13 + [EXIT_USAGE] * 17

    def test_canonical_argv_skip_argparse(self, capsys, monkeypatch):
        # Handing a canonical argv to argparse gives the same output, only
        # slower: here no parser can be built.
        want = _run_sequence(capsys, _CANONICAL)
        assert {code for code, _, _ in want} == {EXIT_OK}
        assert {argv[0] for argv in _CANONICAL} == set(cli.COMMANDS)

        def refuse():
            raise AssertionError("argparse parsed a canonical argv")

        monkeypatch.setattr(cli, "build_parser", refuse)
        got = _run_sequence(capsys, _CANONICAL)
        for argv, outcome, expected in zip(_CANONICAL, got, want):
            assert outcome == expected, argv

    def test_import_builds_no_parser(self, capsys):
        # A fresh interpreter in which no ArgumentParser can be made imports
        # the CLI and answers a canonical query as an unpatched one does.
        argv = ["bound", "T8<1,4;2,5>"]
        assert main(list(argv)) == EXIT_OK
        want = capsys.readouterr().out
        src = str(Path(toeplab.__file__).resolve().parent.parent)
        code = (
            "import argparse, sys\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('an ArgumentParser was built')\n"
            "argparse.ArgumentParser.__init__ = refuse\n"
            "import toeplab.cli as cli\n"
            f"sys.exit(cli.main({argv!r}))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == EXIT_OK, result.stderr
        assert result.stdout == want

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

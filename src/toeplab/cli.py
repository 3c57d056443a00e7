"""Command-line surface.

Every subcommand takes the instance literal "T<n><s1,..;t1,..>" (for
example "T8<1,4;2,5>") and exposes one operation for scripting.  Exit
codes: 0 ok, 1 computation failed (e.g. impossible walk, golden
mismatch), 2 usage error, 3 malformed instance literal, 4 format not
applicable to the subcommand, 5 verification violations, 6 a sequence scan,
step count or walk length exceeded the step budget, or n exceeded
MAX_MATRIX_N in a command that builds an n x n matrix, 141 (128 + SIGPIPE,
as a shell reports a command a closed pipe killed) stdout was closed before
all output was written (`| head`, say): the command writes nothing more and
prints no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from math import gcd
from typing import Callable, NamedTuple

from .compgraph import digraph_dot, dot_from_rows, json_from_rows, text_from_rows
from .packed import MAX_MATRIX_N, ToeplitzKernel, members
from .spectra import (
    BudgetExceeded,
    competition_table,
    power_from_table,
    power_table,
    residue_classes,
)
from .toeplitz import (
    ToeplitzSpec,
    bezout_certificate,
    pair_sum_gcd,
    parse_literal,
)
from .verify import DEFAULT_STEP_BUDGET, MAX_SWEEP_N, sweep
from .walks import (
    SchedulingFailure,
    WalkConstructionError,
    bound_hypothesis_holds,
    build_walk_with_counts,
    competition_index_bound,
    extend_walk_exact,
    step_set_run,
    step_set_stabilization,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BAD_SPEC = 3
EXIT_BAD_FORMAT = 4
EXIT_VIOLATIONS = 5
EXIT_BUDGET = 6
EXIT_BROKEN_PIPE = 141


_ALL_FORMATS = ("text", "json", "dot", "jsonl")


def _integer(text: str) -> int:
    """The `type` of every integer option, and the reader of $TOEPLAB_JOBS:
    ASCII -?[0-9]+.  int() alone would also take other Unicode decimal
    digits, "_" and "+"."""
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_spec(text: str, matrix: bool = True) -> ToeplitzSpec:
    try:
        spec = parse_literal(text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_SPEC)
    if matrix and spec.n > MAX_MATRIX_N:
        raise BudgetExceeded(
            f"n = {spec.n} exceeds {MAX_MATRIX_N}, the largest n this command builds a matrix for"
        )
    return spec


def _emit(payload: dict, fmt: str, text_lines):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(text_lines))


def _cmd_build(args) -> int:
    spec = _parse_spec(args.spec)
    kernel = ToeplitzKernel(spec)
    g, a = kernel.geometry, kernel.adjacency
    if args.format == "dot":
        print(digraph_dot(spec))
    elif args.format == "json":
        print(json.dumps({"spec": spec.to_json_dict(), "matrix": g.to_json_dict(a)}))
    else:
        print(g.to_text(a))
    return EXIT_OK


def _cmd_power(args) -> int:
    spec = _parse_spec(args.spec)
    if args.m < 0:
        print("error: --m must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    kernel = ToeplitzKernel(spec)
    if args.m == 0:
        x = kernel.geometry.identity
    else:
        table = power_table(kernel, max_steps=DEFAULT_STEP_BUDGET, last=args.m)
        x = power_from_table(*table, args.m)
    g = kernel.geometry
    if args.format == "json":
        payload = {"spec": spec.literal, "m": args.m, "matrix": g.to_json_dict(x)}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(g.to_text(x))
    return EXIT_OK


def _cmd_period(args) -> int:
    spec = _parse_spec(args.spec)
    tail, _ = power_table(ToeplitzKernel(spec), max_steps=DEFAULT_STEP_BUDGET)
    d = pair_sum_gcd(spec)
    d_prime = gcd(d, spec.min_forward)
    predicted = d // d_prime
    _emit(
        {
            "spec": spec.literal,
            "period": tail.period,
            "index": tail.index,
            "predicted": predicted,
            "d": d,
            "d_prime": d_prime,
            "conditions_hold": spec.conditions_hold,
        },
        args.format,
        [f"period={tail.period} predicted={predicted} (d={d}, d'={d_prime})"],
    )
    return EXIT_OK


def _cmd_competition(args) -> int:
    spec = _parse_spec(args.spec)
    kernel = ToeplitzKernel(spec)
    tail, bs = competition_table(kernel, max_steps=DEFAULT_STEP_BUDGET)
    d = pair_sum_gcd(spec)
    payload = {
        "spec": spec.literal,
        "index": tail.index,
        "period": tail.period,
        "d": d,
    }
    lines = [f"competition index={tail.index} period={tail.period} (d={d})"]
    if tail.period == 1:
        g, limit = kernel.geometry, bs[tail.index - 1]
        block_match = limit == g.residue_matrix(d)
        classes = residue_classes(spec.n, d)
        # Only the form --format asks for renders the limit matrix.
        if args.format == "json":
            payload.update(
                {
                    "limit": g.to_json_dict(limit),
                    "block_match": block_match,
                    "classes": [list(c) for c in classes],
                }
            )
        else:
            verdict = "match" if block_match else "MISMATCH"
            lines.append(f"block structure by residue mod {d}: {verdict}")
            lines.append("classes: " + " ".join("{" + ",".join(map(str, c)) + "}" for c in classes))
            lines.append("limit matrix (all-ones blocks after sorting by class; off-diagonal")
            lines.append("part is the eventual competition graph, a union of cliques):")
            lines.append(g.to_text(limit))
    else:
        payload["limit"] = None
        lines.append("no limit: the competition sequence cycles")
    _emit(payload, args.format, lines)
    return EXIT_OK


def _cmd_graph(args) -> int:
    spec = _parse_spec(args.spec)
    if args.m < 1:
        print("error: --m must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    kernel = ToeplitzKernel(spec)
    table = competition_table(kernel, max_steps=DEFAULT_STEP_BUDGET, last=args.m)
    b = power_from_table(*table, args.m)
    rows = kernel.geometry.rows(b)
    if args.format == "dot":
        print(dot_from_rows(spec.n, rows, f"{spec.literal} m={args.m}"))
    elif args.format == "json":
        # The literal's characters need no JSON escaping.
        graph = json_from_rows(spec.n, rows)
        print(f'{{"spec": "{spec.literal}", "m": {args.m}, "graph": {graph}}}')
    else:
        print(text_from_rows(spec.n, rows))
    return EXIT_OK


def _cmd_psets(args) -> int:
    spec = _parse_spec(args.spec)
    if args.horizon is not None and args.horizon < 1:
        print("error: --horizon must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.stabilize:
        result = step_set_stabilization(spec, args.horizon, max_steps=DEFAULT_STEP_BUDGET)
        payload = {
            "spec": spec.literal,
            "m_emp": result.m_emp,
            "certified": result.certified,
            "horizon": result.horizon,
        }
        if result.m_emp is not None:
            verdict = "certified" if result.certified else "uncertified beyond the horizon"
            line = f"stabilization m_emp={result.m_emp} ({verdict}, horizon={result.horizon})"
        elif result.certified:
            line = f"never stabilizes (certified by periodicity, horizon={result.horizon})"
        else:
            line = f"no agreement point up to horizon={result.horizon} (uncertified)"
        _emit(payload, args.format, [line])
        return EXIT_OK
    if args.i is None:
        print("error: provide --i or --stabilize", file=sys.stderr)
        return EXIT_USAGE
    if args.i < 1:
        print("error: --i must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.i > DEFAULT_STEP_BUDGET:
        raise BudgetExceeded(f"--i {args.i} exceeds {DEFAULT_STEP_BUDGET} steps")
    kernel = ToeplitzKernel(spec)
    table = power_table(kernel, max_steps=DEFAULT_STEP_BUDGET, last=args.i)
    step = step_set_run(spec, args.i, table=table, kernel=kernel)[-1]
    offsets = {name: members(mask, spec.n) for name, mask in zip("PQR", step)}
    payload = {"spec": spec.literal, "i": args.i, **offsets}
    lines = [name + "={" + ",".join(map(str, values)) + "}" for name, values in offsets.items()]
    _emit(payload, args.format, lines)
    return EXIT_OK


def _parse_counts(text: str, spec: ToeplitzSpec):
    """Parse "s2=5,t2=6" into per-index count vectors for steps 2 and up.
    Each non-blank part is s or t, an index, "=" and a count, in ASCII
    digits; an index given twice is an error."""
    counts = {
        "s": [0] * max(0, len(spec.forward_steps) - 1),
        "t": [0] * max(0, len(spec.backward_steps) - 1),
    }
    named = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        match = re.fullmatch(r"([st])([0-9]+)=(-?[0-9]+)", part, re.ASCII)
        if match is None:
            raise ValueError(f"malformed count {part!r}; expected e.g. s2=5")
        kind, index = match[1], int(match[2])
        if (kind, index) in named:
            raise ValueError(f"count {kind}{index} is given twice")
        named.add((kind, index))
        if not 2 <= index <= len(counts[kind]) + 1:
            direction = "forward" if kind == "s" else "backward"
            raise ValueError(f"no {direction} step with index {index}")
        counts[kind][index - 2] = int(match[3])
    return tuple(counts["s"]), tuple(counts["t"])


def _walk_length_cap(spec: ToeplitzSpec, s_counts, t_counts, exact, s1_count, t1_count) -> int:
    """Longest walk the command can build, with or without the step-fit
    conditions: each requested arc follows at most ceil((n-1)/step)
    shortest-step positioning moves, and --exact appends at most s1 + t1
    more arcs."""
    requests = sum(s_counts + t_counts)
    per_arc = 1 - (1 - spec.n) // min(spec.min_forward, spec.min_backward)
    extra = s1_count + t1_count if exact else 0
    return requests * per_arc + extra


def _cmd_walk(args) -> int:
    spec = _parse_spec(args.spec, matrix=False)
    try:
        s_counts, t_counts = _parse_counts(args.counts, spec)
        if not 1 <= args.start <= spec.n:
            raise ValueError(f"--start must be in [1, {spec.n}], got {args.start}")
        if min(s_counts + t_counts + (args.s1, args.t1)) < 0:
            raise ValueError("arc counts must be non-negative")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    bound = _walk_length_cap(spec, s_counts, t_counts, args.exact, args.s1, args.t1)
    if bound > DEFAULT_STEP_BUDGET:
        raise BudgetExceeded(f"walk length bound {bound} exceeds {DEFAULT_STEP_BUDGET} steps")
    try:
        if args.exact:
            walk = extend_walk_exact(spec, args.start, args.s1, args.t1, s_counts, t_counts)
        else:
            walk = build_walk_with_counts(spec, args.start, s_counts, t_counts)
    except (WalkConstructionError, SchedulingFailure, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if args.format == "json":
        print(json.dumps({"spec": spec.literal, "walk": walk.to_json_dict()}, sort_keys=True))
        return EXIT_OK
    a, b = walk.arc_counts()
    forward = " ".join(f"s{i}({s})={c}" for i, (s, c) in enumerate(zip(spec.forward_steps, a), 1))
    backward = " ".join(f"t{i}({t})={c}" for i, (t, c) in enumerate(zip(spec.backward_steps, b), 1))
    print(
        f"{walk}\nlength={walk.length} offset={walk.end - walk.start:+d}\n"
        f"forward arc counts: {forward}\nbackward arc counts: {backward}"
    )
    return EXIT_OK


def _cmd_bound(args) -> int:
    spec = _parse_spec(args.spec)
    value = competition_index_bound(spec)
    hypothesis = bound_hypothesis_holds(spec)
    _emit(
        {
            "spec": spec.literal,
            "bound": value,
            "irreducibility_hypothesis": hypothesis,
            "conditions_hold": spec.conditions_hold,
        },
        args.format,
        [
            f"bound={value} irreducibility_hypothesis={hypothesis} "
            f"conditions_hold={spec.conditions_hold}"
        ],
    )
    return EXIT_OK


def _cmd_certificate(args) -> int:
    spec = _parse_spec(args.spec, matrix=False)
    cert = bezout_certificate(spec)
    d = cert.value  # the pair-sum gcd, checked when the certificate was built
    _emit(
        {
            "spec": spec.literal,
            "forward_coeffs": list(cert.forward_coeffs),
            "backward_coeffs": list(cert.backward_coeffs),
            "gcd": d,
        },
        args.format,
        [f"gcd={d} a={list(cert.forward_coeffs)} b={list(cert.backward_coeffs)}"],
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.nmax < 2:
        print("error: --nmax must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    if args.nmax > MAX_SWEEP_N:
        print(f"error: --nmax must be at most {MAX_SWEEP_N}", file=sys.stderr)
        return EXIT_USAGE
    if args.progress is not None and args.progress < 1:
        print("error: --progress must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    jobs, source = args.jobs, "--jobs"
    if jobs is None:
        source = "TOEPLAB_JOBS"
        env = os.environ.get(source, "1")
        try:
            jobs = _integer(env)
        except argparse.ArgumentTypeError:
            print(f"error: TOEPLAB_JOBS must be an integer, got {env!r}", file=sys.stderr)
            return EXIT_USAGE
    if jobs < 1:
        print(f"error: {source} must be at least 1, got {jobs}", file=sys.stderr)
        return EXIT_USAGE
    stream = sys.stdout if args.format == "jsonl" else None
    agg = sweep(
        args.nmax,
        require_conditions=not args.all,
        jobs=jobs,
        report_stream=stream,
        progress=args.progress,
    )
    if args.format == "json":
        print(json.dumps(agg.to_json_dict()))
    elif args.format == "text":
        print(agg.summary_table())
    return EXIT_VIOLATIONS if agg.violation_count else EXIT_OK


def _cmd_examples(args) -> int:
    # Only this command reads the goldens, so no other call compiles them.
    from . import goldens

    failures = 0
    for name, ok, detail in goldens.run_all():
        if ok:
            print(f"ok       {name}")
        else:
            failures += 1
            print(f"MISMATCH {name}: {detail}")
    print(f"{len(goldens.GOLDENS) - failures}/{len(goldens.GOLDENS)} goldens match")
    return EXIT_OK if failures == 0 else EXIT_FAILURE


class _Command(NamedTuple):
    fn: Callable[[argparse.Namespace], int]
    help: str
    spec: bool  # takes an instance literal
    formats: tuple[str, ...] | None  # the formats it applies to; None: no --format
    # (flag, type, default, help) of each option, in order: the type is _integer,
    # None for a string or _FLAG, and a _REQUIRED default makes it required.
    options: tuple = ()


_FLAG = "store_true"
_REQUIRED = object()
_TEXT_JSON = ("text", "json")
_WITH_DOT = ("text", "json", "dot")
_WITH_JSONL = ("text", "json", "jsonl")
_M = ("--m", _integer, _REQUIRED, None)

# Every command, declared once: _parse_canonical reads these, and
# build_parser builds the argparse tree from them in this order.
COMMANDS = {
    "build": _Command(_cmd_build, "matrix of an instance (text/json/dot)", True, _WITH_DOT),
    "power": _Command(_cmd_power, "m-th Boolean power of the matrix", True, _TEXT_JSON, (_M,)),
    "period": _Command(_cmd_period, "exact matrix period vs predicted value", True, _TEXT_JSON),
    "competition": _Command(
        _cmd_competition, "competition index, period, and limit", True, _TEXT_JSON
    ),
    "graph": _Command(_cmd_graph, "m-step competition graph", True, _WITH_DOT, (_M,)),
    "psets": _Command(_cmd_psets, "offset step sets at one step count", True, _TEXT_JSON, (
        ("--i", _integer, None, "step count"),
        ("--stabilize", _FLAG, False, "scan for the agreement point"),
        ("--horizon", _integer, None, "scan horizon for --stabilize"),
    )),
    "walk": _Command(_cmd_walk, "build a walk with prescribed arc counts", True, _TEXT_JSON, (
        ("--start", _integer, _REQUIRED, None),
        ("--counts", None, "", 'higher-index arc counts, e.g. "s2=5,t2=6"'),
        ("--exact", _FLAG, False, "prescribe the shortest-step counts too"),
        ("--s1", _integer, 0, "total shortest forward arcs (with --exact)"),
        ("--t1", _integer, 0, "total shortest backward arcs (with --exact)"),
    )),
    "bound": _Command(_cmd_bound, "competition-index bound and its hypothesis", True, _TEXT_JSON),
    "certificate": _Command(_cmd_certificate, "zero-sum gcd certificate", True, _TEXT_JSON),
    "verify": _Command(_cmd_verify, "exhaustive sweep up to --nmax", False, _WITH_JSONL, (
        ("--nmax", _integer, _REQUIRED, None),
        ("--all", _FLAG, False, "include condition-violating instances"),
        ("--jobs", _integer, None,
         "worker processes, at most the CPU count (default $TOEPLAB_JOBS or 1)"),
        ("--progress", _integer, None, "print a line every N instances"),
    )),
    "examples": _Command(_cmd_examples, "re-run the embedded worked-example goldens", False, None),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of COMMANDS: each command's literal, its options,
    then --format.  main builds it only for an argv the one pass refuses."""
    parser = argparse.ArgumentParser(
        prog="toeplab",
        description="Boolean Toeplitz matrices: periods, competition graphs, walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.spec:
            p.add_argument("spec", help='instance literal, e.g. "T8<1,4;2,5>"')
        for flag, kind, default, text in command.options:
            required = default is _REQUIRED
            how = {"action": _FLAG} if kind is _FLAG else {"type": kind, "required": required}
            p.add_argument(flag, default=None if required else default, help=text, **how)
        if command.formats is not None:
            # Parse any known format; applicability is the command's concern so an
            # inapplicable choice gets its own exit code instead of a usage error.
            p.add_argument("--format", choices=_ALL_FORMATS, default="text", help="output format")
    return parser


def _flag_table(command):
    """What _parse_canonical reads of one command: the (dest, type, choices)
    of each option string and of the literal (None if it takes none), each
    dest's default, and the dests that must be given."""
    options = [(flag[2:], kind, None, default) for flag, kind, default, _ in command.options]
    if command.formats is not None:
        options.append(("format", None, _ALL_FORMATS, "text"))
    flags = {"--" + dest: (dest, kind, choices) for dest, kind, choices, _ in options}
    defaults = {dest: None if d is _REQUIRED else d for dest, _, _, d in options}
    required = {dest for dest, _, _, d in options if d is _REQUIRED}
    if not command.spec:
        return flags, None, defaults, required
    return flags, ("spec", None, None), defaults, required | {"spec"}


_FLAG_TABLES = {name: _flag_table(command) for name, command in COMMANDS.items()}


def _parse_canonical(name, argv):
    """The Namespace build_parser().parse_args([name, *argv]) returns, for a
    canonical argv: the command's literal (if it takes one) and exact option
    strings, each option but a flag followed by a value that does not start
    with "-" and that its type and choices accept, no option twice and every
    required one given.  None for any other name or argv: argparse parses
    those, so help, usage and every error message stay its own."""
    if name not in _FLAG_TABLES:
        return None
    flags, positional, values, required = _FLAG_TABLES[name]
    values = dict(values)  # the tables are shared: no call sees another's values
    given = set()
    tokens = iter(argv)
    for token in tokens:
        entry = flags.get(token, positional)
        if entry is None or entry[0] in given:
            return None
        dest, kind, choices = entry
        given.add(dest)
        if entry is positional:
            if token.startswith("-"):
                return None
            values[dest] = token
        elif kind is _FLAG:
            values[dest] = True
        else:
            value = next(tokens, "-")  # a missing value fails like a negative one
            if value.startswith("-"):
                return None
            if kind is not None:
                try:
                    value = kind(value)
                except argparse.ArgumentTypeError:
                    return None
            if choices is not None and value not in choices:
                return None
            values[dest] = value
    if not given >= required:
        return None
    return argparse.Namespace(command=name, **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_canonical(argv[0], argv[1:]) if argv else None
    if args is None:
        args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    if command.formats is not None and args.format not in command.formats:
        print(f"error: format {args.format!r} does not apply to {args.command!r}", file=sys.stderr)
        return EXIT_BAD_FORMAT
    try:
        code = command.fn(args)
        # Flushed here, so a closed pipe raises inside this try and not at exit.
        sys.stdout.flush()
        return code
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:
        # The reader is gone.  Point a real stdout at devnull, so that the
        # flush of what is still buffered at exit does not raise again.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            pass  # an in-process stream: nothing of it is flushed at exit
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())

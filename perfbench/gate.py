"""Correctness gate: every op's output is compared with a reference.

The two sweeps are checked against the behaviour-contract hashes of their
whole stdout.  Single instances and CLI queries are checked one by one
against digests frozen from the seed commit (reference.json, written by
freeze.py).  An op fails when it raises, is marked incomplete, reports a
violation, exits nonzero, or its output differs from the reference.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from toeplab.verify import FAILS

REFERENCE = Path(__file__).with_name("reference.json")

# sha256 of `toeplab verify --nmax 8 --all --format json` and `--format jsonl`
# stdout; the jsonl stream is identical for every --jobs value.
SWEEP_N8_JSON_SHA256 = "6bfbe3c81c056737719eb99ed0db1a0859bda317de8641855cbf6535e9ec410e"
SWEEP_N8_JSONL_SHA256 = "23d12acd8ea7085aedd4460fbfc91319a0d0b53edbd440ab8ccad8cdfe820958"


def load_reference() -> dict:
    with REFERENCE.open() as fh:
        return json.load(fh)


def report_digest(report) -> str:
    """Digest of one InstanceReport as `verify --format jsonl` would write it."""
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def output_digest(stdout: str, code) -> str:
    """Digest of one CLI call: its exit code, then its stdout."""
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


def report_is_clean(report) -> bool:
    return not report.incomplete and FAILS not in report.checks.values()


class HashSink:
    """Write-only text stream that keeps only the sha256 and size of its input."""

    def __init__(self):
        self._sha = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> int:
        data = text.encode()
        self._sha.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self):
        pass

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


class Gate:
    """Counts attempted and failed ops; keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, count: int, why: str):
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(why)

    def op(self, ok: bool, why: str):
        self.attempted += 1
        if not ok:
            self._fail(1, why)

    def stream(self, ops: int, unclean: list, code, digest: str, expected: str):
        """A sweep pass of `ops` instances.  A wrong stdout hash or exit code
        cannot be pinned to single instances, so it fails every op of the
        pass; otherwise each unclean report fails its own op."""
        self.attempted += ops
        if digest != expected or code != 0:
            self._fail(ops, f"stdout sha256 {digest} exit {code}; expected {expected} exit 0")
        elif unclean:
            self._fail(len(unclean), "unclean reports: " + " ".join(unclean[:5]))

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

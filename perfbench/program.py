"""Locate and import the toeplab sources of the checkout under test.

The benchmark always measures the `src/toeplab` next to its own directory,
never an installed copy, so that two checkouts can be compared.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no importable toeplab sources."""


def load():
    """Put the checkout's `src` first on sys.path and import toeplab from it."""
    package = SRC / "toeplab"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no toeplab package at {package}")
    sys.path.insert(0, str(SRC))
    import toeplab

    if Path(toeplab.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"toeplab was imported from {toeplab.__file__}, not {package}")
    return toeplab

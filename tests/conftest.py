import multiprocessing
import os

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """Report 2 CPUs and run multiprocessing.Pool's imap in this process;
    the returned list records the worker count each pool was asked for."""
    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    return sizes

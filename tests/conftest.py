import concurrent.futures
import os

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """Report 2 CPUs and run ProcessPoolExecutor's map in this process;
    the returned list records the worker count each pool was asked for."""
    sizes = []

    class InProcessExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessExecutor)
    return sizes

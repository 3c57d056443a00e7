"""Set-up probe: a fresh interpreter imports toeplab, builds one workload's
inputs, and prints the monotonic clock in nanoseconds.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

import program

program.load()

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.monotonic_ns())

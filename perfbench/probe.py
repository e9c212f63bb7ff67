"""Set-up probe: import qramsey, build a workload's inputs, print the clock.

    python3 perfbench/probe.py <workload> <seed>

run.py launches this in a fresh interpreter and takes the time from launch
to the printed perf_counter value as one set-up sample.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import qramsey.cli  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(perf_counter())

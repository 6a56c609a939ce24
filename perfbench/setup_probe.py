"""Child process that times setup: importing nlielab and generating one
workload's inputs.  Prints the seconds it took.

    python3 perfbench/setup_probe.py WORKLOAD SEED SIZE
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
import workloads  # noqa: E402  (imports nlielab)

workloads.WORKLOADS[sys.argv[1]].make_inputs(int(sys.argv[2]), sys.argv[3])
print("%.9f" % (time.perf_counter() - start))

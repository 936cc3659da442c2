"""Print one workload's set-up time in this fresh interpreter.

    python3 bench/setup_probe.py <workload> <scratch dir>

Set-up is importing dcsparse (with numpy) plus a first tiny call through
the workload's entry point, which pays every lazy first-call cost.  The
second number printed is the reference speed factor measured right after
(see workloads.py).  bench/run.py starts this with PYTHONPATH at src/.
"""

import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402  (the import is what is being timed)

workloads.warm(sys.argv[1], sys.argv[2])
elapsed = time.perf_counter() - start
kernel = workloads.ReferenceKernel(workloads.WORKLOADS[sys.argv[1]].text_kernel)
print(elapsed, kernel.nominal_s / kernel.seconds(reps=5))

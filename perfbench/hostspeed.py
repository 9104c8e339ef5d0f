"""Host-speed probe used to scale timings to a reference host speed.

On a shared virtual machine the host's effective CPU speed changes by up
to 1.8x over seconds to minutes, in both directions, and the guest cannot
see it.  Process CPU time moves with it, and steal time stays near 2%.
The probe times a fixed mix of interpreter work and small numpy calls,
like the program's, right before and after each timed interval.  A
measured time t is reported as t * REFERENCE_S / p, where p is the mean
of the two probes around it.  The result is the time the interval would
take on a host where the probe takes REFERENCE_S.  A change to the
program moves t and not p, so it still shows in full.

Interpreter starts follow the host differently from work in a running
process, so set-up times are scaled the same way by probe_start(): a
fresh interpreter that imports numpy and nothing of the program.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 0.005  # the probe's typical time on the machine that set the bounds
START_REFERENCE_S = 0.2  # probe_start's typical time on the same machine
_A = np.arange(64, dtype=float).reshape(8, 8) / 64.0 + 0.5j


def probe() -> float:
    """Seconds taken by the fixed probe workload."""
    start = time.perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i
    for _ in range(120):
        np.kron(_A[:2, :2], _A[:4, :4]) @ _A
    return time.perf_counter() - start


def probe_start(cwd, env) -> float:
    """Seconds for a fresh interpreter to start and import numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, env=env,
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float,
          reference: float = REFERENCE_S) -> float:
    """`seconds` at the reference host speed, given the probes around it."""
    return seconds * reference / ((before + after) / 2.0)

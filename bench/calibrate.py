"""Fixed reference computations, timed around every operation.

The host's speed wanders by about a fifth over tens of seconds, and CPU
time wanders with it, so absolute operation times do not repeat between
runs.  The benchmark therefore also reports each operation's time divided
by the time of a reference measured just before and just after it: the
unit "ref" is one run of the reference.  The dossier and fan workloads use
the in-process kernel below, the cli workload a reference process.  The kernel mixes the kinds of work
the program does -- compiled float expressions with math.exp and math.pow,
small numpy array operations and dictionary inserts -- and never changes,
so a ratio moves only when the program does.
"""

import math
import subprocess
import sys
import time

import numpy as np

_PROFILE = eval("lambda t: (1.0 / (1.0 + 0.9 * t + 1.3 * t ** 2)) * _exp(-0.3 * t)",
                {"_exp": math.exp})
_GRID = np.linspace(0.0, 1.0, 64)


def kernel() -> float:
    total = 0.0
    for i in range(3000):
        t = i * 1e-3
        total += _PROFILE(t) + math.pow(1.0 + t, -2.5)
    for i in range(150):
        shifted = _GRID * 1.0001 + i
        total += float(np.dot(shifted, _GRID)) + float(np.max(np.abs(shifted)))
    table = {}
    for i in range(1000):
        table[i] = (i, total)
    return total + len(table)


def seconds() -> float:
    """Wall time of one kernel run."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


REFERENCE_PROCESS = "import numpy, scipy.integrate"


def process_seconds(env: dict) -> float:
    """Wall time of a fresh interpreter that imports numpy and scipy.integrate.

    This is the reference of the cli workload, whose operations are whole
    processes: process start and imports dominate them, and they slow
    with the host in a way the in-process kernel does not follow.
    """
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_PROCESS], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - started

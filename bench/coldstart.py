"""One cold start of a workload's set-up, timed from inside a fresh process.

Usage: python3 bench/coldstart.py <workload> <seed>  (with src/ on PYTHONPATH)
Prints the seconds spent importing hartogs and building the workload's
inputs; for the fan this includes parsing its profiles.
"""

import sys
import time

started = time.perf_counter()
import hartogs  # noqa: E402
import hartogs.cli  # noqa: E402,F401
import inputs  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
if workload == "dossier":
    inputs.DossierInputs(seed).next_pass(0)
elif workload == "fan":
    [hartogs.parse_profile(case.source, case.b, 2) for case in inputs.fan_cases(seed)]
else:
    inputs.cli_mix(seed)
print(time.perf_counter() - started)

#!/usr/bin/env python3
"""Benchmark of the hartogs package: dossier, fan and cli workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {dossier,fan,cli} --seed N --seconds S --trace {0,1}

Each workload is a closed loop: one client, one operation at a time.  The
run repeats whole passes over the workload's operations until the timed
operations add up to S seconds, checks every output against the oracles
of bench/oracles.py outside the timed region, and prints as its last line
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
records spans, runs the layer probe and reports the per-layer metrics.
"""

import os

# The benchmark's processes and their children use one BLAS/OpenMP thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("dossier", "fan", "cli")
COLD_STARTS = 5


def load_program():
    """Import hartogs from the checkout's src/ and gather the called API."""
    sys.path.insert(0, str(SRC_DIR))
    import hartogs
    import hartogs.cli
    import hartogs.metric

    if Path(hartogs.__file__).resolve().parent != (SRC_DIR / "hartogs").resolve():
        raise ImportError(f"hartogs was imported from {hartogs.__file__}, not from {SRC_DIR}")
    api = {name: getattr(hartogs, name) for name in (
        "parse_expression", "parse_profile", "validate", "kcond", "classify_profile",
        "completeness", "einstein_check", "gauss_curvature_slice", "gauss_curvature_base",
        "integrate_geodesic", "self_intersection_check", "slice_metric", "hermitian_metric",
        "christoffel_closed", "christoffel_generic", "psi", "psi_map", "SlicePoint",
        "DomainPoint")}
    return SimpleNamespace(**api, slice_metric_jet=hartogs.metric.slice_metric_jet,
                           cli_main=hartogs.cli.main)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC_DIR))


def cold_start(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, as it measures it."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "coldstart.py"), workload, str(seed)],
        env=child_env(), capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip())


def cold_starts(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """COLD_STARTS set-up times, raw and scaled to the reference process.

    Each scaled time is the cold start's seconds times (1 s / the mean time
    of the reference processes run just before and after it): the seconds
    the cold start would take on a host where the reference process takes
    1 s.  One untimed start first fills the bytecode caches.
    """
    import calibrate

    cold_start(workload, seed)
    raw, scaled = [], []
    before = calibrate.process_seconds(child_env())
    for _ in range(COLD_STARTS):
        raw.append(cold_start(workload, seed))
        after = calibrate.process_seconds(child_env())
        scaled.append(raw[-1] / (0.5 * (before + after)))
        before = after
    return raw, scaled


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import calibrate
    from tracing import NullTracer, Tracer
    import workloads
    import layers

    OUT_DIR.mkdir(exist_ok=True)
    setup_raw, setup = cold_starts(workload_name, seed) if not trace else ([], [])
    tracer = Tracer() if trace else NullTracer()
    hg = load_program() if (workload_name != "cli" or trace) else None
    if workload_name == "cli":
        reference_seconds = lambda: calibrate.process_seconds(child_env())
    else:
        reference_seconds = calibrate.seconds
    if workload_name == "dossier":
        workload = workloads.Dossier(seed, hg)
    elif workload_name == "fan":
        workload = workloads.Fan(seed, hg, tracer)
    else:
        workload = workloads.Cli(seed, child_env(), OUT_DIR)

    op_ms, pass_s, op_cost, pass_cost = [], [], [], []
    attempted = failed = 0
    unexpected = []
    measured = 0.0
    for ops in workload.passes():
        results = []
        reference = reference_seconds()
        for op in ops:
            tracer.op += 1
            started = time.perf_counter()
            try:
                with tracer.span(f"op.{workload_name}"):
                    out = workload.execute(op, tracer)
            except Exception as exc:  # an operation's crash is its result
                out = exc
            elapsed = time.perf_counter() - started
            after = reference_seconds()
            results.append((op, out, elapsed, elapsed / (0.5 * (reference + after))))
            reference = after
        # checks run outside the timed region
        for op, out, elapsed, cost in results:
            attempted += 1
            op_ms.append(1e3 * elapsed)
            op_cost.append(cost)
            if isinstance(out, Exception):
                unexpected.append((op, [("raised", repr(out))]))
                continue
            errors = workload.check(op, out)
            if workload_name == "cli" and tracer.enabled:
                ms = workloads.command_ms(out)
                if ms is not None:
                    tracer.count("cli.command_ms", ms)
            if errors and workload.known_fault(op, out, errors):
                failed += 1
            elif errors:
                unexpected.append((op, errors))
        pass_s.append(sum(r[2] for r in results))
        pass_cost.append(sum(r[3] for r in results))
        measured += pass_s[-1]
        if measured >= seconds:
            break

    rss_mb = (workload.largest_rss_mb if workload_name == "cli" else
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    e2e = {
        "setup_s": {"value": statistics.median(setup) if setup else None, "unit": "s"},
        "ops_per_ref": {"value": attempted / sum(pass_cost), "unit": "1/ref"},
        "op_cost.p50": {"value": statistics.median(op_cost), "unit": "ref"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    summary = {"workload": workload_name, "seed": seed, "trace": int(trace),
               "passes": len(pass_s), "ops_per_pass": len(results),
               "op_samples": len(op_ms), "setup_samples": len(setup),
               "end_to_end": {k: v["value"] for k, v in e2e.items()},
               "absolute": {"setup_s": statistics.median(setup_raw) if setup_raw else None,
                            "ops_per_s": attempted / sum(pass_s),
                            "op_ms.p50": statistics.median(op_ms),
                            "ref_ms.p50": statistics.median(
                                ms / cost for ms, cost in zip(op_ms, op_cost))}}
    for op, errors in unexpected[:5]:
        print(f"unexpected: {op!r}: {errors}", file=sys.stderr)

    if trace:
        rng = np.random.default_rng((seed, 0x9B))
        layers.probe(workload, hg, tracer, rng, child_env())
        trace_path = OUT_DIR / f"trace-{workload_name}-{seed}.jsonl"
        tracer.write(trace_path)
        summary["trace_file"] = str(trace_path.relative_to(ROOT))
        metrics = layers.layer_metrics(tracer)
    else:
        metrics = e2e
    print(json.dumps(summary))
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "hartogs" / "__init__.py").is_file():
        print(f"error: no hartogs sources under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

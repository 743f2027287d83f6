"""One benchmark process: set up a workload, run it, print one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --mode {e2e,setup,trace} --t0 T [--spans PATH]

`run.py` starts this script with the checkout's `src` on PYTHONPATH and
passes `--t0`, its `time.monotonic()` just before the start, so set-up time
counts interpreter start, `import gpsgd` and data generation. `gpsgd` is
imported before anything else, so whatever the package does when it starts
(a BLAS thread pin, say) falls inside the measurement.
"""

import gpsgd

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from workloads import STAGE_METRIC, WORKLOADS, Session, Tally, gates, iteration_ms, run_stages

SRC = Path(__file__).resolve().parent.parent / "src"


def blas_libraries() -> list[dict]:
    """The BLAS libraries mapped into this process, with the version string
    and the thread count each reports. Only OpenBLAS is queried."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    found = []
    for path in paths:
        entry = {"library": os.path.basename(path), "threads": None, "config": None}
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if getter is not None and entry["threads"] is None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    entry["threads"] = getter()
                if config is not None and entry["config"] is None:
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end(session: Session, seconds: float, tally: Tally) -> tuple[dict, dict, dict]:
    """The end-to-end metrics, the sample count behind each, and each
    sample's time per unit in the order the samples ran."""
    times, outputs = run_stages(session, seconds, tally)
    gates(session, outputs, tally)
    metrics = {STAGE_METRIC[stage]: statistics.median(t) for stage, t in times.items() if t}
    samples = {STAGE_METRIC[stage]: len(t) for stage, t in times.items()}
    if outputs.get("fit"):
        iters = np.concatenate([iteration_ms(trace) for trace in outputs["fit"]])
        for q in (50, 90, 99):
            metrics[f"iter_ms_p{q}"] = float(np.percentile(iters, q))
        samples["iter_ms"] = int(iters.shape[0])
    return metrics, samples, {STAGE_METRIC[stage]: t for stage, t in times.items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("e2e", "setup", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    if Path(gpsgd.__file__).resolve().parent.parent != SRC:
        print(f"gpsgd imported from {gpsgd.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tally = Tally()
    samples: dict = {}
    unit_s: dict = {}
    if args.mode == "trace":
        from traced import traced_run
        metrics = traced_run(args.workload, args.seed, tally, args.spans)
    else:
        session = Session(args.workload, args.seed)
        metrics = {"setup_s": time.monotonic() - args.t0}
        if args.mode == "e2e":
            stage_metrics, samples, unit_s = end_to_end(session, args.seconds, tally)
            metrics.update(stage_metrics)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "metrics": metrics, "samples": samples, "unit_s": unit_s, "attempted": tally.attempted,
        "failures": tally.failures, "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layer timings of exact prediction, for two source trees side by side.

    python3 bench/assembly.py --tree before=/path/to/old/src --tree after=src \
        [--reps 5] [--seed 7] [--out BENCH_assembly.json]

Each `--tree LABEL=DIR` names a directory that holds the `gpsgd` package.
Two cases follow the benchmark's predict stages: `n6000` (Levy, D=4,
normalised, 6000 training and 256 test points, theta=(1, 0.1)) and `n2048`
(1-D GP data, RBF 0.5, 2048 training and 256 test points, theta=(4, 1)).
Every repetition runs each case once per tree, the trees' order reversed
on every other repetition, each in a fresh process that imports gpsgd from its tree, warms up on a small
call and then times one exact `predict` with a timer around each layer that
`gpsgd.prediction` calls: the covariance assembly (`marginal_covariance` for
K and `cross_kernel_matrix` for k* in older trees; in newer ones both come
from `CovariancePlan.covariance`, timed as one layer), `cholesky`, and the
triangular solves (`solve` and/or `forward_solve`, whichever the tree uses).
A layer is timed when its name, or its class for a method, is in the
prediction module's namespace. `rest_s` is the call's time outside those
layers. The output holds per-layer medians
and the raw samples, plus nproc, the BLAS libraries with their thread counts
and each tree's git revision. Uses only the standard library, numpy and
scipy.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

LAYERS = ("marginal_covariance", "cross_kernel_matrix", "CovariancePlan.covariance", "cholesky",
          "solve", "forward_solve")
CASES = ("n6000", "n2048")


def _case_inputs(g, case: str, seed: int):
    if case == "n6000":
        raw = g.simulate_function(g.levy, 10_000, g.Uniform(-10.0, 10.0), 4,
                                  noise_sd=3.0, seed=seed, name="levy")
        train, test = g.train_test_split(raw, 0.6, seed + 1)
        train, test, _ = g.normalize(train, test)
        kernels = g.MultiKernel.single(g.KernelSpec.rbf((1.0,) * 4))
        theta = g.HyperParams((1.0,), 0.1)
        return kernels, theta, train.X[:6000], train.y[:6000], test.X[:256]
    kernels = g.MultiKernel.single(g.KernelSpec.rbf(0.5))
    theta = g.HyperParams((4.0,), 1.0)
    full = g.simulate_gp(kernels, theta, 2048 + 256, g.Gaussian(5.0), 1, seed=seed)
    return kernels, theta, full.X[:2048], full.y[:2048], full.X[2048:]


def _blas_libraries() -> list[dict]:
    """The OpenBLAS libraries mapped into this process and their thread counts."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path), "threads": None, "config": None}
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if threads is not None and entry["threads"] is None:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and entry["config"] is None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def child(case: str, seed: int) -> dict:
    """One timed exact prediction with the gpsgd found on sys.path."""
    import gpsgd as g
    import gpsgd.prediction as prediction
    import numpy as np
    import scipy

    kernels, theta, X, y, X_test = _case_inputs(g, case, seed)
    spent = dict.fromkeys(LAYERS, 0.0)

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - t0
        return wrapper

    present = []
    for name in LAYERS:
        owner, _, attr = name.rpartition(".")   # "function" or "Class.method"
        holder = getattr(prediction, owner, None) if owner else prediction
        if holder is not None and hasattr(holder, attr):
            setattr(holder, attr, timed(name, getattr(holder, attr)))
            present.append(name)
    g.predict(theta, kernels, X[:300], y[:300], X_test[:8], strategy=g.PredictStrategy.EXACT)
    spent = dict.fromkeys(LAYERS, 0.0)
    t0 = time.perf_counter()
    g.predict(theta, kernels, X, y, X_test, strategy=g.PredictStrategy.EXACT)
    total = time.perf_counter() - t0
    layers = {f"{name}_s": spent[name] for name in present}
    return {
        "total_s": total,
        **layers,
        "rest_s": total - sum(layers.values()),
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__,
                "blas": _blas_libraries()},
    }


def _revision(tree: Path) -> str:
    try:
        out = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty",
                              "--abbrev=12"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=DIR")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_assembly.json")
    parser.add_argument("--child", nargs=2, metavar=("CASE", "SEED"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child(args.child[0], int(args.child[1]))))
        return 0

    trees = dict(item.split("=", 1) for item in args.tree)
    if not trees:
        parser.error("give at least one --tree LABEL=DIR")
    samples = {label: {case: [] for case in CASES} for label in trees}
    env = None
    for rep in range(args.reps):
        for case in CASES:
            order = list(trees.items())
            for label, src in order[::-1] if rep % 2 else order:
                run = subprocess.run(
                    [sys.executable, __file__, "--child", case, str(args.seed)],
                    env={**os.environ, "PYTHONPATH": str(Path(src).resolve())},
                    capture_output=True, text=True, check=True)
                result = json.loads(run.stdout)
                env = result.pop("env")
                samples[label][case].append(result)
                print(f"rep {rep} {case} {label}: {result['total_s']:.3f} s", file=sys.stderr)

    medians = {
        label: {case: {key: statistics.median(s[key] for s in runs) for key in runs[0]}
                for case, runs in by_case.items()}
        for label, by_case in samples.items()
    }
    report = {
        "what": "exact predict, 256 test points: per-layer seconds, median over repetitions",
        "reps": args.reps,
        "seed": args.seed,
        "revisions": {label: _revision(Path(src)) for label, src in trees.items()},
        "env": env,
        "median": medians,
        "samples": samples,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

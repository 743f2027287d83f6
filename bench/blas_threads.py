"""scipy's BLAS on one thread against its default count: a sweep over
matrix orders, the fit studies at --jobs 1 and 2, and end-to-end benchmark
pairs. Each part writes its own key of the output file and keeps the rest.

    python3 bench/blas_threads.py sweep [--src src] [--reps 7]
    python3 bench/blas_threads.py studies [--src src] [--reps 2] [--seed 7]
    python3 bench/blas_threads.py pairs --parent DIR --change DIR --seeds 1,2,... \
        [--workload fit-sgd-uniform --workload predict-n6000] [--seconds 50]
    (every part takes [--out BENCH_threads.json])

Sweep: one process imports gpsgd from `--src` and, for each matrix order N,
times on a 1-D RBF covariance (Gaussian inputs, sd 5, lengthscale 0.5,
theta=(4, 1), the CLI's simulate defaults) the calls that
`linalg.one_blas_thread` may pin:

* `dpotrf`: `linalg.cholesky` of a copy of K;
* `dpotri`: `linalg.inverse` of a copy of the factor;
* `gradient`: one `training.GradientPlan` call over N rows, one column;
* `exact_moments`: `prediction._exact_moments` with one test column, the
  call `predict_nn` makes per test point;

each on scipy's default thread count and pinned to one thread (the limits
of linalg, training and prediction set to pin every order or none), in
turn, the order reversed on every other repetition. A sample is the mean per call over a batch of calls that takes about 20 ms;
the record is the median of `--reps` samples, in microseconds. It also
records whether the two thread counts give `gradient` and `exact_moments`
the same bits, and times one enter and exit of a pinning
`one_blas_thread`.

Studies: `gpsgd experiment` with `vary-m`, `grad-convergence` and
`param-convergence` at their defaults and `--seed`, `--reps` times at
`--jobs 1` and `--jobs 2` alternately, each in a fresh process; wall
seconds per run, and whether every output file but summary.txt is equal
byte for byte across all runs of a study.

Pairs: `pairs` of bench/parallel_assembly.py, `perfbench/run.py --trace 0`
in each checkout per seed, the side that runs first alternating.

The output adds nproc, the CPU affinity, the BLAS libraries with their
thread counts and the git revision. Uses only the standard library, numpy
and scipy.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from assembly import _blas_libraries, _revision  # noqa: E402
from parallel_assembly import pairs  # noqa: E402

ORDERS = (16, 32, 64, 96, 128, 160, 192, 224, 256, 320, 384, 448, 512, 640, 768, 1024)
STUDIES = ("vary-m", "grad-convergence", "param-convergence")


def _per_call_us(fn, target_s: float = 0.02) -> float:
    """Mean microseconds per call over a batch of calls lasting about target_s."""
    fn()
    t0 = time.perf_counter()
    fn()
    number = max(1, int(target_s / max(time.perf_counter() - t0, 1e-7)))
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return 1e6 * (time.perf_counter() - t0) / number


def sweep(src: str, reps: int) -> dict:
    sys.path.insert(0, str(Path(src).resolve()))
    import gpsgd as g
    import gpsgd.kernels as kernels_module
    import gpsgd.linalg as linalg
    import gpsgd.prediction as prediction
    import gpsgd.training as training
    import numpy as np

    kernels = g.MultiKernel.single(g.KernelSpec.rbf([0.5]))
    theta = g.HyperParams((4.0,), 1.0)
    divisors = training.ScalingPolicy().divisors(1, theta)
    rng = np.random.default_rng(7)
    samples: dict = {}
    same_bits: dict = {}
    for N in ORDERS:
        X = rng.normal(0.0, 5.0, size=(N, 1))
        y = rng.normal(size=N)
        K = g.marginal_covariance(kernels, theta, X)
        L = g.cholesky(K).lower
        plan = training.GradientPlan(kernels, theta, X, y)
        vec = theta.to_vector()
        x_star = rng.normal(0.0, 5.0, size=(1, 1))
        k_star = kernels_module.CovariancePlan(kernels, theta, X, x_star).covariance(
            vec, cols=slice(None))
        calls = {
            "dpotrf": lambda: linalg.cholesky(K.copy(), overwrite=True),
            "dpotri": lambda: linalg.inverse(linalg.CholeskyFactor(L.copy(order="F"))),
            "gradient": lambda: plan(vec, divisors),
            "exact_moments": lambda: prediction._exact_moments(K.copy(), y, k_star),
        }

        def run(call, threads):
            # the callers' own limits, set to pin every order or none
            limit = N if threads == "1" else -1
            training.ONE_THREAD_MAX_ORDER_INVERSE = prediction.ONE_THREAD_MAX_ORDER_FACTOR = limit
            try:
                with linalg.one_blas_thread(threads == "1"):
                    return calls[call]()
            finally:
                training.ONE_THREAD_MAX_ORDER_INVERSE = linalg.ONE_THREAD_MAX_ORDER_INVERSE
                prediction.ONE_THREAD_MAX_ORDER_FACTOR = linalg.ONE_THREAD_MAX_ORDER_FACTOR

        for call in ("gradient", "exact_moments"):
            a, b = run(call, "default"), run(call, "1")
            same_bits.setdefault(call, {})[N] = np.array_equal(np.hstack(a), np.hstack(b))
        for call in calls:
            times = {"default": [], "1": []}
            for rep in range(reps):
                for threads in ("1", "default")[::-1 if rep % 2 else 1]:
                    times[threads].append(_per_call_us(lambda: run(call, threads)))
            samples.setdefault(call, {})[N] = {t: round(statistics.median(v), 1)
                                              for t, v in times.items()}
            print(f"{call} N={N}: {samples[call][N]}", file=sys.stderr)

    def pinned_enter_exit():
        with linalg.one_blas_thread():
            pass

    return {
        "what": "microseconds per call, median of samples, scipy's default BLAS thread "
                "count against one thread through linalg.one_blas_thread (see the docstring "
                "of bench/blas_threads.py)",
        "reps": reps,
        "orders": list(ORDERS),
        "us": samples,
        "same_bits_default_vs_1": same_bits,
        "pin_enter_exit_us": round(statistics.median(
            _per_call_us(pinned_enter_exit, 0.01) for _ in range(reps)), 3),
        "limits": {"ONE_THREAD_MAX_ORDER_INVERSE": linalg.ONE_THREAD_MAX_ORDER_INVERSE,
                   "ONE_THREAD_MAX_ORDER_FACTOR": linalg.ONE_THREAD_MAX_ORDER_FACTOR},
        "pinned_blas": linalg.PINNED_BLAS,
    }


def studies(src: str, reps: int, seed: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        for study in STUDIES:
            seconds = {"1": [], "2": []}
            outs = []
            for rep in range(reps):
                for jobs in ("1", "2")[::-1 if rep % 2 else 1]:
                    out = Path(tmp) / f"{study}-{rep}-jobs{jobs}"
                    t0 = time.perf_counter()
                    subprocess.run([sys.executable, "-m", "gpsgd.cli", "experiment", "--out",
                                    str(out), "--seed", str(seed), "--set", f"study={study}",
                                    "--jobs", jobs], env=env, check=True, capture_output=True)
                    seconds[jobs].append(round(time.perf_counter() - t0, 2))
                    outs.append(out)
                    print(f"{study} rep {rep} --jobs {jobs}: {seconds[jobs][-1]} s",
                          file=sys.stderr)
            names = sorted(p.name for p in outs[0].iterdir() if p.name != "summary.txt")
            identical = all(sorted(p.name for p in o.iterdir() if p.name != "summary.txt") == names
                            and filecmp.cmpfiles(outs[0], o, names, shallow=False)[1:] == ([], [])
                            for o in outs[1:])
            report[study] = {"seconds": seconds,
                             "median_s": {j: statistics.median(s) for j, s in seconds.items()},
                             "files": len(names), "outputs_identical": identical}
    return {"what": f"wall seconds of `gpsgd experiment --seed {seed} --set study=S --jobs J` "
                    "at the study's defaults, fresh processes, --jobs 1 and 2 alternating; "
                    "outputs_identical: every file but summary.txt equal byte for byte across "
                    "all runs of the study",
            "reps": reps, "studies": report}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("part", choices=("sweep", "studies", "pairs"))
    parser.add_argument("--src", default="src")
    parser.add_argument("--reps", type=int)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seeds", default="")
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--out", default="BENCH_threads.json")
    args = parser.parse_args()

    import scipy.linalg  # noqa: F401  maps scipy's BLAS, for the environment record

    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {}
    if args.part == "sweep":
        report["sweep"] = sweep(args.src, args.reps or 7)
    elif args.part == "studies":
        report["studies"] = studies(args.src, args.reps or 2, args.seed)
    else:
        if not (args.parent and args.change):
            parser.error("pairs needs --parent and --change")
        seeds = [int(s) for s in args.seeds.split(",") if s]
        report["revisions"] = {"parent": _revision(Path(args.parent)),
                               "change": _revision(Path(args.change))}
        report["pairs"] = {w: pairs(args.parent, args.change, w, seeds, args.seconds)
                           for w in args.workload or ["fit-sgd-uniform", "predict-n6000"]}
    report["env"] = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
                     "blas": _blas_libraries(), "git_sha": _revision(Path(args.src))}
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

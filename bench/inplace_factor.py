"""The exact predict at n=6000 step by step, and end-to-end benchmark pairs,
for two checkouts of the repository.

    python3 bench/inplace_factor.py --parent DIR --change DIR --seeds 2101,2102,... \
        [--workload predict-n6000 --workload fit-sgd-uniform] [--reps 5] [--seed 7] \
        [--out BENCH_inplace_factor.json]

It wrote BENCH_inplace_factor.json (the factor in K's own buffer) and
BENCH_triangle.json (the upper-only K and the factor without the clean
pass).

Split: `--reps` times, the checkouts' order reversed on every other
repetition, a fresh process per checkout imports gpsgd from its `src`,
warms up on a small call and times one exact `predict` on case `n6000` of
bench/assembly.py (Levy, D=4, normalised, 6000 training and 256 test
points, theta=(1, 0.1)), with a timer on each layer that
`gpsgd.prediction` calls:

* `k_star_s`: `CovariancePlan.covariance` with columns, the 6000 x 256 k*;
* `K_s`: `CovariancePlan.covariance` without, the 6000 x 6000 K, whole
  or its upper triangle alone (`K_upper_only`, the `upper_only` the
  checkout passes);
* `finite_s`: `np.isfinite(K).all()`, the check `cholesky` makes first,
  timed once more on the K that `cholesky` gets, just before the call;
* `dpotrf_s`: `cholesky`'s time less `finite_s`, so the dpotrf call with
  any copy of K that f2py makes for it, and scipy's clean pass if the
  checkout asks for it (`factor_clean`, the `clean` it passes, True when
  it passes none);
* `triangular_s`: `forward_solve`, one dtrtrs pass over [y | k*];
* `rest_s`: the rest of the call.

`total_s` is the call's time less the extra finiteness check, and
`peak_rss_mb` the process's peak resident set. The predictions of the two
checkouts must be equal bit for bit, or the script fails.

After the call, `clean_pass_s` times scipy's clean pass alone, the same on
both sides: dpotrf with `clean=1` less dpotrf with `clean=0`, the faster of
3 each, on an n x n matrix whose first pivot is negative, so that dpotrf
stops at once and the clean pass, which runs whatever dpotrf returns, is
all that differs.

Pairs: `pairs` of bench/parallel_assembly.py, `perfbench/run.py --trace 0`
on each checkout per seed, the side that runs first alternating.

The output adds nproc, the CPU affinity, the BLAS libraries with their
thread counts and each checkout's git revision and `src` tree. Uses only
the standard library, numpy and scipy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from assembly import _blas_libraries, _case_inputs, _revision  # noqa: E402
from parallel_assembly import _quartiles, pairs  # noqa: E402

STEPS = ("k_star_s", "K_s", "finite_s", "dpotrf_s", "triangular_s", "rest_s", "total_s")
FLAGS = ("K_upper_only", "factor_clean")


def child(seed: int) -> dict:
    """One timed exact prediction with the gpsgd found on sys.path."""
    import gpsgd as g
    import gpsgd.prediction as prediction
    import numpy as np

    kernels, theta, X, y, X_test = _case_inputs(g, "n6000", seed)
    spent = dict.fromkeys(STEPS, 0.0)
    flags = {}
    covariance, cholesky, forward_solve = (prediction.CovariancePlan.covariance,
                                           prediction.cholesky, prediction.forward_solve)

    def timed(step, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[step] += time.perf_counter() - t0
        return wrapper

    def timed_covariance(plan, theta_vec, rows=None, cols=None, **kwargs):
        if cols is None:
            flags["K_upper_only"] = kwargs.get("upper_only", False)
        step = "K_s" if cols is None else "k_star_s"
        return timed(step, covariance)(plan, theta_vec, rows, cols, **kwargs)

    def timed_cholesky(K, *args, **kwargs):
        flags["factor_clean"] = kwargs.get("clean", True)
        t0 = time.perf_counter()
        np.isfinite(K).all()
        spent["finite_s"] += time.perf_counter() - t0
        return timed("dpotrf_s", cholesky)(K, *args, **kwargs)

    prediction.CovariancePlan.covariance = timed_covariance
    prediction.cholesky = timed_cholesky
    prediction.forward_solve = timed("triangular_s", forward_solve)
    g.predict(theta, kernels, X[:300], y[:300], X_test[:8], strategy=g.PredictStrategy.EXACT)
    spent = dict.fromkeys(STEPS, 0.0)
    t0 = time.perf_counter()
    result = g.predict(theta, kernels, X, y, X_test, strategy=g.PredictStrategy.EXACT)
    total = time.perf_counter() - t0 - spent["finite_s"]
    spent["dpotrf_s"] -= spent["finite_s"]   # cholesky's own check, of the same cost
    spent["rest_s"] = total - sum(spent[s] for s in STEPS[:5])
    spent["total_s"] = total
    return {
        **spent,
        "clean_pass_s": _clean_pass(X.shape[0]),
        **flags,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "prediction_sha256": hashlib.sha256(result.mean.tobytes()
                                            + result.variance.tobytes()).hexdigest(),
        "blas": _blas_libraries(),
    }


def _clean_pass(n: int) -> float:
    """Seconds of scipy's dpotrf clean pass on an n x n matrix, alone."""
    import numpy as np
    import scipy.linalg

    potrf = scipy.linalg.get_lapack_funcs("potrf", dtype=np.float64)
    A = np.zeros((n, n), order="F")
    A[0, 0] = -1.0
    best = {}
    for clean in (1, 0) * 3:
        t0 = time.perf_counter()
        _, info = potrf(A, lower=1, clean=clean, overwrite_a=1)
        best[clean] = min(best.get(clean, np.inf), time.perf_counter() - t0)
        assert info == 1
    return best[1] - best[0]


def split(trees: dict[str, Path], reps: int, seed: int) -> dict:
    samples, blas = {side: [] for side in trees}, None
    for rep in range(reps):
        order = list(trees.items())
        for side, tree in order[::-1] if rep % 2 else order:
            run = subprocess.run([sys.executable, __file__, "--child", str(seed)],
                                 env={**os.environ, "PYTHONPATH": str(tree / "src")},
                                 capture_output=True, text=True, check=True)
            result = json.loads(run.stdout)
            blas = result.pop("blas")
            samples[side].append(result)
            print(f"split rep {rep} {side}: {samples[side][-1]['total_s']:.3f} s", file=sys.stderr)
    if len({s["prediction_sha256"] for runs in samples.values() for s in runs}) != 1:
        raise SystemExit("the checkouts' predictions differ")
    keys = (*STEPS, "clean_pass_s", "peak_rss_mb")
    return {
        "what": "one exact predict at n=6000, D=4, 256 test points (bench/assembly.py case "
                "n6000): seconds per step and the process's peak RSS, median and quartiles "
                "over fresh processes; the predictions equal bit for bit on both sides",
        "reps": reps,
        "seed": seed,
        "options": {side: {f: runs[0][f] for f in FLAGS} for side, runs in samples.items()},
        "median": {side: {k: round(statistics.median(s[k] for s in runs), 4) for k in keys}
                   for side, runs in samples.items()},
        "quartiles": {side: {k: _quartiles([s[k] for s in runs]) for k in keys}
                      for side, runs in samples.items()},
        "samples": {side: [{k: round(s[k], 4) for k in keys} for s in runs]
                    for side, runs in samples.items()},
        "blas": blas,
    }


def _src_tree(tree: Path) -> str:
    """The git tree hash of the checkout's committed `src`."""
    out = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD:src"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seeds", default="")
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="BENCH_inplace_factor.json")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        print(json.dumps(child(args.child)))
        return 0
    if not (args.parent and args.change):
        parser.error("give --parent and --change")

    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    report = {
        "revisions": {side: {"git": _revision(tree), "src_tree": _src_tree(tree)}
                      for side, tree in trees.items()},
        "split": split(trees, args.reps, args.seed),
    }
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if seeds:
        report["pairs"] = {w: pairs(args.parent, args.change, w, seeds, args.seconds)
                           for w in args.workload or ["predict-n6000"]}
    report["env"] = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
                     "blas": report["split"].pop("blas")}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

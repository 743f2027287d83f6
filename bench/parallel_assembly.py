"""The covariance build at n=6000, four ways, and end-to-end benchmark pairs.

    python3 bench/parallel_assembly.py --src src [--reps 5] [--seed 7] \
        [--parent DIR --change DIR --seeds 1101,1102,... --workload predict-n6000] \
        [--out BENCH_parallel_assembly.json]

Split: one process imports gpsgd from `--src` and builds K with
`CovariancePlan.covariance` on `n6000` of bench/assembly.py (Levy, D=4,
normalised, 6000 training points, theta=(1, 0.1)) in four variants, each
repetition running them in turn, the order reversed on every other one:

* `serial`: one thread, broadcast differences (the arithmetic before
  threads were added);
* `threads`: one thread per usable CPU, broadcast differences;
* `serial_fill`: one thread, per-dimension fill of full tiles;
* `threads_fill`: both (what `kernels` does at this size).

The variants are made by patching `kernels._workers` and `kernels._tile_sq`;
every result must equal the first bit for bit, or the script fails.

Pairs: with `--parent` and `--change`, two checkouts of the repository,
it runs `perfbench/run.py --workload W --seed S --seconds 50 --trace 0` in
each for every seed of `--seeds` (the side that runs first alternates) and
records every end-to-end metric per side: the samples, medians and
quartiles, and the number of pairs the change won.

The output adds nproc, the CPU affinity, the BLAS libraries with their
thread counts and each tree's git revision. Uses only the standard library,
numpy and scipy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from assembly import _blas_libraries, _case_inputs, _revision  # noqa: E402

VARIANTS = ("serial", "threads", "serial_fill", "threads_fill")


def split(src: str, reps: int, seed: int) -> dict:
    sys.path.insert(0, str(Path(src).resolve()))
    import gpsgd as g
    import gpsgd.kernels as kernels
    import numpy as np

    kernel_list, theta, X, _, _ = _case_inputs(g, "n6000", seed)
    plan, vec = kernels.CovariancePlan(kernel_list, theta, X), theta.to_vector()
    workers, tile_sq = kernels._workers, kernels._tile_sq

    def build(variant: str):
        kernels._workers = workers if variant.startswith("threads") else (lambda rows: 1)
        kernels._tile_sq = tile_sq if variant.endswith("fill") else (
            lambda Z, Z2, buf=None: tile_sq(Z, Z2))
        try:
            t0 = time.perf_counter()
            K = plan.covariance(vec)
            return time.perf_counter() - t0, K
        finally:
            kernels._workers, kernels._tile_sq = workers, tile_sq

    _, reference = build("serial")   # warm-up, and the bits every variant must give
    samples = {variant: [] for variant in VARIANTS}
    for rep in range(reps):
        for variant in VARIANTS[::-1] if rep % 2 else VARIANTS:
            seconds, K = build(variant)
            if not np.array_equal(K, reference):
                raise SystemExit(f"{variant}: K differs from the serial build")
            samples[variant].append(seconds)
            print(f"rep {rep} {variant}: {seconds:.3f} s", file=sys.stderr)
    return {
        "what": "CovariancePlan.covariance at n=6000, D=4 (bench/assembly.py case n6000); "
                "seconds per build, median over repetitions; every variant equal bit for bit",
        "reps": reps,
        "seed": seed,
        "workers": workers(-(-X.shape[0] // kernels._TILE)),
        "median_s": {v: round(statistics.median(s), 4) for v, s in samples.items()},
        "samples_s": {v: [round(x, 4) for x in s] for v, s in samples.items()},
    }


def _quartiles(values: list[float]) -> list[float]:
    q = statistics.quantiles(values, n=4)
    return [round(q[0], 4), round(q[2], 4)]


def pairs(parent: str, change: str, workload: str, seeds: list[int], seconds: int) -> dict:
    trees = {"parent": Path(parent).resolve(), "change": Path(change).resolve()}
    runs = {side: [] for side in trees}
    first = []
    for k, seed in enumerate(seeds):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        first.append(order[0])
        for side in order:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=trees[side], capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs[side].append(result)
            print(f"{workload} seed {seed} {side}: "
                  f"predict_cg_s {result['metrics']['predict_cg_s']['value']:.3f}",
                  file=sys.stderr)
    metrics = {}
    for name, m in runs["parent"][0]["metrics"].items():
        before = [r["metrics"][name]["value"] for r in runs["parent"]]
        after = [r["metrics"][name]["value"] for r in runs["change"]]
        metrics[name] = {
            "unit": m["unit"],
            "median_before": round(statistics.median(before), 4),
            "median_after": round(statistics.median(after), 4),
            "quartiles_before": _quartiles(before),
            "quartiles_after": _quartiles(after),
            "after_better_pairs": sum(a < b for a, b in zip(after, before)),
            "pairs": len(seeds),
            "before": [round(v, 4) for v in before],
            "after": [round(v, 4) for v in after],
        }
    return {
        "seeds": seeds,
        "first_side": first,
        "seconds": seconds,
        "correct": all(r["correct"] for side in runs.values() for r in side),
        "failed_operations": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "attempted_operations": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default="src")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seeds", default="")
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--out", default="BENCH_parallel_assembly.json")
    args = parser.parse_args()

    report = {"split": split(args.src, args.reps, args.seed)}
    if args.parent and args.change:
        seeds = [int(s) for s in args.seeds.split(",") if s]
        report["revisions"] = {"parent": _revision(Path(args.parent)),
                               "change": _revision(Path(args.change))}
        report["pairs"] = {w: pairs(args.parent, args.change, w, seeds, args.seconds)
                           for w in args.workload or ["predict-n6000"]}
    report["env"] = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
                     "blas": _blas_libraries(), "git_sha": _revision(Path(args.src))}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

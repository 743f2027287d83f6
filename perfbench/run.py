"""gpsgd benchmark: run one workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The workloads, metrics and units are the
ones `BENCHMARK.json` declares; `perfbench/README.md` says why each exists.

--trace 0 starts one child process that sets up the workload from the seed
and runs its stages for S seconds, then four more that only set up, and
reports the end-to-end metrics (set-up time is the median of the five).
--trace 1 starts one child that replays each stage with spans around the
calls into each module (see traced.py), then one untraced child with BLAS
forced to one thread for S/4 seconds, and reports the per-layer metrics.
One child runs at a time; children inherit the environment without
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS, so BLAS runs with
its own default.

The last line of standard output is the result as one JSON object. The full
record (environment, sample counts, unit times, failures) is written to
perfbench/out/<workload>-seed<seed>-trace<t>.json, and the traced run's
spans next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0


class ChildFailed(Exception):
    pass


def child_env(one_thread: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    if one_thread:
        env.update({k: "1" for k in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def spawn(args, mode: str, deadline: float, seconds: float | None = None,
          one_thread: bool = False, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds or args.seconds),
           "--mode", mode, "--t0", repr(time.monotonic())]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=child_env(one_thread), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def source_identity() -> dict:
    """The git commit if the checkout is a repository, and a digest of the
    package source either way."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gpsgd").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "gpsgd" / "__init__.py").is_file():
        print(f"no gpsgd package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **source_identity()}
    try:
        if args.trace:
            spans = out_dir / f"{stem}-spans.json"
            main_run = spawn(args, "trace", deadline, spans=spans)
            # The single-thread baseline: same stages, a quarter of the measuring time.
            blas1 = spawn(args, "e2e", deadline, seconds=args.seconds / 4, one_thread=True)
            measured = dict(main_run["metrics"])
            measured.update({f"blas1.{k}": v for k, v in blas1["metrics"].items()})
            children = [main_run, blas1]
            declared = spec["per_layer"]
            threads = {lib["threads"] for lib in blas1["env"]["blas"]}
            blas1["attempted"] += 1
            if threads != {1}:
                blas1["failures"].append(f"single-thread baseline ran with {threads} BLAS threads")
            record["blas1_env"] = blas1["env"]
        else:
            main_run = spawn(args, "e2e", deadline)
            setups = [main_run["metrics"]["setup_s"]] + [
                spawn(args, "setup", deadline)["metrics"]["setup_s"]
                for _ in range(SETUP_RUNS - 1)]
            measured = dict(main_run["metrics"], setup_s=statistics.median(setups))
            record["setup_samples_s"] = setups
            children = [main_run]
            declared = spec["end_to_end"]
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failures = [f for child in children for f in child["failures"]]
    attempted = sum(child["attempted"] for child in children)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        failures.append(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in measured}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record.update(env=main_run["env"], samples=main_run["samples"],
                  unit_s=main_run["unit_s"], failures=failures,
                  all_measured=measured, result=result)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for failure in failures:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

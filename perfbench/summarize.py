"""Summarise benchmark run records into one trajectory point.

    python3 perfbench/summarize.py --seeds 101-110 > perfbench/trajectory/<sha>.json

Reads the run records `run.py` wrote to perfbench/out for the given seeds
and prints, per workload and metric, the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them), the spread (quartile
distance over the median) and the number of runs, together with the
environment and source identity of the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", required=True, help="inclusive range, as 101-110")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values: dict = {}
    identity = {}
    for path in sorted((HERE / "out").glob("*-trace[01].json")):
        record = json.loads(path.read_text())
        if not lo <= record["seed"] <= hi:
            continue
        identity = {k: record[k] for k in ("git_sha", "src_sha256", "env")}
        per_workload = values.setdefault(f"{record['workload']}/trace{record['trace']}", {})
        for name, metric in record["result"]["metrics"].items():
            per_workload.setdefault(name, []).append(metric["value"])
    summary = {}
    for key, metrics in sorted(values.items()):
        summary[key] = {}
        for name, vals in metrics.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            summary[key][name] = {"median": median, "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / median if median else None,
                                  "runs": len(vals)}
    print(json.dumps({"seeds": args.seeds, **identity, "results": summary}, indent=2))


if __name__ == "__main__":
    main()

"""Collect the run records in bench/out into one result file.

    python3 bench/summarize.py

For every workload it keeps, per metric, the median and quartiles over the
untraced runs (one per seed) and the values of the traced runs, with the
seeds, the failed/attempted counts and the environment of the runs.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def summarize(records):
    out = {}
    for rec in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        wl = out.setdefault(rec["workload"], {"untraced": [], "traced": []})
        wl["traced" if rec["trace"] else "untraced"].append(rec)
    summary = {}
    for name, runs in out.items():
        entry = {}
        for kind, recs in runs.items():
            if not recs:
                continue
            metrics = {}
            for metric in recs[0]["metrics"]:
                values = [r["metrics"][metric]["value"] for r in recs]
                row = {"unit": recs[0]["metrics"][metric]["unit"],
                       "median": statistics.median(values)}
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    row.update(q1=q1, q3=q3, spread=(q3 - q1) / row["median"]
                               if row["median"] else 0.0)
                metrics[metric] = row
            entry[kind] = {
                "seeds": [r["seed"] for r in recs],
                "seconds": recs[0]["seconds"],
                "attempted": [r["attempted"] for r in recs],
                "failed": [r["failed"] for r in recs],
                "correct": all(r["correct"] for r in recs),
                "problems": sorted({p for r in recs for p in r["problems"]}),
                "metrics": metrics,
            }
        summary[name] = entry
    return summary


def main():
    records = [json.loads(f.read_text()) for f in sorted((BENCH / "out").glob("*-t[01].json"))]
    if not records:
        raise SystemExit("no run records in bench/out")
    result = {"environment": records[0]["environment"], "workloads": summarize(records)}
    (BENCH / "BENCH_baseline.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

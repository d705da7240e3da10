#!/usr/bin/env python3
"""Compares two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--spec BENCHMARK.json]

Each file holds the records `perfbench/run.py --out FILE` appends, one per
run. Collect ten or more runs of each commit with the same --seconds,
alternating which commit runs first. For every (workload, metric) measured
on both sides this prints each side's median and quartiles, how many run
pairs the new side won (pairs in file order; ties count for neither), and a
verdict:

  improved    the new side won at least nine tenths of the pairs and its
              median beats the base median by more than the base runs'
              interquartile distance;
  regressed   the new median is worse than the base median by more than the
              metric's bound (a share of the base median);
  unresolved  the base runs spread wider than the bound (interquartile
              distance over the median) and not every new run beats every
              base run; or an apparent improvement on a workload where more
              operations failed than at the base;
  unchanged   otherwise.

Bounds and directions come from BENCHMARK.json for the metrics it lists.
Per-layer metrics (traced runs) and the workload-specific end-to-end metrics
of run.py's info line have no bound there; DEFAULT_BOUND stands in.
"""

import argparse
import json
import statistics

DEFAULT_BOUND = 0.10
# Workload-specific end-to-end metrics (run.py info line) -> better.
WORKLOAD_METRICS = {
    "direct_p99_ms": "lower",
    "clustering_p50_ms": "lower",
    "clustering_p99_ms": "lower",
    "ingest_fps": "higher",
    "ingest_ack_p50_ms": "lower",
    "ingest_ack_p99_ms": "lower",
    "flush_s": "lower",
    "push_p50_ms": "lower",
    "push_p99_ms": "lower",
    "error_rate": "lower",
}


def load_spec(path):
    """metric -> (better, bound)."""
    spec = {name: (better, DEFAULT_BOUND)
            for name, better in WORKLOAD_METRICS.items()}
    with open(path, encoding="utf-8") as f:
        bench = json.load(f)
    for metric in bench["per_layer"]:
        spec[metric["name"]] = (metric["better"], DEFAULT_BOUND)
    for metric in bench["end_to_end"]:
        spec[metric["name"]] = (metric["better"], metric["bound"])
    return spec


def load_runs(path, spec):
    """(workload, metric) -> values in file order; workload -> failed ops."""
    values, failed = {}, {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            workload = record["workload"]
            metrics = dict(record["result"]["metrics"])
            metrics.update(record["info"].get("workload_metrics", {}))
            for name, metric in metrics.items():
                if name in spec:
                    values.setdefault((workload, name), []).append(
                        metric["value"])
            failed[workload] = (failed.get(workload, 0) +
                                record["result"]["failed"])
    return values, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, new, better, bound, more_failures):
    """(verdict, pairs won by the new side, pairs)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    b_q1, b_median, b_q3 = quartiles(base)
    n_median = quartiles(new)[1]
    gain = sign * (n_median - b_median)  # > 0: the new side is better
    iqr = b_q3 - b_q1
    scale = abs(b_median)
    if pairs and wins >= 0.9 * len(pairs) and gain > iqr:
        return ("unresolved" if more_failures else "improved"), wins, len(pairs)
    if gain < 0 and (scale == 0 or -gain / scale > bound):
        return "regressed", wins, len(pairs)
    spread = iqr / scale if scale else (0.0 if iqr == 0 else float("inf"))
    every_run_better = all(sign * (n - b) > 0 for n in new for b in base)
    if spread > bound and not every_run_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="run.py --out file of the parent")
    parser.add_argument("new", help="run.py --out file of the change")
    parser.add_argument("--spec", default="BENCHMARK.json")
    args = parser.parse_args()
    spec = load_spec(args.spec)
    base, base_failed = load_runs(args.base, spec)
    new, new_failed = load_runs(args.new, spec)

    rows = [("workload", "metric", "base median [q1, q3]",
             "new median [q1, q3]", "wins", "verdict")]
    for key in sorted(set(base) & set(new)):
        workload, name = key
        better, bound = spec[name]
        more_failures = new_failed.get(workload, 0) > base_failed.get(workload, 0)
        result, wins, pairs = verdict(base[key], new[key], better, bound,
                                      more_failures)
        b, n = quartiles(base[key]), quartiles(new[key])
        rows.append((workload, name,
                     f"{b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}]",
                     f"{n[1]:.4g} [{n[0]:.4g}, {n[2]:.4g}]",
                     f"{wins}/{pairs}", result))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())


if __name__ == "__main__":
    main()

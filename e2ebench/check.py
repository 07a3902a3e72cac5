"""Compares two sets of e2e results, metric by metric, against BENCHMARK.json.

    python3 e2ebench/run.py --check <dirA> <dirB>

Each directory holds the `*.metrics.json` files that runs with `--out <dir>`
wrote: several seeds per workload, untraced and traced. A is the baseline
(the parent commit), B the candidate. One row is printed per workload and
metric with both medians and quartiles. For an end-to-end metric the row ends
in a verdict against its bound in BENCHMARK.json:

    ok          B's median is not worse than A's by more than the bound
    REGRESSED   it is
    unresolved  the quartile distance of A's or B's own runs, as a share of
                the median, exceeds the bound, so the comparison cannot tell

Per-layer metrics have no bound and no verdict. Counters that depend only on
the data and the code (`EXACT` below) must be identical in A and B for every
seed both have. The exit code is 1 for a regression or a counter mismatch.
"""

import glob
import json
import os
import statistics

# Identical inputs must give identical values. The work counters sum over the
# lookups a pass completed, which beside a concurrent ingest varies, so on
# ingest_mix only the space overhead is exact.
EXACT = (
    "space_overhead_x",
    "store.bytes_scanned",
    "store.segments_read",
    "store.segments_pruned",
    "store.index_probes",
    "store.index_rows_fetched",
    "store.postings_bytes",
    "wire.bytes_sent",
    "wire.bytes_received",
)
EXACT_ON_CONCURRENT = ("space_overhead_x",)
CONCURRENT_WORKLOADS = ("ingest_mix",)


def load(directory):
    """{workload: {metric: {seed: value}}} of every metrics file in a directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.metrics.json"))):
        with open(path) as f:
            doc = json.load(f)
        if not doc["result"]["correct"]:
            print(f"warning: {path} reports an incorrect run")
        by_metric = runs.setdefault(doc["workload"], {})
        for name, metric in doc["result"]["metrics"].items():
            by_metric.setdefault(name, {})[doc["seed"]] = metric["value"]
    return runs


def quartiles(values):
    """(q1, median, q3); a single value stands for all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return abs(q3 - q1) / abs(q2) if q2 else 0.0


def summary(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}..{q3:.6g}] n={len(values)}"


def verdict(spec, a, b):
    """Judges an end-to-end metric: (text, regressed)."""
    bound = spec["bound"]
    if max(spread(a), spread(b)) > bound:
        return f"unresolved (spread {max(spread(a), spread(b)):.3f} > {bound})", False
    base, cand = statistics.median(a), statistics.median(b)
    change = (cand - base) / abs(base) if base else 0.0
    worse = change if spec["better"] == "lower" else -change
    if worse > bound:
        return f"REGRESSED {worse:+.3f} > {bound}", True
    return f"ok {worse:+.3f} <= {bound}", False


def main(argv, benchmark_json):
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(benchmark_json) as f:
        spec = json.load(f)
    a_runs, b_runs = load(argv[0]), load(argv[1])
    metrics = [(m, True) for m in spec["end_to_end"]] + [(m, False) for m in spec["per_layer"]]
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        a_metrics, b_metrics = a_runs.get(workload, {}), b_runs.get(workload, {})
        for metric, gated in metrics:
            name = metric["name"]
            a, b = a_metrics.get(name, {}), b_metrics.get(name, {})
            if not a and not b:
                # Neither directory has runs of this mode for the workload.
                continue
            if not a or not b:
                print(f"{workload:<13} {name:<26} missing in {'A' if not a else 'B'}")
                failures += gated
                continue
            a_values, b_values = list(a.values()), list(b.values())
            row = f"{workload:<13} {name:<26} {metric['unit']:<6} A {summary(a_values)}  B {summary(b_values)}"
            if gated:
                text, regressed = verdict(metric, a_values, b_values)
                row += f"  {text}"
                failures += regressed
            exact = EXACT_ON_CONCURRENT if workload in CONCURRENT_WORKLOADS else EXACT
            common = [seed for seed in a if seed in b]
            if name in exact and common:
                differing = [seed for seed in common if a[seed] != b[seed]]
                if differing:
                    row += f"  NOT IDENTICAL for seeds {differing}"
                    failures += 1
                else:
                    row += f"  identical for {len(common)} seeds"
            print(row)
    print(f"{failures} regressions or mismatches")
    return 1 if failures else 0

#!/usr/bin/env python3
"""Fails when a benchmark smoke run's exact-repeat values leave the baseline.

    python3 ci/check_smoke.py ci/smoke_baseline.json <dir>

`<dir>/<workload>.json` holds the result object (the last line) that
`python3 e2ebench/run.py --workload <workload> --seed 1 --seconds 1 --trace 0
--smoke` printed, for every workload the baseline names. The values checked
depend only on the data and the code, never on the host: the wire megabytes
per pass and the space overhead. Any difference fails the check; a change that
moves one on purpose updates the baseline in the same commit and says why.
Times are not checked: a shared runner is no place to bound them.

`<dir>/traced/<workload>.json` holds the result line of the same run with
`--trace 1`, for every workload the baseline's `traced_values` names. Its
work counters are as exact: the `store.*` counters (bytes scanned, segments
read and pruned, index probes, index rows fetched, postings bytes) count what
the server's scans read, `core.decrypt_rows` the rows the client decrypted,
and `server.queries` and `server.rows_scanned` the queries the client sent
the server and the base-table rows they scanned. Only the data, the plans
and the executor decide them.
"""

import json
import os
import sys


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    baseline_path, results_dir = argv
    with open(baseline_path) as f:
        baseline = json.load(f)
    failures = []
    for section, subdir in (("values", ""), ("traced_values", "traced")):
        for workload, expected in sorted(baseline.get(section, {}).items()):
            with open(os.path.join(results_dir, subdir, f"{workload}.json")) as f:
                metrics = json.load(f)["metrics"]
            run = os.path.join(subdir, workload)
            for name, want in sorted(expected.items()):
                got = metrics.get(name, {}).get("value")
                status = "ok" if got == want else "DIFFERS"
                print(f"{run:<20} {name:<24} baseline {want!r:<22} smoke {got!r:<22} {status}")
                if got != want:
                    failures.append(f"{run} {name}")
    if failures:
        sys.exit("smoke values differ from the baseline: " + ", ".join(failures))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

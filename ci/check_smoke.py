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
    for workload, expected in sorted(baseline["values"].items()):
        with open(os.path.join(results_dir, f"{workload}.json")) as f:
            metrics = json.load(f)["metrics"]
        for name, want in sorted(expected.items()):
            got = metrics.get(name, {}).get("value")
            status = "ok" if got == want else "DIFFERS"
            print(f"{workload:<14} {name:<18} baseline {want!r:<22} smoke {got!r:<22} {status}")
            if got != want:
                failures.append(f"{workload} {name}")
    if failures:
        sys.exit("smoke values differ from the baseline: " + ", ".join(failures))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

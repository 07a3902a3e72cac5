#!/usr/bin/env python3
"""Builds monomi-server and the e2e benchmark, then runs it.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                            [--out <dir>] [--smoke]
    python3 e2ebench/run.py --all [--seed <n>] [--seconds <s>] [--out <dir>] [--smoke]
    python3 e2ebench/run.py --check <dirA> <dirB>

Run it from the root of the repository. The first form is one run of one
workload (what BENCHMARK.json names as the command): the last line of its
standard output is the result object. `--all` runs the four workloads, each
untraced and traced, so that every end-to-end and per-layer metric is
printed. `--check` compares two directories written with `--out`.
"""

import json
import os
import shutil
import subprocess
import sys

# Importing check.py must leave nothing behind in the checkout.
sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds both programs from source; returns the path of `e2e`.

    `monomi-server` is built from the repository's own workspace with its own
    release profile; `e2e` is a package of its own beside this file. Both go
    to CARGO_TARGET_DIR (default `.bench_build` in the repository root), so
    `e2e` finds the server next to itself. cargo's output goes to stderr.
    """
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for manifest, package_args in (
        ("Cargo.toml", ["-p", "monomi-server", "--bin", "monomi-server"]),
        (os.path.join("e2ebench", "Cargo.toml"), []),
    ):
        command = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
        done = subprocess.run(command + package_args, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: {' '.join(command)} failed")
    return os.path.join(ROOT, target, "release", "e2e")


def split_cpus(workload):
    """Splits the CPUs this process may use: returns the command prefix that
    confines the client to the lower half and the argument that confines the
    server to the upper half. The two sides then never share a CPU, as on two
    machines.

    Left to itself the kernel sometimes runs the client's thread and the
    server's connection thread on one CPU (a loopback round trip of 8 us) and
    sometimes on two (45 us), depending on what ran before; that coin alone
    moved `point_lookup` by a factor of 1.5 to 2 between runs.

    A half must hold the client's busy threads: one for a sequential pass,
    two for `ingest_mix`, whose lookup loop and ingest loop run side by side.
    Where it cannot (one CPU; `ingest_mix` on fewer than four), or without
    `taskset` for the server, nothing is confined, and the run's first lines
    say which CPUs each side had.
    """
    cpus = sorted(os.sched_getaffinity(0))
    half = len(cpus) // 2
    busy_client_threads = 2 if workload == "ingest_mix" else 1
    if half < busy_client_threads or shutil.which("taskset") is None:
        return [], []
    lower, upper = (",".join(str(c) for c in part) for part in (cpus[:half], cpus[half:]))
    return ["taskset", "-c", lower], ["--server-cpus", upper]


def run_one(e2e, args):
    """One run; standard output passes through. Returns the exit code."""
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else None
    client_prefix, server_cpus = split_cpus(workload)
    return subprocess.run(client_prefix + [e2e] + args + server_cpus, cwd=ROOT).returncode


def main(argv):
    if argv[:1] == ["--check"]:
        sys.path.insert(0, HERE)
        import check

        return check.main(argv[1:], os.path.join(ROOT, "BENCHMARK.json"))
    e2e = build()
    if argv[:1] != ["--all"]:
        return run_one(e2e, argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rest = argv[1:]
    if "--seed" not in rest:
        rest += ["--seed", "1"]
    if "--seconds" not in rest:
        rest += ["--seconds", str(spec["run_seconds"])]
    worst = 0
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            print(f"== {workload['name']} --trace {trace}", flush=True)
            code = run_one(e2e, ["--workload", workload["name"], "--trace", trace] + rest)
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

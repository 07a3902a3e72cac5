#!/usr/bin/env python3
"""Fails when the MONOMI_* names the code reads and the documented ones differ.

    python3 ci/check_knobs.py

The code's names are the string literals `"MONOMI_..."` under `crates/`,
`src/` and `tests/` (the test-only `MONOMI_TEST_KNOB_*` names of
`crates/monomi-store/src/env.rs` excepted). The documented names are the
first column of the table under README.md's "## Configuration" heading. An
undocumented knob fails the check, and so does a documented one that nothing
reads.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LITERAL = re.compile(r'"(MONOMI_[A-Z_]+)"')
TABLE_ROW = re.compile(r"^\| `(MONOMI_[A-Z_]+)` \|")


def code_names():
    names = set()
    for top in ("crates", "src", "tests"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [d for d in dirnames if d != "target"]
            for filename in filenames:
                if not filename.endswith(".rs"):
                    continue
                with open(os.path.join(dirpath, filename), encoding="utf-8") as f:
                    for name in LITERAL.findall(f.read()):
                        if not name.startswith("MONOMI_TEST_KNOB_"):
                            names.add(name)
    return names


def documented_names():
    names = set()
    in_section = False
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        for line in f:
            if line.startswith("#"):
                in_section = line.strip() == "## Configuration"
            elif in_section:
                match = TABLE_ROW.match(line)
                if match:
                    names.add(match.group(1))
    return names


def main():
    code, documented = code_names(), documented_names()
    if not documented:
        sys.exit("check_knobs: README.md has no Configuration table")
    failures = [f"{name}: read in code, missing from README's Configuration table"
                for name in sorted(code - documented)]
    failures += [f"{name}: in README's Configuration table, read nowhere in code"
                 for name in sorted(documented - code)]
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"check_knobs: {len(code)} MONOMI_* names, all documented")


if __name__ == "__main__":
    main()

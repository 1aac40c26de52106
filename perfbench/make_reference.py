#!/usr/bin/env python3
"""Regenerate the benchmark's reference data from the current source tree.

    python3 perfbench/make_reference.py

Writes two files next to this script:

* ``groups.json``: names and multiplication tables of the builtin groups the
  exterior-scan workload relabels, so the benchmark hands the library only
  mapping inputs.
* ``reference.json``: SHA-256 of the stdout of each cli-a4 command that takes
  no seeded parameter.  A report that differs from it by one byte fails.

Run it only when a change means to alter CLI output, and say so in the
change description.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import CLI_FIXED  # noqa: E402


def main() -> None:
    from ncgeo import build_group

    groups = {}
    for name in ("a4", "s3", "sl2z3", "s4"):
        g = build_group(name)
        groups[name] = {"names": list(g.names), "table": [list(r) for r in g.table]}
    with open(os.path.join(HERE, "groups.json"), "w", encoding="utf-8") as fh:
        json.dump(groups, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    digests = {}
    for argv in CLI_FIXED:
        out = subprocess.run(
            [sys.executable, "-m", "ncgeo.cli", *argv],
            env=env, cwd=ROOT, capture_output=True, check=True,
        ).stdout
        digests[" ".join(argv)] = hashlib.sha256(out).hexdigest()
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"stdout_sha256": digests}, fh, sort_keys=True, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run one ncgeo CLI command with the span wrappers installed.

    python3 perfbench/cli_launcher.py OUT.json COMMAND [OPTIONS...]

Behaves like ``ncgeo COMMAND [OPTIONS...]`` (same stdout, stderr and exit
code) and writes the import time of ``ncgeo.cli``, the spans and the counts
of the run to OUT.json.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import ncgeo.cli

    import_s = time.perf_counter() - start
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.task = 0
    code = ncgeo.cli.run(argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({**tracer.dump(), "cache": tracer.cache_totals(), "import_s": import_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

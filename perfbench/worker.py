#!/usr/bin/env python3
"""Run one set-up, or one set-up and one pass, of the exterior-scan workload.

    python3 perfbench/worker.py SPEC.json OUT.json

SPEC holds the inputs the harness generated from the seed, the task list,
``setup_only`` and ``trace``.  OUT receives the set-up
time, one record per task (exit code, results, wall time) and, when traced,
the spans and counts.  A task that raises is recorded with exit code 2 and
the pass goes on.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def setup(inputs: dict) -> dict:
    """Import the library, build groups and calculi, fill the lru caches."""
    from ncgeo import build_group, calculus, class_calculus

    groups = {name: build_group(spec) for name, spec in inputs["groups"].items()}
    calculi = {}
    for gname, element in inputs["calculi"]:
        c = class_calculus(groups[gname], element)
        # the exterior and quadratic dimensions read only these two caches
        calculus.braiding(c)
        calculus.degree2_relations(c)
        calculi[gname, element] = c
    return calculi


def run_task(calculi: dict, task: dict) -> dict:
    """Compute one class's exterior and quadratic dimensions."""
    from ncgeo import calculus

    c = calculi[task["group"], task["class"]]
    return {"ext": [calculus.exterior_dimension_info(c, m)[0]
                    for m in range(task["ext_degrees"])],
            "quad": [calculus.quadratic_dimension(c, m)
                     for m in range(2, 2 + task["quad_degrees"])]}


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.task = "setup"
    calculi = setup(spec["inputs"])
    out: dict = {"setup_s": time.perf_counter() - T0, "records": []}
    if not spec["setup_only"]:
        if tracer is not None:
            cache0 = tracer.cache_totals()
        for i, task in enumerate(spec["tasks"]):
            if tracer is not None:
                tracer.task = i
            start = time.perf_counter()
            try:
                rec = {"exit": 0, "results": run_task(calculi, task), "certifications": []}
            except Exception:  # a failed task is counted, the pass goes on
                rec = {"exit": 2, "error": traceback.format_exc(limit=3)}
            rec["wall_s"] = time.perf_counter() - start
            out["records"].append(rec)
        if tracer is not None:
            cache1 = tracer.cache_totals()
            out["trace"] = {**tracer.dump(),
                            "cache": [cache1[0] - cache0[0], cache1[1] - cache0[1]]}
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()

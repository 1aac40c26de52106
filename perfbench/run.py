#!/usr/bin/env python3
"""The ncgeo benchmark: one command per run, metrics on the last line.

    python3 perfbench/run.py --workload {cli-a4,exterior-scan} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the library is taken from ./src).
Load comes from one closed-loop client: one child process at a time, the
next started when the previous has exited.

--trace 0 measures the end-to-end metrics.  It times set-up several times
in fresh processes, then runs whole passes over the workload's task list,
each in fresh processes, while the next pass still fits in S seconds (at
least one).  Each pass reports its wall time, the median and maximum task
time and its peak RSS; the run reports the median over passes.

--trace 1 measures the per-layer metrics.  It runs one untraced pass and
two traced passes on the same inputs: the first traced pass gives the
per-layer numbers, the second must repeat every count exactly, and the
traced outputs must equal the untraced ones.

Every task's output is checked (see workloads.check); a failed task counts
in ``failed`` and the pass goes on.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cli-a4", "exterior-scan")
# set-up samples per run; exterior-scan passes add one more each
SETUP_SAMPLES = {"cli-a4": 3, "exterior-scan": 2}
CLI_SETUP = ("import ncgeo.cli as cli; "
             "cli.class_calculus(cli.build_group('a4'), 't')")
# children still running this long after the run started are killed, so a
# run ends well within the 180 s a run may take
RUN_LIMIT_S = 165.0

# which end-to-end metric each layer's metrics should move, and where;
# task_max_s is printed but not bounded
LAYER_MAP = {
    "cli": "setup_s, task_p50_s on cli-a4",
    "groups": "setup_s on both workloads, most on exterior-scan",
    "cyclotomic": "wall_s, task_max_s on cli-a4; none on exterior-scan",
    "linalg": "wall_s, task_max_s on cli-a4 (solve_affine in connections, rank in laplacian)",
    "linalg.modular": "wall_s, task_max_s on exterior-scan; extdims on cli-a4",
    "calculus": "wall_s, peak_rss_mb on exterior-scan",
    "riemann": "wall_s, task_max_s on cli-a4 (connections)",
    "dirac": "wall_s, task_p50_s on cli-a4",
    "cohomology": "task_p50_s on cli-a4",
}


class Runner:
    """Starts the benchmark's child processes, one at a time."""

    def __init__(self, tmp: str) -> None:
        self.tmp = tmp
        self.kill_at = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.serial = 0

    def path(self, stem: str) -> str:
        self.serial += 1
        return os.path.join(self.tmp, f"{self.serial}-{stem}")

    def child(self, argv: list[str]) -> dict:
        """Run argv to completion: exit code, stdout, wall time, peak RSS."""
        out_path, err_path = self.path("stdout"), self.path("stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(0.0, self.kill_at - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return {"exit": proc.returncode, "stdout": stdout, "stderr": stderr,
                "wall_s": wall, "maxrss_kb": usage.ru_maxrss}

    def worker(self, spec: dict) -> dict:
        """Run worker.py on spec; a worker that dies fails all its tasks."""
        spec_path, out_path = self.path("spec.json"), self.path("out.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        res = self.child([sys.executable, os.path.join(HERE, "worker.py"),
                          spec_path, out_path])
        if res["exit"] == 0:
            with open(out_path, encoding="utf-8") as fh:
                return json.load(fh)
        error = f"worker exited with {res['exit']}: {res['stderr'][-2000:]}"
        if spec["setup_only"]:
            raise RuntimeError(error)
        return {"setup_s": None, "maxrss_kb": res["maxrss_kb"],
                "records": [{"exit": res["exit"] or 1, "error": error, "wall_s": 0.0}
                            for _ in spec["tasks"]],
                "trace": {"spans": [], "counts": {}, "cache": [0, 0]}}


def setup_sample(runner: Runner, workload: str, inputs: dict) -> float:
    if workload == "cli-a4":
        res = runner.child([sys.executable, "-c", CLI_SETUP])
        if res["exit"] != 0:
            raise RuntimeError(f"set-up failed: {res['stderr'][-2000:]}")
        return res["wall_s"]
    spec = {"inputs": inputs, "tasks": [], "setup_only": True, "trace": False}
    return runner.worker(spec)["setup_s"]


def run_pass(runner: Runner, workload: str, inputs: dict, tasks: list[dict],
             traced: bool) -> dict:
    """One pass over the task list: per-task records, set-up time, peak RSS."""
    if workload == "cli-a4":
        records, procs = [], []
        for task in tasks:
            if traced:
                trace_path = runner.path("trace.json")
                argv = [sys.executable, os.path.join(HERE, "cli_launcher.py"),
                        trace_path, *task["argv"]]
            else:
                argv = [sys.executable, "-m", "ncgeo.cli", *task["argv"]]
            rec = runner.child(argv)
            if traced and os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as fh:
                    procs.append(json.load(fh))
            records.append(rec)
        return {"records": records, "procs": procs, "setup_s": None,
                "maxrss_kb": max(r["maxrss_kb"] for r in records)}
    spec = {"inputs": inputs, "tasks": tasks, "setup_only": False, "trace": traced}
    out = runner.worker(spec)
    return {"records": out["records"], "procs": [out["trace"]] if traced else [],
            "setup_s": out["setup_s"], "maxrss_kb": out["maxrss_kb"]}


def pass_wall(p: dict) -> float:
    return sum(r["wall_s"] for r in p["records"])


def check_pass(workload: str, tasks: list[dict], p: dict, reference: dict,
               problems: list[str]) -> int:
    """Check every task of a pass; return the number that failed."""
    failed = 0
    for task, rec in zip(tasks, p["records"]):
        why = workloads.check(workload, task, rec, reference)
        if why is not None:
            failed += 1
            detail = rec.get("stderr") or rec.get("error") or ""
            problems.append(f"{task['name']}: {why} {detail.strip()[-300:]}".rstrip())
    return failed


def comparable(workload: str, p: dict) -> list:
    key = "stdout" if workload == "cli-a4" else "results"
    return [(r["exit"], r.get(key)) for r in p["records"]]


def environment(workload: str, seed: int) -> dict:
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    versions = {}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"workload": workload, "why": workloads.WHY[workload], "seed": seed,
            "python": sys.version.split()[0], **versions, "nproc": os.cpu_count(),
            "git_sha": sha, "loadavg_1m": os.getloadavg()[0],
            "clients": 1, "loop": "closed", "layer_map": LAYER_MAP}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ncgeo", "cli.py")):
        print("perfbench: no ncgeo source under ./src; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["stdout_sha256"]
    print(json.dumps({"env": environment(args.workload, args.seed)}, sort_keys=True))

    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    # a terminated run still removes its scratch files and stops its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return measure(Runner(tmp), args, reference)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:  # another run still uses it
            pass


def measure(runner: Runner, args, reference: dict) -> int:
    workload = args.workload
    inputs, tasks = workloads.make_tasks(workload, args.seed)
    deadline = time.perf_counter() + args.seconds
    problems: list[str] = []
    if args.trace:
        passes = [run_pass(runner, workload, inputs, tasks, traced) for traced in (0, 1, 1)]
    else:
        setups = [setup_sample(runner, workload, inputs)
                  for _ in range(SETUP_SAMPLES[workload])]
        passes = [run_pass(runner, workload, inputs, tasks, False)]
        while time.perf_counter() + pass_wall(passes[-1]) <= deadline:
            passes.append(run_pass(runner, workload, inputs, tasks, False))
        setups += [p["setup_s"] for p in passes if p["setup_s"] is not None]
    failed = sum(check_pass(workload, tasks, p, reference, problems) for p in passes)
    attempted = len(tasks) * len(passes)
    problems += workloads.self_test(workload, tasks, passes[0]["records"])

    if args.trace:
        base, first, second = passes
        metrics = tracing.layer_metrics(first["procs"], pass_wall(first))
        metrics["trace.overhead_ratio"] = (pass_wall(first) / pass_wall(base)
                                           if pass_wall(base) else 0.0)
        again = tracing.layer_metrics(second["procs"], pass_wall(second))
        for key, value in metrics.items():
            if key.endswith(tracing.DETERMINISTIC_SUFFIXES) or key.startswith("cyclotomic."):
                if again[key] != value:
                    problems.append(f"count {key} did not repeat: {value} then {again[key]}")
        for p in (first, second):
            if comparable(workload, p) != comparable(workload, base):
                problems.append("traced outputs differ from untraced outputs")
        units = dict(tracing.PER_LAYER)
    else:
        per_pass = [[r["wall_s"] for r in p["records"]] for p in passes]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(sum(w) for w in per_pass),
            "task_p50_s": statistics.median(statistics.median(w) for w in per_pass),
            "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in passes) / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s", "peak_rss_mb": "MB"}
        print(f"passes = {len(passes)}, tasks per pass = {len(tasks)}, "
              f"set-up samples = {len(setups)}")
        # one task's time: too noisy on shared CPUs to bound, so printed only
        print(f"task_max_s = {statistics.median(max(w) for w in per_pass):.6g} s")
    for line in problems:
        print(f"FAIL {line}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} tasks)")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

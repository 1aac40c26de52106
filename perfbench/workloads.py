"""Workloads: seeded inputs, task lists and the correctness gate.

Nothing here imports ncgeo.  The harness builds every input from the seed;
the library sees only those inputs, through the CLI or through worker.py.

Why these two workloads: cli-a4 is what users run, one fresh process per
command, so it pays import time and cold caches on every call, and its time
goes to exact Q(omega) linear algebra over Fractions.  exterior-scan is
modular rank and sparse braided factorials with almost no Q(omega)
arithmetic: the bypass case for scalar and exact-elimination changes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

WHY = {
    "cli-a4": "what users run: 10 commands on A4, each in a fresh process, paying import time and cold caches; exact Fraction algebra",
    "exterior-scan": "exterior and quadratic dimensions of relabelled A4, S3, SL(2,3), S4 classes: modular rank, almost no Q(omega) work",
}

# the cli-a4 pass in order; "--mu" gets a seeded value and the report is
# checked on mu-invariants, every other command's stdout must match
# reference.json byte for byte
CLI_COMMANDS = (
    ("extdims", "--quadratic"), ("connections", "--mu"), ("levi-civita", "--mu"),
    ("curvature",), ("ricci", "--lift", "both"), ("dirac",), ("laplacian", "--mu"),
    ("cohomology",), ("flat-u1",), ("s4-check",),
)
CLI_FIXED = tuple(argv for argv in CLI_COMMANDS if argv[-1] != "--mu")

A4_EXT = [1, 4, 8, 11, 12, 12, 11]
A4_QUAD = [8, 11, 12, 12, 12]
# (group, class element, exterior dims from degree 0, quadratic dims from degree 2)
SCAN = (
    ("a4", "t", A4_EXT, A4_QUAD),
    ("s3", "(12)", [1, 3, 4, 3, 1, 0, 0], [4, 3, 1, 0, 0]),
    ("sl2z3", "0121", A4_EXT, A4_QUAD),
    ("sl2z3", "0122", A4_EXT, A4_QUAD),
    ("sl2z3", "0211", A4_EXT, A4_QUAD),
    ("sl2z3", "0212", A4_EXT, A4_QUAD),
    # S4 (34) stops at degree 5: degree 6 (dimension 106) peaks at 1.6 GB RSS
    ("s4", "(34)", [1, 6, 19, 42, 71, 96], []),
    ("s4", "(123)", [1, 8, 38, 142, 455, 1308], []),
)


# -- Q(omega) values, serialised like Cyclotomic.to_json ---------------------

def q_json(re, om=0):
    re, om = Fraction(re), Fraction(om)
    return str(re) if not om else {"om": str(om), "re": str(re)}


def spectrum_key(pairs) -> list:
    """Canonical form of a spectrum given as (json value, multiplicity) pairs."""
    return sorted([json.dumps(v, sort_keys=True), m] for v, m in pairs)


def laplacian_spectrum(mu: Fraction) -> list:
    """0, -4s (x9), 12s w, 12s w^2 with s = 1/(1 + 4 mu)."""
    s = 1 / (1 + 4 * mu)
    return spectrum_key([(q_json(0), 1), (q_json(-4 * s), 9), (q_json(0, 12 * s), 1),
                         (q_json(-12 * s, -12 * s), 1)])


# -- seeded inputs --------------------------------------------------------

def seeded_mus(rng: random.Random, count: int) -> list[Fraction]:
    """Distinct admissible mu = p/7, 1 <= p <= 6.

    Positive, so never 0 or the degenerate -1/4.  One denominator keeps the
    height of the rationals, and so the cost of a run, the same for every
    seed; 1 + 4 mu = (7 + 4p)/7 is never an integer, so the metric inverse
    and the spectra always carry non-integer rationals.
    """
    return [Fraction(p, 7) for p in rng.sample(range(1, 7), count)]


def relabel(group: dict, rng: random.Random) -> dict:
    """The same group with its element indices permuted; names are kept.

    build_group requires the identity at index 0, so it stays there.
    """
    n = len(group["names"])
    perm = list(range(1, n))
    rng.shuffle(perm)
    perm = [0] + perm
    names = [""] * n
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        names[perm[i]] = group["names"][i]
        for j in range(n):
            table[perm[i]][perm[j]] = perm[group["table"][i][j]]
    return {"names": names, "table": table}


def make_tasks(workload: str, seed: int) -> tuple[dict, list[dict]]:
    """Inputs shared by a pass, and its task list, for one seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cli-a4":
        mus = iter(seeded_mus(rng, sum(argv[-1] == "--mu" for argv in CLI_COMMANDS)))
        tasks = []
        for argv in CLI_COMMANDS:
            task = {"name": argv[0], "argv": list(argv)}
            if argv[-1] == "--mu":
                task["mu"] = str(next(mus))
                task["argv"].append(task["mu"])
            tasks.append(task)
        return {}, tasks
    if workload == "exterior-scan":
        with open(os.path.join(HERE, "groups.json"), encoding="utf-8") as fh:
            builtin = json.load(fh)
        groups = {name: relabel(builtin[name], rng) for name in sorted(builtin)}
        tasks = [{"name": f"{gname}:{element}", "group": gname,
                  "class": element, "ext_degrees": len(ext), "quad_degrees": len(quad)}
                 for gname, element, ext, quad in SCAN]
        calculi = sorted({(g, e) for g, e, _, _ in SCAN})
        return {"groups": groups, "calculi": calculi}, tasks
    raise ValueError(f"unknown workload {workload!r}")


# -- correctness gate -------------------------------------------------------

def _expected_scan(task: dict) -> dict:
    row = next(r for r in SCAN if r[0] == task["group"] and r[1] == task["class"])
    return {"ext": row[2], "quad": row[3]}


def _cli_values(task: dict, res: dict) -> str | None:
    """Headline values (README) and mu-invariants of one CLI report."""
    cmd = task["argv"][0]
    want = {
        "extdims": lambda: [d["dim"] for d in res["dims"]] == A4_EXT
        and [d["dim"] for d in res["quadratic_dims"]] == A4_QUAD,
        "connections": lambda: res["torsion_free"]["dimension"] == 36
        and res["torsion_cotorsion_free"]["dimension"] == 9 and res["mu"] == task["mu"],
        "levi-civita": lambda: res["mu"] == task["mu"] and {
            (a[2:], b[2:], v) for a, row in res["constant_coefficients"].items()
            for b, v in row.items()
        } == {(a, b, "3/4" if a == b else "-1/4") for a in "txyz" for b in "txyz"},
        "curvature": lambda: res["equals_d_of_basis_forms"] and res["nonzero"],
        "ricci": lambda: all(v["is_zero"] for v in res["ricci"].values())
        and sorted(res["ricci"]) == ["i", "iprime"],
        "dirac": lambda: res["size"] == 36,
        "laplacian": lambda: res["mu"] == task["mu"] and spectrum_key(
            (e["value"], e["multiplicity"]) for e in res["spectrum"])
        == laplacian_spectrum(Fraction(task["mu"])),
        "cohomology": lambda: (res["h1_dim"], res["ker_d1"], res["im_d0"]) == (1, 12, 11),
        "flat-u1": lambda: sorted(f["kind"] for f in res["families"])
        == ["axis"] * 4 + ["diagonal"],
        "s4-check": lambda: res["cross_relations"]["all_in_kernel"] is True,
    }[cmd]
    try:
        ok = want()
    except (KeyError, TypeError, IndexError):
        ok = False
    return None if ok else "results disagree with the expected values"


def _certification_problem(certs) -> str | None:
    if not isinstance(certs, list):
        return "certifications missing"
    bad = [c.get("check_name") for c in certs if c.get("status") != "ok"]
    return f"certification not ok: {bad}" if bad else None


def check(workload: str, task: dict, rec: dict, reference: dict) -> str | None:
    """Why the task failed, or None.

    rec has the task's exit code and either its stdout (CLI) or its results
    and certifications (library).  reference maps a CLI command line to the
    SHA-256 of its expected stdout; pass {} to check values only.
    """
    if rec["exit"] != 0:
        return f"exit code {rec['exit']}"
    if workload == "cli-a4":
        try:
            report = json.loads(rec["stdout"])
        except ValueError:
            return "stdout is not JSON"
        if not isinstance(report, dict) or report.get("schema") != "ncgeo/1" \
                or report.get("command") != task["argv"][0]:
            return "stdout is not an ncgeo/1 report of this command"
        problem = _certification_problem(report.get("certifications"))
        if problem:
            return problem
        problem = _cli_values(task, report.get("results") or {})
        if problem:
            return problem
        want = reference.get(" ".join(task["argv"]))
        if want and hashlib.sha256(rec["stdout"].encode()).hexdigest() != want:
            return "stdout differs from the reference report"
        return None
    problem = _certification_problem(rec.get("certifications"))
    if problem:
        return problem
    if rec.get("results") != _expected_scan(task):
        return f"results disagree with the expected values: {rec.get('results')}"
    return None


def _is_target(workload: str, task: dict) -> bool:
    """The task whose result the self-test corrupts."""
    return task["name"] == {"cli-a4": "extdims", "exterior-scan": "a4:t"}[workload]


def _corrupt_value(workload: str, rec: dict) -> dict:
    """rec with degree-6 dimension 12 instead of 11."""
    if workload == "cli-a4":
        report = json.loads(rec["stdout"])
        report["results"]["dims"][6]["dim"] = 12
        return {**rec, "stdout": json.dumps(report, sort_keys=True, indent=2) + "\n"}
    ext = list(rec["results"]["ext"])
    ext[6] = 12
    return {**rec, "results": {**rec["results"], "ext": ext}}


def _fail_certification(workload: str, rec: dict) -> dict:
    if workload == "cli-a4":
        report = json.loads(rec["stdout"])
        report["certifications"][0]["status"] = "failed"
        return {**rec, "stdout": json.dumps(report, sort_keys=True, indent=2) + "\n"}
    return {**rec, "certifications": [{"check_name": "self_test", "status": "failed"}]}


def self_test(workload: str, tasks: list[dict], records: list[dict]) -> list[str]:
    """Hand the checker corrupted copies of a real, passing result.

    Three corruptions must each be caught without the byte-level reference:
    degree-6 dimension 12 instead of 11, a "failed" certification, and exit
    code 2.  Returns the problems found.
    """
    task, rec = next((t, r) for t, r in zip(tasks, records) if _is_target(workload, t))
    if check(workload, task, rec, {}) is not None:
        return [f"self-test: no passing {task['name']} result to corrupt"]
    cases = {
        "wrong value": _corrupt_value(workload, rec),
        "failed certification": _fail_certification(workload, rec),
        "exit code 2": {**rec, "exit": 2},
    }
    return [f"self-test: checker accepted {label} in {task['name']}"
            for label, corrupted in cases.items()
            if check(workload, task, corrupted, {}) is None]

"""What tooling outside the package relies on must hold.

The CLI only parses, loads, dispatches and prints: it reads no private name
of another layer, and the mathematics and serialisers that the layers now
own are not defined in it again.  Every exported function and class is
run by the program, and so is every module-level function and class of the
package: the package, ``scripts/`` or ``perfbench/`` loads it outside its
own definition, each load resolved to the module it reads, or
``UNLOADED_EXPORTS`` says why it stays.  No test module imports a name it
never loads, so an import does not make a library name look tested.

``scripts/reproduce.py`` recomputes the README's headline table end to end,
so it runs here in a fresh process as it is run by hand.

The benchmark's tracer (``perfbench/tracing.py``) wraps library functions by
name, and ``from ncgeo import *`` reads ``ncgeo.__all__``; a renamed or
removed function would otherwise only fail when those run.  The benchmark
also pins the stdout of its fixed CLI commands (``perfbench/reference.json``),
so a report change shows here rather than only at the benchmark gate.
Each committed ``BENCH_<workload>.json`` record must name a benchmark
workload and the parent commit, and hold runs of both sides for every
end-to-end metric.
"""

import ast
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ncgeo
from ncgeo.cli import run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """perfbench/<name>.py loaded without writing a bytecode cache beside it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def test_every_exported_name_resolves():
    assert len(set(ncgeo.__all__)) == len(ncgeo.__all__)
    missing = [name for name in ncgeo.__all__ if not hasattr(ncgeo, name)]
    assert missing == []
    namespace = {}
    exec("from ncgeo import *", namespace)
    assert set(ncgeo.__all__) <= set(namespace)


# exported functions that neither the package, scripts/ nor perfbench/ loads,
# by module and name, each with the reason it stays in the library
UNLOADED_EXPORTS = {
    "linalg.nullspace": "the benchmark traces it (tracing.SPANNED)",
    "riemann.covariant_derivative": "acceptance criterion 7 checks the paper's nabla",
    "riemann.riemann": "acceptance criterion 6 checks the Riemann tensor W",
    "dirac.chi_operator": "acceptance criterion 10 checks it",
    "dirac.chirality_gamma": "acceptance criterion 10 checks it",
}


def _ncgeo_value(module, name=None):
    """ncgeo.<module> or its attribute name, a submodule included; None outside ncgeo."""
    if module != "ncgeo" and not module.startswith("ncgeo."):
        return None
    value = importlib.import_module(module)
    if name is None:
        return value
    if not hasattr(value, name):
        return _ncgeo_value(f"{module}.{name}")
    return getattr(value, name)


def _loaded_objects(path, module=None):
    """The ids of the ncgeo objects the file loads outside their own module-level definition.

    Each loaded name is resolved to what it is bound to: a global of the
    package module ``module`` (``ncgeo.<stem>``), or an import of the file,
    lazy imports included; ``x.y`` is attribute y of x where x is a module.
    A name that only shares its text with a function, such as a module
    ``riemann`` beside the function ``riemann.riemann``, is not a load of it.
    """
    tree = ast.parse(path.read_text())
    imports = {}  # bound name -> (module, attribute or None)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imports[bound] = (alias.name if alias.asname else bound, None)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "ncgeo" + (f".{base}" if base else "")
            for alias in node.names:
                imports[alias.asname or alias.name] = (base, alias.name)
    own = vars(importlib.import_module(module)) if module else {}

    def resolve(node):
        if isinstance(node, ast.Name):
            if node.id in own:
                return own[node.id]
            return _ncgeo_value(*imports[node.id]) if node.id in imports else None
        if isinstance(node, ast.Attribute):
            base = resolve(node.value)
            if inspect.ismodule(base) and base.__name__.startswith("ncgeo"):
                return _ncgeo_value(base.__name__, node.attr)
        return None

    loaded = set()

    def visit(node, defining, top):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and top:
            defining = own.get(node.name)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            value = resolve(node)
            if value is not None and value is not defining and not inspect.ismodule(value):
                loaded.add(id(value))
        for child in ast.iter_child_nodes(node):
            visit(child, defining, isinstance(node, ast.Module))

    visit(tree, None, False)
    return loaded


def test_every_exported_function_is_run_by_the_program():
    root = PERFBENCH.parent
    package = sorted((root / "src" / "ncgeo").glob("*.py"))
    programs = [*sorted((root / "scripts").glob("*.py")), *sorted(PERFBENCH.glob("*.py"))]
    loaded = set().union(
        *(_loaded_objects(path, "ncgeo" + ("" if path.stem == "__init__" else f".{path.stem}"))
          for path in package),
        *map(_loaded_objects, programs),
    )
    code = {
        f"{ncgeo._MODULE_OF[name]}.{name}": value for name in ncgeo.__all__
        if inspect.isclass(value := getattr(ncgeo, name)) or inspect.isroutine(value)
    }
    # the interpreter calls the package's __getattr__ and __dir__ hooks itself
    code |= {
        f"{path.stem}.{node.name}": getattr(importlib.import_module(f"ncgeo.{path.stem}"), node.name)
        for path in package
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__")
    }
    unloaded = [name for name, value in code.items() if id(value) not in loaded]
    assert sorted(unloaded) == sorted(UNLOADED_EXPORTS)


def test_no_test_module_imports_a_name_it_never_loads():
    unused = {}
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        if bound - loaded:
            unused[path.name] = sorted(bound - loaded)
    assert unused == {}


def test_every_traced_function_resolves(tracing):
    for layer, names in tracing.SPANNED.items():
        module = importlib.import_module(f"ncgeo.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"ncgeo.{layer}.{name}"


def test_every_cached_function_has_cache_info(tracing):
    calculus = importlib.import_module("ncgeo.calculus")
    for name in tracing.CACHED:
        assert hasattr(getattr(calculus, name, None), "cache_info"), name


def test_benchmark_reference_digests_match(capsys):
    workloads = _load("workloads")
    want = json.loads((PERFBENCH / "reference.json").read_text())["stdout_sha256"]
    got = {}
    for argv in workloads.CLI_FIXED:
        assert run(list(argv)) == 0, argv
        got[" ".join(argv)] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == want


def test_every_bench_record_holds_both_sides_of_every_metric():
    root = PERFBENCH.parent
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    records = sorted(root.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert path.name == f"BENCH_{record['workload']}.json"
        assert record["workload"] in workloads
        assert re.fullmatch(r"[0-9a-f]{7,40}", record["parent"]), path.name
        seeds = record["end_to_end"]["seeds"]
        assert len(set(seeds)) == len(seeds) >= 10, path.name
        for name in metrics:
            metric = record["end_to_end"]["metrics"][name]
            for side in ("parent", "change"):
                assert len(metric[side]["runs"]) == len(seeds), (path.name, name, side)


def test_reproduce_script_reproduces_every_row():
    root = PERFBENCH.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce.py")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "all rows reproduced exactly"


def test_cli_reads_no_private_name_of_another_layer():
    tree = ast.parse((PERFBENCH.parent / "src" / "ncgeo" / "cli.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    layers = {
        alias.asname or alias.name
        for node in imports
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    private = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in layers
        and node.attr.startswith("_")
    ]
    private += [
        f"{node.module}.{alias.name}"
        for node in imports
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
    modules = {alias.name for node in imports if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in imports if isinstance(node, ast.ImportFrom) and not node.level}
    assert modules.isdisjoint({"fractions", "random"})
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    moved = {
        "_mu_scaling", "_dirac_candidates", "_matrix_json", "_form_json", "_connection_json",
        "_affine_connections_json", "_spectrum_json",
    }
    assert defined.isdisjoint(moved)

"""Command-line interface.

Every command prints one deterministic JSON report on stdout:

    {"schema": "ncgeo/1", "command": ..., "inputs": ..., "results": ...,
     "certifications": [{"check_name": ..., "status": ...}],
     "versions": {"engine": ..., "group_spec_hash": ...}}

``COMMANDS`` is the one table of subcommands: each row names the handler,
the options it takes after ``--group`` and ``--class``, and whether it needs
a conjugacy class.  ``run`` builds the parser from that row, loads the group,
resolves the class and parses ``--mu``, then calls the handler, which returns
the results and the certifications.  A handler only calls its layers and
assembles their answers: the spectra, eigenvalue candidates and closed forms
are ``dirac``'s, the seeded gauge samples ``cohomology``'s, and the metric's
invariance and its 1/(1 + n mu) ``riemann``'s.  Values reach ``json.dumps``
as they are and serialise through one hook, ``_json_value``: an exact scalar
or matrix becomes its ``to_json()``.  Forms, connections and spectra need
labels or an order, which ``calculus.form_json``, ``riemann.connection_json``,
``riemann.affine_connections_json`` and ``dirac.spectrum_json`` give next to
their types.  This module loads only ``cyclotomic`` and ``groups``; each
handler imports the layers it runs, so a command pays the start-up of its
own code only.

Exit codes: 0 success; 2 precondition violation (JSON diagnostic on
stderr); 3 a certification failed (the report is still printed);
64 unknown subcommand; 65 malformed group table (the diagnostic names a
violated triple when associativity fails); 141 (128 + SIGPIPE) the reader
closed stdout before the report was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Iterable, Sequence

from .cyclotomic import Cyclotomic
# perfbench and the tests reach these names through this module
from .groups import (
    DiagnosticError,
    GroupSpecError,
    axiom_violation,
    build_group,
    class_calculus,
)
from . import groups

if TYPE_CHECKING:
    from . import calculus, riemann

ENGINE_VERSION = "0.1.0"
DEFAULT_GROUP = "a4"

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_CERTIFICATION_FAILED = 3
EXIT_UNKNOWN_COMMAND = 64
EXIT_BAD_GROUP = 65
EXIT_BROKEN_PIPE = 141


class PreconditionError(DiagnosticError, RuntimeError):
    """A command's inputs are outside what it supports."""


# ---------------------------------------------------------------------------
# checks, serialisation and input loading
# ---------------------------------------------------------------------------


def _check(name: str, ok: bool) -> dict:
    return {"check_name": name, "status": "ok" if ok else "failed"}


def _vanish(forms: Iterable[calculus.Form]) -> bool:
    """Is every form zero?"""
    return all(f.is_zero() for f in forms)


def _json_value(value):
    """The ``json.dumps`` hook: exact scalars and matrices carry their own ``to_json``."""
    return value.to_json()


def _group_hash(group: groups.FiniteGroup) -> str:
    import hashlib

    spec = {"names": list(group.names), "table": [list(r) for r in group.table]}
    payload = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _parse_mu(text: str) -> Cyclotomic:
    try:
        return Cyclotomic.from_json(text)
    except ValueError:
        raise PreconditionError(
            "metric parameter must be an exact rational like -1/4", {"value": text}
        ) from None


def _load_group(spec: str) -> groups.FiniteGroup:
    if spec.endswith(".json"):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as ex:
            raise GroupSpecError(f"cannot read group file: {ex}", {"path": spec})
        except json.JSONDecodeError as ex:
            raise GroupSpecError(f"group file is not valid JSON: {ex}", {"path": spec})
        return build_group(payload)
    return build_group(spec)


def _resolve_class(group: groups.FiniteGroup, label: str | None) -> groups.ClassCalculus:
    if label is not None:
        return class_calculus(group, label)
    for cls in groups.conjugacy_classes(group):
        if group.identity not in cls:
            cand = class_calculus(group, cls[0])
            if groups.is_cyclic_class(cand)[0]:
                return cand
    raise PreconditionError(
        "no cyclic conjugacy class found; pass an explicit class element",
        {"group_order": group.order},
    )


def _metric_or_die(c: groups.ClassCalculus, mu: Cyclotomic) -> riemann.Metric:
    from . import riemann

    metric = riemann.metric_from_mu(c, mu)
    if not metric.is_invertible:
        raise PreconditionError(
            "metric is singular at this parameter",
            {"mu": mu, "singular_at": riemann.singular_parameter(c.n)},
        )
    return metric


def _require_a4_class(c: groups.ClassCalculus, message: str) -> None:
    if c.n != 4 or c.group.order != 12:
        raise PreconditionError(message, {"class_size": c.n, "group_order": c.group.order})


# ---------------------------------------------------------------------------
# command handlers: (namespace, class calculus, parsed --mu) -> (results, certs)
# ---------------------------------------------------------------------------


def _cmd_info(ns, c, mu) -> tuple[dict, list]:
    group = c.group
    cyclic, witness = groups.is_cyclic_class(c)
    results = {
        "group_order": group.order,
        "element_names": list(group.names),
        "conjugacy_classes": [
            [group.names[g] for g in cls] for cls in groups.conjugacy_classes(group)
        ],
        "class": list(c.labels),
        "cyclic": cyclic,
        "witness": witness,
        "witnesses": groups.cyclicity_witnesses(c),
        "classification": groups.classify_class_products(c) if cyclic and c.n == 4 else None,
        "class_generates_group": groups.class_generates(c),
    }
    return results, [_check("group_axioms", axiom_violation(group.names, group.table) is None)]


def _cmd_extdims(ns, c, mu) -> tuple[dict, list]:
    from . import calculus

    results = {}
    # the quadratic tower is the cheaper one, so its refusal comes first
    if ns.quadratic:
        results["quadratic_dims"] = [
            {"degree": m, "dim": calculus.quadratic_dimension(c, m)}
            for m in range(2, ns.max_degree + 1)
        ]
    cap = ns.max_degree if ns.unsupported_scale else calculus.DEFAULT_DEGREE_CAP
    dims = results["dims"] = calculus.exterior_profile(c, ns.max_degree, cap=cap)
    # degree m is spanned by degree m - 1 times the n one-forms, and the
    # exterior algebra is a quotient of the quadratic cover
    quadratic = {q["degree"]: q["dim"] for q in results.get("quadratic_dims", ())}
    certs = [
        _check(
            f"extdims_degree_{m}_{d['method']}",
            d["dim"] <= (c.n * dims[m - 1]["dim"] if m else 1)
            and d["dim"] <= quadratic.get(m, d["dim"]),
        )
        for m, d in enumerate(dims)
    ]
    return results, certs


def _cmd_relations(ns, c, mu) -> tuple[dict, list]:
    from . import calculus

    kernel = calculus.degree2_relations(c)
    n, labels = c.n, c.labels
    perm = calculus.braiding(c).perm
    results = {
        "tensor_square_dim": n * n,
        "relation_space_dim": len(kernel),
        "degree_two_dim": calculus.omega2_basis(c).dim,
        "relations": [
            {f"e_{labels[q // n]}^e_{labels[q % n]}": v for q, v in enumerate(vec) if v}
            for vec in kernel
        ],
        "basis_pairs": calculus.basis_pair_labels(c),
    }
    # the braiding permutes the tensor basis, so a fixed vector is constant on its cycles
    invariant = all(vec[perm[q]] == v for vec in kernel for q, v in enumerate(vec))
    return results, [_check("relations_fixed_by_braiding", invariant)]


def _cmd_metric(ns, c, mu) -> tuple[dict, list]:
    from . import calculus, riemann

    space = riemann.invariant_bilinear_space(c)
    metric = riemann.metric_from_mu(c, mu)
    certs = [
        _check("eta_conjugation_invariant", riemann.is_conjugation_invariant(c, metric.eta)),
        _check(
            "metric_tensor_wedges_to_zero",
            calculus.wedge_tensor(c, riemann.metric_tensor(c, metric)).is_zero(),
        ),
    ]
    results = {
        "invariant_space_dim": len(space),
        "invariant_space_basis": space,
        "mu": mu,
        "eta": metric.eta,
        "invertible": metric.is_invertible,
        "eta_inverse": metric.eta_inv,
        "singular_parameter": riemann.singular_parameter(c.n),
    }
    return results, certs


def _cmd_connections(ns, c, mu) -> tuple[dict, list]:
    from . import riemann

    metric = _metric_or_die(c, mu)
    tf = riemann.solve_torsion_free(c)
    if tf is None:
        raise PreconditionError("torsion-free system has no solution", {})
    tc = riemann.solve_torsion_cotorsion_free(c, metric)
    if tc is None:
        raise PreconditionError("torsion+cotorsion system has no solution", {})
    conn = riemann.connection_from_vector(c, tc.particular)
    # deterministic nontrivial member of the solution space
    member = riemann.connection_from_vector(c, tc.point(range(1, tc.dimension + 1)))
    certs = [
        _check("torsion_zero_on_particular", _vanish(riemann.torsion(c, conn))),
        _check("cotorsion_zero_on_particular", _vanish(riemann.cotorsion(c, conn, metric))),
        _check(
            "torsion_and_cotorsion_zero_on_member",
            _vanish(riemann.torsion(c, member)) and _vanish(riemann.cotorsion(c, member, metric)),
        ),
    ]
    results = {
        "mu": mu,
        "torsion_free": {"dimension": tf.dimension},
        "torsion_cotorsion_free": riemann.affine_connections_json(c, tc),
    }
    return results, certs


def _cmd_levi_civita(ns, c, mu) -> tuple[dict, list]:
    from . import riemann

    metric = _metric_or_die(c, mu)
    conn = riemann.levi_civita(c, metric)
    certs = [
        _check("torsion_vanishes", _vanish(riemann.torsion(c, conn))),
        _check("cotorsion_vanishes", _vanish(riemann.cotorsion(c, conn, metric))),
        _check("regular", riemann.is_regular(c, conn)),
    ]
    results = {
        "mu": mu,
        "connection": riemann.connection_json(c, conn),
        "constant_coefficients": {
            f"A_{a}": {f"e_{d}": f.values[0] for d, f in zip(c.labels, w.coeffs)}
            for a, w in zip(c.labels, conn.comps)
        },
    }
    return results, certs


def _cmd_curvature(ns, c, mu) -> tuple[dict, list]:
    from . import calculus, riemann

    metric = _metric_or_die(c, mu)
    curv = riemann.curvature_2forms(c, riemann.levi_civita(c, metric))
    des = calculus.de_basis(c)
    matches = _vanish(f - de for f, de in zip(curv, des))
    labels = calculus.basis_pair_labels(c)
    results = {
        "mu": mu,
        "connection": "levi-civita",
        "curvature": {
            f"F_{a}": calculus.form_json(c.group, labels, f) for a, f in zip(c.labels, curv)
        },
        "equals_d_of_basis_forms": matches,
        "nonzero": not _vanish(curv),
    }
    return results, [_check("curvature_equals_d_basis", matches)]


def _ricci_checks(c, conn, names) -> tuple[dict, list]:
    """Ricci under each named lift, with one vanishing check per lift."""
    from . import riemann

    lifts = {"i": riemann.lift_i, "iprime": riemann.lift_iprime}
    ric = {name: riemann.ricci(c, conn, lifts[name](c)) for name in names}
    return ric, [_check(f"ricci_vanishes_lift_{name}", r.is_zero()) for name, r in ric.items()]


def _cmd_ricci(ns, c, mu) -> tuple[dict, list]:
    from . import calculus, riemann

    metric = _metric_or_die(c, mu)
    ric, certs = _ricci_checks(
        c, riemann.levi_civita(c, metric), ("i", "iprime") if ns.lift == "both" else (ns.lift,)
    )
    labels = [f"e_{a}(x)e_{b}" for a in c.labels for b in c.labels]
    entries = {
        name: {"is_zero": r.is_zero(), "entries": calculus.form_json(c.group, labels, r)}
        for name, r in ric.items()
    }
    return {"mu": mu, "connection": "levi-civita", "ricci": entries}, certs


def _cmd_ricci_flat(ns, c, mu) -> tuple[dict, list]:
    from . import riemann

    space = riemann.solve_ricci_flat(c)
    if space is None:
        raise PreconditionError("no torsion-free Ricci-flat connection exists", {})
    conn = riemann.connection_from_vector(c, space.particular)
    lc = riemann.levi_civita(c)
    metric = riemann.metric_from_mu(c, 0)
    certs = [
        _check("torsion_vanishes", _vanish(riemann.torsion(c, conn))),
        *_ricci_checks(c, conn, ("i", "iprime"))[1],
        _check("cotorsion_vanishes", _vanish(riemann.cotorsion(c, conn, metric))),
        _check("regular", riemann.is_regular(c, conn)),
    ]
    results = {
        "solution_space": riemann.affine_connections_json(c, space),
        "unique": space.dimension == 0,
        "matches_levi_civita": list(space.particular) == riemann.connection_to_vector(c, lc),
    }
    return results, certs


def _cmd_dirac(ns, c, mu) -> tuple[dict, list]:
    from . import dirac, linalg

    metric = _metric_or_die(c, mu)
    _require_a4_class(c, "the spinor construction needs the four-element class of a4")
    D = dirac.dirac_operator(c, metric)
    gammas = dirac.gamma_matrices(c, metric)
    results: dict = {
        "mu": mu,
        "size": D.rows,
        "gamma": {f"gamma_{c.labels[a]}": gammas[a] for a in range(c.n)},
    }
    expected = linalg.ExactMatrix.identity(3).scale(dirac.casimir_scalar(c, metric))
    certs = [_check("casimir_is_scalar", dirac.casimir_action(c, metric) == expected)]
    if ns.spectrum:
        spec = dirac.verify_spectrum(D, dirac.dirac_candidates(c, metric))
        results["spectrum"] = dirac.spectrum_json(spec)
        results["spectrum_total"] = sum(spec.values())
        certs.append(
            _check("spectrum_multiplicities_sum_to_dimension", results["spectrum_total"] == D.rows)
        )
    if ns.eigenbasis:
        if mu:
            raise PreconditionError(
                "the exact eigenbasis is constructed at mu = 0 only", {"mu": mu}
            )
        eig = dirac.dirac_eigenbasis(c)
        results["eigenbasis"] = [{"eigenvalue": lam, "vector": vec} for lam, vec in eig]
        eigen, independent = dirac.check_eigenbasis(D, eig)
        certs.append(_check("eigenbasis_eigen_equations", eigen))
        certs.append(_check("eigenbasis_independent", independent))
    if not ns.spectrum and not ns.eigenbasis:
        results["matrix"] = D
    return results, certs


def _cmd_laplacian(ns, c, mu) -> tuple[dict, list]:
    from . import dirac

    metric = _metric_or_die(c, mu)
    _require_a4_class(c, "the scalar Laplacian spectrum is built for the four-element class of a4")
    box = dirac.laplacian(c, metric)
    spec = dirac.verify_spectrum(box, dirac.laplacian_candidates(c, metric))
    results = {
        "mu": mu,
        "matrix": box,
        "spectrum": dirac.spectrum_json(spec),
        "closed_form": "-(1/4) (sum_a R_a - 4)^2 / (1 + 4 mu)",
    }
    certs = [
        _check("laplacian_closed_form", box == dirac.laplacian_closed_form(c, metric)),
        _check("spectrum_multiplicities_sum_to_dimension", sum(spec.values()) == box.rows),
    ]
    return results, certs


def _cmd_fourier(ns, c, mu) -> tuple[dict, list]:
    from . import calculus, dirac

    group = c.group
    if ns.input is None:
        values = list(calculus.GroupFunction.delta(group.order, c.elements[0]).values)
    else:
        try:
            with open(ns.input, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as ex:
            raise PreconditionError(f"cannot read function file: {ex}", {})
        if not isinstance(payload, list) or len(payload) != group.order:
            raise PreconditionError(
                "function file must be a JSON array with one value per group element",
                {"expected_length": group.order},
            )
        values = []
        for index, value in enumerate(payload):
            try:
                values.append(Cyclotomic.from_json(value))
            except ValueError:
                raise PreconditionError(
                    "function values must be ints, rationals like -1/4 or {re, om} objects of those",
                    {"index": index, "value": value},
                ) from None
    coeffs = dirac.fourier_decompose(group, values)
    roundtrip = dirac.fourier_reconstruct(group, coeffs) == values
    results = {"function": values, "coefficients": coeffs}
    return results, [_check("fourier_roundtrip_exact", roundtrip)]


def _cmd_cohomology(ns, c, mu) -> tuple[dict, list]:
    from . import cohomology

    data = cohomology.de_rham_h1(c)
    results = {k: data[k] for k in ("h1_dim", "ker_d1", "im_d0", "representative")}
    certs = [
        _check("d1_after_d0_is_zero", data["d1_after_d0_is_zero"]),
        _check("theta_closed", data["theta_closed"]),
        _check("theta_not_exact", not data["theta_exact"]),
    ]
    return results, certs


def _cmd_flat_u1(ns, c, mu) -> tuple[dict, list]:
    from . import cohomology

    families = cohomology.constant_flat_connections(c)
    results: dict = {
        "families": [{"kind": f.kind, "axis": f.axis, "form": f.formula} for f in families]
    }
    if not ns.check_families:
        return results, [_check("families_enumerated", cohomology.flat_families_complete(c))]
    samples = cohomology.sample_flat_families(c, families)
    results["checked_parameters"] = [str(p) for p in samples.parameters]
    certs = [
        _check("families_flat_at_sample_parameters", samples.flat),
        _check("gauge_covariance_samples", samples.covariant),
    ]
    return results, certs


def _cmd_s4_check(ns, c, mu) -> tuple[dict, list]:
    if ns.group.strip().lower() != DEFAULT_GROUP or ns.class_element is not None:
        raise PreconditionError(
            "s4-check checks the builtin s4 and a4 only; it takes no --group or --class",
            {"group": ns.group, "class": ns.class_element},
        )
    from . import cohomology

    cross = cohomology.s4_cross_relations_check()
    conj = cohomology.conjugate_calculus_check(class_calculus(build_group("a4"), "t"))
    results = {"cross_relations": cross, "conjugate_calculus_a4": conj}
    certs = [
        _check("s4_relations_in_braiding_kernel", cross["all_in_kernel"]),
        _check("transpose_identity_a4", conj["transpose_identity"]),
    ]
    return results, certs


# ---------------------------------------------------------------------------
# the command table, argument parsing and dispatch
# ---------------------------------------------------------------------------


def _degree(text: str) -> int:
    """A non-negative int for --max-degree."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid degree {value}: must be at least 0")
    return value


_FLAG = {"action": "store_true"}
_MU = ("--mu", {"default": "0", "help": "metric parameter, an exact rational like -1/4"})
_COMMON = (
    (
        "--group",
        {
            "default": DEFAULT_GROUP,
            "help": "builtin group name or path to a JSON file with names and table",
        },
    ),
    (
        "--class",
        {"dest": "class_element", "help": "element whose conjugacy class drives the calculus"},
    ),
)

# name -> (handler, options after --group and --class, needs a class)
COMMANDS: dict[str, tuple] = {
    "info": (_cmd_info, (), True),
    "extdims": (
        _cmd_extdims,
        (
            ("--max-degree", {"type": _degree, "default": 6}),
            ("--quadratic", _FLAG),
            (
                "--unsupported-scale",
                {**_FLAG, "help": "attempt degrees beyond the default cap (may be very slow)"},
            ),
        ),
        True,
    ),
    "relations": (_cmd_relations, (), True),
    "metric": (_cmd_metric, (_MU,), True),
    "connections": (_cmd_connections, (_MU,), True),
    "levi-civita": (_cmd_levi_civita, (_MU,), True),
    "curvature": (_cmd_curvature, (_MU,), True),
    "ricci": (
        _cmd_ricci,
        (_MU, ("--lift", {"choices": ["i", "iprime", "both"], "default": "both"})),
        True,
    ),
    "ricci-flat": (_cmd_ricci_flat, (), True),
    "dirac": (_cmd_dirac, (_MU, ("--spectrum", _FLAG), ("--eigenbasis", _FLAG)), True),
    "laplacian": (_cmd_laplacian, (_MU,), True),
    "fourier": (
        _cmd_fourier,
        (("--input", {"help": "JSON file with one exact value per group element"}),),
        True,
    ),
    "cohomology": (_cmd_cohomology, (), True),
    "flat-u1": (_cmd_flat_u1, (("--check-families", _FLAG),), True),
    "s4-check": (_cmd_s4_check, (), False),
}


def _fail(diagnostic: dict, code: int) -> int:
    print(json.dumps(diagnostic, sort_keys=True, default=_json_value), file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SystemExit(_fail({"error": message}, EXIT_PRECONDITION))


def _merge_negative_values(args: list[str]) -> list[str]:
    # argparse mistakes a negative rational like -1/4 for an option flag;
    # fold it into the preceding --mu so both spellings work
    merged: list[str] = []
    for arg in args:
        if merged[-1:] == ["--mu"] and arg.startswith("-") and any(ch.isdigit() for ch in arg):
            merged[-1] = f"--mu={arg}"
        else:
            merged.append(arg)
    return merged


def run(argv: Sequence[str] | None = None) -> int:
    args = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    if not args or args[0] in ("-h", "--help"):
        print("usage: ncgeo <command> [options]\ncommands: " + ", ".join(sorted(COMMANDS)))
        return EXIT_OK if args else EXIT_UNKNOWN_COMMAND
    command = args[0]
    if command not in COMMANDS:
        return _fail(
            {"error": f"unknown command {command!r}", "commands": sorted(COMMANDS)},
            EXIT_UNKNOWN_COMMAND,
        )
    handler, options, needs_class = COMMANDS[command]
    parser = _Parser(prog=f"ncgeo {command}")
    for flag, spec in _COMMON + options:
        parser.add_argument(flag, **spec)
    try:
        ns = parser.parse_args(args[1:])
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        group = _load_group(ns.group)
    except GroupSpecError as ex:
        return _fail(ex.diagnostic, EXIT_BAD_GROUP)
    try:
        c = _resolve_class(group, ns.class_element) if needs_class else None
        mu = _parse_mu(ns.mu) if "mu" in vars(ns) else None
        results, certs = handler(ns, c, mu)
    except DiagnosticError as ex:
        return _fail(ex.diagnostic, EXIT_PRECONDITION)
    except (ValueError, ZeroDivisionError) as ex:
        return _fail({"error": str(ex)}, EXIT_PRECONDITION)
    report = {
        "schema": "ncgeo/1",
        "command": command,
        "inputs": {
            "group": ns.group,
            "class": list(c.labels) if c is not None else None,
            "options": {
                k: v
                for k, v in sorted(vars(ns).items())
                if k not in ("group", "class_element")
            },
        },
        "results": results,
        "certifications": certs,
        "versions": {
            "engine": ENGINE_VERSION,
            "group_spec_hash": _group_hash(group),
        },
    }
    print(json.dumps(report, sort_keys=True, indent=2, default=_json_value))
    if any(cert["status"] == "failed" for cert in certs):
        return EXIT_CERTIFICATION_FAILED
    return EXIT_OK


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # nothing more can reach the reader; point stdout at devnull so the
        # interpreter's own flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()

"""Command-line interface.

Every command prints one deterministic JSON report on stdout:

    {"schema": "ncgeo/1", "command": ..., "inputs": ..., "results": ...,
     "certifications": [{"check_name": ..., "status": ...}],
     "versions": {"engine": ..., "group_spec_hash": ...}}

``COMMANDS`` is the one table of subcommands: each row names the handler,
the options it takes after ``--group`` and ``--class``, and whether it needs
a conjugacy class.  ``run`` builds the parser from that row, loads the group,
resolves the class and parses ``--mu``, then calls the handler, which returns
the results and the certifications.  This module loads only ``cyclotomic``
and ``groups``; each handler imports the layers it runs, so a command pays
the start-up of its own code only.

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
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .cyclotomic import Cyclotomic, OMEGA
# perfbench and the tests reach these names through this module
from .groups import (
    CertificationError,
    DiagnosticError,
    GroupSpecError,
    axiom_violation,
    build_group,
    class_calculus,
)
from . import groups

if TYPE_CHECKING:
    from . import calculus, linalg, riemann

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
# serialization helpers
# ---------------------------------------------------------------------------


def _check(name: str, ok: bool) -> dict:
    return {"check_name": name, "status": "ok" if ok else "failed"}


def _vanish(forms: Iterable[calculus.Form]) -> bool:
    """Is every form zero?"""
    return all(f.is_zero() for f in forms)


def _form_json(group: groups.FiniteGroup, labels: Sequence[str], form: calculus.Form) -> dict:
    """The nonzero coefficients by basis label, each by its nonzero values."""
    return {
        label: {group.names[g]: v.to_json() for g, v in enumerate(f.values) if v}
        for label, f in zip(labels, form.coeffs)
        if not f.is_zero()
    }


def _matrix_json(m: linalg.ExactMatrix) -> list:
    return [[v.to_json() for v in row] for row in m.data]


def _spectrum_json(spec: dict[Cyclotomic, int]) -> list:
    """Eigenvalues with their multiplicities, in the order of their JSON text."""
    return [
        {"value": lam.to_json(), "multiplicity": mult}
        for lam, mult in sorted(spec.items(), key=lambda kv: json.dumps(kv[0].to_json()))
    ]


def _connection_json(c: groups.ClassCalculus, conn: riemann.Connection) -> dict:
    labels = [f"e_{label}" for label in c.labels]
    return {
        "comps": {
            f"A_{c.labels[b]}": _form_json(c.group, labels, w)
            for b, w in enumerate(conn.comps)
        }
    }


def _affine_connections_json(c: groups.ClassCalculus, space: linalg.AffineSpace) -> dict:
    from . import riemann

    particular = riemann.connection_from_vector(c, list(space.particular))
    return {
        "dimension": space.dimension,
        "particular": _connection_json(c, particular),
        "basis": [
            _connection_json(c, riemann.connection_from_vector(c, list(vec)))
            for vec in space.basis
        ],
    }


def _group_hash(group: groups.FiniteGroup) -> str:
    import hashlib

    payload = json.dumps(
        {"names": list(group.names), "table": [list(r) for r in group.table]},
        sort_keys=True,
        separators=(",", ":"),
    )
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
        try:
            return class_calculus(group, label)
        except GroupSpecError as ex:
            raise PreconditionError(str(ex), ex.diagnostic)
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
            {"mu": mu.to_json(), "singular_at": f"-1/{c.n}"},
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
            {f"e_{labels[q // n]}^e_{labels[q % n]}": v.to_json() for q, v in enumerate(vec) if v}
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
    # re-check invariance of eta under conjugation by every group element
    conjs = [riemann._class_pos_conj(c, g) for g in range(c.group.order)]
    invariant = all(metric.eta.submatrix(p, p) == metric.eta for p in conjs)
    certs = [
        _check("eta_conjugation_invariant", invariant),
        _check(
            "metric_tensor_wedges_to_zero",
            calculus.wedge_tensor(c, riemann.metric_tensor(c, metric)).is_zero(),
        ),
    ]
    results = {
        "invariant_space_dim": len(space),
        "invariant_space_basis": [_matrix_json(m) for m in space],
        "mu": mu.to_json(),
        "eta": _matrix_json(metric.eta),
        "invertible": metric.is_invertible,
        "eta_inverse": _matrix_json(metric.eta_inv) if metric.is_invertible else None,
        "singular_parameter": f"-1/{c.n}",
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
    conn = riemann.connection_from_vector(c, list(tc.particular))
    # deterministic nontrivial member of the solution space
    coeffs = [Cyclotomic(k + 1) for k in range(tc.dimension)]
    member = riemann.connection_from_vector(c, list(tc.point(coeffs)))
    certs = [
        _check("torsion_zero_on_particular", _vanish(riemann.torsion(c, conn))),
        _check("cotorsion_zero_on_particular", _vanish(riemann.cotorsion(c, conn, metric))),
        _check(
            "torsion_and_cotorsion_zero_on_member",
            _vanish(riemann.torsion(c, member)) and _vanish(riemann.cotorsion(c, member, metric)),
        ),
    ]
    results = {
        "mu": mu.to_json(),
        "torsion_free": {"dimension": tf.dimension},
        "torsion_cotorsion_free": _affine_connections_json(c, tc),
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
        "mu": mu.to_json(),
        "connection": _connection_json(c, conn),
        "constant_coefficients": {
            f"A_{c.labels[b]}": {
                f"e_{c.labels[d]}": conn.comps[b].coeffs[d].values[0].to_json()
                for d in range(c.n)
            }
            for b in range(c.n)
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
        "mu": mu.to_json(),
        "connection": "levi-civita",
        "curvature": {
            f"F_{c.labels[a]}": _form_json(c.group, labels, curv[a]) for a in range(c.n)
        },
        "equals_d_of_basis_forms": matches,
        "nonzero": not _vanish(curv),
    }
    return results, [_check("curvature_equals_d_basis", matches)]


def _cmd_ricci(ns, c, mu) -> tuple[dict, list]:
    from . import riemann

    metric = _metric_or_die(c, mu)
    conn = riemann.levi_civita(c, metric)
    lifts = {"i": riemann.lift_i(c), "iprime": riemann.lift_iprime(c)}
    if ns.lift != "both":
        lifts = {ns.lift: lifts[ns.lift]}
    labels = [f"e_{a}(x)e_{b}" for a in c.labels for b in c.labels]
    entries = {}
    certs = []
    for name, lift in lifts.items():
        ric = riemann.ricci(c, conn, lift)
        entries[name] = {"is_zero": ric.is_zero(), "entries": _form_json(c.group, labels, ric)}
        certs.append(_check(f"ricci_vanishes_lift_{name}", ric.is_zero()))
    return {"mu": mu.to_json(), "connection": "levi-civita", "ricci": entries}, certs


def _cmd_ricci_flat(ns, c, mu) -> tuple[dict, list]:
    from . import riemann

    try:
        space = riemann.solve_ricci_flat(c)
    except riemann.NonlinearCurvatureError as ex:
        raise PreconditionError(str(ex), {})
    if space is None:
        raise PreconditionError("no torsion-free Ricci-flat connection exists", {})
    conn = riemann.connection_from_vector(c, list(space.particular))
    lc = riemann.levi_civita(c)
    certs = [
        _check("torsion_vanishes", _vanish(riemann.torsion(c, conn))),
        _check("ricci_vanishes_lift_i", riemann.ricci(c, conn, riemann.lift_i(c)).is_zero()),
        _check(
            "ricci_vanishes_lift_iprime",
            riemann.ricci(c, conn, riemann.lift_iprime(c)).is_zero(),
        ),
        _check(
            "cotorsion_vanishes",
            _vanish(riemann.cotorsion(c, conn, riemann.metric_from_mu(c, 0))),
        ),
        _check("regular", riemann.is_regular(c, conn)),
    ]
    results = {
        "solution_space": _affine_connections_json(c, space),
        "unique": space.dimension == 0,
        "matches_levi_civita": list(space.particular) == riemann.connection_to_vector(c, lc),
    }
    return results, certs


def _mu_scaling(c: groups.ClassCalculus, mu: Cyclotomic) -> Cyclotomic:
    return (1 + mu * c.n).inverse()


def _dirac_candidates(c: groups.ClassCalculus, mu: Cyclotomic) -> list[Cyclotomic]:
    base = [Cyclotomic(0)] + [Cyclotomic(k) * OMEGA**npow for k in (4, -4) for npow in range(3)]
    if not mu:
        return base
    s = mu * 4 * _mu_scaling(c, mu)
    shifts = [Cyclotomic(-4)] + [Cyclotomic(4) * OMEGA**npow - 4 for npow in range(3)]
    return [lam + s * d for lam in base for d in shifts]


def _cmd_dirac(ns, c, mu) -> tuple[dict, list]:
    from . import dirac, linalg

    metric = _metric_or_die(c, mu)
    _require_a4_class(c, "the spinor construction needs the four-element class of a4")
    D = dirac.dirac_operator(c, metric)
    gammas = dirac.gamma_matrices(c, metric)
    results: dict = {
        "mu": mu.to_json(),
        "size": D.rows,
        "gamma": {f"gamma_{c.labels[a]}": _matrix_json(gammas[a]) for a in range(c.n)},
    }
    expected = linalg.ExactMatrix.identity(3).scale(Cyclotomic(4) * _mu_scaling(c, mu))
    certs = [_check("casimir_is_scalar", dirac.casimir_action(c, metric) == expected)]
    if ns.spectrum:
        spec = dirac.verify_spectrum(D, _dirac_candidates(c, mu))
        results["spectrum"] = _spectrum_json(spec)
        results["spectrum_total"] = sum(spec.values())
        certs.append(
            _check("spectrum_multiplicities_sum_to_dimension", results["spectrum_total"] == D.rows)
        )
    if ns.eigenbasis:
        if mu:
            raise PreconditionError(
                "the exact eigenbasis is constructed at mu = 0 only", {"mu": mu.to_json()}
            )
        eig = dirac.dirac_eigenbasis(c)
        vmat = linalg.ExactMatrix.from_rows([list(v) for _, v in eig])
        results["eigenbasis"] = [
            {"eigenvalue": lam.to_json(), "vector": [v.to_json() for v in vec]}
            for lam, vec in eig
        ]
        certs.append(
            _check(
                "eigenbasis_eigen_equations",
                all(D.matvec(list(vec)) == [lam * v for v in vec] for lam, vec in eig),
            )
        )
        certs.append(_check("eigenbasis_independent", linalg.rank(vmat) == len(eig)))
    if not ns.spectrum and not ns.eigenbasis:
        results["matrix"] = _matrix_json(D)
    return results, certs


def _cmd_laplacian(ns, c, mu) -> tuple[dict, list]:
    from . import dirac, linalg

    metric = _metric_or_die(c, mu)
    _require_a4_class(c, "the scalar Laplacian spectrum is built for the four-element class of a4")
    box = dirac.laplacian(c, metric)
    scale = _mu_scaling(c, mu)
    ident = linalg.ExactMatrix.identity(c.group.order)
    shifted = dirac.translation_combination(c, [1] * c.n) - ident.scale(Cyclotomic(4))
    closed = (shifted @ shifted).scale(Cyclotomic(Fraction(-1, 4)) * scale)
    cands = [Cyclotomic(0), Cyclotomic(-4) * scale] + [
        Cyclotomic(12) * OMEGA**k * scale for k in (1, 2)
    ]
    spec = dirac.verify_spectrum(box, cands)
    results = {
        "mu": mu.to_json(),
        "matrix": _matrix_json(box),
        "spectrum": _spectrum_json(spec),
        "closed_form": "-(1/4) (sum_a R_a - 4)^2 / (1 + 4 mu)",
    }
    certs = [
        _check("laplacian_closed_form", box == closed),
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
    results = {
        "function": [v.to_json() for v in values],
        "coefficients": {k: v.to_json() for k, v in coeffs.items()},
    }
    roundtrip = dirac.fourier_reconstruct(group, coeffs) == values
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
    from . import calculus, cohomology

    families = cohomology.constant_flat_connections(c)
    results: dict = {
        "families": [
            {
                "kind": fam.kind,
                "axis": fam.axis,
                "form": (
                    "(lambda - 1) theta"
                    if fam.kind == "diagonal"
                    else f"lambda e_{fam.axis} - theta"
                ),
            }
            for fam in families
        ]
    }
    if not ns.check_families:
        return results, [_check("families_enumerated", cohomology.flat_families_complete(c))]
    params = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(5, 3)]
    all_flat = all(
        cohomology.u1_curvature(c, fam.member(c, lam)).is_zero()
        for fam in families
        for lam in params
    )
    results["checked_parameters"] = [str(p) for p in params]
    # deterministic gauge-covariance samples
    import random

    rnd = random.Random(20260819)

    def sample(lo: int, hi: int, den: int) -> calculus.GroupFunction:
        return calculus.GroupFunction.from_values(
            [Fraction(rnd.randint(lo, hi), rnd.randint(1, den)) for _ in range(c.group.order)]
        )

    covariant = True
    for _ in range(3):
        u = sample(1, 5, 3)
        alpha = calculus.Form(tuple(sample(-3, 3, 2) for _ in range(c.n)))
        lhs = cohomology.u1_curvature(c, cohomology.gauge_transform(c, u, alpha))
        rhs = cohomology.conjugate_two_form(c, u, cohomology.u1_curvature(c, alpha))
        covariant = covariant and (lhs - rhs).is_zero()
    certs = [
        _check("families_flat_at_sample_parameters", all_flat),
        _check("gauge_covariance_samples", covariant),
    ]
    return results, certs


def _cmd_s4_check(ns, c, mu) -> tuple[dict, list]:
    if ns.group != DEFAULT_GROUP or ns.class_element is not None:
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
        {
            "dest": "class_element",
            "default": None,
            "help": "element whose conjugacy class drives the calculus",
        },
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
        (
            (
                "--input",
                {"default": None, "help": "JSON file with one exact value per group element"},
            ),
        ),
        True,
    ),
    "cohomology": (_cmd_cohomology, (), True),
    "flat-u1": (_cmd_flat_u1, (("--check-families", _FLAG),), True),
    "s4-check": (_cmd_s4_check, (), False),
}


def _fail(diagnostic: dict, code: int) -> int:
    print(json.dumps(diagnostic, sort_keys=True), file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SystemExit(_fail({"error": message}, EXIT_PRECONDITION))


def _merge_negative_values(args: list[str]) -> list[str]:
    # argparse mistakes a negative rational like -1/4 for an option flag;
    # fold it into the preceding --mu so both spellings work
    merged = []
    skip = False
    for i, arg in enumerate(args):
        if skip:
            skip = False
            continue
        if (
            arg == "--mu"
            and i + 1 < len(args)
            and args[i + 1].startswith("-")
            and any(ch.isdigit() for ch in args[i + 1])
        ):
            merged.append(f"--mu={args[i + 1]}")
            skip = True
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
    except (ValueError, ZeroDivisionError, CertificationError) as ex:
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
    print(json.dumps(report, sort_keys=True, indent=2))
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

"""Command-line interface.

Every command prints one deterministic JSON report on stdout:

    {"schema": "ncgeo/1", "command": ..., "inputs": ..., "results": ...,
     "certifications": [{"check_name": ..., "status": ...}],
     "versions": {"engine": ..., "group_spec_hash": ...}}

Exit codes: 0 success; 2 precondition violation (JSON diagnostic on
stderr); 3 a certification failed (the report is still printed);
64 unknown subcommand; 65 malformed group table (the diagnostic names a
violated triple when associativity fails); 141 (128 + SIGPIPE) the reader
closed stdout before the report was written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction
from typing import Sequence

from .cyclotomic import Cyclotomic, OMEGA, ZERO
from .groups import (
    ClassCalculus,
    DiagnosticError,
    FiniteGroup,
    GroupSpecError,
    axiom_violation,
    build_group,
    class_calculus,
    class_generates,
    classify_class_products,
    conjugacy_classes,
    cyclicity_witnesses,
    is_cyclic_class,
)
from . import linalg
from . import calculus as _calculus
from . import cohomology as _cohomology
from . import dirac as _dirac
from . import riemann as _riemann
from .calculus import (
    DEFAULT_DEGREE_CAP,
    Form,
    GroupFunction,
    basis_pair_labels,
    braiding,
    degree2_relations,
    exterior_profile,
    omega2_basis,
    quadratic_dimension,
)

ENGINE_VERSION = "0.1.0"

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


def _cyc_json(x: Cyclotomic):
    return x.to_json()


def _form_json(group: FiniteGroup, labels: Sequence[str], form: Form) -> dict:
    """The nonzero coefficients by basis label, each by its nonzero values."""
    return {
        label: {group.names[g]: _cyc_json(v) for g, v in enumerate(f.values) if v}
        for label, f in zip(labels, form.coeffs)
        if not f.is_zero()
    }


def _matrix_json(m: linalg.ExactMatrix) -> list:
    return [[_cyc_json(v) for v in row] for row in m.data]


def _connection_json(c: ClassCalculus, conn: _riemann.Connection) -> dict:
    labels = [f"e_{label}" for label in c.labels]
    return {
        "comps": {
            f"A_{c.labels[b]}": _form_json(c.group, labels, w)
            for b, w in enumerate(conn.comps)
        }
    }


def _affine_connections_json(c: ClassCalculus, space: linalg.AffineSpace) -> dict:
    particular = _riemann.connection_from_vector(c, list(space.particular))
    return {
        "dimension": space.dimension,
        "particular": _connection_json(c, particular),
        "basis": [
            _connection_json(c, _riemann.connection_from_vector(c, list(vec)))
            for vec in space.basis
        ],
    }


def _group_hash(group: FiniteGroup) -> str:
    payload = json.dumps(
        {"names": list(group.names), "table": [list(r) for r in group.table]},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _parse_mu(text: str) -> Cyclotomic:
    cleaned = text.strip()
    if any(ch in cleaned for ch in ".eE"):
        raise PreconditionError(
            "metric parameter must be an exact rational like -1/4",
            {"value": text},
        )
    try:
        return Cyclotomic(Fraction(cleaned))
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(
            "metric parameter must be an exact rational like -1/4",
            {"value": text},
        )


def _load_group(spec: str) -> FiniteGroup:
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


def _auto_class(group: FiniteGroup) -> ClassCalculus:
    for cls in conjugacy_classes(group):
        if group.identity in cls:
            continue
        cand = class_calculus(group, cls[0])
        if is_cyclic_class(cand)[0]:
            return cand
    raise PreconditionError(
        "no cyclic conjugacy class found; pass an explicit class element",
        {"group_order": group.order},
    )


def _resolve_class(group: FiniteGroup, label: str | None) -> ClassCalculus:
    if label is None:
        return _auto_class(group)
    try:
        return class_calculus(group, label)
    except GroupSpecError as ex:
        raise PreconditionError(str(ex), ex.diagnostic)


def _metric_or_die(c: ClassCalculus, mu: Cyclotomic) -> _riemann.Metric:
    metric = _riemann.metric_from_mu(c, mu)
    if not metric.is_invertible:
        raise PreconditionError(
            "metric is singular at this parameter",
            {"mu": _cyc_json(mu), "singular_at": f"-1/{c.n}"},
        )
    return metric


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_info(ns, group: FiniteGroup, c: ClassCalculus) -> tuple[dict, list]:
    cyclic, witness = is_cyclic_class(c)
    classification = None
    if cyclic and c.n == 4:
        classification = classify_class_products(c)
    results = {
        "group_order": group.order,
        "element_names": list(group.names),
        "conjugacy_classes": [
            [group.names[g] for g in cls] for cls in conjugacy_classes(group)
        ],
        "class": list(c.labels),
        "cyclic": cyclic,
        "witness": witness,
        "witnesses": cyclicity_witnesses(c),
        "classification": classification,
        "class_generates_group": class_generates(c),
    }
    axioms_hold = axiom_violation(group.names, group.table) is None
    certs = [_check("group_axioms", axioms_hold)]
    return results, certs


def _cmd_extdims(ns, group: FiniteGroup, c: ClassCalculus) -> tuple[dict, list]:
    cap = ns.max_degree if ns.unsupported_scale else DEFAULT_DEGREE_CAP
    results = {}
    # the quadratic tower is the cheaper one, so its refusal comes first
    if ns.quadratic:
        results["quadratic_dims"] = [
            {"degree": m, "dim": quadratic_dimension(c, m)}
            for m in range(2, ns.max_degree + 1)
        ]
    results["dims"] = exterior_profile(c, ns.max_degree, cap=cap)
    certs = [
        {"check_name": f"extdims_degree_{d['degree']}_{d['method']}", "status": "ok"}
        for d in results["dims"]
    ]
    return results, certs


def _cmd_relations(ns, group: FiniteGroup, c: ClassCalculus) -> tuple[dict, list]:
    kernel = degree2_relations(c)
    n = c.n
    labels = c.labels
    perm = braiding(c).perm
    invariant = True
    rels = []
    for vec in kernel:
        moved = [ZERO] * (n * n)
        for col, val in enumerate(vec):
            if val:
                moved[perm[col]] = moved[perm[col]] + val
        invariant = invariant and all(a == b for a, b in zip(moved, vec))
        rels.append(
            {
                f"e_{labels[q // n]}^e_{labels[q % n]}": _cyc_json(v)
                for q, v in enumerate(vec)
                if v
            }
        )
    basis = omega2_basis(c)
    results = {
        "tensor_square_dim": n * n,
        "relation_space_dim": len(kernel),
        "degree_two_dim": basis.dim,
        "relations": rels,
        "basis_pairs": basis_pair_labels(c),
    }
    certs = [_check("relations_fixed_by_braiding", invariant)]
    return results, certs


def _cmd_metric(ns, group: FiniteGroup, c: ClassCalculus) -> tuple[dict, list]:
    mu = _parse_mu(ns.mu)
    space = _riemann.invariant_bilinear_space(c)
    metric = _riemann.metric_from_mu(c, mu)
    certs = []
    # re-check invariance of eta under conjugation by every group element
    invariant = True
    for g in range(group.order):
        conj = _riemann._class_pos_conj(c, g)
        for a in range(c.n):
            for b in range(c.n):
                if metric.eta.data[conj[a]][conj[b]] != metric.eta.data[a][b]:
                    invariant = False
    certs.append(_check("eta_conjugation_invariant", invariant))
    wedge_zero = _calculus.wedge_tensor(
        c, _riemann.metric_tensor(c, metric)
    ).is_zero()
    certs.append(_check("metric_tensor_wedges_to_zero", wedge_zero))
    results = {
        "invariant_space_dim": len(space),
        "invariant_space_basis": [_matrix_json(m) for m in space],
        "mu": _cyc_json(mu),
        "eta": _matrix_json(metric.eta),
        "invertible": metric.is_invertible,
        "eta_inverse": _matrix_json(metric.eta_inv) if metric.is_invertible else None,
        "singular_parameter": f"-1/{c.n}",
    }
    return results, certs


def _cmd_connections(ns, group: FiniteGroup, c: ClassCalculus) -> tuple[dict, list]:
    mu = _parse_mu(ns.mu)
    metric = _metric_or_die(c, mu)
    tf = _riemann.solve_torsion_free(c)
    if tf is None:
        raise PreconditionError("torsion-free system has no solution", {})
    tc = _riemann.solve_torsion_cotorsion_free(c, metric)
    if tc is None:
        raise PreconditionError("torsion+cotorsion system has no solution", {})
    certs = []
    conn = _riemann.connection_from_vector(c, list(tc.particular))
    certs.append(
        _check(
            "torsion_zero_on_particular",
            all(t.is_zero() for t in _riemann.torsion(c, conn)),
        )
    )
    certs.append(
        _check(
            "cotorsion_zero_on_particular",
            all(t.is_zero() for t in _riemann.cotorsion(c, conn, metric)),
        )
    )
    # deterministic nontrivial member of the solution space
    coeffs = [Cyclotomic(k + 1) for k in range(tc.dimension)]
    member = _riemann.connection_from_vector(c, list(tc.point(coeffs)))
    certs.append(
        _check(
            "torsion_and_cotorsion_zero_on_member",
            all(t.is_zero() for t in _riemann.torsion(c, member))
            and all(t.is_zero() for t in _riemann.cotorsion(c, member, metric)),
        )
    )
    results = {
        "mu": _cyc_json(mu),
        "torsion_free": {"dimension": tf.dimension},
        "torsion_cotorsion_free": _affine_connections_json(c, tc),
    }
    return results, certs


def _cmd_levi_civita(ns, group: FiniteGroup, c: ClassCalculus) -> tuple[dict, list]:
    mu = _parse_mu(ns.mu)
    metric = _metric_or_die(c, mu)
    conn = _riemann.levi_civita(c, metric)
    certs = [
        _check(
            "torsion_vanishes",
            all(t.is_zero() for t in _riemann.torsion(c, conn)),
        ),
        _check(
            "cotorsion_vanishes",
            all(t.is_zero() for t in _riemann.cotorsion(c, conn, metric)),
        ),
        _check("regular", _riemann.is_regular(c, conn)),
    ]
    results = {
        "mu": _cyc_json(mu),
        "connection": _connection_json(c, conn),
        "constant_coefficients": {
            f"A_{c.labels[b]}": {
                f"e_{c.labels[d]}": _cyc_json(conn.comps[b].coeffs[d].values[0])
                for d in range(c.n)
            }
            for b in range(c.n)
        },
    }
    return results, certs


def _cmd_curvature(ns, group: FiniteGroup, c: ClassCalculus) -> tuple[dict, list]:
    mu = _parse_mu(ns.mu)
    metric = _metric_or_die(c, mu)
    conn = _riemann.levi_civita(c, metric)
    curv = _riemann.curvature_2forms(c, conn)
    des = _calculus.de_basis(c)
    matches = all((curv[a] - des[a]).is_zero() for a in range(c.n))
    labels = basis_pair_labels(c)
    results = {
        "mu": _cyc_json(mu),
        "connection": "levi-civita",
        "curvature": {
            f"F_{c.labels[a]}": _form_json(group, labels, curv[a]) for a in range(c.n)
        },
        "equals_d_of_basis_forms": matches,
        "nonzero": any(not f.is_zero() for f in curv),
    }
    certs = [_check("curvature_equals_d_basis", matches)]
    return results, certs


def _cmd_ricci(ns, group: FiniteGroup, c: ClassCalculus) -> tuple[dict, list]:
    mu = _parse_mu(ns.mu)
    metric = _metric_or_die(c, mu)
    conn = _riemann.levi_civita(c, metric)
    lifts = {"i": _riemann.lift_i(c), "iprime": _riemann.lift_iprime(c)}
    if ns.lift != "both":
        lifts = {ns.lift: lifts[ns.lift]}
    labels = [f"e_{a}(x)e_{b}" for a in c.labels for b in c.labels]
    entries = {}
    certs = []
    for name, lift in lifts.items():
        ric = _riemann.ricci(c, conn, lift)
        entries[name] = {
            "is_zero": ric.is_zero(),
            "entries": _form_json(group, labels, ric),
        }
        certs.append(_check(f"ricci_vanishes_lift_{name}", ric.is_zero()))
    results = {"mu": _cyc_json(mu), "connection": "levi-civita", "ricci": entries}
    return results, certs


def _cmd_ricci_flat(ns, group: FiniteGroup, c: ClassCalculus) -> tuple[dict, list]:
    try:
        space = _riemann.solve_ricci_flat(c)
    except _riemann.NonlinearCurvatureError as ex:
        raise PreconditionError(str(ex), {})
    if space is None:
        raise PreconditionError("no torsion-free Ricci-flat connection exists", {})
    conn = _riemann.connection_from_vector(c, list(space.particular))
    lc = _riemann.levi_civita(c)
    matches_lc = list(space.particular) == _riemann.connection_to_vector(c, lc)
    metric0 = _riemann.metric_from_mu(c, 0)
    certs = [
        _check(
            "torsion_vanishes",
            all(t.is_zero() for t in _riemann.torsion(c, conn)),
        ),
        _check(
            "ricci_vanishes_lift_i",
            _riemann.ricci(c, conn, _riemann.lift_i(c)).is_zero(),
        ),
        _check(
            "ricci_vanishes_lift_iprime",
            _riemann.ricci(c, conn, _riemann.lift_iprime(c)).is_zero(),
        ),
        _check(
            "cotorsion_vanishes",
            all(t.is_zero() for t in _riemann.cotorsion(c, conn, metric0)),
        ),
        _check("regular", _riemann.is_regular(c, conn)),
    ]
    results = {
        "solution_space": _affine_connections_json(c, space),
        "unique": space.dimension == 0,
        "matches_levi_civita": matches_lc,
    }
    return results, certs


def _mu_scaling(c: ClassCalculus, mu: Cyclotomic) -> Cyclotomic:
    return (1 + mu * c.n).inverse()


def _dirac_candidates(c: ClassCalculus, mu: Cyclotomic) -> list[Cyclotomic]:
    base = [Cyclotomic(0)]
    for k in (4, -4):
        for npow in range(3):
            base.append(Cyclotomic(k) * OMEGA**npow)
    if not mu:
        return base
    s = mu * 4 * _mu_scaling(c, mu)
    shifts = [Cyclotomic(0) - 4] + [
        Cyclotomic(4) * OMEGA**npow - 4 for npow in range(3)
    ]
    return [lam + s * d for lam in base for d in shifts]


def _cmd_dirac(ns, group: FiniteGroup, c: ClassCalculus) -> tuple[dict, list]:
    mu = _parse_mu(ns.mu)
    metric = _metric_or_die(c, mu)
    if c.n != 4 or group.order != 12:
        raise PreconditionError(
            "the spinor construction needs the four-element class of a4",
            {"class_size": c.n, "group_order": group.order},
        )
    D = _dirac.dirac_operator(c, metric)
    certs = []
    results: dict = {"mu": _cyc_json(mu), "size": D.rows}
    gammas = _dirac.gamma_matrices(c, metric)
    results["gamma"] = {
        f"gamma_{c.labels[a]}": _matrix_json(gammas[a]) for a in range(c.n)
    }
    cas = _dirac.casimir_action(c, metric)
    expected = linalg.ExactMatrix.identity(3).scale(
        Cyclotomic(4) * _mu_scaling(c, mu)
    )
    certs.append(_check("casimir_is_scalar", cas == expected))
    if ns.spectrum:
        spec = _dirac.verify_spectrum(D, _dirac_candidates(c, mu))
        results["spectrum"] = [
            {"value": _cyc_json(lam), "multiplicity": mult}
            for lam, mult in sorted(
                spec.items(), key=lambda kv: json.dumps(_cyc_json(kv[0]))
            )
        ]
        results["spectrum_total"] = sum(spec.values())
        total_ok = results["spectrum_total"] == D.rows
        certs.append(_check("spectrum_multiplicities_sum_to_dimension", total_ok))
    if ns.eigenbasis:
        if mu:
            raise PreconditionError(
                "the exact eigenbasis is constructed at mu = 0 only",
                {"mu": _cyc_json(mu)},
            )
        eig = _dirac.dirac_eigenbasis(c)
        ok = all(
            all(a == lam * b for a, b in zip(D.matvec(list(vec)), vec))
            for lam, vec in eig
        )
        vmat = linalg.ExactMatrix.from_rows([list(v) for _, v in eig])
        independent = linalg.rank(vmat) == len(eig)
        results["eigenbasis"] = [
            {"eigenvalue": _cyc_json(lam), "vector": [_cyc_json(v) for v in vec]}
            for lam, vec in eig
        ]
        certs.append(_check("eigenbasis_eigen_equations", ok))
        certs.append(_check("eigenbasis_independent", independent))
    if not ns.spectrum and not ns.eigenbasis:
        results["matrix"] = _matrix_json(D)
    return results, certs


def _cmd_laplacian(ns, group: FiniteGroup, c: ClassCalculus) -> tuple[dict, list]:
    mu = _parse_mu(ns.mu)
    metric = _metric_or_die(c, mu)
    if c.n != 4 or group.order != 12:
        raise PreconditionError(
            "the scalar Laplacian spectrum is built for the four-element class of a4",
            {"class_size": c.n, "group_order": group.order},
        )
    box = _dirac.laplacian(c, metric)
    d0m = _dirac.translation_combination(c, [1] * c.n)
    shifted = d0m - linalg.ExactMatrix.identity(group.order).scale(Cyclotomic(4))
    closed = (shifted @ shifted).scale(
        Cyclotomic(Fraction(-1, 4)) * _mu_scaling(c, mu)
    )
    matches = box == closed
    scale = _mu_scaling(c, mu)
    cands = [
        Cyclotomic(0),
        Cyclotomic(-4) * scale,
        Cyclotomic(12) * OMEGA * scale,
        Cyclotomic(12) * OMEGA * OMEGA * scale,
    ]
    spec = _dirac.verify_spectrum(box, cands)
    results = {
        "mu": _cyc_json(mu),
        "matrix": _matrix_json(box),
        "spectrum": [
            {"value": _cyc_json(lam), "multiplicity": mult}
            for lam, mult in sorted(
                spec.items(), key=lambda kv: json.dumps(_cyc_json(kv[0]))
            )
        ],
        "closed_form": "-(1/4) (sum_a R_a - 4)^2 / (1 + 4 mu)",
    }
    certs = [
        _check("laplacian_closed_form", matches),
        _check("spectrum_multiplicities_sum_to_dimension", sum(spec.values()) == box.rows),
    ]
    return results, certs


def _cmd_fourier(ns, group: FiniteGroup, c: ClassCalculus) -> tuple[dict, list]:
    if ns.input is not None:
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
        values = [Cyclotomic.from_json(v) for v in payload]
    else:
        values = list(
            GroupFunction.delta(group.order, c.elements[0]).values
        )
    coeffs = _dirac.fourier_decompose(group, values)
    back = _dirac.fourier_reconstruct(group, coeffs)
    roundtrip = back == values
    results = {
        "function": [_cyc_json(v) for v in values],
        "coefficients": {k: _cyc_json(v) for k, v in coeffs.items()},
    }
    certs = [_check("fourier_roundtrip_exact", roundtrip)]
    return results, certs


def _cmd_cohomology(ns, group: FiniteGroup, c: ClassCalculus) -> tuple[dict, list]:
    data = _cohomology.de_rham_h1(c)
    results = {
        "h1_dim": data["h1_dim"],
        "ker_d1": data["ker_d1"],
        "im_d0": data["im_d0"],
        "representative": data["representative"],
    }
    certs = [
        _check("d1_after_d0_is_zero", data["d1_after_d0_is_zero"]),
        _check("theta_closed", data["theta_closed"]),
        _check("theta_not_exact", not data["theta_exact"]),
    ]
    return results, certs


def _cmd_flat_u1(ns, group: FiniteGroup, c: ClassCalculus) -> tuple[dict, list]:
    families = _cohomology.constant_flat_connections(c)
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
    certs = []
    if ns.check_families:
        params = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(5, 3)]
        all_flat = True
        for fam in families:
            for lam in params:
                alpha = fam.member(c, lam)
                if not _cohomology.u1_curvature(c, alpha).is_zero():
                    all_flat = False
        results["checked_parameters"] = [str(p) for p in params]
        certs.append(_check("families_flat_at_sample_parameters", all_flat))
        # deterministic gauge-covariance samples
        import random as _random

        rnd = _random.Random(20260819)
        covariant = True
        for _ in range(3):
            u = GroupFunction(
                tuple(
                    Cyclotomic(Fraction(rnd.randint(1, 5), rnd.randint(1, 3)))
                    for _ in range(group.order)
                )
            )
            alpha = Form(
                tuple(
                    GroupFunction(
                        tuple(
                            Cyclotomic(Fraction(rnd.randint(-3, 3), rnd.randint(1, 2)))
                            for _ in range(group.order)
                        )
                    )
                    for _ in range(c.n)
                )
            )
            lhs = _cohomology.u1_curvature(
                c, _cohomology.gauge_transform(c, u, alpha)
            )
            rhs = _cohomology.conjugate_two_form(
                c, u, _cohomology.u1_curvature(c, alpha)
            )
            if not (lhs - rhs).is_zero():
                covariant = False
        certs.append(_check("gauge_covariance_samples", covariant))
    else:
        certs.append({"check_name": "families_enumerated", "status": "ok"})
    return results, certs


def _cmd_s4_check(ns, group: FiniteGroup, c: ClassCalculus) -> tuple[dict, list]:
    cross = _cohomology.s4_cross_relations_check()
    a4 = build_group("a4")
    ca4 = class_calculus(a4, "t")
    conj = _cohomology.conjugate_calculus_check(ca4)
    results = {"cross_relations": cross, "conjugate_calculus_a4": conj}
    certs = [
        _check("s4_relations_in_braiding_kernel", cross["all_in_kernel"]),
        _check("transpose_identity_a4", conj["transpose_identity"]),
    ]
    return results, certs


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(
            json.dumps({"error": message}, sort_keys=True),
            file=sys.stderr,
        )
        raise SystemExit(EXIT_PRECONDITION)


_NEEDS_CLASS = True

COMMANDS: dict[str, tuple] = {}


def _register(name: str, handler, configure=None, needs_class: bool = True):
    COMMANDS[name] = (handler, configure, needs_class)


def _add_common(parser: _Parser) -> None:
    parser.add_argument(
        "--group",
        default="a4",
        help="builtin group name or path to a JSON file with names and table",
    )
    parser.add_argument(
        "--class",
        dest="class_element",
        default=None,
        help="element whose conjugacy class drives the calculus",
    )


def _add_mu(parser: _Parser) -> None:
    parser.add_argument(
        "--mu",
        default="0",
        help="metric parameter, an exact rational like -1/4",
    )


def _conf_extdims(parser: _Parser) -> None:
    parser.add_argument("--max-degree", type=int, default=6)
    parser.add_argument("--quadratic", action="store_true")
    parser.add_argument(
        "--unsupported-scale",
        action="store_true",
        help="attempt degrees beyond the default cap (may be very slow)",
    )


def _conf_dirac(parser: _Parser) -> None:
    _add_mu(parser)
    parser.add_argument("--spectrum", action="store_true")
    parser.add_argument("--eigenbasis", action="store_true")


def _conf_ricci(parser: _Parser) -> None:
    _add_mu(parser)
    parser.add_argument("--lift", choices=["i", "iprime", "both"], default="both")


def _conf_fourier(parser: _Parser) -> None:
    parser.add_argument(
        "--input",
        default=None,
        help="JSON file with one exact value per group element",
    )


def _conf_flat_u1(parser: _Parser) -> None:
    parser.add_argument("--check-families", action="store_true")


_register("info", _cmd_info)
_register("extdims", _cmd_extdims, _conf_extdims)
_register("relations", _cmd_relations)
_register("metric", _cmd_metric, _add_mu)
_register("connections", _cmd_connections, _add_mu)
_register("levi-civita", _cmd_levi_civita, _add_mu)
_register("curvature", _cmd_curvature, _add_mu)
_register("ricci", _cmd_ricci, _conf_ricci)
_register("ricci-flat", _cmd_ricci_flat)
_register("dirac", _cmd_dirac, _conf_dirac)
_register("laplacian", _cmd_laplacian, _add_mu)
_register("fourier", _cmd_fourier, _conf_fourier)
_register("cohomology", _cmd_cohomology)
_register("flat-u1", _cmd_flat_u1, _conf_flat_u1)
_register("s4-check", _cmd_s4_check, needs_class=False)


def _usage() -> str:
    return "usage: ncgeo <command> [options]\ncommands: " + ", ".join(
        sorted(COMMANDS)
    )


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
        print(_usage())
        return EXIT_OK if args else EXIT_UNKNOWN_COMMAND
    command = args[0]
    if command not in COMMANDS:
        print(
            json.dumps(
                {"error": f"unknown command {command!r}", "commands": sorted(COMMANDS)},
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        return EXIT_UNKNOWN_COMMAND
    handler, configure, needs_class = COMMANDS[command]
    parser = _Parser(prog=f"ncgeo {command}")
    _add_common(parser)
    if configure is not None:
        configure(parser)
    try:
        ns = parser.parse_args(args[1:])
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        group = _load_group(ns.group)
    except GroupSpecError as ex:
        print(json.dumps(ex.diagnostic, sort_keys=True), file=sys.stderr)
        return EXIT_BAD_GROUP
    try:
        c = _resolve_class(group, ns.class_element) if needs_class else None
        results, certs = handler(ns, group, c)
    except DiagnosticError as ex:
        print(json.dumps(ex.diagnostic, sort_keys=True), file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, ZeroDivisionError, linalg.CertificationError) as ex:
        print(json.dumps({"error": str(ex)}, sort_keys=True), file=sys.stderr)
        return EXIT_PRECONDITION
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

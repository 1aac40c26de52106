"""Exact noncommutative differential geometry on finite groups.

The calculus on a finite group is driven by an ad-stable generating set
(a conjugacy class): functions on the group are the base ring, one basis
one-form per class element, higher degrees cut out by a braiding
operator.  Everything is computed over the exact cyclotomic field
generated by a primitive cube root of unity, so every reported number is
a certificate, not an approximation.

Importing the package loads none of its modules.  Each exported name, and
each submodule (``ncgeo.riemann``), is imported on first access, so a
process loads only the layers it uses: ``build_group`` alone loads
``cyclotomic`` and ``groups``.  ``__all__``, ``dir(ncgeo)`` and
``from ncgeo import *`` see every exported name.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "cyclotomic": ("Cyclotomic", "OMEGA", "OMEGA2", "ONE", "ZERO", "cyc"),
    "linalg": (
        "AffineSpace", "CertificationError", "ExactMatrix", "certified_rank_blocks",
        "invert", "nullspace", "rank", "solve_affine",
    ),
    "groups": (
        "ClassCalculus", "FiniteGroup", "GroupSpecError", "TABLE_II", "TABLE_III", "OTHER",
        "build_group", "class_calculus", "class_generates", "classify_class_products",
        "conjugacy_classes", "cyclicity_witnesses", "generated_subgroup", "is_cyclic_class",
    ),
    "calculus": (
        "BraidData", "Form", "GroupFunction", "Omega2Basis", "ScaleCapError",
        "basis_pair_labels", "braiding", "d0", "d1", "de_basis", "degree2_relations", "e_form",
        "exterior_dimension_info", "exterior_profile", "omega2_basis", "quadratic_dimension",
        "theta", "wedge",
    ),
    "riemann": (
        "Connection", "Metric", "NonlinearCurvatureError", "cotorsion", "covariant_derivative",
        "curvature_2forms", "invariant_bilinear_space", "is_regular", "levi_civita", "lift_i",
        "lift_iprime", "metric_from_mu", "metric_tensor", "ricci", "solve_ricci_flat",
        "solve_torsion_cotorsion_free", "solve_torsion_free", "torsion",
    ),
    "dirac": (
        "FOURIER_LABELS", "Representation", "builtin_reps", "casimir_action", "chi_operator",
        "chirality_gamma", "dirac_eigenbasis", "dirac_operator", "fourier_decompose",
        "fourier_reconstruct", "gamma_matrices", "laplacian", "right_multiplication",
        "verify_spectrum",
    ),
    "cohomology": (
        "FlatFamily", "conjugate_calculus_check", "constant_flat_connections", "de_rham_h1",
        "gauge_transform", "s4_cross_relations_check", "u1_curvature",
    ),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package as well
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBMODULES | set(_MODULE_OF))

"""Acceptance gate: the fifteen headline claims, checked exactly.

Each test covers one claim and prints a single PASS line on success;
a failing claim shows up as the one FAILED line for that test.  All
arithmetic is exact -- there are no tolerances anywhere.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from ncgeo import (
    Cyclotomic,
    ExactMatrix,
    GroupFunction,
    Form,
    OMEGA,
    builtin_reps,
    chi_operator,
    chirality_gamma,
    conjugate_calculus_check,
    constant_flat_connections,
    cotorsion,
    covariant_derivative,
    curvature_2forms,
    cyc,
    de_basis,
    de_rham_h1,
    degree2_relations,
    dirac_eigenbasis,
    dirac_operator,
    e_form,
    exterior_dimension_info,
    fourier_decompose,
    fourier_reconstruct,
    gauge_transform,
    gamma_matrices,
    invariant_bilinear_space,
    is_cyclic_class,
    is_regular,
    laplacian,
    levi_civita,
    lift_i,
    lift_iprime,
    metric_from_mu,
    metric_tensor,
    quadratic_dimension,
    rank,
    ricci,
    solve_ricci_flat,
    solve_torsion_free,
    torsion,
    right_multiplication,
    u1_curvature,
    verify_spectrum,
    classify_class_products,
    class_calculus,
    conjugacy_classes,
    cyclicity_witnesses,
    generated_subgroup,
    braiding,
)
from ncgeo.calculus import _factorial_sparse, wedge_tensor
from ncgeo.cohomology import conjugate_two_form, s4_cross_relations_check
from ncgeo.groups import TABLE_II, TABLE_III
from ncgeo.riemann import (
    connection_from_vector,
    connection_to_vector,
    riemann,
)

from helpers import csr_to_int_array, d0_matrix, d1_matrix

PARTNERS = {
    "t": {"t": "t", "x": "z", "y": "x", "z": "y"},
    "x": {"t": "y", "x": "x", "y": "z", "z": "t"},
    "y": {"t": "z", "x": "t", "y": "y", "z": "x"},
    "z": {"t": "x", "x": "y", "y": "t", "z": "z"},
}


def _ok(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def _pos(c, label):
    return list(c.labels).index(label)


@pytest.fixture(scope="module")
def dirac_zero(a4_c):
    return dirac_operator(a4_c)


@pytest.fixture(scope="module")
def lc(a4_c):
    return levi_civita(a4_c)


def test_criterion_01_exterior_dimensions(a4_c):
    dims = []
    for m in range(7):
        dim, info = exterior_dimension_info(a4_c, m)
        dims.append(dim)
        if m <= 4:
            assert info["method"] == "exact"
        else:
            assert info["method"] == "modular-certified"
            assert len(info["primes"]) == 2
    assert dims == [1, 4, 8, 11, 12, 12, 11]
    _ok(1, "exterior dimensions 1 4 8 11 12 12 11")


def test_criterion_02_quadratic_tower_first_differs_at_six(a4_c):
    for m in range(2, 6):
        dim, _ = exterior_dimension_info(a4_c, m)
        assert quadratic_dimension(a4_c, m) == dim
    exterior_six, _ = exterior_dimension_info(a4_c, 6)
    quadratic_six = quadratic_dimension(a4_c, 6)
    assert quadratic_six == 12
    assert exterior_six == 11
    assert quadratic_six != exterior_six
    _ok(2, "quadratic cover first differs at degree six (12 vs 11)")


def test_criterion_03_relation_space(a4_c):
    kernel = degree2_relations(a4_c)
    assert len(kernel) == 8
    n = a4_c.n
    lbl = {name: i for i, name in enumerate(a4_c.labels)}
    triples = [
        [("t", "x"), ("x", "z"), ("z", "t")],
        [("t", "y"), ("y", "x"), ("x", "t")],
        [("t", "z"), ("z", "y"), ("y", "t")],
        [("x", "y"), ("y", "z"), ("z", "x")],
    ]
    candidates = []
    for a in range(n):
        vec = [cyc(0)] * (n * n)
        vec[a * n + a] = cyc(1)
        candidates.append(vec)
    for triple in triples:
        vec = [cyc(0)] * (n * n)
        for a, b in triple:
            vec[lbl[a] * n + lbl[b]] = cyc(1)
        candidates.append(vec)
    perm = braiding(a4_c).perm
    for vec in candidates:
        moved = [cyc(0)] * (n * n)
        for q, vq in enumerate(vec):
            moved[perm[q]] = moved[perm[q]] + vq
        assert moved == vec
    assert rank(ExactMatrix.from_rows(candidates)) == 8
    assert rank(ExactMatrix.from_rows(candidates + [list(v) for v in kernel])) == 8
    _ok(3, "relation space is diagonals plus the four triple cycles")


def test_criterion_04_invariant_metrics(a4_c):
    space = invariant_bilinear_space(a4_c)
    assert len(space) == 2
    singular = metric_from_mu(a4_c, Fraction(-1, 4))
    assert not singular.is_invertible
    for mu in (0, Fraction(1, 3), Fraction(-2, 7), 5):
        metric = metric_from_mu(a4_c, mu)
        assert metric.is_invertible
        assert metric.eta @ metric.eta_inv == ExactMatrix.identity(4)
        assert wedge_tensor(a4_c, metric_tensor(a4_c, metric)).is_zero()
    _ok(4, "metric moduli two-dimensional, singular only at -1/4")


def test_criterion_05_torsion_free_moduli(a4_c):
    space = solve_torsion_free(a4_c)
    assert space is not None
    assert space.dimension == 36
    assert space.dimension == 3 * a4_c.group.order
    base = list(space.particular)
    conn = connection_from_vector(a4_c, base)
    assert all(t.is_zero() for t in torsion(a4_c, conn))
    assert conn.sum().is_zero()
    for vec in space.basis:
        member = connection_from_vector(
            a4_c, [a + b for a, b in zip(base, vec)]
        )
        assert all(t.is_zero() for t in torsion(a4_c, member))
        assert member.sum().is_zero()
    _ok(5, "torsion-free moduli 36 = 3|G| with vanishing component sum")


def test_criterion_06_unique_ricci_flat_connection(a4_c, lc):
    space = solve_ricci_flat(a4_c)
    assert space is not None
    assert space.dimension == 0
    assert list(space.particular) == connection_to_vector(a4_c, lc)
    for b in range(4):
        for d in range(4):
            f = lc.comps[b].coeffs[d]
            assert f.is_constant()
            expected = Fraction(3, 4) if b == d else Fraction(-1, 4)
            assert f.values[0] == cyc(expected)
    metric = metric_from_mu(a4_c, 0)
    assert all(t.is_zero() for t in torsion(a4_c, lc))
    assert all(t.is_zero() for t in cotorsion(a4_c, lc, metric))
    assert ricci(a4_c, lc, lift_i(a4_c)).is_zero()
    assert ricci(a4_c, lc, lift_iprime(a4_c)).is_zero()
    assert is_regular(a4_c, lc)
    curls = curvature_2forms(a4_c, lc)
    assert any(not f.is_zero() for f in curls)
    des = de_basis(a4_c)
    W = riemann(a4_c, lc)
    for a_lbl, partners in PARTNERS.items():
        a = _pos(a4_c, a_lbl)
        for b_lbl, d_lbl in partners.items():
            b, d = _pos(a4_c, b_lbl), _pos(a4_c, d_lbl)
            assert (W[a][d] - des[b]).is_zero()
    _ok(6, "canonical connection is the unique Ricci-flat point")


def test_criterion_07_covariant_derivative(a4_c, lc):
    quarter = cyc(Fraction(1, 4))
    for a_lbl, partners in PARTNERS.items():
        out = covariant_derivative(a4_c, lc, e_form(a4_c, a_lbl))
        for u_lbl in "txyz":
            for v_lbl in "txyz":
                got = out.coeffs[_pos(a4_c, u_lbl) * a4_c.n + _pos(a4_c, v_lbl)]
                expected = quarter - (
                    cyc(1) if partners[u_lbl] == v_lbl else cyc(0)
                )
                assert got.is_constant()
                assert got.values[0] == expected
    _ok(7, "covariant derivative of the basis matches the display")


def _kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    rows = []
    for i in range(a.rows):
        for k in range(b.rows):
            rows.append(
                [
                    a.data[i][j] * b.data[k][l]
                    for j in range(a.cols)
                    for l in range(b.cols)
                ]
            )
    return ExactMatrix.from_rows(rows)


def test_criterion_08_dirac_spectrum(a4, a4_c, dirac_zero):
    expected = {cyc(0): 18}
    for k in (4, -4):
        for npow in range(3):
            expected[cyc(k) * OMEGA**npow] = 3
    spec = verify_spectrum(dirac_zero, list(expected))
    assert spec == expected
    assert sum(spec.values()) == 36
    gammas = gamma_matrices(a4_c)
    total = ExactMatrix.zeros(36, 36)
    for a in range(4):
        elem = a4_c.elements[a]
        rt = [[0] * 12 for _ in range(12)]
        for g in range(12):
            rt[g][a4.mult(g, elem)] = 1
        partial = ExactMatrix.from_rows(rt) - ExactMatrix.identity(12)
        total = total + _kron(gammas[a], partial)
    total = total - ExactMatrix.identity(36).scale(cyc(4))
    assert dirac_zero == total
    _ok(8, "spinor operator spectrum 0^18 (+-4 w^k)^3 and gamma identity")


def test_criterion_09_laplacian_and_fourier(a4, a4_c):
    box = laplacian(a4_c)
    d0m = right_multiplication(a4, dict.fromkeys(a4_c.elements, 1))
    shifted = d0m - ExactMatrix.identity(12).scale(cyc(4))
    assert box == (shifted @ shifted).scale(cyc(Fraction(-1, 4)))
    expected = {
        cyc(0): 1,
        cyc(12) * OMEGA: 1,
        cyc(12) * OMEGA * OMEGA: 1,
        cyc(-4): 9,
    }
    assert verify_spectrum(box, list(expected)) == expected
    rnd = random.Random(99)
    values = [
        Cyclotomic(Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)))
        for _ in range(12)
    ]
    assert fourier_reconstruct(a4, fourier_decompose(a4, values)) == values
    _ok(9, "scalar Laplacian spectrum and exact Fourier round-trip")


def test_criterion_10_eigenbasis_and_symmetries(a4, a4_c, dirac_zero):
    eig = dirac_eigenbasis(a4_c)
    assert len(eig) == 36
    for lam, vec in eig:
        assert dirac_zero.matvec(list(vec)) == [lam * v for v in vec]
    assert rank(ExactMatrix.from_rows([list(v) for _, v in eig])) == 36
    counts = {}
    for lam, _ in eig:
        counts[lam] = counts.get(lam, 0) + 1
    assert counts[cyc(0)] == 18
    gamma = chirality_gamma(a4_c)
    assert gamma @ gamma == ExactMatrix.identity(36)
    assert (gamma @ dirac_zero + dirac_zero @ gamma).is_zero()
    chi = chi_operator(a4_c)
    assert chi @ chi @ chi == ExactMatrix.identity(36)
    assert chi @ dirac_zero == dirac_zero @ chi
    rho = builtin_reps(a4)["rho"]
    rho_diag = ExactMatrix.from_rows(
        [
            [rho(g).data[0][0] if g == h else 0 for h in range(12)]
            for g in range(12)
        ]
    )
    rho_hat = _kron(ExactMatrix.identity(3), rho_diag)
    assert dirac_zero @ rho_hat == (rho_hat @ dirac_zero).scale(OMEGA)
    _ok(10, "thirty-six exact spinors with twist and chirality symmetries")


def test_criterion_11_cohomology(a4_c):
    data = de_rham_h1(a4_c)
    assert data["ker_d1"] == 12
    assert data["im_d0"] == 11
    assert data["h1_dim"] == 1
    assert data["theta_closed"] and not data["theta_exact"]
    assert data["representative"] == "theta"
    assert (d1_matrix(a4_c) @ d0_matrix(a4_c)).is_zero()
    _ok(11, "first cohomology is one-dimensional with theta representative")


def test_criterion_12_flat_families_and_gauge(a4_c):
    families = constant_flat_connections(a4_c)
    assert len(families) == 5
    params = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(5, 3)]
    for fam in families:
        for lam in params:
            assert u1_curvature(a4_c, fam.member(a4_c, lam)).is_zero()
    rnd = random.Random(1202)
    order = a4_c.group.order
    for _ in range(20):
        u = GroupFunction.from_values(
            [
                Cyclotomic(Fraction(rnd.randint(1, 6), rnd.randint(1, 4)))
                for _ in range(order)
            ]
        )
        alpha = Form(
            tuple(
                GroupFunction.from_values(
                    [
                        Cyclotomic(
                            Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)),
                            Fraction(rnd.randint(-2, 2)),
                        )
                        for _ in range(order)
                    ]
                )
                for _ in range(a4_c.n)
            )
        )
        lhs = u1_curvature(a4_c, gauge_transform(a4_c, u, alpha))
        rhs = conjugate_two_form(a4_c, u, u1_curvature(a4_c, alpha))
        assert (lhs - rhs).is_zero()
    _ok(12, "five flat abelian families and gauge covariance (20 pairs)")


def test_criterion_13_cross_group_checks(a4, a4_c):
    result = s4_cross_relations_check()
    assert result["class_size"] == 8
    assert result["all_in_kernel"]
    assert len(result["relations"]) == 10
    assert all(result["relations"].values())
    conj = conjugate_calculus_check(a4_c)
    assert conj["transpose_identity"]
    assert conj["conjugate_class_of"] == "t2"
    assert conj["conjugate_table"] == TABLE_III
    # direct matrix form of the transpose identity on the group algebra
    for a in range(4):
        elem = a4_c.elements[a]
        sq = a4.mult(elem, elem)
        mat = np.zeros((12, 12), dtype=np.int64)
        mat_sq = np.zeros((12, 12), dtype=np.int64)
        for g in range(12):
            mat[g, a4.mult(g, elem)] += 1
            mat[g, g] -= 1
            mat_sq[g, a4.mult(g, sq)] += 1
            mat_sq[g, g] -= 1
        assert mat.T.tolist() == mat_sq.tolist()
    _ok(13, "order-24 relations and the transpose identity hold")


def _psi_slot(c, m, i):
    n = c.n
    perm = braiding(c).perm
    psi = np.zeros((n * n, n * n), dtype=np.int64)
    for q, target in enumerate(perm):
        psi[target, q] = 1
    return np.kron(
        np.eye(n**i, dtype=np.int64),
        np.kron(psi, np.eye(n ** (m - 2 - i), dtype=np.int64)),
    )


def _signed_word_sum(c, m):
    n = c.n
    size = n**m
    slots = [_psi_slot(c, m, i) for i in range(m - 1)]
    total = np.zeros((size, size), dtype=np.int64)
    for sigma in itertools.permutations(range(m)):
        arr = list(sigma)
        word = []
        changed = True
        while changed:
            changed = False
            for i in range(len(arr) - 1):
                if arr[i] > arr[i + 1]:
                    arr[i], arr[i + 1] = arr[i + 1], arr[i]
                    word.append(i)
                    changed = True
        mat = np.eye(size, dtype=np.int64)
        for i in word:
            mat = mat @ slots[i]
        total += (-1) ** len(word) * mat
    return total


def test_criterion_14_antisymmetrizer_oracle(a4_c, s3_c):
    for m in (2, 3, 4):
        got = csr_to_int_array(_factorial_sparse(braiding(a4_c), m))
        assert got.tolist() == _signed_word_sum(a4_c, m).tolist()
    for m in (2, 3):
        got = csr_to_int_array(_factorial_sparse(braiding(s3_c), m))
        assert got.tolist() == _signed_word_sum(s3_c, m).tolist()
    _ok(14, "antisymmetrizer equals the signed reduced-word sum")


def test_criterion_15_class_classification(a4, a4_c, sl2z3):
    cyclic, witness = is_cyclic_class(a4_c)
    assert cyclic and witness == "t"
    assert cyclicity_witnesses(a4_c) == ["t", "x", "y", "z"]
    assert classify_class_products(a4_c) == TABLE_III
    four_classes = [
        cls for cls in conjugacy_classes(sl2z3) if len(cls) == 4
    ]
    assert len(four_classes) == 4
    for cls in four_classes:
        c = class_calculus(sl2z3, cls[0])
        assert is_cyclic_class(c)[0]
        assert classify_class_products(c) == TABLE_II
    klein_c = class_calculus(a4, "u")
    assert not is_cyclic_class(klein_c)[0]
    closure = generated_subgroup(klein_c)
    assert len(closure) == 4
    assert all(a4.mult(g, g) == a4.identity for g in closure)
    _ok(15, "class product tables: third for a4, second for sl(2,3)")

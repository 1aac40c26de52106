import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncgeo import (
    AffineSpace,
    Connection,
    Cyclotomic,
    ExactMatrix,
    Form,
    GroupFunction,
    NonlinearCurvatureError,
    cotorsion,
    covariant_derivative,
    curvature_2forms,
    cyc,
    de_basis,
    e_form,
    invariant_bilinear_space,
    levi_civita,
    lift_i,
    lift_iprime,
    metric_from_mu,
    metric_tensor,
    rank,
    ricci,
    solve_ricci_flat,
    solve_torsion_cotorsion_free,
    solve_torsion_free,
    theta,
    torsion,
    solve_affine,
)
from ncgeo.groups import build_group, class_calculus
from ncgeo.riemann import (
    _family_columns,
    _torsion_point_space,
    connection_from_vector,
    connection_to_vector,
    is_conjugation_invariant,
    is_regular,
    mu_scaling,
    riemann,
    singular_parameter,
)
from ncgeo import riemann as riemann_module
from ncgeo.calculus import omega2_basis, tensor_of_forms, wedge_tensor, zero_two_form

from helpers import (
    CATALOGUE,
    CATALOGUE_CLASSES,
    affine_contains,
    counted_calls,
    curvature_oracle,
    random_form,
)


# the conjugation partner tables b -> b^-1 a b for the four basis labels,
# frozen from the displayed covariant derivative of the canonical connection
PARTNERS = {
    "t": {"t": "t", "x": "z", "y": "x", "z": "y"},
    "x": {"t": "y", "x": "x", "y": "z", "z": "t"},
    "y": {"t": "z", "x": "t", "y": "y", "z": "x"},
    "z": {"t": "x", "x": "y", "y": "t", "z": "z"},
}


def _pos(c, label):
    return list(c.labels).index(label)


# ---------------------------------------------------------------------------
# invariant metrics
# ---------------------------------------------------------------------------


def test_invariant_space_is_two_dimensional(a4_c):
    space = invariant_bilinear_space(a4_c)
    assert len(space) == 2
    n = a4_c.n
    eye = ExactMatrix.identity(n)
    ones = ExactMatrix.from_rows([[1] * n for _ in range(n)])
    rows = [
        [m.data[i][j] for i in range(n) for j in range(n)]
        for m in space + [eye, ones]
    ]
    # the identity and the all-ones matrix lie in the span
    assert rank(ExactMatrix.from_rows(rows)) == 2


@given(
    st.fractions(
        min_value=Fraction(-3), max_value=Fraction(3), max_denominator=8
    )
)
@settings(max_examples=30, deadline=None)
def test_metric_invertibility_threshold(a4_c, mu):
    metric = metric_from_mu(a4_c, mu)
    if mu == Fraction(-1, 4):
        assert not metric.is_invertible
        assert metric.eta_inv is None
    else:
        assert metric.is_invertible
        assert metric.eta @ metric.eta_inv == ExactMatrix.identity(4)


def test_mu_scaling_and_the_singular_parameter(a4_c):
    assert mu_scaling(4, Fraction(3, 7)) == cyc(Fraction(7, 19))
    assert mu_scaling(4, Fraction(-1, 4)) is None
    assert singular_parameter(4) == cyc(Fraction(-1, 4))
    assert singular_parameter(1) == cyc(-1)
    assert metric_from_mu(a4_c, Fraction(3, 7)).mu == cyc(Fraction(3, 7))


def test_conjugation_invariance_rejects_a_diagonal_of_distinct_entries(a4_c):
    eta = ExactMatrix.from_rows([[k + 1 if j == k else 0 for j in range(4)] for k in range(4)])
    assert not is_conjugation_invariant(a4_c, eta)


def test_conjugation_invariance_accepts_every_invariant_basis_metric():
    for key, element in CATALOGUE_CLASSES:
        c = class_calculus(CATALOGUE[key], element)
        space = invariant_bilinear_space(c)
        assert space and all(is_conjugation_invariant(c, eta) for eta in space), (key, element)


def test_metric_structure(a4_c):
    metric = metric_from_mu(a4_c, Fraction(1, 3))
    for a in range(4):
        for b in range(4):
            expected = cyc(Fraction(1, 3)) + (cyc(1) if a == b else cyc(0))
            assert metric.eta.data[a][b] == expected


def test_metric_tensor_wedges_to_zero(a4_c, s3_c):
    for c in (a4_c, s3_c):
        metric = metric_from_mu(c, Fraction(2, 5))
        assert wedge_tensor(c, metric_tensor(c, metric)).is_zero()


# ---------------------------------------------------------------------------
# torsion and cotorsion
# ---------------------------------------------------------------------------


def test_torsion_free_moduli(a4_c):
    space = solve_torsion_free(a4_c)
    assert space is not None
    assert space.dimension == 36  # three parameters per group point


def test_torsion_free_solutions_sum_to_zero(a4_c):
    space = solve_torsion_free(a4_c)
    conn = connection_from_vector(a4_c, list(space.particular))
    assert conn.sum().is_zero()
    for vec in space.basis:
        shifted = space.point([cyc(0)] * space.dimension)
        member = [a + b for a, b in zip(shifted, vec)]
        assert connection_from_vector(a4_c, member).sum().is_zero()
    assert all(t.is_zero() for t in torsion(a4_c, conn))


@pytest.mark.parametrize("mu", [0, Fraction(1, 3)])
def test_torsion_cotorsion_free_moduli(a4_c, mu):
    metric = metric_from_mu(a4_c, mu)
    space = solve_torsion_cotorsion_free(a4_c, metric)
    assert space is not None
    assert space.dimension == 9
    conn = connection_from_vector(a4_c, list(space.particular))
    assert all(t.is_zero() for t in torsion(a4_c, conn))
    assert all(t.is_zero() for t in cotorsion(a4_c, conn, metric))


def test_torsion_cotorsion_space_contains_canonical_connection(a4_c):
    metric = metric_from_mu(a4_c, 0)
    space = solve_torsion_cotorsion_free(a4_c, metric)
    lc = levi_civita(a4_c, metric)
    assert affine_contains(space, connection_to_vector(a4_c, lc))


# ---------------------------------------------------------------------------
# the canonical torsion- and cotorsion-free connection
# ---------------------------------------------------------------------------


def test_levi_civita_coefficients(a4_c):
    conn = levi_civita(a4_c)
    for b in range(4):
        for d in range(4):
            f = conn.comps[b].coeffs[d]
            assert f.is_constant()
            expected = Fraction(3, 4) if b == d else Fraction(-1, 4)
            assert f.values[0] == cyc(expected)


@pytest.mark.parametrize("mu", [0, Fraction(1, 3), Fraction(-2, 7)])
def test_levi_civita_flags(a4_c, mu):
    metric = metric_from_mu(a4_c, mu)
    conn = levi_civita(a4_c, metric)
    assert all(t.is_zero() for t in torsion(a4_c, conn))
    assert all(t.is_zero() for t in cotorsion(a4_c, conn, metric))
    assert is_regular(a4_c, conn)
    assert conn.sum().is_zero()


def test_curvature_of_canonical_connection(a4_c):
    conn = levi_civita(a4_c)
    curv = curvature_2forms(a4_c, conn)
    des = de_basis(a4_c)
    assert any(not f.is_zero() for f in curv)
    for a in range(4):
        assert (curv[a] - des[a]).is_zero()


@pytest.mark.parametrize(
    "key, element", CATALOGUE_CLASSES, ids=[f"{key}-{element}" for key, element in CATALOGUE_CLASSES]
)
def test_curvature_is_the_three_sum_formula(key, element):
    # random connections with a nonzero component sum, which the Levi-Civita
    # connections never have, so the -S terms are exercised
    c = class_calculus(CATALOGUE[key], element)
    rnd = random.Random(f"{key}-{element}")
    comps = [random_form(c, c.n, rnd) for _ in range(c.n)]
    conn = Connection((comps[0] + theta(c), *comps[1:]))
    assert not conn.sum().is_zero()
    assert curvature_2forms(c, conn) == curvature_oracle(c, conn)


@pytest.mark.parametrize("group, element, wedges", [("a4", "t", 8), ("s4", "(123)", 48)])
def test_curvature_takes_two_wedges_per_component_and_one_per_product(
    monkeypatch, group, element, wedges
):
    # 2n wedges with theta - S, and one per pair c, d with a_c a_d in the class
    c = class_calculus(build_group(group), element)
    calls = counted_calls(monkeypatch, riemann_module, "wedge")
    conn = Connection(tuple(random_form(c, c.n, random.Random(5)) for _ in range(c.n)))
    curvature_2forms(c, conn)
    products = sum(
        c.group.mult(x, y) in c.elements for x in c.elements for y in c.elements
    )
    assert len(calls) == 2 * c.n + products == wedges


def test_covariant_derivative_golden(a4_c):
    conn = levi_civita(a4_c)
    quarter = cyc(Fraction(1, 4))
    for a_lbl, partners in PARTNERS.items():
        out = covariant_derivative(a4_c, conn, e_form(a4_c, a_lbl))
        for u_lbl in "txyz":
            for v_lbl in "txyz":
                got = out.coeffs[_pos(a4_c, u_lbl) * a4_c.n + _pos(a4_c, v_lbl)]
                expected = quarter - (
                    cyc(1) if partners[u_lbl] == v_lbl else cyc(0)
                )
                assert got.is_constant()
                assert got.values[0] == expected


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_covariant_derivative_leibniz(a4_c, data):
    from ncgeo.calculus import d0

    small = st.fractions(
        min_value=Fraction(-3), max_value=Fraction(3), max_denominator=2
    )
    f = GroupFunction.from_values(
        data.draw(
            st.lists(
                small.map(Cyclotomic), min_size=12, max_size=12
            )
        )
    )
    conn = levi_civita(a4_c)
    alpha = e_form(a4_c, "x")
    lhs = covariant_derivative(a4_c, conn, alpha.left_mul(f))
    # entrywise: nabla(f alpha) = df (x) alpha + f nabla(alpha)
    base = covariant_derivative(a4_c, conn, alpha)
    first = tensor_of_forms(a4_c, d0(a4_c, f), alpha)
    for u in range(4):
        for v in range(4):
            assert lhs.coeffs[u * 4 + v] == first.coeffs[u * 4 + v] + f * base.coeffs[u * 4 + v]


def test_riemann_golden(a4_c):
    conn = levi_civita(a4_c)
    W = riemann(a4_c, conn)
    des = de_basis(a4_c)
    for a_lbl, partners in PARTNERS.items():
        a = _pos(a4_c, a_lbl)
        for b_lbl, d_lbl in partners.items():
            b, d = _pos(a4_c, b_lbl), _pos(a4_c, d_lbl)
            assert (W[a][d] - des[b]).is_zero()


# ---------------------------------------------------------------------------
# lifts and Ricci
# ---------------------------------------------------------------------------


def test_lift_i_closed_form(a4, a4_c):
    # i(e_a ^ e_b) = e_a (x) e_b - (1/3) sum of the other pairs with the
    # same product; diagonal wedges lift to zero
    lift = lift_i(a4_c)
    basis = omega2_basis(a4_c)
    third = cyc(Fraction(1, 3))
    for k, (a, b) in enumerate(basis.pairs):
        col = lift.column(k)
        expected = [cyc(0)] * 16
        prod = a4.mult(a4_c.elements[a], a4_c.elements[b])
        for u in range(4):
            for v in range(4):
                if u == v:
                    continue
                if a4.mult(a4_c.elements[u], a4_c.elements[v]) == prod:
                    expected[u * 4 + v] = expected[u * 4 + v] - third
        expected[a * 4 + b] = expected[a * 4 + b] + cyc(1)
        assert col == expected


def test_lift_i_golden_entry(a4_c):
    lift = lift_i(a4_c)
    k = omega2_basis(a4_c).pairs.index((_pos(a4_c, "t"), _pos(a4_c, "x")))
    col = lift.column(k)
    t, x, z = (_pos(a4_c, lbl) for lbl in "txz")
    assert col[t * 4 + x] == cyc(Fraction(2, 3))
    assert col[x * 4 + z] == cyc(Fraction(-1, 3))
    assert col[z * 4 + t] == cyc(Fraction(-1, 3))
    assert sum(1 for v in col if v) == 3


def test_lift_i_splits_wedge(a4_c):
    basis = omega2_basis(a4_c)
    lift = lift_i(a4_c)
    for k in range(basis.dim):
        w = zero_two_form(a4_c)
        coeffs = list(w.coeffs)
        coeffs[k] = GroupFunction.constant(12, 1)
        w = type(w)(tuple(coeffs))
        assert (wedge_tensor(a4_c, w.apply(lift)) - w).is_zero()


def test_lift_iprime_does_not_split_wedge(a4_c):
    basis = omega2_basis(a4_c)
    lift = lift_iprime(a4_c)
    broken = 0
    for k in range(basis.dim):
        w = zero_two_form(a4_c)
        coeffs = list(w.coeffs)
        coeffs[k] = GroupFunction.constant(12, 1)
        w = type(w)(tuple(coeffs))
        if not (wedge_tensor(a4_c, w.apply(lift)) - w).is_zero():
            broken += 1
    assert broken > 0


@pytest.mark.parametrize("lift_name", ["i", "iprime"])
def test_ricci_of_canonical_connection_vanishes(a4_c, lift_name):
    conn = levi_civita(a4_c)
    lift = lift_i(a4_c) if lift_name == "i" else lift_iprime(a4_c)
    assert ricci(a4_c, conn, lift).is_zero()


def test_ricci_flat_connection_is_unique_and_canonical(a4_c):
    space = solve_ricci_flat(a4_c)
    assert space is not None
    assert space.dimension == 0
    lc = levi_civita(a4_c)
    assert list(space.particular) == connection_to_vector(a4_c, lc)
    # the point-block assembly against whole-map evaluation (helpers below)
    family = solve_torsion_free(a4_c)
    evaluate = _ricci_map(a4_c)
    base, columns = _whole_map_columns(family, evaluate)
    assert _family_columns(a4_c, _torsion_point_space(a4_c), evaluate) == (base, columns)
    assert space == _whole_map_solve(family, base, columns)
    _assert_affine(a4_c, family, evaluate)


def test_nonlinear_curvature_guard(a4):
    # products of two involutions in the Klein class land back in the
    # class, so curvature is not linear on the torsion-free family there
    c = class_calculus(a4, "u")
    with pytest.raises(NonlinearCurvatureError):
        solve_ricci_flat(c)


def test_nonzero_ricci_detectable(a4_c):
    # a deliberately lopsided connection with a single basis component
    comps = [e_form(a4_c, "t")] + [Form.zero(a4_c.group.order, a4_c.n) for _ in range(3)]
    lopsided = Connection(tuple(comps))
    curv = curvature_2forms(a4_c, lopsided)
    assert not curv[0].is_zero()
    assert not ricci(a4_c, lopsided, lift_i(a4_c)).is_zero()


# ---------------------------------------------------------------------------
# the point-block assembly against whole-map evaluation
# ---------------------------------------------------------------------------


def _relabelled_a4(seed):
    """A4 with its element indices permuted; the identity stays at index 0."""
    a4 = build_group("a4")
    n = a4.order
    perm = [0] + random.Random(seed).sample(range(1, n), n - 1)
    names = [""] * n
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        names[perm[i]] = a4.names[i]
        for j in range(n):
            table[perm[i]][perm[j]] = perm[a4.table[i][j]]
    return build_group({"names": names, "table": table})


def _cotorsion_map(c, metric):
    def evaluate(vec):
        return [v for t in cotorsion(c, connection_from_vector(c, vec), metric) for v in t.vector()]

    return evaluate


def _ricci_map(c):
    lift = lift_i(c)

    def evaluate(vec):
        return ricci(c, connection_from_vector(c, vec), lift).vector()

    return evaluate


def _whole_map_columns(family, evaluate):
    """The reference: evaluate the map once per basis vector."""
    base = evaluate(list(family.particular))
    columns = []
    for vec in family.basis:
        shifted = evaluate(AffineSpace(family.particular, (vec,)).point([cyc(1)]))
        columns.append([s - b for s, b in zip(shifted, base)])
    return base, columns


def _whole_map_solve(family, base, columns):
    sol = solve_affine(
        ExactMatrix.from_rows(columns).transpose(), [-v for v in base]
    )
    if sol is None:
        return None
    zero = [cyc(0)] * len(family.particular)
    return AffineSpace(
        particular=tuple(family.point(sol.particular)),
        basis=tuple(tuple(AffineSpace(zero, family.basis).point(y)) for y in sol.basis),
    )


def _assert_affine(c, family, evaluate):
    """eval(p + 2v) - eval(p + v) == eval(p + v) - eval(p) along the identity
    block and along one direction with every basis coefficient nonzero."""
    p = list(family.particular)
    k = len(family.basis) // c.group.order
    e = c.group.identity
    generic = AffineSpace([cyc(0)] * len(p), family.basis).point(
        [cyc(i + 1) for i in range(len(family.basis))]
    )
    e0 = evaluate(p)
    for v in list(family.basis[e * k : (e + 1) * k]) + [generic]:
        e1 = evaluate(AffineSpace(p, (v,)).point([cyc(1)]))
        e2 = evaluate(AffineSpace(p, (v,)).point([cyc(2)]))
        assert [b - a for a, b in zip(e1, e2)] == [b - a for a, b in zip(e0, e1)]


COTORSION_CASES = [
    ("a4", "t", 0),
    ("a4", "t", Fraction(1, 3)),
    ("a4", "t", Fraction(3, 7)),
    ("sl2z3", "0121", Fraction(1, 3)),
    ("relabelled-a4", "t", Fraction(3, 7)),
]


@pytest.mark.parametrize("group_name, element, mu", COTORSION_CASES)
def test_cotorsion_assembly_matches_whole_map(group_name, element, mu):
    group = _relabelled_a4(7) if group_name == "relabelled-a4" else build_group(group_name)
    c = class_calculus(group, element)
    metric = metric_from_mu(c, mu)
    family = solve_torsion_free(c)
    evaluate = _cotorsion_map(c, metric)
    base, columns = _whole_map_columns(family, evaluate)
    assert _family_columns(c, _torsion_point_space(c), evaluate) == (base, columns)
    space = solve_torsion_cotorsion_free(c, metric)
    assert space == _whole_map_solve(family, base, columns)
    assert space.dimension == 9
    _assert_affine(c, family, evaluate)


def test_torsion_free_family_is_solved_once(a4_c):
    assert solve_torsion_free(a4_c) is solve_torsion_free(a4_c)

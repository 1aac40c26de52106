import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ncgeo import (
    Cyclotomic,
    ExactMatrix,
    Form,
    GroupFunction,
    GroupSpecError,
    conjugate_calculus_check,
    constant_flat_connections,
    cyc,
    d1,
    de_rham_h1,
    gauge_transform,
    rank,
    s4_cross_relations_check,
    solve_affine,
    theta,
    u1_curvature,
    wedge,
)
from ncgeo.calculus import braiding
from ncgeo import cohomology
from ncgeo.cohomology import conjugate_two_form, flat_families_complete, sample_flat_families
from ncgeo.groups import build_group, class_calculus

from helpers import (
    CATALOGUE,
    CATALOGUE_CLASSES,
    d0_matrix,
    d1_matrix,
    is_flat_family_member,
    off_by_one,
)

small = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3
)
cyc_vals = st.builds(Cyclotomic, small, small)


def one_forms(c):
    return st.lists(
        st.lists(cyc_vals, min_size=c.group.order, max_size=c.group.order).map(
            GroupFunction.from_values
        ),
        min_size=c.n,
        max_size=c.n,
    ).map(lambda fs: Form(tuple(fs)))


# ---------------------------------------------------------------------------
# de Rham cohomology in degree one
# ---------------------------------------------------------------------------


def test_h1_numbers(a4_c):
    data = de_rham_h1(a4_c)
    assert data["ker_d1"] == 12
    assert data["im_d0"] == 11
    assert data["h1_dim"] == 1
    assert data["theta_closed"]
    assert not data["theta_exact"]
    assert data["representative"] == "theta"


def test_h1_numbers_s3(s3_c):
    data = de_rham_h1(s3_c)
    assert data["ker_d1"] == 6
    assert data["im_d0"] == 5
    assert data["h1_dim"] == 1
    assert data["theta_closed"]
    assert not data["theta_exact"]


# every class of the small groups, and one class each of sl2z3 and s4
H1_CLASSES = [
    (key, element)
    for key, element in CATALOGUE_CLASSES
    if key in ("a4", "s3", "klein", "cyclic(5)", "cyclic(6)")
] + [("sl2z3", "0121"), ("s4", "(34)")]


@pytest.mark.parametrize(
    "key, element", H1_CLASSES, ids=[f"{key}-{element}" for key, element in H1_CLASSES]
)
def test_h1_matches_the_differential_matrices(key, element):
    # the ranks of the images of d, d^2 and theta's class equal what the
    # dense matrices of the Leibniz differential give
    c = class_calculus(CATALOGUE[key], element)
    mat0, mat1 = d0_matrix(c), d1_matrix(c)
    th = theta(c).vector()
    ker1, im0 = mat1.cols - rank(mat1), rank(mat0)
    closed = all(not v for v in mat1.matvec(th))
    exact = solve_affine(mat0, th) is not None
    assert (mat1 @ mat0).is_zero()
    assert de_rham_h1(c) == {
        "d1_after_d0_is_zero": True,
        "ker_d1": ker1,
        "im_d0": im0,
        "h1_dim": ker1 - im0,
        "theta_closed": closed,
        "theta_exact": exact,
        "representative": "theta" if (ker1 - im0 == 1 and closed and not exact) else None,
    }


def test_d1_after_d0_is_zero_matrix(a4_c, s3_c):
    for c in (a4_c, s3_c):
        composite = d1_matrix(c) @ d0_matrix(c)
        assert composite.is_zero()


def test_theta_spans_the_quotient(a4_c):
    # theta is closed, and adding it to the image raises the rank by one
    d0m = d0_matrix(a4_c)
    cols = [d0m.column(j) for j in range(d0m.cols)]
    theta_vec = theta(a4_c).vector()
    base = rank(ExactMatrix.from_rows(cols))
    extended = rank(ExactMatrix.from_rows(cols + [theta_vec]))
    assert extended == base + 1


# ---------------------------------------------------------------------------
# flat abelian connections
# ---------------------------------------------------------------------------


def test_five_flat_families(a4_c):
    families = constant_flat_connections(a4_c)
    assert len(families) == 5
    kinds = [fam.kind for fam in families]
    assert kinds.count("axis") == 4
    assert kinds.count("diagonal") == 1


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=4),
    st.fractions(
        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
    ),
)
def test_family_members_are_flat(a4_c, which, lam):
    fam = constant_flat_connections(a4_c)[which]
    alpha = fam.member(a4_c, lam)
    assert u1_curvature(a4_c, alpha).is_zero()
    assert is_flat_family_member(a4_c, alpha)


def test_membership_rejects_other_forms(a4_c):
    assert not is_flat_family_member(
        a4_c, Form.constant(a4_c.group.order, [5, 0, 0, 0])
    )
    assert not is_flat_family_member(
        a4_c, Form.constant(a4_c.group.order, [1, 1, 0, 0])
    )
    # the zero form is the diagonal member at parameter one
    assert is_flat_family_member(a4_c, Form.constant(a4_c.group.order, [0, 0, 0, 0]))


# whether the n + 1 lines hold every flat constant connection, by class
FLAT_LINES_COMPLETE = {
    ("a4", "t"): True,
    ("a4", "t2"): True,
    ("s3", "(12)"): True,
    ("sl2z3", "0121"): True,
    ("sl2z3", "0122"): True,
    ("sl2z3", "0211"): True,
    ("sl2z3", "1011"): True,
    ("a4", "u"): False,
    ("s3", "(123)"): False,
    ("sl2z3", "0120"): False,
    ("s4", "(34)"): False,
    ("s4", "(123)"): False,
    ("s4", "(1234)"): False,
    ("s4", "(12)(34)"): False,
}

# flat constant connections off the lines, as x = alpha + 1 by element name
OFF_LINE = {
    ("a4", "u"): {"u": 1, "v": 4},
    ("s3", "(123)"): {"(123)": 2, "(132)": 7},
    ("sl2z3", "0120"): {"0120": 3, "0210": 1},
    ("s4", "(34)"): {"(34)": 1, "(23)": 1, "(24)": 1},
    ("s4", "(123)"): {"(234)": 2, "(243)": 5},
}


def _constant_connection(c, x):
    names = [c.group.names[g] for g in c.elements]
    return Form.constant(c.group.order, [x.get(name, 0) - 1 for name in names])


def _lines_hold_by_groebner(c):
    """Oracle: x_a x_b (x_0 - x_j) vanishes on the flat set for all a < b and
    j, i.e. 1 lies in the ideal of the orbit equations and 1 - y x_a x_b (x_0 - x_j)."""
    n, perm = c.n, braiding(c).perm
    xs, y = sympy.symbols(f"x0:{n}"), sympy.Symbol("y")
    pair = [xs[i // n] * xs[i % n] for i in range(n * n)]
    eqs = [pair[i] - pair[perm[i]] for i in range(n * n) if pair[i] != pair[perm[i]]]
    return all(
        sympy.groebner(eqs + [1 - y * xs[a] * xs[b] * (xs[0] - xs[j])], *xs, y).exprs == [1]
        for a, b in itertools.combinations(range(n), 2)
        for j in range(1, n)
    )


@pytest.mark.parametrize("group_name, element", sorted(FLAT_LINES_COMPLETE))
def test_flat_lines_completeness_is_computed(group_name, element):
    key = (group_name, element)
    c = class_calculus(build_group(group_name), element)
    complete = FLAT_LINES_COMPLETE[key]
    assert flat_families_complete(c) is complete
    if complete:
        assert _lines_hold_by_groebner(c)
    # proper supports S with S x S closed under the braiding: their
    # indicators are flat and lie on no line
    n, perm = c.n, braiding(c).perm
    closed = []
    for bits in range(1, 2**n - 1):
        support = {a for a in range(n) if bits >> a & 1}
        pairs = {a * n + b for a in support for b in support}
        if len(support) > 1 and {perm[i] for i in pairs} == pairs:
            closed.append({c.group.names[c.elements[a]]: 1 for a in support})
    witnesses = closed + ([OFF_LINE[key]] if key in OFF_LINE else [])
    for x in witnesses:
        alpha = _constant_connection(c, x)
        assert u1_curvature(c, alpha).is_zero()
        assert not is_flat_family_member(c, alpha)
    assert bool(witnesses) is not complete


def test_minus_theta_is_flat(a4_c):
    alpha = Form.constant(a4_c.group.order, [-1, -1, -1, -1])
    assert u1_curvature(a4_c, alpha).is_zero()
    assert is_flat_family_member(a4_c, alpha)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_curvature_formula(a4_c, data):
    alpha = data.draw(one_forms(a4_c))
    got = u1_curvature(a4_c, alpha)
    expected = d1(a4_c, alpha) + wedge(a4_c, alpha, alpha)
    assert (got - expected).is_zero()


def test_gauge_covariance_twenty_seeded_pairs(a4_c):
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
        transformed = gauge_transform(a4_c, u, alpha)
        lhs = u1_curvature(a4_c, transformed)
        rhs = conjugate_two_form(a4_c, u, u1_curvature(a4_c, alpha))
        assert (lhs - rhs).is_zero()


def test_family_samples_hold_on_a4(a4_c):
    samples = sample_flat_families(a4_c, constant_flat_connections(a4_c))
    params = tuple(Fraction(p) for p in ("0", "1", "-2", "1/2", "5/3"))
    assert samples == (params, True, True)


def test_perturbed_gauge_transform_fails_the_gauge_samples(a4_c, monkeypatch):
    monkeypatch.setattr(cohomology, "gauge_transform", off_by_one(cohomology.gauge_transform))
    samples = sample_flat_families(a4_c, constant_flat_connections(a4_c))
    assert samples.flat
    assert not samples.covariant


def test_gauge_transform_preserves_flatness(a4_c):
    fam = constant_flat_connections(a4_c)[0]
    alpha = fam.member(a4_c, Fraction(3, 2))
    u = GroupFunction.from_values(
        [cyc(Fraction(k + 1, 2)) for k in range(12)]
    )
    transformed = gauge_transform(a4_c, u, alpha)
    assert u1_curvature(a4_c, transformed).is_zero()


# ---------------------------------------------------------------------------
# the order-24 cross-check and the conjugate calculus
# ---------------------------------------------------------------------------


def test_s4_cross_relations():
    result = s4_cross_relations_check()
    assert result["class_size"] == 8
    assert result["all_in_kernel"]
    assert all(result["relations"].values())
    assert len(result["relations"]) == 10
    assert result["legend"]["t"] == "(123)"
    assert result["legend"]["x"] == "(134)"
    assert result["legend"]["y"] == "(243)"
    assert result["legend"]["z"] == "(142)"


def test_conjugate_calculus_on_a4(a4_c):
    result = conjugate_calculus_check(a4_c)
    assert result["transpose_identity"]
    assert result["conjugate_class_of"] == "t2"
    assert result["conjugate_cyclic"]
    assert result["conjugate_table"] == "TableIII"
    assert result["conjugate_size"] == 4


def test_conjugate_calculus_rejects_involution_class(a4):
    c = class_calculus(a4, "u")
    with pytest.raises(GroupSpecError):
        conjugate_calculus_check(c)

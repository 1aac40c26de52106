import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncgeo import (
    Cyclotomic,
    Form,
    GroupFunction,
    GroupSpecError,
    conjugate_calculus_check,
    constant_flat_connections,
    constant_one_form,
    cyc,
    d1,
    de_rham_h1,
    gauge_transform,
    is_flat_family_member,
    s4_cross_relations_check,
    theta,
    u1_curvature,
    wedge,
)
from ncgeo.cohomology import (
    conjugate_two_form,
    d0_matrix,
    d1_matrix,
)
from ncgeo.groups import class_calculus

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


def test_d1_after_d0_is_zero_matrix(a4_c, s3_c):
    for c in (a4_c, s3_c):
        composite = d1_matrix(c) @ d0_matrix(c)
        assert composite.is_zero()


def test_theta_spans_the_quotient(a4_c):
    # theta is closed, and adding it to the image raises the rank by one
    from ncgeo import ExactMatrix, rank

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
        a4_c, constant_one_form(a4_c, [5, 0, 0, 0])
    )
    assert not is_flat_family_member(
        a4_c, constant_one_form(a4_c, [1, 1, 0, 0])
    )
    # the zero form is the diagonal member at parameter one
    assert is_flat_family_member(a4_c, constant_one_form(a4_c, [0, 0, 0, 0]))


def test_minus_theta_is_flat(a4_c):
    alpha = constant_one_form(a4_c, [-1, -1, -1, -1])
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

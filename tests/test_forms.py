"""The one form type against independent references.

``reference_wedge`` is the direct double loop over basis pairs: the product
f R_a(h) of each pair of coefficients, reduced column by column through the
degree-two reduction matrix that elimination gives (``helpers.omega2_oracle``).
The library's wedge goes through the tensor square and subtracts from each
basis pair the coefficient of the pair its braiding cycle leaves out, so
the two share no step past the tensor product's coefficients.  The
library's d1 is the graded commutator with theta; ``helpers.leibniz_d1``
expands d(f e_a) = (d f) ^ e_a + f d e_a term by term, and the flat
layout of ``Form.vector`` is the column layout of the differential
matrices built from it (``helpers.d0_matrix``, ``helpers.d1_matrix``).
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from ncgeo import (
    Cyclotomic,
    ExactMatrix,
    Form,
    GroupFunction,
    d0,
    d1,
    de_basis,
    e_form,
    levi_civita,
    lift_i,
    lift_iprime,
    ricci,
    wedge,
)
from ncgeo import calculus
from ncgeo.calculus import omega2_basis
from ncgeo.groups import build_group, class_calculus

from helpers import (
    CATALOGUE,
    CATALOGUE_CLASSES,
    counted_calls,
    d0_matrix,
    d1_matrix,
    leibniz_d1,
    omega2_oracle,
    random_form,
)

CALCULI = [("a4", "t"), ("s3", "(12)"), ("sl2z3", "0121")]

cached_d1_matrix = lru_cache(maxsize=None)(d1_matrix)
cached_omega2_oracle = lru_cache(maxsize=None)(omega2_oracle)

rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
).map(Cyclotomic)


@pytest.fixture(scope="module", params=CALCULI, ids=lambda p: f"{p[0]}-{p[1]}")
def calc(request):
    group, label = request.param
    return class_calculus(build_group(group), label)


def functions(order):
    """Rational functions, often sparse and sometimes zero, so zero skipping is hit."""
    values = st.one_of(st.just(Cyclotomic(0)), rationals)
    return st.one_of(
        st.just(GroupFunction.zero(order)),
        st.lists(values, min_size=order, max_size=order).map(GroupFunction.from_values),
    )


def one_forms(c):
    return st.lists(
        functions(c.group.order), min_size=c.n, max_size=c.n
    ).map(lambda fs: Form(tuple(fs)))


def reference_wedge(c, u, v):
    """(f e_a) ^ (h e_b) = f R_a(h) [e_a e_b], one reduction column per basis pair.

    R_a(h) is read straight off the multiplication, (R_a h)(x) = h(x a).
    """
    _, reduction = cached_omega2_oracle(c)
    order = c.group.order
    out = [GroupFunction.zero(order) for _ in range(reduction.rows)]
    for i, f in enumerate(u.coeffs):
        if f.is_zero():
            continue
        for j, h in enumerate(v.coeffs):
            if h.is_zero():
                continue
            moved = (h.values[c.group.mult(x, c.elements[i])] for x in range(order))
            prod = f * GroupFunction(tuple(moved))
            col = i * c.n + j
            for beta in range(reduction.rows):
                r = reduction.data[beta][col]
                if r:
                    out[beta] = out[beta] + prod * r
    return Form(tuple(out))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_wedge_matches_reference(calc, data):
    u = data.draw(one_forms(calc))
    v = data.draw(one_forms(calc))
    assert wedge(calc, u, v) == reference_wedge(calc, u, v)


def _delta_form(c, a, g):
    """delta_g e_a."""
    order = c.group.order
    coeffs = [GroupFunction.zero(order)] * c.n
    coeffs[a] = GroupFunction.delta(order, g)
    return Form(tuple(coeffs))


def test_vector_is_the_column_layout_of_d0_and_d1(calc):
    order = calc.group.order
    mat0 = d0_matrix(calc)
    for h in range(order):
        assert mat0.column(h) == d0(calc, GroupFunction.delta(order, h)).vector()
    mat1 = cached_d1_matrix(calc)
    for a in range(calc.n):
        for g in range(order):
            assert mat1.column(a * order + g) == d1(calc, _delta_form(calc, a, g)).vector()


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_d1_matrix_acts_on_vectors(calc, data):
    w = data.draw(one_forms(calc))
    assert cached_d1_matrix(calc).matvec(w.vector()) == d1(calc, w).vector()


@pytest.mark.parametrize(
    "key, element", CATALOGUE_CLASSES, ids=[f"{key}-{element}" for key, element in CATALOGUE_CLASSES]
)
def test_d1_is_the_leibniz_expansion(key, element):
    # theta ^ w + w ^ theta equals the Leibniz expansion, on d e_a and on random forms
    c = class_calculus(CATALOGUE[key], element)
    assert de_basis(c) == tuple(leibniz_d1(c, e_form(c, a)) for a in range(c.n))
    rnd = random.Random(f"{key}-{element}")
    for _ in range(3):
        w = random_form(c, c.n, rnd)
        assert d1(c, w) == leibniz_d1(c, w)


def test_d1_is_two_wedges(monkeypatch):
    # one wedge on each side of theta, whatever the number of live coefficients
    c = class_calculus(build_group("a4"), "t")
    calls = counted_calls(monkeypatch, calculus, "wedge")
    w = Form.constant(c.group.order, [1, 2, 3, 4])
    assert d1(c, w) == leibniz_d1(c, w)
    assert len(calls) == 2


def test_wedge_subtracts_no_two_zero_coefficients(monkeypatch):
    # e_t (x) e_x is the one live tensor coefficient, so no pair subtracts two zeros
    c = class_calculus(build_group("a4"), "t")
    u, v = e_form(c, "t"), e_form(c, "x")
    calls = counted_calls(monkeypatch, GroupFunction, "__sub__")
    got = wedge(c, u, v)
    assert [(f, h) for f, h in calls if f.is_zero() and h.is_zero()] == []
    assert got == reference_wedge(c, u, v)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_apply_is_the_matrix_on_each_point(calc, data):
    # (w.apply(M)) at point g is M times the coefficient column of w at g
    order = calc.group.order
    w = data.draw(one_forms(calc))
    rows = data.draw(
        st.lists(
            st.lists(st.one_of(st.just(Cyclotomic(0)), rationals), min_size=calc.n, max_size=calc.n),
            min_size=1,
            max_size=5,
        )
    )
    mat = ExactMatrix.from_rows(rows)
    image = w.apply(mat)
    assert len(image.coeffs) == mat.rows
    for g in range(order):
        column = [f.values[g] for f in w.coeffs]
        assert [f.values[g] for f in image.coeffs] == mat.matvec(column)


def test_central_class_lifts_the_empty_two_form():
    # a one-element class has no degree-two basis: the curvature two-forms
    # have no coefficients, the lifts are n^2 x 0, and Ricci is the zero
    # tensor with its n^2 = 1 coefficient
    c = class_calculus(build_group("sl2z3"), "2002")
    assert omega2_basis(c).dim == 0
    for lift in (lift_i(c), lift_iprime(c)):
        assert (lift.rows, lift.cols) == (1, 0)
        ric = ricci(c, levi_civita(c), lift)
        assert len(ric.coeffs) == 1 and ric.is_zero()

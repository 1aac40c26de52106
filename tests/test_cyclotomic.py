import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncgeo import Cyclotomic, OMEGA, OMEGA2, ONE, ZERO, cyc

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)
cycs = st.builds(Cyclotomic, rationals, rationals)
nonzero_cycs = cycs.filter(bool)


def test_omega_is_a_primitive_cube_root():
    assert OMEGA**3 == ONE
    assert OMEGA != ONE
    assert OMEGA**2 == OMEGA2
    assert ONE + OMEGA + OMEGA2 == ZERO


def test_basic_arithmetic():
    assert cyc(2) + cyc(3) == cyc(5)
    assert cyc(1, 2) - cyc(1, 2) == ZERO
    assert cyc(0, 1) * cyc(0, 1) == cyc(-1, -1)
    assert 3 * cyc(Fraction(1, 3)) == ONE
    assert cyc(2) ** 0 == ONE


@given(cycs, cycs, cycs)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@given(nonzero_cycs)
def test_multiplicative_inverse(a):
    assert a * a.inverse() == ONE


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


@given(cycs, cycs)
def test_conjugation_is_a_ring_map(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(cycs)
def test_norm_is_conjugate_product(a):
    prod = a * a.conjugate()
    assert prod.om == 0
    assert prod.re == a.norm()
    assert a.norm() >= 0


@given(cycs, cycs)
def test_norm_is_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()


@given(cycs)
def test_json_roundtrip(a):
    assert Cyclotomic.from_json(a.to_json()) == a


def test_json_shapes():
    assert cyc(Fraction(3, 4)).to_json() == "3/4"
    assert cyc(5).to_json() == "5"
    assert cyc(1, -2).to_json() == {"re": "1", "om": "-2"}
    assert Cyclotomic.from_json("7/2") == cyc(Fraction(7, 2))
    assert Cyclotomic.from_json(-3) == cyc(-3)
    assert Cyclotomic.from_json({"om": "-1/2"}) == cyc(0, Fraction(-1, 2))


@pytest.mark.parametrize(
    "data", [0.5, True, None, [1], "0.1", "1e2", "1/0", "x", {"re": 1.5}, {"re": 1, "im": 0}]
)
def test_from_json_refuses_inexact_input(data):
    with pytest.raises(ValueError):
        Cyclotomic.from_json(data)


@given(cycs, cycs)
def test_hash_respects_equality(a, b):
    if a == b:
        assert hash(a) == hash(b)
    # rational values hash like their Fraction
    if a.om == 0:
        assert hash(a) == hash(a.re)


def test_str_formats():
    assert str(cyc(3)) == "3"
    assert str(cyc(0, Fraction(1, 2))) == "1/2w"
    assert "w" in str(cyc(1, 1))
    assert str(ZERO) == "0"


@given(cycs, st.integers(min_value=0, max_value=6))
def test_integer_powers(a, k):
    expected = ONE
    for _ in range(k):
        expected = expected * a
    assert a**k == expected


@given(st.fractions(max_denominator=40))
def test_rational_embedding(q):
    a = cyc(q)
    assert a.om == 0
    assert bool(a) == (q != 0)


# -- oracle: the Fraction-pair arithmetic the triple representation replaced --


class PairModel:
    """Reference a + b*omega with a, b Fractions, arithmetic done on the pair."""

    def __init__(self, re=0, om=0):
        self.re, self.om = Fraction(re), Fraction(om)

    @classmethod
    def of(cls, value):
        if isinstance(value, PairModel):
            return value
        if isinstance(value, Cyclotomic):
            return cls(value.re, value.om)
        return cls(value)

    def __add__(self, other):
        o = PairModel.of(other)
        return PairModel(self.re + o.re, self.om + o.om)

    def __sub__(self, other):
        o = PairModel.of(other)
        return PairModel(self.re - o.re, self.om - o.om)

    def __mul__(self, other):
        o = PairModel.of(other)
        a, b, c, d = self.re, self.om, o.re, o.om
        return PairModel(a * c - b * d, a * d + b * c - b * d)

    def conjugate(self):
        return PairModel(self.re - self.om, -self.om)

    def norm(self):
        return self.re * self.re - self.re * self.om + self.om * self.om

    def inverse(self):
        n = self.norm()
        if not n:
            raise ZeroDivisionError
        return PairModel((self.re - self.om) / n, -self.om / n)

    def __truediv__(self, other):
        return self * PairModel.of(other).inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** -k
        out = PairModel(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        o = PairModel.of(other)
        return self.re == o.re and self.om == o.om

    def __hash__(self):
        return hash(self.re) if not self.om else hash((self.re, self.om))

    def __repr__(self):
        return f"Cyclotomic({self.re!r}, {self.om!r})"

    def __str__(self):
        if not self.om:
            return str(self.re)
        if not self.re:
            return f"{self.om}w"
        sign = "+" if self.om > 0 else "-"
        return f"{self.re}{sign}{abs(self.om)}w"

    def to_json(self):
        if not self.om:
            return str(self.re)
        return {"re": str(self.re), "om": str(self.om)}


small_q = st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=6)
high_q = st.builds(
    Fraction,
    st.integers(min_value=-10**12, max_value=10**12),
    st.integers(min_value=1, max_value=10**6),
)
any_q = st.one_of(small_q, high_q, st.just(Fraction(0)))
pairs = st.tuples(any_q, any_q)
operands = st.one_of(
    pairs.map(lambda p: Cyclotomic(*p)),
    st.integers(min_value=-10**12, max_value=10**12),
    any_q,
)


def assert_agrees(x, ref):
    """x is canonical and reads, hashes and prints exactly like the model."""
    assert isinstance(x, Cyclotomic)
    a, b, d = x.triple()
    assert d > 0
    assert math.gcd(a, b, d) == 1
    assert (x.re, x.om) == (ref.re, ref.om)
    assert hash(x) == hash(ref)
    assert str(x) == str(ref)
    assert repr(x) == repr(ref)
    assert x.to_json() == ref.to_json()


@settings(max_examples=300, deadline=None)
@given(pairs, operands)
def test_ring_operations_match_pair_model(p, other):
    x, ref = Cyclotomic(*p), PairModel(*p)
    assert_agrees(x, ref)
    assert_agrees(-x, PairModel() - ref)
    assert_agrees(x.conjugate(), ref.conjugate())
    assert x.norm() == ref.norm()
    assert_agrees(x + other, ref + other)
    assert_agrees(other + x, PairModel.of(other) + ref)
    assert_agrees(x - other, ref - other)
    assert_agrees(other - x, PairModel.of(other) - ref)
    assert_agrees(x * other, ref * other)
    assert_agrees(other * x, PairModel.of(other) * ref)
    assert (x == other) == (ref == other)
    assert (other == x) == (ref == other)
    assert (x == Cyclotomic(*p)) and hash(x) == hash(Cyclotomic(*p))


@settings(max_examples=300, deadline=None)
@given(pairs, operands, st.integers(min_value=-3, max_value=3))
def test_division_and_powers_match_pair_model(p, other, k):
    x, ref = Cyclotomic(*p), PairModel(*p)
    if ref.norm():
        assert_agrees(x.inverse(), ref.inverse())
        assert_agrees(other / x, PairModel.of(other) / ref)
        assert_agrees(x**k, ref**k)
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    if PairModel.of(other).norm():
        assert_agrees(x / other, ref / other)


@given(pairs)
def test_json_and_constructor_round_trip_canonically(p):
    x = Cyclotomic(*p)
    assert_agrees(Cyclotomic.from_json(x.to_json()), PairModel(*p))
    assert_agrees(Cyclotomic(x.re, x.om), PairModel(*p))


def test_canonical_triples():
    assert ZERO.triple() == (0, 0, 1)
    assert cyc(Fraction(2, 4), Fraction(-6, 8)).triple() == (2, -3, 4)
    assert (cyc(Fraction(1, 6), Fraction(1, 6)) * 3).triple() == (1, 1, 2)
    assert (cyc(Fraction(1, 2)) + cyc(Fraction(1, 2))).triple() == (1, 0, 1)
    assert cyc(2, 1).inverse().triple() == (1, -1, 3)
    assert hash(cyc(Fraction(-1, 3))) == hash(Fraction(-1, 3))
    assert Cyclotomic.from_triple(4, -6, 8).triple() == (2, -3, 4)
    assert Cyclotomic.from_triple(0, 0, 5) == ZERO
    for d in (0, -2):
        with pytest.raises(ValueError):
            Cyclotomic.from_triple(1, 1, d)


def test_immutable():
    x = cyc(1, 2)
    with pytest.raises(AttributeError):
        x.re = Fraction(3)
    with pytest.raises(AttributeError):
        x._t = (0, 0, 1)

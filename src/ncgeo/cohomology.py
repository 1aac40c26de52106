"""Degree-one de Rham cohomology, U(1) gauge theory, and cross-group checks.

The first cohomology is read off the images of the basis functions and
basis one-forms under d, whose exact ranks give ker d1 and im d0; no
matrix of d is formed.  On the four-element class of a4 (and the
transposition class of s3) it is one-dimensional, generated by the sum
of the basis one-forms, which is closed but not exact.  Constant
multiples of a single basis form shifted by that sum give flat U(1)
connections; gauge transformations act by unit functions, and
``sample_flat_families`` spot-checks both on fixed and seeded samples.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from .cyclotomic import Scalar, as_cyc
from .groups import (
    ClassCalculus,
    GroupSpecError,
    build_group,
    class_calculus,
    classify_class_products,
    is_cyclic_class,
)
from . import linalg
from .linalg import ExactMatrix
from .calculus import (
    Form,
    GroupFunction,
    braid_cycles,
    d0,
    d1,
    e_form,
    omega2_basis,
    right_mul,
    theta,
    wedge,
)


# ---------------------------------------------------------------------------
# first cohomology
# ---------------------------------------------------------------------------


def de_rham_h1(c: ClassCalculus) -> dict:
    """ker d1 / im d0 in degree one, with the distinguished representative.

    The images d0(delta_g) and d1(delta_g e_a) span im d0 and im d1 and are
    ranked as rows; theta is exact when it leaves the rank of im d0 as it is.
    """
    order = c.group.order
    deltas = [GroupFunction.delta(order, g) for g in range(order)]
    rows0 = [d0(c, f).vector() for f in deltas]
    rank0 = linalg.rank(ExactMatrix.from_rows(rows0))
    rows1 = [d1(c, e_form(c, a).left_mul(f)).vector() for a in range(c.n) for f in deltas]
    ker1 = len(rows1) - linalg.rank(ExactMatrix.from_rows(rows1))
    th = theta(c)
    th_closed = d1(c, th).is_zero()
    th_exact = linalg.rank(ExactMatrix.from_rows(rows0 + [th.vector()])) == rank0
    h1 = ker1 - rank0
    representative = "theta" if (h1 == 1 and th_closed and not th_exact) else None
    return {
        "d1_after_d0_is_zero": all(d1(c, d0(c, f)).is_zero() for f in deltas),
        "ker_d1": ker1,
        "im_d0": rank0,
        "h1_dim": h1,
        "theta_closed": th_closed,
        "theta_exact": th_exact,
        "representative": representative,
    }


# ---------------------------------------------------------------------------
# U(1) connections
# ---------------------------------------------------------------------------


def u1_curvature(c: ClassCalculus, alpha: Form) -> Form:
    """F(alpha) = d alpha + alpha ^ alpha."""
    return d1(c, alpha) + wedge(c, alpha, alpha)


def gauge_transform(c: ClassCalculus, u: GroupFunction, alpha: Form) -> Form:
    """alpha -> u alpha u^-1 + u d(u^-1), for a unit function u."""
    uinv = u.pointwise_inverse()
    return (right_mul(c.group, alpha, uinv, c.elements) + d0(c, uinv)).left_mul(u)


def conjugate_two_form(c: ClassCalculus, u: GroupFunction, w: Form) -> Form:
    """u w u^-1: the inverse translates past both legs of each basis wedge."""
    products = omega2_basis(c).prod_elem
    return right_mul(c.group, w, u.pointwise_inverse(), products).left_mul(u)


class FlatFamily(NamedTuple):
    """A line of constant connections with identically vanishing curvature."""

    kind: str  # "axis" or "diagonal"
    axis: str | None  # class label for axis families

    @property
    def formula(self) -> str:
        """The member at parameter lambda, as the report prints it."""
        return "(lambda - 1) theta" if self.kind == "diagonal" else f"lambda e_{self.axis} - theta"

    def member(self, c: ClassCalculus, lam: Scalar) -> Form:
        lam = as_cyc(lam)
        th = theta(c)
        if self.kind == "diagonal":
            return th.scale(lam - 1)
        return e_form(c, self.axis).scale(lam) - th


def constant_flat_connections(c: ClassCalculus) -> list[FlatFamily]:
    """One family per class direction plus the diagonal family."""
    out = [FlatFamily(kind="axis", axis=label) for label in c.labels]
    out.append(FlatFamily(kind="diagonal", axis=None))
    return out


def flat_families_complete(c: ClassCalculus) -> bool:
    """Whether the flat lines hold every flat constant connection (sound, conservative).

    With beta = alpha + theta = sum x_a e_a, F(alpha) = beta ^ beta, zero
    exactly when x_a x_b is constant on every braiding orbit of pairs.  A flat
    x has closed support (an orbit meeting S x S lies in S x S): if every pair
    closes to the class, two nonzero entries force full support, where
    x_m x_r = x_m x_s in one orbit gives x_r = x_s; those must merge all.
    """
    n = c.n
    orbits = [[divmod(q, n) for q in cycle] for cycle in braid_cycles(c)]
    for a in range(n):
        for b in range(a):
            support, size = {a, b}, 0
            while size < len(support):
                size = len(support)
                for members in orbits:
                    if any(p in support and q in support for p, q in members):
                        support.update(v for pair in members for v in pair)
            if size < n:
                return False
    root = list(range(n))
    for members in orbits:
        for p, q in members:
            for r, s in members:
                # a shared entry cancels: x_p x_q = x_r x_s with p = r gives x_q = x_s
                for m, u, k, v in ((p, q, r, s), (p, q, s, r), (q, p, r, s), (q, p, s, r)):
                    if m == k:
                        old, new = root[v], root[u]
                        root = [new if w == old else w for w in root]
    return len(set(root)) == 1


class FamilySamples(NamedTuple):
    """Seeded spot checks of the flat families and of gauge covariance."""

    parameters: tuple[Fraction, ...]  # the lambdas every family is checked at
    flat: bool  # every family member at those parameters has zero curvature
    covariant: bool  # F(u . alpha) = u F(alpha) u^-1 on three seeded (u, alpha)


def sample_flat_families(c: ClassCalculus, families: Sequence[FlatFamily]) -> FamilySamples:
    """Check the families at five fixed parameters and gauge covariance on seeded samples.

    The unit u takes values a/b with a in 1..5 and b in 1..3, and each
    coefficient of alpha values a/b with a in -3..3 and b in 1..2, all drawn
    from one ``random.Random(20260819)`` in that order, three times.
    """
    params = (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(5, 3))
    flat = all(u1_curvature(c, fam.member(c, lam)).is_zero() for fam in families for lam in params)
    rnd = random.Random(20260819)

    def sample(lo: int, hi: int, den: int) -> GroupFunction:
        return GroupFunction.from_values(
            [Fraction(rnd.randint(lo, hi), rnd.randint(1, den)) for _ in range(c.group.order)]
        )

    covariant = True
    for _ in range(3):
        u = sample(1, 5, 3)
        alpha = Form(tuple(sample(-3, 3, 2) for _ in range(c.n)))
        lhs = u1_curvature(c, gauge_transform(c, u, alpha))
        rhs = conjugate_two_form(c, u, u1_curvature(c, alpha))
        covariant = covariant and (lhs - rhs).is_zero()
    return FamilySamples(params, flat, covariant)


# ---------------------------------------------------------------------------
# cross-checks on other groups
# ---------------------------------------------------------------------------


def _braiding_fixes(c: ClassCalculus, terms: Sequence[tuple[int, int]]) -> bool:
    """Whether sum of e_a (x) e_b over the terms is braiding-invariant: constant on every cycle."""
    return all(len({terms.count(divmod(q, c.n)) for q in cycle}) == 1 for cycle in braid_cycles(c))


def s4_cross_relations_check() -> dict:
    """Degree-two relations on the eight-element class of s4.

    Pairs a (x) a-bar anticommute; three cyclic four-term sums mixing the
    chiral halves, and their images under a (x) b -> b-bar (x) a-bar, all
    land in the braiding-invariant relation space.
    """
    group = build_group("s4")
    t = group.index("(123)")
    u = group.index("(14)(23)")
    v = group.index("(12)(34)")
    w = group.index("(13)(24)")
    x = group.mult(u, t)
    y = group.mult(v, t)
    z = group.mult(w, t)
    c = class_calculus(group, group.names[t])
    pos = {}
    for sym, g in (("t", t), ("x", x), ("y", y), ("z", z)):
        pos[sym] = c.elements.index(g)
        pos[sym + "bar"] = c.elements.index(group.inv(g))
    legend = {sym: group.names[c.elements[p]] for sym, p in pos.items()}

    def conj_terms(terms: list[tuple[str, str]]) -> list[tuple[str, str]]:
        def bar(s: str) -> str:
            return s[:-3] if s.endswith("bar") else s + "bar"

        return [(bar(b), bar(a)) for a, b in terms]

    named: dict[str, list[tuple[str, str]]] = {}
    for sym in ("t", "x", "y", "z"):
        named[f"{sym} {sym}bar pair"] = [(sym, sym + "bar"), (sym + "bar", sym)]
    cycles = {
        "cycle t zbar x ybar": [("t", "zbar"), ("zbar", "x"), ("x", "ybar"), ("ybar", "t")],
        "cycle t xbar y zbar": [("t", "xbar"), ("xbar", "y"), ("y", "zbar"), ("zbar", "t")],
        "cycle t ybar z xbar": [("t", "ybar"), ("ybar", "z"), ("z", "xbar"), ("xbar", "t")],
    }
    named.update(cycles)
    for name, terms in cycles.items():
        named[name + " conjugate"] = conj_terms(terms)
    results = {
        name: _braiding_fixes(c, [(pos[a], pos[b]) for a, b in terms])
        for name, terms in named.items()
    }
    return {
        "class_size": c.n,
        "legend": legend,
        "relations": results,
        "all_in_kernel": all(results.values()),
    }


def conjugate_calculus_check(c: ClassCalculus) -> dict:
    """Transpose of each difference operator is the inverse-class operator.

    Requires every class element to have order three, so the inverse class
    is the elementwise square.
    """
    group = c.group
    for g in c.elements:
        if group.element_order(g) != 3:
            raise GroupSpecError(
                "conjugate-calculus check needs an order-three class",
                {"element": group.names[g], "order": group.element_order(g)},
            )
    # entry (g, h) of (R_a - 1)^T is [h a = g] - [h = g], of R_{a^2} - 1 it is
    # [g a^2 = h] - [g = h]; the identity parts agree
    order = group.order
    ok = all(
        (group.mult(h, a) == g) == (group.mult(g, c.products[i][i]) == h)
        for i, a in enumerate(c.elements)
        for g in range(order)
        for h in range(order)
    )
    conj_label = group.names[group.inv(c.elements[0])]
    conj_c = class_calculus(group, conj_label)
    cyclic, witness = is_cyclic_class(conj_c)
    table = classify_class_products(conj_c) if cyclic else None
    return {
        "transpose_identity": ok,
        "conjugate_class_of": conj_label,
        "conjugate_cyclic": cyclic,
        "conjugate_witness": witness,
        "conjugate_table": table,
        "conjugate_size": conj_c.n,
    }

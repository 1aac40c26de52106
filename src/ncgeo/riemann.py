"""Invariant metrics, connections, torsion, curvature and Ricci flatness.

Every one-form, two-form and element of the tensor square here is a
``calculus.Form`` over its fixed basis.  Connections are families A_a of
one-forms indexed by the class.  Torsion acts pointwise on the components,
so the torsion-free family is one small affine point space of values placed
at every group point, and the solvers carry that point space, not its
|G|-fold spread.  The cotorsion condition couples points through right
translations and is solved on the family.  Cotorsion and Ricci curvature
commute with left translations, so their systems on the family are built
from the identity block alone.  The calculus is inner, d = {theta, -}, so
the curvature is 2n + p wedges, p the products a_c a_d in the class.
Ricci curvature lifts two-forms into the tensor square by ``Form.apply``
with an n^2 x dim lift matrix that the caller passes: the canonical
splitting (the identity minus each braiding cycle's average, which projects
along the relation kernel), on which the Ricci-flat system is built, or the
simpler id - braiding lift.  The invariant metrics are the indicator
matrices of the orbits of simultaneous conjugation on pairs.  Both come
from ``groups.orbits``, with no elimination, and the same conjugation
maps, ``ClassCalculus.conj``, test a metric's invariance.  The metric
eta = id + mu J enters everything through ``mu_scaling``, 1/(1 + n mu).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .cyclotomic import ONE, ZERO, Cyclotomic, Scalar, as_cyc
from .groups import ClassCalculus, DiagnosticError, orbits
from . import linalg
from .linalg import AffineSpace, ExactMatrix
from .calculus import (
    Form,
    GroupFunction,
    braid_cycles,
    braiding,
    d0,
    de_basis,
    e_form,
    form_json,
    omega2_basis,
    theta,
    wedge,
    zero_two_form,
)


# ---------------------------------------------------------------------------
# invariant metrics
# ---------------------------------------------------------------------------


def invariant_bilinear_space(c: ClassCalculus) -> list[ExactMatrix]:
    """Basis of bilinear forms with eta(conj_g a, b) = eta(a, conj_{g^-1} b).

    These are the forms constant on every orbit of simultaneous conjugation
    on pairs, so the basis is the orbits' indicator matrices.
    """
    n = c.n
    perms = [[p[a] * n + p[b] for a in range(n) for b in range(n)] for p in c.conj]
    space = []
    for orbit in orbits(perms, n * n):
        eta = ExactMatrix.zeros(n, n)
        for q in orbit:
            eta.data[q // n][q % n] = ONE
        space.append(eta)
    return space


def is_conjugation_invariant(c: ClassCalculus, eta: ExactMatrix) -> bool:
    """Whether eta(conj_g a, conj_g b) = eta(a, b) for every group element g."""
    return all(eta.submatrix(p, p) == eta for p in c.conj)


class Metric(NamedTuple):
    """An invariant fibre metric eta = id + mu (all-ones), with its inverse if it has one."""

    eta: ExactMatrix
    eta_inv: ExactMatrix | None
    mu: Cyclotomic

    @property
    def is_invertible(self) -> bool:
        return self.eta_inv is not None


def mu_scaling(n: int, mu: Scalar) -> Cyclotomic | None:
    """1 / (1 + n mu), the factor mu puts on eta^-1, the gamma shift and the spectra.

    None at the singular parameter mu = -1/n (``singular_parameter``).
    """
    denom = 1 + as_cyc(mu) * n
    return denom.inverse() if denom else None


def singular_parameter(n: int) -> Cyclotomic:
    """The one mu, -1/n, at which ``mu_scaling`` has no value and eta is singular."""
    return Cyclotomic(Fraction(-1, n))


def metric_from_mu(c: ClassCalculus, mu: Scalar) -> Metric:
    """eta = id + mu * (all-ones), with eta^-1 = id - mu / (1 + n mu) * (all-ones)."""
    n = c.n
    mu = as_cyc(mu)
    eta = ExactMatrix(n, n, [[mu + 1 if a == b else mu for b in range(n)] for a in range(n)])
    scale = mu_scaling(n, mu)
    if scale is None:
        return Metric(eta=eta, eta_inv=None, mu=mu)
    shift = mu * scale
    inv_data = [[ONE - shift if a == b else -shift for b in range(n)] for a in range(n)]
    return Metric(eta=eta, eta_inv=ExactMatrix(n, n, inv_data), mu=mu)


def metric_tensor(c: ClassCalculus, metric: Metric) -> Form:
    """g = sum_{ab} eta_{ab} e_a (x) e_b with constant coefficients."""
    return Form.constant(c.group.order, [v for row in metric.eta.data for v in row])


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


class Connection(NamedTuple):
    """One one-form A_a per class position."""

    comps: tuple[Form, ...]

    def sum(self) -> Form:
        return sum(self.comps[1:], self.comps[0])


def connection_from_vector(c: ClassCalculus, vec: Sequence[Cyclotomic]) -> Connection:
    """Unflatten: vec[(g n + b) n + d] is the e_d coefficient of A_b at g."""
    n, step = c.n, c.n * c.n
    coeffs = [GroupFunction(tuple(vec[q::step])) for q in range(step)]  # A_b^d at q = b n + d
    return Connection(tuple(Form(tuple(coeffs[b * n : b * n + n])) for b in range(n)))


def connection_to_vector(c: ClassCalculus, conn: Connection) -> list[Cyclotomic]:
    """Flatten, the inverse of ``connection_from_vector``: group point slowest."""
    return [v for point in zip(*(f.values for w in conn.comps for f in w.coeffs)) for v in point]


def connection_json(c: ClassCalculus, conn: Connection) -> dict:
    """The report form of a connection: each A_a by its e_b coefficients."""
    labels = [f"e_{label}" for label in c.labels]
    comps = {f"A_{c.labels[b]}": form_json(c.group, labels, w) for b, w in enumerate(conn.comps)}
    return {"comps": comps}


def affine_connections_json(c: ClassCalculus, space: AffineSpace) -> dict:
    """The report form of an affine space of flat connection vectors."""
    return {
        "dimension": space.dimension,
        "particular": connection_json(c, connection_from_vector(c, space.particular)),
        "basis": [connection_json(c, connection_from_vector(c, vec)) for vec in space.basis],
    }


def torsion(c: ClassCalculus, conn: Connection) -> list[Form]:
    """Torsion two-forms: d e_a + sum_b A_b ^ (e_{b^-1 a b} - e_a)."""
    des = de_basis(c)
    out = []
    for a in range(c.n):
        total = des[a]
        ea = e_form(c, a)
        for b in range(c.n):
            diff = e_form(c, c.ad_inv(b, a)) - ea
            total = total + wedge(c, conn.comps[b], diff)
        out.append(total)
    return out


def cotorsion(c: ClassCalculus, conn: Connection, metric: Metric) -> list[Form]:
    """Cotorsion two-forms: d e*^a + sum_b (e*^{b a b^-1} - e*^a) ^ A_b.

    The dual basis form e*^a = sum_b eta^{ba} e_b has constant coefficients.
    """
    des = de_basis(c)
    star = [Form.constant(c.group.order, metric.eta.column(a)) for a in range(c.n)]
    out = []
    for a in range(c.n):
        total = zero_two_form(c)
        for b in range(c.n):
            total = total + des[b].scale(metric.eta.data[b][a])
        for b in range(c.n):
            diff = star[c.ad(b, a)] - star[a]
            total = total + wedge(c, diff, conn.comps[b])
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# affine solvers
# ---------------------------------------------------------------------------


def _torsion_point_block(c: ClassCalculus) -> tuple[ExactMatrix, list[Cyclotomic]]:
    """The single-point torsion system: unknowns A_b^d, one block per point."""
    n = c.n
    basis = omega2_basis(c)
    des = de_basis(c)
    rows: list[list[Cyclotomic]] = []
    rhs: list[Cyclotomic] = []
    for a in range(n):
        ea = e_form(c, a)
        # wedge(e_d, e_{b^-1 a b} - e_a) has constant coefficients
        cols: list[list[Cyclotomic]] = []
        for b in range(n):
            diff = e_form(c, c.ad_inv(b, a)) - ea
            for d in range(n):
                w = wedge(c, e_form(c, d), diff)
                cols.append([f.values[0] for f in w.coeffs])
        for beta in range(basis.dim):
            rows.append([col[beta] for col in cols])
            rhs.append(-des[a].coeffs[beta].values[0])
    return ExactMatrix(len(rows), n * n, rows), rhs


@lru_cache(maxsize=None)
def _torsion_point_space(c: ClassCalculus) -> AffineSpace | None:
    """Torsion-free values at one point: n^2 unknowns A_b^d, k directions."""
    return linalg.solve_affine(*_torsion_point_block(c))


@lru_cache(maxsize=None)
def solve_torsion_free(c: ClassCalculus) -> AffineSpace | None:
    """All torsion-free connections, as an affine space of flat vectors.

    The point space placed at every group point: basis vector g k + j is
    point direction j in block g and zero elsewhere.
    """
    point = _torsion_point_space(c)
    if point is None:
        return None
    order = c.group.order
    zero = (ZERO,) * len(point.particular)
    basis = tuple(
        zero * g + vec + zero * (order - g - 1) for g in range(order) for vec in point.basis
    )
    return AffineSpace(particular=point.particular * order, basis=basis)


def _family_columns(
    c: ClassCalculus, point: AffineSpace, evaluate
) -> tuple[list[Cyclotomic], list[list[Cyclotomic]]]:
    """base = evaluate(particular), and evaluate(particular + v) - base per
    direction v of the point space placed at each group point.

    evaluate must be affine on the family and commute with left translations
    (constant-coefficient forms and lifts, right translations), and return
    components x |G| values with the point index fastest.  It is evaluated
    at the particular point and along the identity block only: the column of
    direction j at g is the identity column with each point index h read at
    g^-1 h.
    """
    group = c.group
    order = group.order
    size = len(point.particular)
    start = list(point.particular * order)
    base = evaluate(start)
    e = group.identity * size
    local = []
    for vec in point.basis:
        shifted = list(start)
        shifted[e : e + size] = [p + v for p, v in zip(point.particular, vec)]
        local.append([s - b for s, b in zip(evaluate(shifted), base)])
    comps = len(base) // order
    columns = []
    for g in range(order):
        g_inv = group.inv(g)
        source = [group.mult(g_inv, h) for h in range(order)]
        for col in local:
            columns.append(
                [col[k * order + source[h]] for k in range(comps) for h in range(order)]
            )
    return base, columns


def _solve_on_family(c: ClassCalculus, point: AffineSpace, evaluate) -> AffineSpace | None:
    """Solve evaluate(x) = 0 on the torsion-free family (see _family_columns)."""
    base, columns = _family_columns(c, point, evaluate)
    if columns:
        mat = ExactMatrix.from_rows(columns).transpose()
    else:
        mat = ExactMatrix.zeros(len(base), 0)
    sol = linalg.solve_affine(mat, [-v for v in base])
    if sol is None:
        return None
    k = len(point.basis)
    zero = (ZERO,) * len(point.particular)

    def assemble(start: Sequence[Cyclotomic], y: Sequence[Cyclotomic]) -> tuple:
        # block g is start + sum_j y[g k + j] v_j
        block = AffineSpace(tuple(start), point.basis)
        return tuple(v for g in range(c.group.order) for v in block.point(y[g * k : (g + 1) * k]))

    basis = tuple(assemble(zero, y) for y in sol.basis)
    return AffineSpace(particular=assemble(point.particular, sol.particular), basis=basis)


def solve_torsion_cotorsion_free(
    c: ClassCalculus, metric: Metric
) -> AffineSpace | None:
    """Connections with vanishing torsion and cotorsion (an affine space)."""
    point = _torsion_point_space(c)
    if point is None:
        return None

    def evaluate(vec: list[Cyclotomic]) -> list[Cyclotomic]:
        conn = connection_from_vector(c, vec)
        return [v for t in cotorsion(c, conn, metric) for v in t.vector()]

    return _solve_on_family(c, point, evaluate)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def is_regular(c: ClassCalculus, conn: Connection) -> bool:
    """Products A_a ^ A_b grouped by a*b vanish outside identity and class."""
    allowed = {c.group.identity} | set(c.elements)
    buckets: dict[int, Form] = {}
    for a in range(c.n):
        for b in range(c.n):
            g = c.products[a][b]
            if g in allowed:
                continue
            w = wedge(c, conn.comps[a], conn.comps[b])
            buckets[g] = buckets[g] + w if g in buckets else w
    return all(w.is_zero() for w in buckets.values())


def curvature_2forms(c: ClassCalculus, conn: Connection) -> list[Form]:
    """F_a = d A_a + sum_{cd=a} A_c ^ A_d - sum_c (A_c ^ A_a + A_a ^ A_c).

    With d = {theta, -} and S = sum_c A_c this is
    (theta - S) ^ A_a + A_a ^ (theta - S) + sum_{cd=a} A_c ^ A_d.
    """
    shifted = theta(c) - conn.sum()
    out = []
    for a in range(c.n):
        total = wedge(c, shifted, conn.comps[a]) + wedge(c, conn.comps[a], shifted)
        for i in range(c.n):
            for j in range(c.n):
                if c.products[i][j] == c.elements[a]:
                    total = total + wedge(c, conn.comps[i], conn.comps[j])
        out.append(total)
    return out


def covariant_derivative(
    c: ClassCalculus, conn: Connection, alpha: Form
) -> Form:
    """nabla alpha = sum_a d(alpha_a) (x) e_a - alpha_a sum_b A_b (x) (e_{b^-1 a b} - e_a)."""
    n = c.n
    order = c.group.order
    coeffs = [GroupFunction.zero(order) for _ in range(n * n)]
    for a in range(n):
        fa = alpha.coeffs[a]
        da = d0(c, fa)
        for d in range(n):
            coeffs[d * n + a] = coeffs[d * n + a] + da.coeffs[d]
        if fa.is_zero():
            continue
        for b in range(n):
            target = c.ad_inv(b, a)
            for d in range(n):
                contrib = fa * conn.comps[b].coeffs[d]
                coeffs[d * n + target] = coeffs[d * n + target] - contrib
                coeffs[d * n + a] = coeffs[d * n + a] + contrib
    return Form(tuple(coeffs))


def riemann(c: ClassCalculus, conn: Connection) -> list[list[Form]]:
    """riemann(e_a) = sum_d W_d (x) e_d; returns W[a][d] as two-forms."""
    curv = curvature_2forms(c, conn)
    total = sum(curv, zero_two_form(c))
    out = []
    for a in range(c.n):
        row = [zero_two_form(c) for _ in range(c.n)]
        for b in range(c.n):
            row[c.ad_inv(b, a)] = row[c.ad_inv(b, a)] + curv[b]
        row[a] = row[a] - total
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# lifts and Ricci
# ---------------------------------------------------------------------------


def lift_i(c: ClassCalculus) -> ExactMatrix:
    """Canonical lift: complement of the relation kernel along its projector.

    The relations are the indicators of the braiding cycles, which are
    orthogonal, so the projector onto their complement is the identity
    minus each cycle's average.  Columns are its images of the degree-two
    basis wedges; composing with the wedge quotient gives the identity.
    """
    n = c.n
    pairs = omega2_basis(c).pairs
    cycle_of = {q: cycle for cycle in braid_cycles(c) for q in cycle}
    lift = ExactMatrix.zeros(n * n, len(pairs))
    for k, (a, b) in enumerate(pairs):
        cycle = cycle_of[a * n + b]
        share = Cyclotomic(Fraction(1, len(cycle)))
        for q in cycle:
            lift.data[q][k] = -share
        lift.data[a * n + b][k] = ONE - share
    return lift


def lift_iprime(c: ClassCalculus) -> ExactMatrix:
    """Simpler lift (id - braiding) e_p = e_p - e_{psi(p)}; does not split the wedge."""
    n = c.n
    perm = braiding(c).perm
    pairs = omega2_basis(c).pairs
    lift = ExactMatrix.zeros(n * n, len(pairs))
    for k, (a, b) in enumerate(pairs):
        lift.data[a * n + b][k] = ONE
        # a fixed pair is a cycle of its own, which the basis leaves out
        lift.data[perm[a * n + b]][k] = -ONE
    return lift


def ricci(c: ClassCalculus, conn: Connection, lift: ExactMatrix) -> Form:
    """Contract the first leg of the lifted curvature against the input.

    Ricci_{b,d} = sum_c (phi_c^{conj_c(d), b} - phi_c^{d, b}) where
    i(F_c) = sum phi_c^{ab} e_a (x) e_b.
    """
    n = c.n
    order = c.group.order
    curv = curvature_2forms(c, conn)
    phi = [f.apply(lift) for f in curv]
    coeffs = [GroupFunction.zero(order) for _ in range(n * n)]
    for cc in range(n):
        for d in range(n):
            up = c.ad(cc, d)
            for b in range(n):
                contrib = phi[cc].coeffs[up * n + b] - phi[cc].coeffs[d * n + b]
                coeffs[b * n + d] = coeffs[b * n + d] + contrib
    return Form(tuple(coeffs))


class NonlinearCurvatureError(DiagnosticError, RuntimeError):
    """The quadratic curvature terms do not drop out on the torsion-free family."""


def _check_linear_curvature(c: ClassCalculus, point: AffineSpace) -> None:
    class_set = set(c.elements)
    if any(g in class_set for row in c.products for g in row):
        raise NonlinearCurvatureError("two class elements multiply back into the class")
    # every member takes its values in the point space, so its k + 1
    # vectors carry the component sums of the whole family
    n = c.n
    for vec in (point.particular,) + point.basis:
        for d in range(n):
            if sum((vec[b * n + d] for b in range(n)), ZERO):
                raise NonlinearCurvatureError(
                    "component sum of a torsion-free solution is nonzero"
                )


def solve_ricci_flat(c: ClassCalculus) -> AffineSpace | None:
    """Torsion-free connections with vanishing Ricci curvature.

    Requires the curvature to restrict linearly to the torsion-free family
    (checked); the quadratic terms vanish there because no two class
    elements multiply into the class and component sums vanish.
    """
    lift = lift_i(c)
    point = _torsion_point_space(c)
    if point is None:
        return None
    _check_linear_curvature(c, point)

    def evaluate(vec: list[Cyclotomic]) -> list[Cyclotomic]:
        conn = connection_from_vector(c, vec)
        return ricci(c, conn, lift).vector()

    return _solve_on_family(c, point, evaluate)


def levi_civita(c: ClassCalculus, metric: Metric | None = None) -> Connection:
    """The connection A_a = e_a - theta/n, verified torsion- and cotorsion-free."""
    n = c.n
    th = theta(c)
    scale = Cyclotomic(Fraction(1, n))
    comps = tuple(e_form(c, a) - th.scale(scale) for a in range(n))
    conn = Connection(comps)
    if metric is None:
        metric = metric_from_mu(c, 0)
    if not all(t.is_zero() for t in torsion(c, conn)):
        raise ValueError("candidate connection has torsion")
    if not all(t.is_zero() for t in cotorsion(c, conn, metric)):
        raise ValueError("candidate connection has cotorsion")
    return conn

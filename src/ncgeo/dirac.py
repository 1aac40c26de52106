"""Dirac operator, Laplacian and spectra for a four-element class of A4.

The group is any group isomorphic to A4: ``_frame`` reads t, u, v and w
off its table, and the representations and the eigenbasis are built on
them.  Spinors are W-valued functions on the group (W the three-dimensional
irreducible representation), flattened component-major: index i*|G| + g,
so the spinor space is W (x) C(G) and every operator on it is a sum of
Kronecker products of a 3 x 3 matrix on W with a |G| x |G| matrix on
functions.  Every such |G| x |G| factor is right multiplication by an
element of the group algebra C[G], built by ``right_multiplication``.
``casimir_element`` is z = sum_{ab} eta^{ab} (a - e)(b - e): the Laplacian
is right multiplication by -z and the Casimir is rho_W(z).  The Dirac
operator pairs the gamma matrices, built from W and the metric, with the
right translations R_a of the calculus and the constant coefficients of the
Levi-Civita connection; its spectrum and a full exact eigenbasis are
produced and certified by nullity counts, never by numerics.  The
eigenvalue candidates of D and of the Laplacian, the Laplacian's closed
form and the Casimir scalar carry mu through ``riemann.mu_scaling``, the
one place 1/(1 + n mu) is computed; ``spectrum_json`` orders a spectrum
for the report.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Sequence

from .cyclotomic import ONE, OMEGA, ZERO, Cyclotomic, Scalar, as_cyc
from .groups import ClassCalculus, DiagnosticError, FiniteGroup, GroupSpecError
from . import linalg
from .linalg import ExactMatrix
from .riemann import Metric, levi_civita, metric_from_mu, mu_scaling


class Representation(NamedTuple):
    """A matrix representation: one exact matrix per group element."""

    name: str
    dim: int
    matrices: tuple[ExactMatrix, ...]

    def __call__(self, g: int) -> ExactMatrix:
        return self.matrices[g]


def _frame(group: FiniteGroup) -> tuple[int, int, int, int]:
    """t, u, v, w of a group isomorphic to A4, read off its table.

    A4 is the one order-12 group with eight elements of order three.  t is the first
    of those, u the first involution, w = t u t^-1 and v = t w t^-1: on the builtin,
    its own t, u, v and w.
    """
    orders = [group.element_order(g) for g in range(group.order)]
    if group.order != 12 or orders.count(3) != 8:
        raise GroupSpecError(
            "builtin representations need a group isomorphic to a4", {"order": group.order}
        )
    t, u = orders.index(3), orders.index(2)
    w = group.conjugate(t, u)
    return t, u, group.conjugate(t, w), w


@lru_cache(maxsize=None)
def builtin_reps(group: FiniteGroup) -> dict[str, Representation]:
    """The four irreducible representations of a group isomorphic to A4.

    Cached per group: callers share the returned matrices and must not mutate them.
    """
    order, e = group.order, group.identity
    t, u, v, w = _frame(group)

    def mk(entries: list[list[int]]) -> ExactMatrix:
        return ExactMatrix(3, 3, [[as_cyc(x) for x in row] for row in entries])

    klein = {
        e: ExactMatrix.identity(3),
        u: mk([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
        v: mk([[-1, 0, 0], [0, 1, 0], [0, 0, -1]]),
        w: mk([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
    }
    tmat = mk([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    tri = [ExactMatrix.identity(3), tmat, tmat @ tmat]
    # g = s t^k with s in the Klein subgroup; k is g's coset
    coset: list[int] = []
    w_mats: list[ExactMatrix] = []
    for g in range(order):
        for k in range(3):
            s = group.mult(g, group.power(t, -k))
            if s in klein:
                break
        else:
            raise GroupSpecError("group element escapes the coset factorization", {})
        coset.append(k)
        w_mats.append(klein[s] @ tri[k])

    def char_rep(name: str, value: Callable[[int], Cyclotomic]) -> Representation:
        return Representation(
            name=name,
            dim=1,
            matrices=tuple(ExactMatrix(1, 1, [[value(g)]]) for g in range(order)),
        )

    omega_pow = [Cyclotomic(1), OMEGA, OMEGA * OMEGA]
    return {
        "trivial": char_rep("trivial", lambda g: Cyclotomic(1)),
        "rho": char_rep("rho", lambda g: omega_pow[coset[g]]),
        "rho_bar": char_rep("rho_bar", lambda g: omega_pow[(3 - coset[g]) % 3]),
        "W": Representation(name="W", dim=3, matrices=tuple(w_mats)),
    }


def _check_metric(c: ClassCalculus, metric: Metric) -> Metric:
    if metric is None:
        metric = metric_from_mu(c, 0)
    if not metric.is_invertible:
        raise ValueError("the metric is not invertible")
    return metric


def _scaling(c: ClassCalculus, metric: Metric | None) -> Cyclotomic:
    """1 / (1 + n mu) of an invertible metric (``riemann.mu_scaling``)."""
    return mu_scaling(c.n, _check_metric(c, metric).mu)


def right_multiplication(group: FiniteGroup, x: Mapping[int, Scalar]) -> ExactMatrix:
    """R_x for x = sum_h x_h h in C[G]: row g holds x_h in column g h.

    (R_x f)(g) = sum_h x_h f(g h), and R_x R_y = R_{xy}.
    """
    out = ExactMatrix.zeros(group.order, group.order)
    for h, s in x.items():
        if s:
            s = as_cyc(s)
            for g, row in enumerate(out.data):
                row[group.mult(g, h)] += s
    return out


def casimir_element(c: ClassCalculus, metric: Metric | None = None) -> dict[int, Cyclotomic]:
    """z = sum_{ab} eta^{ab} (a - e)(b - e) in C[G], as group element -> coefficient."""
    eta_inv = _check_metric(c, metric).eta_inv.data
    group, z = c.group, {}
    for a, ga in enumerate(c.elements):
        for b, gb in enumerate(c.elements):
            s = eta_inv[a][b]
            if s:
                for g, v in ((c.products[a][b], s), (ga, -s), (gb, -s), (group.identity, s)):
                    z[g] = z.get(g, ZERO) + v
    return z


def casimir_action(c: ClassCalculus, metric: Metric | None = None) -> ExactMatrix:
    """rho_W(z) = sum_{ab} eta^{ab} rho_W(a - e) rho_W(b - e) on the spinor fibre."""
    rep = builtin_reps(c.group)["W"]
    total = ExactMatrix.zeros(rep.dim, rep.dim)
    for g, v in casimir_element(c, metric).items():
        total = total + rep(g).scale(v)
    return total


def casimir_scalar(c: ClassCalculus, metric: Metric | None = None) -> Cyclotomic:
    """The scalar 4 / (1 + 4 mu) by which ``casimir_action`` acts on W."""
    return Cyclotomic(4) * _scaling(c, metric)


def gamma_matrices(c: ClassCalculus, metric: Metric | None = None) -> list[ExactMatrix]:
    """gamma_a = rho_W(a - e) + (n mu / (1 + n mu)) id."""
    metric = _check_metric(c, metric)
    rep = builtin_reps(c.group)["W"]
    ident = ExactMatrix.identity(rep.dim)
    shift = metric.mu * c.n * _scaling(c, metric)
    return [
        rep(c.elements[a]) - ident + ident.scale(shift) for a in range(c.n)
    ]


def _add_kron(out: ExactMatrix, a: ExactMatrix, b: ExactMatrix) -> None:
    """out += a (x) b in place, visiting the nonzero entries only."""
    entries = [(k, l, v) for k, row in enumerate(b.data) for l, v in enumerate(row) if v]
    for i, row in enumerate(a.data):
        block = out.data[i * b.rows : (i + 1) * b.rows]
        for j, x in enumerate(row):
            if x:
                for k, l, v in entries:
                    block[k][j * b.cols + l] += x * v


def dirac_operator(c: ClassCalculus, metric: Metric | None = None) -> ExactMatrix:
    """D = sum_a gamma_a (x) (R_a - 1) - sum_{a,b} gamma_b tau_a (x) A_a^b.

    tau_a = rho_W(a^-1) - 1.  The Levi-Civita coefficients A_a^b are constant,
    so D = sum_a gamma_a (x) R_a + F (x) 1 with
    F = -sum_a gamma_a - sum_{a,b} A_a^b gamma_b tau_a.
    """
    metric = _check_metric(c, metric)
    conn = levi_civita(c, metric)
    group = c.group
    rep = builtin_reps(group)["W"]
    gammas = gamma_matrices(c, metric)
    fibre = -sum(gammas[1:], gammas[0])
    for a, elem in enumerate(c.elements):
        tau = rep(group.inv(elem)) - ExactMatrix.identity(rep.dim)
        for b in range(c.n):
            coeff = conn.comps[a].coeffs[b].values[0]
            if coeff:
                fibre = fibre - (gammas[b] @ tau).scale(coeff)
    out = ExactMatrix.zeros(rep.dim * group.order, rep.dim * group.order)
    for g, m in zip((*c.elements, group.identity), (*gammas, fibre)):
        _add_kron(out, m, right_multiplication(group, {g: 1}))
    return out


def laplacian(c: ClassCalculus, metric: Metric | None = None) -> ExactMatrix:
    """Box = -sum_{ab} eta^{ab} partial^a partial^b on functions: right multiplication by -z."""
    return right_multiplication(c.group, {g: -v for g, v in casimir_element(c, metric).items()})


def dirac_candidates(c: ClassCalculus, metric: Metric | None = None) -> list[Cyclotomic]:
    """Eigenvalue candidates of the Dirac operator: lam + s d.

    lam is 0 or +-4 omega^k, the spectrum at mu = 0; s = 4 mu / (1 + 4 mu) and
    d is one of -4 and 4 omega^k - 4, so at mu = 0 each lam repeats.
    """
    s = _check_metric(c, metric).mu * 4 * _scaling(c, metric)
    base = [Cyclotomic(0)] + [Cyclotomic(k) * OMEGA**npow for k in (4, -4) for npow in range(3)]
    shifts = [Cyclotomic(-4)] + [Cyclotomic(4) * OMEGA**npow - 4 for npow in range(3)]
    return [lam + s * d for lam in base for d in shifts]


def laplacian_closed_form(c: ClassCalculus, metric: Metric | None = None) -> ExactMatrix:
    """-(1/4) (sum_a R_a - 4)^2 / (1 + 4 mu), which ``laplacian`` must equal."""
    shifted = right_multiplication(c.group, dict.fromkeys(c.elements, 1) | {c.group.identity: -4})
    return (shifted @ shifted).scale(Cyclotomic(Fraction(-1, 4)) * _scaling(c, metric))


def laplacian_candidates(c: ClassCalculus, metric: Metric | None = None) -> list[Cyclotomic]:
    """Eigenvalue candidates of the Laplacian: 0, -4 and 12 omega^k, over 1 + 4 mu."""
    scale = _scaling(c, metric)
    return [Cyclotomic(0), Cyclotomic(-4) * scale] + [
        Cyclotomic(12) * OMEGA**k * scale for k in (1, 2)
    ]


def spectrum_json(spec: dict[Cyclotomic, int]) -> list:
    """The report form: eigenvalues with multiplicities, in the order of their JSON text."""
    return [
        {"value": lam, "multiplicity": mult}
        for lam, mult in sorted(spec.items(), key=lambda kv: json.dumps(kv[0].to_json()))
    ]


def check_eigenbasis(
    m: ExactMatrix, eig: Sequence[tuple[Cyclotomic, Sequence[Cyclotomic]]]
) -> tuple[bool, bool]:
    """Whether every (lambda, v) has m v = lambda v, and whether the vectors are independent."""
    eigen = all(m.matvec(list(vec)) == [lam * v for v in vec] for lam, vec in eig)
    return eigen, linalg.rank(ExactMatrix.from_rows([list(v) for _, v in eig])) == len(eig)


def verify_spectrum(
    m: ExactMatrix, candidates: Sequence[Scalar]
) -> dict[Cyclotomic, int]:
    """Exact multiplicities by nullity, one rank per distinct candidate.

    The candidates must exhaust the space.
    """
    if m.rows != m.cols:
        raise ValueError("spectrum verification needs a square matrix")
    seen: dict[Cyclotomic, int] = {}
    total = 0
    for lam in dict.fromkeys(map(as_cyc, candidates)):
        shifted = m - ExactMatrix.identity(m.rows).scale(lam)
        mult = m.rows - linalg.rank(shifted)
        if mult:
            seen[lam] = mult
            total += mult
    if total != m.rows:
        raise ValueError(
            f"candidate eigenvalues cover {total} of {m.rows} dimensions"
        )
    return seen


# ---------------------------------------------------------------------------
# exact eigenbasis at mu = 0
# ---------------------------------------------------------------------------


def dirac_eigenbasis(
    c: ClassCalculus,
) -> list[tuple[Cyclotomic, tuple[Cyclotomic, ...]]]:
    """36 exact eigenvectors of the Levi-Civita Dirac operator at mu = 0.

    Built from the entry functions rho_{kj} of W, the coset character rho,
    and the sign combinations D_1 = R_t - R_x - R_y + R_z,
    D_2 = R_t - R_x + R_y - R_z, D_3 = R_t + R_x - R_y - R_z.  Refused on
    any class but that of t.
    """
    group, order = c.group, c.group.order
    reps = builtin_reps(group)
    t, u, v, w = _frame(group)
    if t not in c.elements:
        raise DiagnosticError(
            "the exact eigenbasis is built for the class of t", {"class": list(c.labels)}
        )
    rho = [m.data[0][0] for m in reps["rho"].matrices]
    # entry[k][j] is the function g -> rho_W(g)_{kj}
    entry = [[[m.data[k][j] for m in reps["W"].matrices] for j in range(3)] for k in range(3)]
    # x = u t, y = v t and z = w t
    signs = {
        t: (1, 1, 1),
        group.mult(u, t): (-1, -1, 1),
        group.mult(v, t): (-1, 1, -1),
        group.mult(w, t): (1, -1, -1),
    }
    d1, d2, d3 = (
        right_multiplication(group, {g: s[d] for g, s in signs.items()}) for d in range(3)
    )
    zero = [ZERO] * order

    def place(slot: int, fn: list[Cyclotomic]) -> tuple[Cyclotomic, ...]:
        return tuple(zero * slot + fn + zero * (2 - slot))

    out: list[tuple[Cyclotomic, tuple[Cyclotomic, ...]]] = []
    # kernel: D_2 only survives on the first W column, D_3 on the second,
    # D_1 on the third; each slot admits exactly two of the three images
    for k in range(3):
        images = [d2.matvec(entry[k][0]), d3.matvec(entry[k][1]), d1.matvec(entry[k][2])]
        out += [(ZERO, place(i, images[(i + shift) % 3])) for shift in (0, 1) for i in range(3)]
    # -4 omega^n: the coset character powers placed in each slot
    for npow in range(3):
        twist = [r**npow for r in rho]
        out += [(as_cyc(-4) * OMEGA**npow, place(i, twist)) for i in range(3)]
    # +4 omega^n: stacked rows of W, twisted by character powers
    for npow in range(3):
        twist = [r**npow for r in rho]
        out += [
            (
                as_cyc(4) * OMEGA**npow,
                tuple(f * r for j in range(3) for f, r in zip(entry[k][j], twist)),
            )
            for k in range(3)
        ]
    return out


def chi_operator(c: ClassCalculus) -> ExactMatrix:
    """Order-three symmetry: the cyclic slot shift (x) right translation by t."""
    group, order = c.group, c.group.order
    shift = ExactMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    out = ExactMatrix.zeros(3 * order, 3 * order)
    _add_kron(out, shift, right_multiplication(group, {_frame(group)[0]: 1}))
    return out


def chirality_gamma(c: ClassCalculus) -> ExactMatrix:
    """Involution anti-commuting with the mu = 0 Dirac operator.

    Conjugates the eigenvalue-negating pairing through the exact eigenbasis.
    """
    eig = dirac_eigenbasis(c)
    size = len(eig)
    vmat = ExactMatrix.from_rows([list(vec) for _, vec in eig]).transpose()
    vinv = linalg.invert(vmat)
    # pair index blocks: kernel rows swap their two placement families,
    # +4 w^n stacks pair with -4 w^n character vectors
    perm = list(range(size))
    for k in range(3):
        base = 6 * k
        for off in range(3):
            perm[base + off] = base + off + 3
            perm[base + off + 3] = base + off
    # kernel occupies 0..17; -4 w^n blocks at 18..26; +4 w^n at 27..35
    for npow in range(3):
        for k in range(3):
            a = 18 + 3 * npow + k
            b = 27 + 3 * npow + k
            perm[a] = b
            perm[b] = a
    pmat = ExactMatrix.zeros(size, size)
    for colv, rowv in enumerate(perm):
        pmat.data[rowv][colv] = ONE
    return vmat @ pmat @ vinv


# ---------------------------------------------------------------------------
# Fourier transform on the group
# ---------------------------------------------------------------------------


def _fourier_matrix(group: FiniteGroup) -> ExactMatrix:
    reps = builtin_reps(group)
    order = group.order
    cols = [[m.data[0][0] for m in reps[name].matrices] for name in ("trivial", "rho", "rho_bar")]
    cols += [[m.data[k][j] for m in reps["W"].matrices] for k in range(3) for j in range(3)]
    mat = ExactMatrix.from_rows(cols).transpose()
    if linalg.rank(mat) != order:
        raise linalg.CertificationError("matrix-coefficient basis is not full rank")
    return mat


FOURIER_LABELS = ("trivial", "rho", "rho_bar") + tuple(
    f"W_{k}{j}" for k in (1, 2, 3) for j in (1, 2, 3)
)


def fourier_decompose(
    group: FiniteGroup, values: Sequence[Scalar]
) -> dict[str, Cyclotomic]:
    """Coordinates of a function over the matrix-coefficient basis."""
    sol = linalg.solve_affine(_fourier_matrix(group), [as_cyc(v) for v in values])
    if sol is None or sol.basis:
        raise linalg.CertificationError("matrix-coefficient basis failed to resolve")
    return dict(zip(FOURIER_LABELS, sol.particular))


def fourier_reconstruct(
    group: FiniteGroup, coeffs: dict[str, Scalar]
) -> list[Cyclotomic]:
    """Function values from matrix-coefficient coordinates."""
    return _fourier_matrix(group).matvec([as_cyc(coeffs.get(lbl, 0)) for lbl in FOURIER_LABELS])

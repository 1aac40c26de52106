"""Dirac operator, Laplacian and spectra for the four-element class on a4.

Spinors are W-valued functions on the group (W the three-dimensional
irreducible representation), flattened component-major: index i*|G| + g.
The Dirac operator combines the difference operators of the calculus with
gamma matrices built from W and the metric; its spectrum and a full exact
eigenbasis are produced and certified by nullity counts, never by
numerics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .cyclotomic import ONE, OMEGA, ZERO, Cyclotomic, Scalar
from .groups import ClassCalculus, FiniteGroup, GroupSpecError
from . import linalg
from .linalg import ExactMatrix
from .riemann import Connection, Metric, levi_civita, metric_from_mu


@dataclass(frozen=True)
class Representation:
    """A matrix representation: one exact matrix per group element."""

    name: str
    dim: int
    matrices: tuple[ExactMatrix, ...]

    def __call__(self, g: int) -> ExactMatrix:
        return self.matrices[g]


def _require_a4(group: FiniteGroup) -> None:
    if group.order != 12 or "t2" not in group.names:
        raise GroupSpecError(
            "builtin representations are only available for the a4 builtin",
            {"order": group.order},
        )


def builtin_reps(group: FiniteGroup) -> dict[str, Representation]:
    """The four irreducible representations of the a4 builtin group."""
    _require_a4(group)
    order = group.order
    e = group.identity
    t = group.index("t")
    u, v, w = group.index("u"), group.index("v"), group.index("w")

    def mk(entries: list[list[int]]) -> ExactMatrix:
        return ExactMatrix(
            3, 3, [[Cyclotomic.from_int(x) for x in row] for row in entries]
        )

    seed = {
        e: ExactMatrix.identity(3),
        t: mk([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        u: mk([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
        v: mk([[-1, 0, 0], [0, 1, 0], [0, 0, -1]]),
        w: mk([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
    }
    tri = [ExactMatrix.identity(3), seed[t], seed[t] @ seed[t]]
    w_mats: list[ExactMatrix | None] = [None] * order
    for g in range(order):
        for k in range(3):
            s = group.mult(g, group.inv(group.power(t, k)))
            if s in (e, u, v, w):
                w_mats[g] = seed[s] @ tri[k]
                break
        if w_mats[g] is None:
            raise GroupSpecError("group element escapes the coset factorization", {})

    def char_rep(name: str, value: Callable[[int], Cyclotomic]) -> Representation:
        return Representation(
            name=name,
            dim=1,
            matrices=tuple(ExactMatrix(1, 1, [[value(g)]]) for g in range(order)),
        )

    coset = [0] * order
    for g in range(order):
        for k in range(3):
            if group.mult(g, group.inv(group.power(t, k))) in (e, u, v, w):
                coset[g] = k
                break
    omega_pow = [Cyclotomic(1), OMEGA, OMEGA * OMEGA]
    return {
        "trivial": char_rep("trivial", lambda g: Cyclotomic(1)),
        "rho": char_rep("rho", lambda g: omega_pow[coset[g]]),
        "rho_bar": char_rep("rho_bar", lambda g: omega_pow[(3 - coset[g]) % 3]),
        "W": Representation(name="W", dim=3, matrices=tuple(w_mats)),
    }


def _w_rep(c: ClassCalculus) -> Representation:
    return builtin_reps(c.group)["W"]


def _check_metric(c: ClassCalculus, metric: Metric) -> Metric:
    if metric is None:
        metric = metric_from_mu(c, 0)
    if not metric.is_invertible:
        raise ValueError("the metric is not invertible")
    return metric


def casimir_action(c: ClassCalculus, metric: Metric | None = None) -> ExactMatrix:
    """sum_{ab} eta^{ab} rho_W(a - e) rho_W(b - e) on the spinor fibre."""
    metric = _check_metric(c, metric)
    rep = _w_rep(c)
    ident = ExactMatrix.identity(rep.dim)
    diffs = [rep(c.elements[a]) - ident for a in range(c.n)]
    total = ExactMatrix.zeros(rep.dim, rep.dim)
    for a in range(c.n):
        for b in range(c.n):
            s = metric.eta_inv.data[a][b]
            if s:
                total = total + (diffs[a] @ diffs[b]).scale(s)
    return total


def gamma_matrices(c: ClassCalculus, metric: Metric | None = None) -> list[ExactMatrix]:
    """gamma_a = rho_W(a - e) + (n mu / (1 + n mu)) id."""
    metric = _check_metric(c, metric)
    rep = _w_rep(c)
    ident = ExactMatrix.identity(rep.dim)
    mu = metric.mu if metric.mu is not None else ZERO
    shift = mu * c.n * (1 + mu * c.n).inverse()
    return [
        rep(c.elements[a]) - ident + ident.scale(shift) for a in range(c.n)
    ]


def right_translation_blocks(c: ClassCalculus) -> dict[str, ExactMatrix]:
    """R_a as a |G| x |G| permutation matrix for each class element."""
    order = c.group.order
    out = {}
    for pos, label in enumerate(c.labels):
        m = ExactMatrix.zeros(order, order)
        perm = c.right_perm[pos]
        for g in range(order):
            m.data[g][perm[g]] = ONE
        out[label] = m
    return out


def _partial_matrix(c: ClassCalculus, pos: int) -> ExactMatrix:
    order = c.group.order
    m = ExactMatrix.zeros(order, order)
    perm = c.right_perm[pos]
    for g in range(order):
        m.data[g][perm[g]] = m.data[g][perm[g]] + ONE
        m.data[g][g] = m.data[g][g] - ONE
    return m


def _spinor_index(dim: int, order: int, i: int, g: int) -> int:
    return i * order + g


def dirac_operator(
    c: ClassCalculus,
    metric: Metric | None = None,
    conn: Connection | None = None,
) -> ExactMatrix:
    """D = sum_a gamma_a partial^a - sum_{a,b} A_a^b gamma_b rho_W(a^-1 - e)."""
    metric = _check_metric(c, metric)
    if conn is None:
        conn = levi_civita(c)
    rep = _w_rep(c)
    order = c.group.order
    n = c.n
    dim = rep.dim
    size = dim * order
    gammas = gamma_matrices(c, metric)
    ident = ExactMatrix.identity(dim)
    taus = [
        rep(c.group.inv(c.elements[a])) - ident for a in range(n)
    ]
    out = ExactMatrix.zeros(size, size)
    for a in range(n):
        pmat = _partial_matrix(c, a)
        gm = gammas[a]
        for i in range(dim):
            for j in range(dim):
                gij = gm.data[i][j]
                if not gij:
                    continue
                for g in range(order):
                    for h in (c.right_perm[a][g], g):
                        val = pmat.data[g][h]
                        if val:
                            r = _spinor_index(dim, order, i, g)
                            s = _spinor_index(dim, order, j, h)
                            out.data[r][s] = out.data[r][s] + gij * val
    for a in range(n):
        for b in range(n):
            coeff_fn = conn.comps[a].coeffs[b]
            if coeff_fn.is_zero():
                continue
            gt = gammas[b] @ taus[a]
            for i in range(dim):
                for j in range(dim):
                    gij = gt.data[i][j]
                    if not gij:
                        continue
                    for g in range(order):
                        val = coeff_fn.values[g]
                        if val:
                            r = _spinor_index(dim, order, i, g)
                            s = _spinor_index(dim, order, j, g)
                            out.data[r][s] = out.data[r][s] - gij * val
    return out


def laplacian(c: ClassCalculus, metric: Metric | None = None) -> ExactMatrix:
    """Box = -sum_{ab} eta^{ab} partial^a partial^b on functions."""
    metric = _check_metric(c, metric)
    order = c.group.order
    parts = [_partial_matrix(c, a) for a in range(c.n)]
    total = ExactMatrix.zeros(order, order)
    for a in range(c.n):
        for b in range(c.n):
            s = metric.eta_inv.data[a][b]
            if s:
                total = total - (parts[a] @ parts[b]).scale(s)
    return total


def verify_spectrum(
    m: ExactMatrix, candidates: Sequence[Scalar]
) -> dict[Cyclotomic, int]:
    """Exact multiplicities by nullity; the candidates must exhaust the space."""
    if m.rows != m.cols:
        raise ValueError("spectrum verification needs a square matrix")
    seen: dict[Cyclotomic, int] = {}
    total = 0
    for lam in candidates:
        lam = lam if isinstance(lam, Cyclotomic) else Cyclotomic(lam)
        if lam in seen:
            continue
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


def _rep_entry_function(rep: Representation, k: int, j: int) -> list[Cyclotomic]:
    return [rep(g).data[k][j] for g in range(len(rep.matrices))]


def _apply_op(mat: ExactMatrix, vec: list[Cyclotomic]) -> list[Cyclotomic]:
    return mat.matvec(vec)


def translation_combination(
    c: ClassCalculus, signs: Sequence[int]
) -> ExactMatrix:
    """sum_a signs[a] R_a over the class positions."""
    order = c.group.order
    out = ExactMatrix.zeros(order, order)
    for a, s in enumerate(signs):
        if not s:
            continue
        perm = c.right_perm[a]
        sc = Cyclotomic.from_int(s)
        for g in range(order):
            out.data[g][perm[g]] = out.data[g][perm[g]] + sc
    return out


def dirac_eigenbasis(
    c: ClassCalculus,
) -> list[tuple[Cyclotomic, tuple[Cyclotomic, ...]]]:
    """36 exact eigenvectors of the Levi-Civita Dirac operator at mu = 0.

    Built from the entry functions rho_{kj} of W, the coset character rho,
    and the sign combinations D_1 = R_t - R_x - R_y + R_z,
    D_2 = R_t - R_x + R_y - R_z, D_3 = R_t + R_x - R_y - R_z.
    """
    group = c.group
    order = group.order
    reps = builtin_reps(group)
    wrep = reps["W"]
    rho = [reps["rho"](g).data[0][0] for g in range(order)]
    tpos = {lbl: i for i, lbl in enumerate(c.labels)}
    sign_rows = {
        1: [0, 0, 0, 0],
        2: [0, 0, 0, 0],
        3: [0, 0, 0, 0],
    }
    for lbl, signs in (("t", (1, 1, 1)), ("x", (-1, -1, 1)), ("y", (-1, 1, -1)), ("z", (1, -1, -1))):
        p = tpos[lbl]
        for d in (1, 2, 3):
            sign_rows[d][p] = signs[d - 1]
    d_ops = {d: translation_combination(c, sign_rows[d]) for d in (1, 2, 3)}

    def col(k: int, j: int) -> list[Cyclotomic]:
        return _rep_entry_function(wrep, k, j)

    def stack(parts: Sequence[Sequence[Cyclotomic]]) -> tuple[Cyclotomic, ...]:
        out: list[Cyclotomic] = []
        for p in parts:
            out.extend(p)
        return tuple(out)

    zero_fn = [ZERO] * order
    out: list[tuple[Cyclotomic, tuple[Cyclotomic, ...]]] = []
    # kernel: D_2 only survives on the first W column, D_3 on the second,
    # D_1 on the third; each slot admits exactly two of the three images
    for k in range(3):
        r1 = _apply_op(d_ops[2], col(k, 0))
        r2 = _apply_op(d_ops[3], col(k, 1))
        r3 = _apply_op(d_ops[1], col(k, 2))
        out.append((ZERO, stack([r1, zero_fn, zero_fn])))
        out.append((ZERO, stack([zero_fn, r2, zero_fn])))
        out.append((ZERO, stack([zero_fn, zero_fn, r3])))
        out.append((ZERO, stack([r2, zero_fn, zero_fn])))
        out.append((ZERO, stack([zero_fn, r3, zero_fn])))
        out.append((ZERO, stack([zero_fn, zero_fn, r1])))
    # -4 omega^n: the coset character powers placed in each slot
    for npow in range(3):
        fn = [ONE] * order
        for _ in range(npow):
            fn = [a * b for a, b in zip(fn, rho)]
        lam = Cyclotomic.from_int(-4) * (OMEGA**npow)
        out.append((lam, stack([fn, zero_fn, zero_fn])))
        out.append((lam, stack([zero_fn, fn, zero_fn])))
        out.append((lam, stack([zero_fn, zero_fn, fn])))
    # +4 omega^n: stacked rows of W, twisted by character powers
    for npow in range(3):
        lam = Cyclotomic.from_int(4) * (OMEGA**npow)
        for k in range(3):
            parts = []
            for j in range(3):
                base = col(k, j)
                fn = list(base)
                for _ in range(npow):
                    fn = [a * b for a, b in zip(fn, rho)]
                parts.append(fn)
            out.append((lam, stack(parts)))
    return out


def chi_operator(c: ClassCalculus) -> ExactMatrix:
    """Order-three symmetry: cyclic slot shift combined with translation by t."""
    group = c.group
    order = group.order
    rt = ExactMatrix.zeros(order, order)
    tpos = c.position("t")
    perm = c.right_perm[tpos]
    for g in range(order):
        rt.data[g][perm[g]] = ONE
    size = 3 * order
    out = ExactMatrix.zeros(size, size)
    for (bi, bj) in ((0, 2), (1, 0), (2, 1)):
        for g in range(order):
            for h in range(order):
                if rt.data[g][h]:
                    out.data[bi * order + g][bj * order + h] = rt.data[g][h]
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
    cols: list[list[Cyclotomic]] = []
    cols.append([ONE] * order)
    cols.append([reps["rho"](g).data[0][0] for g in range(order)])
    cols.append([reps["rho_bar"](g).data[0][0] for g in range(order)])
    wrep = reps["W"]
    for k in range(3):
        for j in range(3):
            cols.append([wrep(g).data[k][j] for g in range(order)])
    mat = ExactMatrix.from_rows(cols).transpose()
    if linalg.rank(mat) != order:
        raise linalg.CertificationError("matrix-coefficient basis is not full rank")
    return mat


FOURIER_LABELS = (
    "trivial",
    "rho",
    "rho_bar",
    "W_11",
    "W_12",
    "W_13",
    "W_21",
    "W_22",
    "W_23",
    "W_31",
    "W_32",
    "W_33",
)


def fourier_decompose(
    group: FiniteGroup, values: Sequence[Scalar]
) -> dict[str, Cyclotomic]:
    """Coordinates of a function over the matrix-coefficient basis."""
    mat = _fourier_matrix(group)
    vec = [v if isinstance(v, Cyclotomic) else Cyclotomic(v) for v in values]
    sol = linalg.solve_affine(mat, vec)
    if sol is None or sol.basis:
        raise linalg.CertificationError("matrix-coefficient basis failed to resolve")
    return dict(zip(FOURIER_LABELS, sol.particular))


def fourier_reconstruct(
    group: FiniteGroup, coeffs: dict[str, Scalar]
) -> list[Cyclotomic]:
    """Function values from matrix-coefficient coordinates."""
    mat = _fourier_matrix(group)
    vec = [
        (
            coeffs.get(lbl, 0)
            if isinstance(coeffs.get(lbl, 0), Cyclotomic)
            else Cyclotomic(coeffs.get(lbl, 0))
        )
        for lbl in FOURIER_LABELS
    ]
    return mat.matvec(vec)

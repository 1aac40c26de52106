"""Conversions and oracles shared by the tests."""

import numpy as np

from ncgeo import ONE, ZERO, ExactMatrix, braiding, invert, nullspace, rank
from ncgeo.calculus import tableiii_assignment
from ncgeo.linalg import rref


def to_int_array(mat):
    """Integer numpy copy of an ExactMatrix; raises on non-integer entries."""
    out = np.empty((mat.rows, mat.cols), dtype=object)
    for i, row in enumerate(mat.data):
        for j, v in enumerate(row):
            if not v.is_integer():
                raise ValueError(f"non-integer entry at ({i}, {j}): {v}")
            out[i, j] = v.triple()[0]
    return out.astype(np.int64)


def rank_mod_p_oracle(rows, p):
    """Rank mod p by pure-Python elimination on sparse dict rows.

    Each row is reduced by the pivot row of its smallest nonzero column
    until it vanishes or that column has no pivot row yet; then it becomes
    the pivot row of that column, scaled to a leading 1.
    """
    pivots = {}
    for row in rows:
        x = {j: v % p for j, v in enumerate(row) if v % p}
        while x:
            col = min(x)
            if col not in pivots:
                inv = pow(x[col], p - 2, p)
                pivots[col] = {j: v * inv % p for j, v in x.items()}
                break
            f = x[col]
            for j, v in pivots[col].items():
                w = (x.get(j, 0) - f * v) % p
                if w:
                    x[j] = w
                else:
                    x.pop(j, None)
    return len(pivots)


# ---------------------------------------------------------------------------
# degree-two geometry by elimination: the constructions that the braiding
# cycles and the conjugation orbits replace, kept as oracles
# ---------------------------------------------------------------------------


def braiding_matrix(c):
    """The braiding as a permutation matrix: column q holds a 1 in row perm[q]."""
    perm = braiding(c).perm
    mat = ExactMatrix.zeros(len(perm), len(perm))
    for col, row in enumerate(perm):
        mat.data[row][col] = ONE
    return mat


def relations_oracle(c):
    """ker(id - braiding), the echelonized nullspace basis."""
    m = ExactMatrix.identity(c.n * c.n) - braiding_matrix(c)
    return tuple(tuple(v) for v in nullspace(m))


def omega2_oracle(c):
    """The degree-two basis pairs and the dim x n^2 reduction matrix, by elimination.

    The pairs are the third-table frame when its unit vectors and the
    relations span the tensor square, and otherwise the non-pivot columns
    of the relations' reduced form.  The reduction matrix is the first
    rows of the inverse of [basis | relations].
    """
    n, size = c.n, c.n * c.n
    kernel = [list(v) for v in relations_oracle(c)]

    def units(pairs):
        return [[ONE if q == a * n + b else ZERO for q in range(size)] for a, b in pairs]

    _, pivots = rref(ExactMatrix.from_rows(kernel))
    pairs = [divmod(q, n) for q in range(size) if q not in pivots]
    assign = tableiii_assignment(c)
    if assign is not None:
        t, x, y, z = assign
        frame = [(t, x), (t, y), (t, z), (x, t), (y, t), (x, y), (y, z), (x, z)]
        spanned = rank(ExactMatrix.from_rows(units(frame) + kernel)) == size
        if spanned and len(frame) + len(kernel) == size:
            pairs = frame
    inverse = invert(ExactMatrix.from_rows(units(pairs) + kernel).transpose())
    return pairs, inverse.submatrix(range(len(pairs)), range(size))


def lift_i_oracle(c, pairs):
    """I - B (B^T B)^-1 B^T on the basis columns, B the relations as columns."""
    size = c.n * c.n
    bmat = ExactMatrix.from_rows(relations_oracle(c)).transpose()
    proj = bmat @ invert(bmat.transpose() @ bmat) @ bmat.transpose()
    cols = [a * c.n + b for a, b in pairs]
    return (ExactMatrix.identity(size) - proj).submatrix(range(size), cols)


def lift_iprime_oracle(c, pairs):
    """id - braiding on the basis columns."""
    size = c.n * c.n
    cols = [a * c.n + b for a, b in pairs]
    return (ExactMatrix.identity(size) - braiding_matrix(c)).submatrix(range(size), cols)


def invariant_metrics_oracle(c):
    """The nullspace of eta(g^-1 a g, b) - eta(a, g b g^-1) = 0 over all g, a, b, as matrices."""
    group, n = c.group, c.n

    def conj(g):
        return [c.elements.index(group.conjugate(g, e)) for e in c.elements]

    rows = []
    for g in range(group.order):
        fwd, back = conj(g), conj(group.inv(g))
        for a in range(n):
            for b in range(n):
                row = [ZERO] * (n * n)
                row[back[a] * n + b] = row[back[a] * n + b] + ONE
                row[a * n + fwd[b]] = row[a * n + fwd[b]] - ONE
                if any(row):
                    rows.append(row)
    if rows:
        vecs = nullspace(ExactMatrix.from_rows(rows))
    else:
        vecs = ExactMatrix.identity(n * n).data
    return [ExactMatrix(n, n, [list(v[a * n : a * n + n]) for a in range(n)]) for v in vecs]

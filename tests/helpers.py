"""Conversions, test data and oracles shared by the tests."""

from fractions import Fraction

import numpy as np

from ncgeo import (
    ONE,
    ZERO,
    Cyclotomic,
    ExactMatrix,
    Form,
    GroupFunction,
    braiding,
    build_group,
    conjugacy_classes,
    d0,
    e_form,
    invert,
    nullspace,
    rank,
    solve_affine,
    theta,
    wedge,
)
from ncgeo.calculus import tableiii_assignment, zero_two_form
from ncgeo.cyclotomic import as_cyc
from ncgeo.groups import OTHER, TABLE_II, TABLE_III
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


def csr_to_int_array(mat):
    """Dense int64 numpy copy of a ``linalg.Csr``."""
    out = np.zeros(mat.shape, dtype=np.int64)
    out[mat.row_indices(), mat.indices] = mat.data
    return out


def affine_contains(space, point):
    """Exact membership test: point - particular in span(basis)?"""
    if len(point) != len(space.particular):
        raise ValueError("point length mismatch")
    diff = [as_cyc(p) - q for p, q in zip(point, space.particular)]
    if not space.basis:
        return all(not v for v in diff)
    cols = ExactMatrix.from_rows([list(vec) for vec in space.basis]).transpose()
    return solve_affine(cols, diff) is not None


def is_flat_family_member(c, alpha):
    """Whether a constant connection lies on one of the flat lines."""
    consts = []
    for f in alpha.coeffs:
        if not f.is_constant():
            return False
        consts.append(f.values[0])
    shifted = [v + 1 for v in consts]
    nonzero = [v for v in shifted if v]
    if len(nonzero) <= 1:
        return True
    return all(v == shifted[0] for v in shifted)


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


def relabelled(group, perm):
    """The group with element i renamed to perm[i]; the identity stays at 0."""
    perm = [0] + list(perm)
    names = [""] * group.order
    table = [[0] * group.order for _ in range(group.order)]
    for i in range(group.order):
        names[perm[i]] = group.names[i]
        for j in range(group.order):
            table[perm[i]][perm[j]] = perm[group.table[i][j]]
    return {"names": names, "table": table}


def _catalogue():
    """The builtins with two cyclic groups, and the first four reverse-relabelled."""
    names = ("a4", "s3", "s4", "sl2z3", "klein", "cyclic(5)", "cyclic(6)")
    groups = {name: build_group(name) for name in names}
    for name in names[:4]:
        reverse = range(groups[name].order - 1, 0, -1)
        groups[f"{name}-reversed"] = build_group(relabelled(groups[name], reverse))
    return groups


CATALOGUE = _catalogue()
# (catalogue key, name of a class representative) for every non-identity class
CATALOGUE_CLASSES = [
    (key, group.names[cls[0]])
    for key, group in CATALOGUE.items()
    for cls in conjugacy_classes(group)[1:]
]


def counted_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records the arguments of each call."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def off_by_one(fn):
    """fn with the first value of the first coefficient of every image raised by one."""

    def perturbed(*args):
        image = fn(*args)
        first = image.coeffs[0]
        moved = first._replace(values=(first.values[0] + 1, *first.values[1:]))
        return image._replace(coeffs=(moved, *image.coeffs[1:]))

    return perturbed


def random_form(c, size, rnd):
    """A form of ``size`` coefficient functions with small entries in Q(omega), about half zero."""

    def value():
        if rnd.random() < 0.5:
            return ZERO
        return Cyclotomic(Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)), rnd.randint(-2, 2))

    order = c.group.order
    return Form(tuple(GroupFunction(tuple(value() for _ in range(order))) for _ in range(size)))


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


# ---------------------------------------------------------------------------
# the differential term by term: the constructions that d = {theta, -}
# replaces, kept as oracles
# ---------------------------------------------------------------------------


def leibniz_d1(c, w):
    """d(f e_a) = (d f) ^ e_a + f d e_a, with d e_a = theta ^ e_a + e_a ^ theta."""
    th = theta(c)
    out = zero_two_form(c)
    for a, f in enumerate(w.coeffs):
        if f.is_zero():
            continue
        ea = e_form(c, a)
        dea = wedge(c, th, ea) + wedge(c, ea, th)
        out = out + wedge(c, d0(c, f), ea) + dea.left_mul(f)
    return out


def curvature_oracle(c, conn):
    """F_a = d A_a + sum_{cd=a} A_c ^ A_d - sum_c (A_c ^ A_a + A_a ^ A_c), term by term."""
    group = c.group
    out = []
    for a in range(c.n):
        total = leibniz_d1(c, conn.comps[a])
        target = c.elements[a]
        for i in range(c.n):
            for j in range(c.n):
                if group.mult(c.elements[i], c.elements[j]) == target:
                    total = total + wedge(c, conn.comps[i], conn.comps[j])
        for i in range(c.n):
            total = total - wedge(c, conn.comps[i], conn.comps[a])
            total = total - wedge(c, conn.comps[a], conn.comps[i])
        out.append(total)
    return out


def d0_matrix(c):
    """The differential on functions, as an (n |G|) x |G| matrix."""
    order = c.group.order
    cols = [d0(c, GroupFunction.delta(order, h)).vector() for h in range(order)]
    return ExactMatrix.from_rows(cols).transpose()


def d1_matrix(c):
    """The Leibniz differential on one-forms; column a |G| + g is d(delta_g e_a)."""
    order = c.group.order
    zero = GroupFunction.zero(order)
    cols = []
    for a in range(c.n):
        for g in range(order):
            coeffs = [zero] * c.n
            coeffs[a] = GroupFunction.delta(order, g)
            cols.append(leibniz_d1(c, Form(tuple(coeffs))).vector())
    return ExactMatrix.from_rows(cols).transpose()


# ---------------------------------------------------------------------------
# group structure by definition: what ``groups.orbits`` reads off, kept as
# oracles
# ---------------------------------------------------------------------------


def conjugacy_class_oracle(group, g):
    """{h g h^-1 : h in G}, sorted."""
    return sorted({group.mult(group.mult(h, g), group.inv(h)) for h in range(group.order)})


def subgroup_oracle(group, gens):
    """The closure of the generators and the identity under products, sorted."""
    closure = {group.identity, *gens}
    while True:
        grown = closure | {group.mult(a, b) for a in closure for b in closure}
        if grown == closure:
            return sorted(closure)
        closure = grown


def is_witness_oracle(group, members, t):
    """Ad_t is one cycle through every class element but t, and a -> a t a^-1 is onto."""
    rest = set(members) - {t}
    if not rest:
        return False
    start = min(rest)
    walk = [start]
    while (nxt := group.mult(group.mult(t, walk[-1]), group.inv(t))) != start:
        walk.append(nxt)
    onto = {group.mult(group.mult(a, t), group.inv(a)) for a in members} == set(members)
    return set(walk) == rest and len(walk) == len(rest) and onto


def cycle_name_oracle(perm):
    """Cycle notation on 1..n: walk each unvisited moved point's cycle, in order."""
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle = [start]
        while perm[cycle[-1]] != start:
            cycle.append(perm[cycle[-1]])
        seen.update(cycle)
        cycles.append("(" + "".join(str(p + 1) for p in cycle) + ")")
    return "".join(cycles) or "e"


def match_tables_oracle(cells):
    """The product-table verdict of a frame by the coincidence rules, from its 16 products.

    cells[4 i + j] is e_i e_j over the frame (t, x, y, z) = (0, 1, 2, 3).  Both
    admissible tables share the triple coincidences t x = z t = x z (and the
    three images of this line under the cycle); they differ in whether the
    squares coincide with those triple values (Table III) or avoid them
    entirely (Table II).
    """
    t, x, y, z = range(4)

    def prod(i, j):
        return cells[4 * i + j]

    triples = [
        [(t, x), (z, t), (x, z)],
        [(t, y), (x, t), (y, x)],
        [(t, z), (y, t), (z, y)],
        [(x, y), (y, z), (z, x)],
    ]
    triple_vals = []
    for pairs in triples:
        vals = {prod(i, j) for i, j in pairs}
        if len(vals) != 1:
            return OTHER
        triple_vals.append(vals.pop())
    if len(set(triple_vals)) != 4:
        return OTHER
    squares = [prod(t, t), prod(x, x), prod(y, y), prod(z, z)]
    # third-table coincidences: t^2 = x*y, y^2 = t*x, z^2 = t*y, x^2 = t*z
    if (
        squares[0] == triple_vals[3]
        and squares[2] == triple_vals[0]
        and squares[3] == triple_vals[1]
        and squares[1] == triple_vals[2]
    ):
        return TABLE_III
    if len(set(squares)) == 4 and not set(squares) & set(triple_vals):
        return TABLE_II
    return OTHER

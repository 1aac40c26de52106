"""First-order differential calculus on a finite group from a conjugacy class.

Functions on G form the base algebra; the one-form module has a left basis
{e_a} indexed by the class, with the bimodule rule e_a f = R_a(f) e_a,
(R_g f)(h) = f(h g).  So a basis element whose letters multiply to g moves
f past itself as R_g(f): ``right_translate`` is the one right translation,
and ``right_mul`` the one w f for one-forms and two-forms alike.  The
differential is d f = theta f - f theta = sum_a (R_a f - f) e_a, where
theta = sum_a e_a: the calculus is inner, and d w = theta ^ w + w ^ theta
on one-forms.  One-forms, two-forms and the tensor square of the
one-forms are all ``Form``s: coefficient functions on the left of a fixed
basis (e_a, the degree-two basis, or e_a (x) e_b), and a constant-matrix
map on the coefficients is ``Form.apply``.  The braiding
e_a (x) e_b -> e_{aba^-1} (x) e_a permutes the tensor basis, so the
degree-two relations are the indicator vectors of its cycles
(``braid_cycles``), the degree-two basis leaves out one pair of every
cycle, and the wedge quotient subtracts the coefficient of the left-out
pair: none of them needs elimination.  Higher relations come from braided
integers and factorials; exterior dimensions are the ranks of the braided
factorials, computed exactly while they have at most ``AUTO_EXACT_LIMIT``
(256) rows and certified modulo two large primes above, which on A4 means
from degree 5.  Isomorphic racks (a > b = a b a^-1) have isomorphic
exterior and quadratic algebras, so both are reduced once per isomorphism
class of braidings: a braiding is matched to the first one seen that a
letter bijection carries onto it, whose A_m it relabels for its own digest
and primes.  The matrices split into blocks by word product, and
conjugation by a group element carries the block of product g onto that
of its conjugate, so each block rank is taken once per conjugation orbit
of products, after an exact check that the blocks of the orbit are similar
under the induced word permutation.  The factorials are numpy arrays in
canonical CSR order (``linalg.Csr``): A_m = (id (x) A_{m-1}) [m, -psi] is
a signed sum of m column permutations of id (x) A_{m-1}, summed one row
chunk at a time, so no sparse product is formed, and its values, bounded
by m!, are stored in the narrowest signed type that holds m!.  The digest
that fixes the primes reads those arrays a chunk at a time, widened to
int64.  numpy is imported only by these exterior ranks.  The quadratic
cover, where only the degree-two relations are imposed, is exact on a word
basis: degree m is spanned by a basis word of degree m - 1 times a letter,
at most ``QUADRATIC_SIZE_LIMIT`` of them, and its relation rows are
reduced by the one exact kernel, ``linalg._eliminate``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence, Union

from .cyclotomic import ONE, ZERO, Cyclotomic, Scalar, as_cyc
from .groups import TABLE_III, ClassCalculus, DiagnosticError, FiniteGroup, class_frames, orbits
from . import linalg
from .linalg import ExactMatrix

if TYPE_CHECKING:
    import numpy as np


#: Largest degree the antisymmetrizer builders accept by default.
DEFAULT_DEGREE_CAP = 6

#: Exterior ranks are exact when the tensor space is at most this large,
#: modular above.
AUTO_EXACT_LIMIT = 256

#: Largest spanning set (n times the previous quadratic dimension) accepted.
QUADRATIC_SIZE_LIMIT = 4096

#: Products summed and sorted together while a braided factorial is built.
_CHUNK = 2**14


class ScaleCapError(DiagnosticError, RuntimeError):
    """Refusal to build matrices beyond the supported scale."""


# ---------------------------------------------------------------------------
# functions on the group
# ---------------------------------------------------------------------------


class GroupFunction(NamedTuple):
    """An element of the function algebra, as values on group elements."""

    values: tuple[Cyclotomic, ...]

    @classmethod
    def from_values(cls, values: Sequence[Scalar]) -> "GroupFunction":
        return cls(tuple(as_cyc(v) for v in values))

    @classmethod
    def constant(cls, order: int, value: Scalar = 1) -> "GroupFunction":
        return cls((as_cyc(value),) * order)

    @classmethod
    def delta(cls, order: int, g: int) -> "GroupFunction":
        return cls(tuple(ONE if i == g else ZERO for i in range(order)))

    @classmethod
    def zero(cls, order: int) -> "GroupFunction":
        return cls((ZERO,) * order)

    def is_zero(self) -> bool:
        return not any(self.values)

    def is_constant(self) -> bool:
        return all(v == self.values[0] for v in self.values)

    def __add__(self, other: "GroupFunction") -> "GroupFunction":
        return GroupFunction(tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "GroupFunction") -> "GroupFunction":
        return GroupFunction(tuple(a - b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "GroupFunction":
        return GroupFunction(tuple(-a for a in self.values))

    def __mul__(self, other: Union["GroupFunction", Scalar]) -> "GroupFunction":
        if isinstance(other, GroupFunction):
            return GroupFunction(
                tuple(a * b for a, b in zip(self.values, other.values))
            )
        s = as_cyc(other)
        return GroupFunction(tuple(a * s for a in self.values))

    def __rmul__(self, other: Scalar) -> "GroupFunction":
        return self.__mul__(other)

    def pointwise_inverse(self) -> "GroupFunction":
        if any(not v for v in self.values):
            raise ZeroDivisionError("function vanishes somewhere; not a unit")
        return GroupFunction(tuple(v.inverse() for v in self.values))


def right_translate(group: FiniteGroup, g: int, f: GroupFunction) -> GroupFunction:
    """(R_g f)(h) = f(h g), read off column g of the table."""
    return GroupFunction(tuple(f.values[row[g]] for row in group.table))


# ---------------------------------------------------------------------------
# forms: one-forms, two-forms and the tensor square
# ---------------------------------------------------------------------------


class Form(NamedTuple):
    """sum_i f_i b_i over a fixed left basis, the coefficient functions on the left.

    The basis b_i is e_a for one-forms, the degree-two basis of
    ``omega2_basis`` for two-forms, and e_a (x) e_b at index a * n + b for
    the tensor square of the one-forms.
    """

    coeffs: tuple[GroupFunction, ...]

    @classmethod
    def zero(cls, order: int, size: int) -> "Form":
        return cls((GroupFunction.zero(order),) * size)

    @classmethod
    def constant(cls, order: int, values: Sequence[Scalar]) -> "Form":
        return cls(tuple(GroupFunction.constant(order, v) for v in values))

    def vector(self) -> list[Cyclotomic]:
        """The coefficients flattened, basis index slowest, group point fastest."""
        return [v for f in self.coeffs for v in f.values]

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.coeffs)

    def __add__(self, other: "Form") -> "Form":
        return Form(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Form") -> "Form":
        return Form(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Form":
        return Form(tuple(-a for a in self.coeffs))

    def scale(self, s: Scalar) -> "Form":
        s = as_cyc(s)
        return Form(tuple(f * s for f in self.coeffs))

    def left_mul(self, f: GroupFunction) -> "Form":
        return Form(tuple(f * g for g in self.coeffs))

    def apply(self, mat: ExactMatrix) -> "Form":
        """The left-linear map f_i -> sum_j mat[i][j] f_j, skipping zero columns.

        A form with no coefficients carries no group order; its image has
        empty coefficient functions, which read as zero.
        """
        zero = GroupFunction.zero(len(self.coeffs[0].values) if self.coeffs else 0)
        out = [zero] * mat.rows
        for j, f in enumerate(self.coeffs):
            if f.is_zero():
                continue
            for i, row in enumerate(mat.data):
                if row[j]:
                    out[i] = out[i] + f * row[j]
        return Form(tuple(out))


def form_json(group: FiniteGroup, labels: Sequence[str], form: Form) -> dict:
    """The report form: nonzero coefficients by basis label, each by its nonzero values."""
    return {
        label: {group.names[g]: v for g, v in enumerate(f.values) if v}
        for label, f in zip(labels, form.coeffs)
        if not f.is_zero()
    }


def e_form(c: ClassCalculus, a: Union[int, str]) -> Form:
    """The basis one-form attached to a class element."""
    pos = c.position(a) if isinstance(a, str) else a
    return Form.constant(c.group.order, [ONE if i == pos else ZERO for i in range(c.n)])


def theta(c: ClassCalculus) -> Form:
    """The sum of all basis one-forms; generates d by graded commutator."""
    return Form.constant(c.group.order, [ONE] * c.n)


def right_mul(group: FiniteGroup, w: Form, f: GroupFunction, products: Sequence[int]) -> Form:
    """w * f = sum_i w_i R_{p_i}(f) b_i, p_i = products[i] the product of b_i's letters.

    e_a f = R_a(f) e_a moves f past one letter at a time; the products are
    ``c.elements`` for one-forms and ``omega2_basis(c).prod_elem`` for two-forms.
    """
    return Form(tuple(g * right_translate(group, p, f) for g, p in zip(w.coeffs, products)))


# ---------------------------------------------------------------------------
# braiding
# ---------------------------------------------------------------------------


class BraidData:
    """The braiding as a permutation of the n^2 tensor-basis pairs, from ``calculus``.

    It compares and hashes by (n, perm) alone, which fix the factorials,
    ranks and quadratic tower, so the caches keyed on it serve every class
    with the same labelled braiding.
    """

    __slots__ = ("n", "perm", "calculus")

    def __init__(self, n: int, perm: tuple[int, ...], calculus: ClassCalculus):
        self.n, self.perm, self.calculus = n, perm, calculus  # perm[(a,b)]: row of column (a,b)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BraidData) and (self.n, self.perm) == (other.n, other.perm)

    def __hash__(self) -> int:
        return hash((self.n, self.perm))


@lru_cache(maxsize=None)
def braiding(c: ClassCalculus) -> BraidData:
    """e_a (x) e_b -> e_{a b a^-1} (x) e_a, as a basis permutation."""
    n = c.n
    perm = [0] * (n * n)
    for a in range(n):
        for b in range(n):
            perm[a * n + b] = c.ad(a, b) * n + a
    return BraidData(n, tuple(perm), c)


@lru_cache(maxsize=None)
def braid_cycles(c: ClassCalculus) -> tuple[tuple[int, ...], ...]:
    """The braiding's cycles on the tensor indices a * n + b (see ``groups.orbits``)."""
    return tuple(orbits([braiding(c).perm], c.n * c.n))


@lru_cache(maxsize=None)
def degree2_relations(c: ClassCalculus) -> tuple[tuple[Cyclotomic, ...], ...]:
    """Echelonized basis of ker(id - braiding): the degree-two relations.

    A vector is fixed by the permutation exactly when it is constant on
    every cycle, so the basis is the indicators of ``braid_cycles``.
    """
    size = c.n * c.n
    cycles = map(set, braid_cycles(c))
    return tuple(tuple(ONE if q in cycle else ZERO for q in range(size)) for cycle in cycles)


# ---------------------------------------------------------------------------
# the degree-two basis and the wedge quotient
# ---------------------------------------------------------------------------


class Omega2Basis(NamedTuple):
    """A complement of the relation space inside the tensor square.

    The basis pairs leave out exactly one pair of every braiding cycle.  A
    tensor t is sum_p r_p e_p plus a multiple of each cycle's indicator, and
    the multiple is t at the cycle's left-out pair, so r_p = t[p] - t[left_out[p]].
    """

    pairs: tuple[tuple[int, int], ...]  # class-position pairs (a, b)
    left_out: tuple[int, ...]  # tensor index of the pair each pair's cycle leaves out
    prod_elem: tuple[int, ...]  # group element a*b per basis pair

    @property
    def dim(self) -> int:
        return len(self.pairs)


def tableiii_assignment(c: ClassCalculus) -> tuple[int, int, int, int] | None:
    """Class positions (t, x, y, z) realizing the third product table."""
    return next((frame for frame, verdict in class_frames(c) if verdict == TABLE_III), None)


@lru_cache(maxsize=None)
def omega2_basis(c: ClassCalculus) -> Omega2Basis:
    """Fixed basis of the degree-two component.

    For a four-element class with the third product table the basis is the
    standard eight wedges (t,x),(t,y),(t,z),(x,t),(y,t),(x,y),(y,z),(x,z),
    provided they leave out exactly one pair of every braiding cycle;
    otherwise it is every pair but the least of each cycle, which are the
    pivots of the relations' reduced form.
    """
    n = c.n
    cycles = braid_cycles(c)
    indices = sorted(q for cycle in cycles for q in cycle[1:])
    assign = tableiii_assignment(c)
    if assign is not None:
        t, x, y, z = assign
        wedges = [(t, x), (t, y), (t, z), (x, t), (y, t), (x, y), (y, z), (x, z)]
        frame = [a * n + b for a, b in wedges]
        if all(len(set(cycle).difference(frame)) == 1 for cycle in cycles):
            indices = frame
    chosen = set(indices)
    cycle_of = {q: cycle for cycle in cycles for q in cycle}
    pairs = tuple(divmod(q, n) for q in indices)
    return Omega2Basis(
        pairs=pairs,
        left_out=tuple(next(r for r in cycle_of[q] if r not in chosen) for q in indices),
        prod_elem=tuple(c.products[a][b] for a, b in pairs),
    )


def basis_pair_labels(c: ClassCalculus) -> list[str]:
    basis = omega2_basis(c)
    labels = c.labels
    return [f"e_{labels[a]}^e_{labels[b]}" for a, b in basis.pairs]


def zero_two_form(c: ClassCalculus) -> Form:
    return Form.zero(c.group.order, omega2_basis(c).dim)


def tensor_of_forms(c: ClassCalculus, u: Form, v: Form) -> Form:
    """u (x) v, moving v's coefficients left: f e_a (x) h e_b = f R_a(h) e_a (x) e_b."""
    zero = GroupFunction.zero(c.group.order)
    live = [not h.is_zero() for h in v.coeffs]
    coeffs: list[GroupFunction] = []
    for g, f in zip(c.elements, u.coeffs):
        if f.is_zero():
            coeffs.extend([zero] * len(live))
        else:
            coeffs.extend(
                f * right_translate(c.group, g, h) if ok else zero for h, ok in zip(v.coeffs, live)
            )
    return Form(tuple(coeffs))


def wedge_tensor(c: ClassCalculus, t: Form) -> Form:
    """Image of a tensor under the wedge quotient map: t[p] - t[left out of p's cycle].

    Only two live coefficients are subtracted: a pair whose left-out
    coefficient is zero keeps its own, the shared zero when both are zero.
    """
    basis = omega2_basis(c)
    n = c.n
    out = []
    for (a, b), q in zip(basis.pairs, basis.left_out):
        f, g = t.coeffs[a * n + b], t.coeffs[q]
        out.append(f if g.is_zero() else -g if f.is_zero() else f - g)
    return Form(tuple(out))


def wedge(c: ClassCalculus, u: Form, v: Form) -> Form:
    """(f e_a) ^ (h e_b) = f R_a(h) [e_a e_b], reduced to the fixed basis."""
    return wedge_tensor(c, tensor_of_forms(c, u, v))


# ---------------------------------------------------------------------------
# differentials
# ---------------------------------------------------------------------------


def d0(c: ClassCalculus, f: GroupFunction) -> Form:
    """d f = theta f - f theta = sum_a (R_a f - f) e_a."""
    return Form(tuple(right_translate(c.group, a, f) - f for a in c.elements))


@lru_cache(maxsize=None)
def de_basis(c: ClassCalculus) -> tuple[Form, ...]:
    """d e_a = theta ^ e_a + e_a ^ theta for each class position."""
    return tuple(d1(c, e_form(c, a)) for a in range(c.n))


def d1(c: ClassCalculus, w: Form) -> Form:
    """d w = theta ^ w + w ^ theta: the calculus is inner, d f = theta f - f theta."""
    th = theta(c)
    return wedge(c, th, w) + wedge(c, w, th)


# ---------------------------------------------------------------------------
# braided integers, braided factorials
# ---------------------------------------------------------------------------


def _check_cap(b: BraidData, m: int, cap: int) -> None:
    if m > cap:
        raise ScaleCapError(
            f"degree {m} exceeds the configured cap {cap}",
            {
                "degree": m,
                "cap": cap,
                "matrix_side": b.n**m,
                "hint": "raise the cap explicitly to attempt larger degrees",
            },
        )


@lru_cache(maxsize=None)
def _psi_sparse(b: BraidData) -> linalg.Csr:
    """The braiding as a permutation matrix: column j holds a 1 in row perm[j]."""
    import numpy as np

    size = len(b.perm)
    perm = np.fromiter(b.perm, dtype=np.int64)
    return linalg.csr_from_entries((size, size), perm, np.arange(size), np.ones(size, dtype=np.int64))


def _letter_moves(b: BraidData, m: int) -> np.ndarray:
    """Entry [k, u] is the column of row u's one entry in term k of [m, -psi].

    [m, -psi] = sum_k (-1)^k psi_12 psi_23 ... psi_{k,k+1}, words numbered
    with the first letter most significant.  Term k is a permutation
    matrix: it moves the letter at position k + 1 to the front, conjugated
    by the prefix.  So row u holds its entry in the column of the word in
    which the first letter of u has moved back k places, past each next
    letter by one inverse braiding (row r of psi holds its entry in column
    psi^-1(r)).
    """
    import numpy as np

    n = b.n
    back = _psi_sparse(b).indices.astype(np.int64)
    words = np.arange(n**m, dtype=np.int64)
    out = np.empty((m, n**m), dtype=np.int64)
    out[0] = words
    carried = words // n ** (m - 1)  # the moving letter
    for k in range(1, m):
        low = n ** (m - 1 - k)  # place value of position k
        carried = back[carried * n + words // low % n] % n
        out[k] = words // low % n**k * (n * low) + carried * low + words % low
    return out


@lru_cache(maxsize=None)
def _bracket_sparse(b: BraidData, m: int) -> linalg.Csr:
    """[m, -psi] = id - psi_12 + psi_12 psi_23 - ..., one signed permutation per term."""
    import numpy as np

    size = b.n**m
    signs = np.repeat((-1) ** np.arange(m, dtype=np.int64), size)
    return linalg.csr_from_entries(
        (size, size), np.tile(np.arange(size), m), _letter_moves(b, m).ravel(), signs
    )


@lru_cache(maxsize=1)
def _factorial_sparse(b: BraidData, m: int) -> linalg.Csr:
    """A_m = (id (x) A_{m-1}) [m, -psi], one first-letter row block at a time.

    Right multiplication by term k of [m, -psi] moves every column c of
    id (x) A_{m-1} to ``_letter_moves(b, m)[k][c]``, so no sparse product is
    formed: each row block, in chunks of about ``_CHUNK`` products, is
    summed and sorted on its own and appended to the result.

    A_m is a sum of m! signed permutation matrices, so no entry exceeds m!
    in absolute value; the values are stored in the narrowest signed type
    that holds m! (int8 up to degree 5, int16 up to degree 7), and a chunk
    with an entry beyond m! raises ``CertificationError`` before it is
    stored.  The columns are int16 while n^m <= 2**15, int32 beyond; the
    previous degree's columns are widened before they are offset.  The
    cache keeps the last matrix built, which is the one the next degree
    reads.
    """
    import numpy as np

    n = b.n
    if m == 1:
        return _bracket_sparse(b, 1)  # A_1 = [1, -psi] = id
    prev = _factorial_sparse(b, m - 1)
    moves = _letter_moves(b, m)
    width, size = n ** (m - 1), n**m
    signs = (-1) ** np.arange(m, dtype=np.int64)[:, None]
    limit = math.factorial(m)
    # rows of A_{m-1} cut so that a chunk has about _CHUNK products
    spans = prev.row_spans(_CHUNK // m)
    # every product may survive; pages of np.empty that are never written are
    # never allocated, and the buffers shrink in place to the final count
    bound = n * m * prev.data.size
    indices = np.empty(bound, dtype=np.int16 if size <= 2**15 else np.int32)
    data = np.empty(bound, dtype=np.min_scalar_type(-limit))
    lengths = []
    filled = 0
    for a in range(n):
        for lo, hi in spans:
            s, e = prev.indptr[lo], prev.indptr[hi]
            chunk = linalg.csr_from_entries(
                (hi - lo, size),
                np.tile(prev.row_indices(lo, hi) - lo, m),
                moves[:, np.add(prev.indices[s:e], a * width, dtype=np.int64)].ravel(),
                (signs * prev.data[s:e]).ravel(),
            )
            if np.abs(chunk.data).max(initial=0) > limit:
                raise linalg.CertificationError(
                    f"an entry of the degree-{m} braided factorial exceeds {m}! = {limit}"
                )
            lengths.append(np.diff(chunk.indptr))
            indices[filled : filled + chunk.data.size] = chunk.indices
            data[filled : filled + chunk.data.size] = chunk.data
            filled += chunk.data.size
    indices.resize(filled, refcheck=False)
    data.resize(filled, refcheck=False)
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.concatenate(lengths), out=indptr[1:])
    return linalg.Csr((size, size), indptr, indices, data)


# ---------------------------------------------------------------------------
# gradings, blocks, and dimensions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _word_grading(c: ClassCalculus, m: int) -> tuple[int, ...]:
    """Group element of the product a_{i_1} ... a_{i_m} for every length-m word."""
    n = c.n
    group = c.group
    if m == 0:
        return (group.identity,)
    prev = _word_grading(c, m - 1)
    out = []
    for p in prev:
        for a in range(n):
            out.append(group.mult(p, c.elements[a]))
    return tuple(out)


def _grading_blocks(c: ClassCalculus, m: int) -> list[np.ndarray]:
    """The words of each grade, in increasing order, grades in increasing order."""
    import numpy as np

    grading = np.fromiter(_word_grading(c, m), dtype=np.int64)
    return [np.flatnonzero(grading == g) for g in sorted(set(grading.tolist()))]


def _row_entries(mat: linalg.Csr, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The given rows of mat, in order: their local indptr and the positions of their entries."""
    import numpy as np

    lengths = mat.indptr[rows + 1] - mat.indptr[rows]
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr, np.repeat(mat.indptr[rows] - indptr[:-1], lengths) + np.arange(indptr[-1])


def _block_slices(mat: linalg.Csr, blocks: list[np.ndarray]) -> Iterator[linalg.Csr]:
    """Per-block submatrices, in block order; verifies the blocks' rows stay in their block.

    Each entry of a row of a block is read once, and its column must lie
    in the same block.
    """
    import numpy as np

    side = max((idx.size for idx in blocks), default=0)
    block_of = np.full(mat.shape[0], -1, dtype=np.int64)  # word -> its block
    # word -> its place in the block, the block's column
    place = np.empty(mat.shape[0], dtype=np.int16 if side <= 2**15 else np.int32)
    for k, idx in enumerate(blocks):
        block_of[idx] = k
        place[idx] = np.arange(idx.size)
    for k, idx in enumerate(blocks):
        indptr, entries = _row_entries(mat, idx)
        cols = mat.indices[entries]
        if (block_of[cols] != k).any():
            raise linalg.CertificationError(
                "matrix does not respect the word-product block structure"
            )
        yield linalg.Csr((idx.size, idx.size), indptr, place[cols], mat.data[entries])


def _check_twin(mat: linalg.Csr, rep: linalg.Csr, image: np.ndarray) -> None:
    """Raise unless row image[r] of mat is row r of rep with every column q moved to image[q].

    The rows are compared about ``_CHUNK`` entries at a time, each mapped
    row sorted by its new columns.
    """
    import numpy as np

    for lo, hi in rep.row_spans(_CHUNK):
        s, e = rep.indptr[lo], rep.indptr[hi]
        indptr, entries = _row_entries(mat, image[lo:hi])
        cols = image[rep.indices[s:e]]
        order = np.argsort(rep.row_indices(lo, hi) << 32 | cols)  # words are below 2**31
        if not (
            np.array_equal(indptr, rep.indptr[lo : hi + 1] - s)
            and np.array_equal(cols[order], mat.indices[entries])
            and np.array_equal(rep.data[s:e][order], mat.data[entries])
        ):
            raise linalg.CertificationError("conjugate grade blocks differ")


def _orbit_blocks(
    c: ClassCalculus, m: int, mat: linalg.Csr
) -> list[tuple[linalg.Csr, int]]:
    """One grade block per conjugation orbit of grades, with the orbit size.

    Conjugation by h commutes with the braiding, so A_m commutes with the
    word permutation that conjugates every letter by h, and that permutation
    carries the block of grade g onto the block of grade h g h^-1.  Only
    the representative blocks, each orbit's first, are sliced; every row
    of every other block is checked to equal the representative's row it
    comes from under that permutation, entry for entry, so the block has
    the representative's rank in every field and respects the grading.
    """
    import numpy as np

    group = c.group
    blocks = _grading_blocks(c, m)
    grading = _word_grading(c, m)
    block_of = {grading[idx[0]]: k for k, idx in enumerate(blocks)}
    powers = c.n ** np.arange(m - 1, -1, -1)  # first letter most significant
    word_block = np.empty(c.n**m, dtype=np.int64)  # word -> its block
    for k, idx in enumerate(blocks):
        word_block[idx] = k
    twins: dict[int, tuple[int, np.ndarray]] = {}  # block -> (representative, word map)
    weights: dict[int, int] = {}  # representative -> orbit size
    for k, idx in enumerate(blocks):
        if k in twins:
            continue
        orbit = {k}
        for h in range(group.order):
            j = block_of[group.conjugate(h, grading[idx[0]])]
            if j in orbit:
                continue
            orbit.add(j)
            letter = np.array(c.conj[h])
            image = (letter[idx[:, None] // powers % c.n] * powers).sum(axis=1)
            # the letter map is a bijection, so the image has idx.size words
            if blocks[j].size != idx.size or (word_block[image] != j).any():
                raise linalg.CertificationError(
                    "conjugation does not map a grade block onto a grade block"
                )
            twins[j] = (k, image)
        weights[k] = len(orbit)
    reps = dict(zip(weights, _block_slices(mat, [blocks[k] for k in weights])))
    for k, image in twins.values():
        _check_twin(mat, reps[k], image)
    return [(reps[k], weights[k]) for k in weights]


def _sparse_digest(mat: linalg.Csr, extra: bytes) -> bytes:
    """SHA-256 of the shape, then the rows, columns and values in row-major order.

    Each part is read as int64 bytes, the entries in canonical CSR order,
    and hashed about ``_CHUNK`` entries at a time, so the matrix is never
    widened whole.
    """
    import numpy as np

    spans = mat.row_spans(_CHUNK)

    def widened(part: np.ndarray) -> Iterator[np.ndarray]:
        for lo, hi in spans:
            yield part[mat.indptr[lo] : mat.indptr[hi]].astype(np.int64)

    return linalg.content_digest(
        np.asarray(mat.shape, dtype=np.int64).tobytes(),
        (mat.row_indices(lo, hi) for lo, hi in spans),
        widened(mat.indices),
        widened(mat.data),
        extra,
    )


def exterior_dimension_info(
    c: ClassCalculus, m: int, cap: int = DEFAULT_DEGREE_CAP
) -> tuple[int, dict]:
    """Dimension plus a record of how it was computed (method, primes)."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    if m == 0:
        return 1, {"method": "exact"}
    if m == 1:
        return c.n, {"method": "exact"}
    b = braiding(c)
    _check_cap(b, m, cap)
    rank, primes = _exterior_rank(b, m)
    if not primes:
        return rank, {"method": "exact"}
    return rank, {"method": "modular-certified", "primes": list(primes)}


def _respects(src: BraidData, dst: BraidData, sigma: Sequence[int]) -> bool:
    """Whether sigma, one-to-one, carries src's braiding onto dst's wherever it is defined."""
    n, k = src.n, len(sigma)
    return dst.n == n and len(set(sigma)) == k and all(
        dst.perm[sigma[q // n] * n + sigma[q % n]] == sigma[r // n] * n + sigma[r % n]
        for q, r in enumerate(src.perm) if max(q // n, q % n, r // n) < k
    )


def _rack_isomorphism(src: BraidData, dst: BraidData) -> tuple[int, ...] | None:
    """A letter bijection s with s(a > b) = s(a) > s(b), a > b = perm[a n + b] // n, or None.

    Backtracking maps the letters in order, each onto one whose b -> a > b has
    the same cycle type, while ``_respects`` accepts the partial map: at the
    last letter, on all n^2 pairs.
    """
    n = src.n
    if dst.n != n:
        return None
    kinds = [[sorted(map(len, orbits([[q // n for q in b.perm[a * n : a * n + n]]], n)))
              for a in range(n)] for b in (src, dst)]

    def extend(sigma: list[int]) -> tuple[int, ...] | None:
        if len(sigma) == n:
            return tuple(sigma)
        for s in ([*sigma, y] for y in range(n) if kinds[1][y] == kinds[0][len(sigma)]):
            if _respects(src, dst, s) and (found := extend(s)):
                return found
        return None

    return extend([])


_REPRESENTATIVES: dict = {}  # braiding -> (first isomorphic one seen, letter map from it or None)


def _representative(b: BraidData) -> tuple[BraidData, tuple[int, ...] | None]:
    if b not in _REPRESENTATIVES:
        reps = [rep for rep, (_, sigma) in _REPRESENTATIVES.items() if sigma is None]
        found = ((rep, _rack_isomorphism(rep, b)) for rep in reps)
        _REPRESENTATIVES[b] = next(((rep, s) for rep, s in found if s), (b, None))
    return _REPRESENTATIVES[b]


@lru_cache(maxsize=None)
def _reduced_factorial(rep: BraidData, m: int) -> tuple[linalg.Csr | None, int | list]:
    """(None, rank) where exact, else (A_m, a ``reduce_block`` triple per conjugation orbit)."""
    mat = _factorial_sparse(rep, m)
    cores = [(*linalg.reduce_block(block), k) for block, k in _orbit_blocks(rep.calculus, m, mat)]
    return (None, linalg.exact_rank_blocks(cores)) if rep.n**m <= AUTO_EXACT_LIMIT else (mat, cores)


def _relabelled(mat: linalg.Csr, sigma: Sequence[int], m: int) -> linalg.Csr:
    """mat with each word, row and column, relabelled letter by letter, in canonical CSR order."""
    import numpy as np

    words = np.zeros(1, dtype=np.int64)
    for _ in range(m):
        words = (words[:, None] * len(sigma) + np.array(sigma)).ravel()
    return linalg.csr_from_entries(mat.shape, words[mat.row_indices()], words[mat.indices], mat.data)


@lru_cache(maxsize=None)
def _exterior_rank(b: BraidData, m: int) -> tuple[int, tuple[int, ...]]:
    """The rank of A_m and the primes that certified it, none where it is exact.

    The representative's cores are ranked at the primes of b's own A_m, its A_m relabelled.
    """
    rep, sigma = _representative(b)
    mat, reduced = _reduced_factorial(rep, m)
    if mat is None:
        return reduced, ()
    mat = mat if sigma is None else _relabelled(mat, sigma, m)
    return linalg.certified_rank_blocks(reduced, _sparse_digest(mat, b"exterior"))


class _QuadraticTower:
    """The quadratic cover on a word basis, extended one degree at a time.

    Degree m is spanned by the words u.a, u a basis word of degree m - 1,
    numbered u * n + a.  The relation rows are w (x) r, for w a basis word
    of degree m - 2 and r a degree-two relation, each w.a written in its
    normal form of degree m - 1.  One ``linalg._eliminate`` call brings
    them to reduced echelon form; the spanning words that are not pivots
    are the basis.  ``forms[m]`` holds the normal form of every spanning
    word of degree m over that basis and ``dims[m]`` the size of the basis.
    """

    def __init__(self, b: BraidData):
        self.n = n = b.n
        # each relation is a cycle's indicator: a sum of pairs with coefficient 1
        self.relations = [[divmod(q, n) for q in cycle] for cycle in orbits([b.perm], n * n)]
        self.dims = [1, n]
        self.forms = [[], [{a: 1} for a in range(n)]]

    def dimension(self, m: int) -> int:
        while len(self.dims) <= m:
            self._extend()
        return self.dims[m]

    def _extend(self) -> None:
        n, m = self.n, len(self.dims)
        size = n * self.dims[m - 1]
        if size > QUADRATIC_SIZE_LIMIT:
            raise ScaleCapError(
                f"quadratic dimension refused beyond {QUADRATIC_SIZE_LIMIT} spanning words",
                {"degree": m, "spanning_set": size, "allowed": QUADRATIC_SIZE_LIMIT},
            )
        below = self.forms[m - 1]
        rows = []
        for w in range(self.dims[m - 2]):
            for rel in self.relations:
                row: dict = {}
                for a, b in rel:
                    for u, y in below[w * n + a].items():
                        row[u * n + b] = row.get(u * n + b, 0) + y
                scale = math.lcm(*(y.denominator for y in row.values()))
                rows.append({col: (y.numerator * (scale // y.denominator), 0)
                             for col, y in row.items() if y})
        pivots = linalg._eliminate(rows, True)
        basis = [col for col in range(size) if col not in pivots]
        index = {col: i for i, col in enumerate(basis)}
        forms = [{index[col]: 1} if col in index else {} for col in range(size)]
        for p, row in pivots.items():
            d = row[p][0]
            # integral values stay ints, whose arithmetic is much faster
            forms[p] = {index[f]: -x // d if x % d == 0 else Fraction(-x, d)
                        for f, (x, _) in row.items() if f != p}
        self.forms.append(forms)
        self.dims.append(len(basis))


@lru_cache(maxsize=None)
def _quadratic_tower(b: BraidData) -> _QuadraticTower:
    return _QuadraticTower(b)


def quadratic_dimension(c: ClassCalculus, m: int) -> int:
    """Degree-m dimension when only the degree-two relations are imposed."""
    if m < 2:
        raise ValueError("degree must be >= 2")
    return _quadratic_tower(_representative(braiding(c))[0]).dimension(m)


def exterior_profile(
    c: ClassCalculus, max_degree: int, cap: int = DEFAULT_DEGREE_CAP
) -> list[dict]:
    """Dimension-and-method records for degrees 0..max_degree."""
    out = []
    for m in range(max_degree + 1):
        dim, info = exterior_dimension_info(c, m, cap=cap)
        out.append({"degree": m, "dim": dim, **info})
    return out

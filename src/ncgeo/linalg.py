"""Exact linear algebra over Q(omega), plus a modular fast path.

All exact elimination is one fraction-free loop over Z[omega] on sparse
rows (``_eliminate``): each row's denominators are cleared once
(``integer_row``), a row loses its entries in the pivot columns as
p*row - f*pivot_row and is divided by the integer gcd of its entries, and
what is left becomes a pivot row, scaled so that its pivot is a rational
integer.  The exact rank is the pivot count of a forward pass; nullspace,
solve_affine and invert read the reduced row echelon form (``rref``),
whose pivot rows are divided by their pivots once.  The RREF is unique,
so solution bases are byte-stable.  The quadratic tower of ``calculus`` runs on the same loop.
Large integer matrices (antisymmetrizers at degrees 5-6), kept as numpy
arrays in canonical CSR order (``Csr``) with columns and values in narrow
integer types, are shrunk block by block (``reduce_block``) and go through rank
mod p for two deterministically chosen primes > 2**30 congruent to 1 mod
3; agreement of the two ranks is the certification contract.
``rank_mod_p`` reads the matrix a fixed number of rows at a time and keeps
only its sparse pivot rows, so it never copies the matrix.  The block
rankers take (block, weight) pairs, so a block that stands for a whole
orbit of similar blocks, checked equal by the caller, is ranked once.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

from .cyclotomic import ONE, ZERO, Cyclotomic, Scalar, as_cyc
from .groups import CertificationError

if TYPE_CHECKING:
    import numpy as np


class ExactMatrix:
    """A dense rows x cols matrix of Cyclotomic entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[list[Cyclotomic]]):
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "ExactMatrix":
        data = [[as_cyc(v) for v in row] for row in rows]
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        if any(len(row) != ncols for row in data):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, data)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [[ZERO] * cols for _ in range(rows)])

    # -- access ------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Cyclotomic:
        i, j = key
        return self.data[i][j]

    def to_json(self) -> list[list[Cyclotomic]]:
        """The rows, for a JSON encoder that serialises each entry by its own ``to_json``."""
        return self.data

    def column(self, j: int) -> list[Cyclotomic]:
        return [self.data[i][j] for i in range(self.rows)]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "ExactMatrix":
        data = [[self.data[i][j] for j in col_idx] for i in row_idx]
        return ExactMatrix(len(row_idx), len(col_idx), data)

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "ExactMatrix":
        data = [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return ExactMatrix(self.cols, self.rows, data)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_shape(other)
        return ExactMatrix(
            self.rows,
            self.cols,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_shape(other)
        return ExactMatrix(
            self.rows,
            self.cols,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, [[-v for v in row] for row in self.data])

    def scale(self, s: Scalar) -> "ExactMatrix":
        s = as_cyc(s)
        return ExactMatrix(self.rows, self.cols, [[s * v for v in row] for row in self.data])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = other.transpose().data
        out = []
        for row in self.data:
            out_row = []
            for col in ot:
                acc = ZERO
                for a, b in zip(row, col):
                    if a and b:
                        acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return ExactMatrix(self.rows, other.cols, out)

    def matvec(self, vec: Sequence[Scalar]) -> list[Cyclotomic]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        v = [as_cyc(x) for x in vec]
        out = []
        for row in self.data:
            acc = ZERO
            for a, b in zip(row, v):
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"

    def _check_shape(self, other: "ExactMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(not v for row in self.data for v in row)


class AffineSpace(NamedTuple):
    """A solution set: particular point plus a basis of homogeneous directions."""

    particular: tuple[Cyclotomic, ...]
    basis: tuple[tuple[Cyclotomic, ...], ...] = ()

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def point(self, coeffs: Sequence[Scalar]) -> list[Cyclotomic]:
        """particular + sum_i coeffs[i] * basis[i]."""
        if len(coeffs) != len(self.basis):
            raise ValueError("coefficient count mismatch")
        out = list(self.particular)
        for c, vec in zip(coeffs, self.basis):
            c = as_cyc(c)
            if not c:
                continue
            for i, v in enumerate(vec):
                if v:
                    out[i] = out[i] + c * v
        return out


# ---------------------------------------------------------------------------
# exact elimination over Z[omega]
# ---------------------------------------------------------------------------

#: a row of Z[omega] entries a + b*omega, as column -> (a, b), nonzero only
SparseRow = dict[int, tuple[int, int]]


def integer_row(row: Sequence[Cyclotomic]) -> SparseRow:
    """The row times the lcm of its denominators, split into a + b*omega parts."""
    triples = [v.triple() for v in row]
    lcm = math.lcm(*(d for _, _, d in triples))
    return {
        j: (a * (lcm // d), b * (lcm // d)) for j, (a, b, d) in enumerate(triples) if a or b
    }


def _times(x: SparseRow, a: int, b: int) -> SparseRow:
    """The row times a + b*omega."""
    q = a - b
    # (a + b*w)(u + v*w) = (au - bv) + (bu + av - bv)w
    return {c: (a * u - b * v, b * u + q * v) for c, (u, v) in x.items()}


def _primitive(x: SparseRow) -> SparseRow:
    """The row divided by the integer gcd of its entries."""
    g = math.gcd(*(e for entry in x.values() for e in entry))
    if g > 1:
        return {c: (a // g, b // g) for c, (a, b) in x.items()}
    return x


def _cancel(x: SparseRow, y: SparseRow, col: int) -> SparseRow:
    """p*x - f*y for p = y[col] and f = x[col], divided by the integer gcd of its entries."""
    out = _times(x, *y[col])
    fa, fb = x[col]
    fq = fa - fb
    for c, (s, t) in y.items():
        u, v = out.get(c, (0, 0))
        a, b = u - fa * s + fb * t, v - fb * s - fq * t
        if a or b:
            out[c] = (a, b)
        else:
            del out[c]
    return _primitive(out)


def _eliminate(rows: Iterable[SparseRow], reduce: bool) -> dict[int, SparseRow]:
    """Fraction-free elimination over Z[omega]; returns the rows by pivot column.

    Rows are taken one at a time.  A row loses its entries in the pivot
    columns found so far, smallest first, through ``_cancel``, until it has
    none; what is left, if anything, becomes a pivot row on its smallest
    column.  With ``reduce`` every earlier pivot row loses the new pivot
    column too, so the pivot rows span the row space in reduced echelon
    form, up to the scaling of each row.  Zero rows and repeated rows
    reduce to nothing.

    A new pivot row is multiplied by the conjugate of its pivot, so every
    pivot is a rational integer.  Then a factor of Z[omega] that the
    entries of a row share turns into its norm, an integer that the gcd
    division removes; with irrational pivots such factors pile up, and
    the entries grow to millions of bits within a few hundred updates.
    """
    pivots: dict[int, SparseRow] = {}
    # with reduce: column -> pivot columns whose rows have held it; a row
    # that has since lost the column is skipped
    holders: dict[int, set[int]] = {}
    for x in rows:
        while hits := sorted(c for c in x if c in pivots):
            for col in hits:
                if col in x:
                    x = _cancel(x, pivots[col], col)
        if not x:
            continue
        p = min(x)
        pa, pb = x[p]
        if pb:
            x = _primitive(_times(x, pa - pb, -pb))
        if reduce:
            # no row gains column p again, as every later row is cleared of it;
            # a row that loses p gains columns of x only
            touched = [q for q in holders.pop(p, ()) if p in pivots[q]]
            for q in touched:
                pivots[q] = _cancel(pivots[q], x, p)
            touched.append(p)
            for c in x:
                if c != p:
                    holders.setdefault(c, set()).update(touched)
        pivots[p] = x
    return pivots


def rank(m: ExactMatrix) -> int:
    """Rank over Q(omega): the pivot count of a forward elimination."""
    return len(_eliminate(map(integer_row, m.data), False))


def exact_rank_blocks(blocks: Iterable) -> int:
    """Exact sum of weight * rank over (integer block, weight) pairs.

    Each block is shrunk by ``reduce_block`` first.
    """
    total = 0
    for block, weight in blocks:
        peeled, core = reduce_block(block)
        rows = ({j: (v, 0) for j, v in enumerate(row) if v} for row in core.tolist())
        total += weight * (peeled + len(_eliminate(rows, False)))
    return total


def rref(m: ExactMatrix) -> tuple[list[list[Cyclotomic]], list[int]]:
    """Reduced row echelon form: its nonzero rows and their (ascending) pivot columns.

    The form is unique for the row space, so it does not depend on the
    order, repetition or scaling of the rows of m.
    """
    reduced = _eliminate(map(integer_row, m.data), True)
    pivots = sorted(reduced)
    make = Cyclotomic.from_triple
    out = []
    for col in pivots:
        x = reduced[col]
        p = x[col][0]  # a nonzero integer: pivots are rational
        s = 1 if p > 0 else -1
        row = [ZERO] * m.cols
        for c, (u, v) in x.items():
            row[c] = make(s * u, s * v, s * p)
        out.append(row)
    return out, pivots


def _free_basis(
    rows: list[list[Cyclotomic]], pivots: list[int], ncols: int
) -> list[list[Cyclotomic]]:
    """One kernel vector per non-pivot column of an RREF, read off its rows."""
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[f] = ONE
        for row, p in zip(rows, pivots):
            if row[f]:
                vec[p] = -row[f]
        basis.append(vec)
    return basis


def nullspace(m: ExactMatrix) -> list[list[Cyclotomic]]:
    """Deterministic echelonized basis of the right kernel of m."""
    rows, pivots = rref(m)
    return _free_basis(rows, pivots, m.cols)


def solve_affine(a: ExactMatrix, b: Sequence[Scalar]) -> Optional[AffineSpace]:
    """Full solution set of a @ x = b, or None when inconsistent."""
    if len(b) != a.rows:
        raise ValueError("rhs length mismatch")
    aug = [list(r) + [as_cyc(v)] for r, v in zip(a.data, b)]
    rows, pivots = rref(ExactMatrix(a.rows, a.cols + 1, aug))
    if pivots and pivots[-1] == a.cols:
        return None
    particular = [ZERO] * a.cols
    for row, p in zip(rows, pivots):
        particular[p] = row[a.cols]
    basis = _free_basis(rows, pivots, a.cols)
    return AffineSpace(tuple(particular), tuple(tuple(v) for v in basis))


def invert(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square matrix; raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = [list(r) + [ONE if i == j else ZERO for j in range(n)] for i, r in enumerate(m.data)]
    rows, pivots = rref(ExactMatrix(n, 2 * n, aug))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return ExactMatrix(n, n, [row[n:] for row in rows])


# ---------------------------------------------------------------------------
# modular rank path
# ---------------------------------------------------------------------------


#: Rows of a matrix that ``rank_mod_p`` reduces together.
_BATCH = 64


def _clear(x: np.ndarray, col: int, cols: np.ndarray, vals: np.ndarray, p: int) -> None:
    """Subtract from each row of x, in place, its entry in col times a pivot row.

    The pivot row has the values ``vals`` in the columns ``cols`` and 1 in
    col; only the rows with a nonzero entry in col change.
    """
    import numpy as np

    hit = np.flatnonzero(x[:, col])
    if hit.size:
        hit = hit[:, None]
        update = x[hit, col] * vals
        np.subtract(x[hit, cols], update, out=update)
        update %= p
        x[hit, cols] = update


def rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank of an integer matrix mod p (int64 elimination, 2 <= p < 2**31).

    Residues below 2**31 keep every product of two of them inside int64.
    The rows are read ``_BATCH`` at a time into an int64 batch that is
    reduced in place: first by the pivot rows found so far, in the order
    they were found, then row by row, each nonzero row becoming a pivot row
    that clears its pivot column from the rows after it.  A pivot row is
    kept by its nonzero columns and values, both int32, its pivot scaled
    to 1; it was itself reduced by every older pivot row, so it is zero in
    their columns and no later reduction brings back an entry cleared
    before.  Besides the matrix, which is not copied, only one batch, the
    pivot rows and one update of at most a batch's size are held.
    """
    import numpy as np

    if not 2 <= p < 2**31:
        raise ValueError(f"modulus {p} is outside [2, 2**31)")
    a = np.asarray(a)
    nrows, ncols = a.shape
    pivots: list[tuple[int, np.ndarray, np.ndarray]] = []  # (column, columns, values)
    for lo in range(0, nrows, _BATCH):
        if len(pivots) == ncols:
            break
        x = a[lo : lo + _BATCH].astype(np.int64)
        x %= p
        for col, cols, vals in pivots:
            _clear(x, col, cols, vals, p)
        for i in range(x.shape[0]):
            cols = np.flatnonzero(x[i]).astype(np.int32)
            if cols.size:
                col = int(cols[0])
                vals = (x[i, cols] * pow(int(x[i, col]), p - 2, p) % p).astype(np.int32)
                _clear(x[i + 1 :], col, cols, vals, p)
                pivots.append((col, cols, vals))
    return len(pivots)


#: Miller-Rabin with bases 2, 3, 5, 7 decides primality below this bound,
#: the least strong pseudoprime to all four bases.
MILLER_RABIN_LIMIT = 3_215_031_751


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < MILLER_RABIN_LIMIT."""
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def deterministic_primes(digest: bytes, count: int = 2) -> tuple[int, ...]:
    """Distinct primes = 1 mod 3 in (2**30, 2**31), fixed by the digest."""
    import random

    rng = random.Random(int.from_bytes(digest, "big"))
    found: list[int] = []
    while len(found) < count:
        cand = rng.randrange(2**30 + 2, 2**31)
        cand -= (cand - 1) % 3
        if cand <= 2**30 or cand in found:
            continue
        if is_prime(cand):
            found.append(cand)
    return tuple(found)


def content_digest(*parts) -> bytes:
    """SHA-256 of the concatenated parts.

    A part is bytes, a C-contiguous array, or an iterator of them, hashed
    piece by piece.
    """
    import hashlib

    h = hashlib.sha256()
    for part in parts:
        for piece in part if isinstance(part, Iterator) else (part,):
            h.update(piece)
    return h.digest()


def _distinct_lines(
    lines: np.ndarray, others: np.ndarray, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep the entries of the first line of each class of equal-up-to-sign lines.

    A line is a row (or a column) of a matrix given by its nonzero entries
    (line index, index along the line, value), ordered by line and then
    along the line; negating a value must not wrap.  Lines are compared by
    exact keys after scaling each by the sign of its first entry.
    """
    import numpy as np

    if not lines.size:
        return lines, others, vals
    starts = np.flatnonzero(np.concatenate(([True], lines[1:] != lines[:-1])))
    ends = np.append(starts[1:], lines.size)
    signed = vals * np.repeat(np.sign(vals[starts]), ends - starts)
    seen: set[bytes] = set()
    keep = np.zeros(lines.size, dtype=bool)
    for s, e in zip(starts.tolist(), ends.tolist()):
        key = others[s:e].tobytes() + signed[s:e].tobytes()
        if key not in seen:
            seen.add(key)
            keep[s:e] = True
    del signed
    return lines[keep], others[keep], vals[keep]


class Csr(NamedTuple):
    """A sparse integer matrix as numpy arrays in canonical CSR order.

    Row i holds the entries ``indptr[i]:indptr[i + 1]`` of ``indices``
    (columns, increasing) and ``data`` (values, all nonzero).  Columns are
    int32 as ``csr_from_entries`` builds them, or int16 where the width is
    at most 2**15, as in the braided factorials and grade blocks of
    ``calculus``.  Values are of any signed integer type: int64 as
    ``csr_from_entries`` sums them, or the narrowest type that a proven
    bound on them allows.  Readers widen what they compute with: under
    NumPy 2 an int16 array plus a Python int stays int16, and wraps or
    raises past 32,767.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def row_indices(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """The row of every entry of rows lo to hi (all rows by default)."""
        import numpy as np

        hi = self.shape[0] if hi is None else hi
        return np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(self.indptr[lo : hi + 1]))

    def row_spans(self, entries: int) -> list[tuple[int, int]]:
        """Consecutive row ranges (lo, hi) that cover the rows, about ``entries`` entries each.

        The rows are cut at the row of every ``entries``-th entry, so a
        range holds at most one row more than that.
        """
        import numpy as np

        cuts = np.searchsorted(self.indptr, np.arange(0, self.data.size, max(1, entries)), "right")
        cuts = np.concatenate(([0], cuts - 1, [self.shape[0]]))  # nondecreasing
        cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))].tolist()
        return list(zip(cuts[:-1], cuts[1:]))


def csr_from_entries(shape: tuple[int, int], rows, cols, vals) -> Csr:
    """The matrix whose entries at repeated positions sum; zeros are dropped.

    One sort orders the entries: each is packed into a single int64 key,
    row above column above value, so equal positions end up adjacent.
    """
    import numpy as np

    nrows, ncols = shape
    span = int(np.abs(vals).max(initial=0))  # values lie in [-span, span]
    vbits = (2 * span).bit_length()
    cbits = max(ncols - 1, 0).bit_length()
    if ncols > 2**31 or nrows << (cbits + vbits) > 2**63:
        raise OverflowError(f"{nrows} x {ncols} entries up to {span} do not pack into int64")
    key = np.left_shift(rows, cbits + vbits, dtype=np.int64)
    key |= np.left_shift(cols, vbits, dtype=np.int64)
    key += vals
    key += span  # the low bits now hold vals + span, in [0, 2**vbits)
    key.sort()
    place = key >> vbits  # row << cbits | column
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(place[1:], place[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    key &= (1 << vbits) - 1
    key -= span
    sums = np.add.reduceat(key, starts) if starts.size else key
    keep = sums != 0
    place = place[starts][keep]
    indptr = np.searchsorted(place, np.arange(nrows + 1, dtype=np.int64) << cbits)
    return Csr(shape, indptr, (place & ((1 << cbits) - 1)).astype(np.int32), sums[keep])


def reduce_block(block) -> tuple[int, np.ndarray]:
    """Shrink an integer matrix to a core with the same rank up to a count.

    ``block`` is a 2-D integer array or a ``Csr``.  Returns ``(peeled,
    core)`` with rank(block) = peeled + rank(core) over Q and modulo every
    prime:

    * a row whose only nonzero entry is +-1 makes its column a pivot in every
      field; the column is counted and deleted, repeatedly;
    * then zero rows and columns, and rows and columns equal to another one
      or to its negative, are dropped;
    * the dense core, of the block's value type, is oriented to be at most
      as wide as it is tall.

    The entries are held as int32 rows and the block's own column and
    value types (a value type whose minimum occurs is widened, so that no
    negation wraps), and every lookup by row or column goes through a
    boolean or int32 table of the block's side.
    """
    import numpy as np

    if isinstance(block, Csr):
        nrows, ncols = block.shape
        rows = np.repeat(np.arange(nrows, dtype=np.int32), np.diff(block.indptr))
        cols, vals = block.indices, block.data
    else:
        block = np.asarray(block)
        nrows, ncols = block.shape
        rows, cols = (x.astype(np.int32) for x in np.nonzero(block))
        vals = block[rows, cols]
    if vals.size and vals.min() == np.iinfo(vals.dtype).min:
        vals = vals.astype(np.int64)
    peeled = 0
    while True:
        unit = (np.bincount(rows, minlength=nrows) == 1)[rows]
        unit &= (vals == 1) | (vals == -1)
        pivot = np.zeros(ncols, dtype=bool)
        pivot[cols[unit]] = True
        del unit
        count = int(np.count_nonzero(pivot))
        if not count:
            break
        peeled += count
        keep = ~pivot[cols]
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        del keep
    # dropping a column equal to +-another cannot make two rows equal up to
    # sign, nor the reverse, so one pass each way leaves no redundant line
    rows, cols, vals = _distinct_lines(rows, cols, vals)
    # the entries are in row-major order; a stable sort by column makes
    # them column-major, one array reordered at a time
    order = np.argsort(cols, kind="stable")
    rows = rows[order]
    cols = cols[order]
    vals = vals[order]
    del order
    cols, rows, vals = _distinct_lines(cols, rows, vals)
    (height, ri), (width, ci) = _renumber(rows, nrows), _renumber(cols, ncols)
    core = np.zeros((height, width), dtype=vals.dtype)
    core[ri, ci] = vals
    if core.shape[1] > core.shape[0]:
        core = core.T
    return peeled, core


def _renumber(index: np.ndarray, size: int) -> tuple[int, np.ndarray]:
    """The count of distinct values of an index below size, and each entry's rank among them."""
    import numpy as np

    present = np.zeros(size, dtype=bool)
    present[index] = True
    after = np.cumsum(present, dtype=np.int32)  # distinct values up to each one
    return int(after[-1]) if size else 0, after[index] - 1


def certified_rank_blocks(
    blocks: Iterable, digest: bytes
) -> tuple[int, tuple[int, int]]:
    """Sum of weight * rank mod two deterministic primes; the sums must agree.

    ``blocks`` holds (block, weight) pairs: each block stands for ``weight``
    blocks of a block-diagonal decomposition (after row/column permutation)
    of the matrix whose rank is certified, all similar to it.  Each block is
    shrunk by ``reduce_block`` first; the digest is the caller's, taken over
    the unreduced matrix.
    """
    p1, p2 = deterministic_primes(digest)
    r1 = r2 = 0
    for block, weight in blocks:
        peeled, core = reduce_block(block)
        r1 += weight * (peeled + rank_mod_p(core, p1))
        r2 += weight * (peeled + rank_mod_p(core, p2))
    if r1 != r2:
        raise CertificationError(f"modular ranks disagree: {r1} (mod {p1}) vs {r2} (mod {p2})")
    return r1, (p1, p2)

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from ncgeo import (
    CertificationError,
    Cyclotomic,
    ExactMatrix,
    Form,
    GroupFunction,
    ScaleCapError,
    basis_pair_labels,
    braiding,
    build_group,
    class_calculus,
    cyc,
    d0,
    d1,
    de_basis,
    degree2_relations,
    e_form,
    exterior_dimension_info,
    invariant_bilinear_space,
    lift_i,
    lift_iprime,
    omega2_basis,
    quadratic_dimension,
    rank,
    theta,
    wedge,
)
from ncgeo import calculus, linalg
from ncgeo.cli import run
from ncgeo.calculus import (
    _block_slices,
    _bracket_sparse,
    _factorial_sparse,
    _grading_blocks,
    _orbit_blocks,
    _sparse_digest,
    _word_grading,
    right_mul,
    right_translate,
    wedge_tensor,
)
from ncgeo.linalg import csr_from_entries

from helpers import (
    CATALOGUE,
    CATALOGUE_CLASSES,
    counted_calls,
    csr_to_int_array,
    invariant_metrics_oracle,
    lift_i_oracle,
    lift_iprime_oracle,
    omega2_oracle,
    rank_mod_p_oracle,
    relabelled,
    relations_oracle,
)

small = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
)
cyc_vals = st.builds(Cyclotomic, small, small)


def functions(order):
    return st.lists(cyc_vals, min_size=order, max_size=order).map(
        GroupFunction.from_values
    )


def one_forms(c):
    return st.lists(
        functions(c.group.order), min_size=c.n, max_size=c.n
    ).map(lambda fs: Form(tuple(fs)))


# A4 t, and two classes whose degree-two basis is not the Table III frame
BIMODULE_CALCULI = [
    class_calculus(build_group(group), label)
    for group, label in (("a4", "t"), ("s3", "(12)"), ("sl2z3", "0121"))
]


def one_form_times(c, w, f):
    return right_mul(c.group, w, f, c.elements)


def two_form_times(c, w, f):
    return right_mul(c.group, w, f, omega2_basis(c).prod_elem)


# ---------------------------------------------------------------------------
# independent oracles for the braided antisymmetrizer
# ---------------------------------------------------------------------------


def _psi_dense(c):
    b = braiding(c)
    size = len(b.perm)
    mat = np.zeros((size, size), dtype=np.int64)
    for q, target in enumerate(b.perm):
        mat[target, q] = 1
    return mat


def _psi_slot(c, m, i):
    n = c.n
    psi = _psi_dense(c)
    return np.kron(
        np.eye(n**i, dtype=np.int64),
        np.kron(psi, np.eye(n ** (m - 2 - i), dtype=np.int64)),
    )


def _bubble_word(perm):
    arr = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                word.append(i)
                changed = True
    return word


def signed_word_antisymmetrizer(c, m):
    """Sum over permutations of signed braiding words (reduced words)."""
    n = c.n
    size = n**m
    slots = [_psi_slot(c, m, i) for i in range(m - 1)]
    total = np.zeros((size, size), dtype=np.int64)
    for sigma in itertools.permutations(range(m)):
        word = _bubble_word(sigma)
        mat = np.eye(size, dtype=np.int64)
        for i in word:
            mat = mat @ slots[i]
        total += (-1) ** len(word) * mat
    return total


@pytest.mark.parametrize("m", [2, 3, 4])
def test_antisymmetrizer_matches_signed_word_sum_a4(a4_c, m):
    got = _factorial_sparse(braiding(a4_c), m)
    expected = signed_word_antisymmetrizer(a4_c, m)
    assert csr_to_int_array(got).tolist() == expected.tolist()


@pytest.mark.parametrize("m", [2, 3])
def test_antisymmetrizer_matches_signed_word_sum_s3(s3_c, m):
    got = _factorial_sparse(braiding(s3_c), m)
    expected = signed_word_antisymmetrizer(s3_c, m)
    assert csr_to_int_array(got).tolist() == expected.tolist()


def test_braided_integer_degree_two(a4_c):
    b = braiding(a4_c)
    got = csr_to_int_array(_bracket_sparse(b, 2))
    expected = np.eye(16, dtype=np.int64) - _psi_dense(a4_c)
    assert got.tolist() == expected.tolist()


def test_braiding_is_a_permutation_satisfying_braid_relation(a4_c, s3_c):
    for c in (a4_c, s3_c):
        psi12 = _psi_slot(c, 3, 0)
        psi23 = _psi_slot(c, 3, 1)
        lhs = psi12 @ psi23 @ psi12
        rhs = psi23 @ psi12 @ psi23
        assert lhs.tolist() == rhs.tolist()


def test_relation_count_equals_braiding_cycle_count(a4_c, s3_c):
    # ker(id - P) for a permutation P has one dimension per cycle
    for c in (a4_c, s3_c):
        perm = braiding(c).perm
        seen = set()
        cycles = 0
        for start in range(len(perm)):
            if start in seen:
                continue
            cycles += 1
            q = start
            while q not in seen:
                seen.add(q)
                q = perm[q]
        assert len(degree2_relations(c)) == cycles


def test_degree2_relations_are_the_nullspace_of_id_minus_braiding():
    # the cycle indicators must be the echelonized nullspace basis, in its order
    for key, element in CATALOGUE_CLASSES:
        c = class_calculus(CATALOGUE[key], element)
        assert degree2_relations(c) == relations_oracle(c)


@pytest.mark.parametrize(
    "key, element", CATALOGUE_CLASSES, ids=[f"{key}-{element}" for key, element in CATALOGUE_CLASSES]
)
def test_degree_two_geometry_matches_the_elimination_oracles(key, element):
    # the basis pairs, the wedge quotient, both lifts and the invariant
    # metrics, read off orbits, equal what elimination gives
    c = class_calculus(CATALOGUE[key], element)
    pairs, reduction = omega2_oracle(c)
    assert list(omega2_basis(c).pairs) == pairs
    size, order = c.n * c.n, c.group.order
    for q in range(size):
        unit = Form.constant(order, [cyc(1) if r == q else cyc(0) for r in range(size)])
        assert wedge_tensor(c, unit) == Form.constant(order, reduction.column(q))
    assert lift_i(c) == lift_i_oracle(c, pairs)
    assert lift_iprime(c) == lift_iprime_oracle(c, pairs)
    assert invariant_bilinear_space(c) == invariant_metrics_oracle(c)


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------


def test_a4_exterior_dimensions(a4_c):
    dims = [exterior_dimension_info(a4_c, m)[0] for m in range(7)]
    assert dims == [1, 4, 8, 11, 12, 12, 11]


def test_a4_dimension_methods(a4_c):
    for m in range(5):
        _, info = exterior_dimension_info(a4_c, m)
        assert info["method"] == "exact"
    for m in (5, 6):
        _, info = exterior_dimension_info(a4_c, m)
        assert info["method"] == "modular-certified"
        assert len(info["primes"]) == 2
        for p in info["primes"]:
            assert p % 3 == 1 and 2**30 < p < 2**31


def test_s3_exterior_dimensions(s3_c):
    dims = [exterior_dimension_info(s3_c, m)[0] for m in range(6)]
    assert dims == [1, 3, 4, 3, 1, 0]


# (dim, method, primes) by degree; the primes are fixed by the digest of
# the unreduced antisymmetrizer
S4_TOWERS = {
    "(123)": [
        (1, "exact", None),
        (8, "exact", None),
        (38, "exact", None),
        (142, "modular-certified", [1988952421, 2058623341]),
        (455, "modular-certified", [1339487329, 1952121049]),
        (1308, "modular-certified", [1750314619, 1409302117]),
    ],
    "(34)": [
        (1, "exact", None),
        (6, "exact", None),
        (19, "exact", None),
        (42, "exact", None),
        (71, "modular-certified", [1899759139, 1144039651]),
        (96, "modular-certified", [1864431889, 1358331547]),
        (106, "modular-certified", [1513612273, 1971333571]),
    ],
}


@pytest.mark.parametrize("element", sorted(S4_TOWERS))
def test_s4_exterior_towers(s4, element):
    c = class_calculus(s4, element)
    tower = S4_TOWERS[element]
    got = [exterior_dimension_info(c, m) for m in range(len(tower))]
    assert [(dim, info["method"], info.get("primes")) for dim, info in got] == tower


def _with_entry(mat, row, col, value):
    """A copy of a Csr matrix with value added at (row, col)."""
    return csr_from_entries(
        mat.shape,
        np.append(mat.row_indices(), row),
        np.append(mat.indices, col),
        np.append(mat.data, value),
    )


def test_block_slices_refuse_an_entry_across_blocks(a4_c):
    mat = _factorial_sparse(braiding(a4_c), 3)
    blocks = _grading_blocks(a4_c, 3)
    slices = list(_block_slices(mat, blocks))
    assert sum(sub.data.size for sub in slices) == mat.data.size
    crossed = _with_entry(mat, blocks[0][0], blocks[1][0], 1)
    with pytest.raises(CertificationError):
        list(_block_slices(crossed, blocks))


def test_sl2z3_modular_records(sl2z3):
    c = class_calculus(sl2z3, "0121")
    got = [exterior_dimension_info(c, m) for m in (5, 6)]
    assert [(dim, info["method"], info["primes"]) for dim, info in got] == [
        (12, "modular-certified", [1329157897, 1078345453]),
        (11, "modular-certified", [1516271443, 1730694397]),
    ]


def _records(c, top):
    return (
        [exterior_dimension_info(c, m) for m in range(top + 1)],
        [quadratic_dimension(c, m) for m in range(2, top + 1)],
    )


def test_a_class_with_the_same_braiding_reuses_its_ranks(a4_c, sl2z3, monkeypatch):
    calculus._exterior_rank.cache_clear()
    calculus._quadratic_tower.cache_clear()
    c = class_calculus(sl2z3, "0121")
    assert braiding(c) == braiding(a4_c)
    first = _records(a4_c, 6)
    factorials = counted_calls(monkeypatch, calculus, "_factorial_sparse")
    ranks = counted_calls(monkeypatch, linalg, "rank_mod_p")
    assert _records(c, 6) == first
    assert factorials == [] and ranks == []
    assert calculus._quadratic_tower(braiding(c)) is calculus._quadratic_tower(braiding(a4_c))


def test_mirror_classes_are_ranked_on_their_own_braidings(a4):
    calculus._exterior_rank.cache_clear()
    t, t2 = (class_calculus(a4, name) for name in ("t", "t2"))
    assert braiding(t) != braiding(t2)
    got = [exterior_dimension_info(c, 5) for c in (t, t2)]
    assert got == [
        (12, {"method": "modular-certified", "primes": [1329157897, 1078345453]}),
        (12, {"method": "modular-certified", "primes": [1954648903, 1520325379]}),
    ]
    assert calculus._exterior_rank.cache_info().misses == 2


def test_shared_dimensions_equal_a_fresh_computation_on_every_class():
    calculus._exterior_rank.cache_clear()
    calculus._quadratic_tower.cache_clear()
    calculi = [class_calculus(CATALOGUE[key], name) for key, name in CATALOGUE_CLASSES]
    shared = [_records(c, 4) for c in calculi]
    assert len({braiding(c) for c in calculi}) < len(calculi)
    for c, want in zip(calculi, shared):
        calculus._exterior_rank.cache_clear()
        calculus._quadratic_tower.cache_clear()
        assert _records(c, 4) == want


def test_a_returned_record_is_the_callers_own(a4_c):
    dim, info = exterior_dimension_info(a4_c, 5)
    info["primes"].append(7)
    info["method"] = "exact"
    assert exterior_dimension_info(a4_c, 5) == (
        dim, {"method": "modular-certified", "primes": [1329157897, 1078345453]}
    )


def test_s4_123_ranks_one_block_per_conjugation_orbit(s4, monkeypatch):
    calculus._exterior_rank.cache_clear()
    c = class_calculus(s4, "(123)")
    rank_mod_p = linalg.rank_mod_p
    calls = []

    def counted(a, p):
        calls.append(p)
        return rank_mod_p(a, p)

    monkeypatch.setattr(linalg, "rank_mod_p", counted)
    dim, info = exterior_dimension_info(c, 5)
    assert dim == 1308
    # 12 grade blocks in 3 orbits (sizes 1, 3, 8), each ranked at both primes
    assert len(calls) == 3 * 2
    assert sorted(set(calls)) == sorted(info["primes"])


@pytest.mark.parametrize("m", [3, 4])
def test_unequal_conjugate_blocks_refuse_certification(s4, monkeypatch, capsys, m):
    calculus._exterior_rank.cache_clear()
    c = class_calculus(s4, "(34)")
    grading = _word_grading(c, m)
    # the block of the largest grade with a nontrivial orbit is not its
    # orbit's representative, the smallest grade
    idx = next(
        idx for idx in reversed(_grading_blocks(c, m))
        if len({s4.conjugate(h, grading[idx[0]]) for h in range(s4.order)}) > 1
    )
    full = _factorial_sparse(braiding(c), m)
    mutated = _with_entry(full, idx[0], idx[0], 1)
    monkeypatch.setattr(
        calculus, "_factorial_sparse",
        lambda b, k: mutated if k == m else _factorial_sparse(b, k),
    )
    with pytest.raises(CertificationError):
        exterior_dimension_info(c, m)  # exact at degree 3, modular at 4
    code = run(["extdims", "--group", "s4", "--class", "(34)", "--max-degree", str(m)])
    captured = capsys.readouterr()
    assert code != 0
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "blocks differ" in captured.err


def test_conjugate_block_with_a_moved_entry_is_refused(s4):
    c = class_calculus(s4, "(34)")
    grading = _word_grading(c, 4)
    idx = next(
        idx for idx in reversed(_grading_blocks(c, 4))
        if len({s4.conjugate(h, grading[idx[0]]) for h in range(s4.order)}) > 1
    )
    full = _factorial_sparse(braiding(c), 4)

    def columns(row):
        return full.indices[full.indptr[row] : full.indptr[row + 1]].tolist()

    # a row with a column a whose next word b in the block is not a column
    row, a, b = next(
        (row, a, b) for row in idx.tolist() for a, b in zip(idx[:-1].tolist(), idx[1:].tolist())
        if a in columns(row) and b not in columns(row)
    )
    v = full.data[full.indptr[row] + columns(row).index(a)]
    moved = _with_entry(_with_entry(full, row, a, -v), row, b, v)
    # the row keeps its length and its values in order: only a column differs
    assert np.array_equal(moved.indptr, full.indptr)
    assert np.array_equal(moved.data, full.data)
    with pytest.raises(CertificationError, match="blocks differ"):
        _orbit_blocks(c, 4, moved)


def _lexsort_digest(shape, entries, extra):
    """Oracle for the prime digest: the entries sorted by (row, col)."""
    rows, cols, vals = (np.array(x, dtype=np.int64) for x in zip(*entries))
    order = np.lexsort((cols, rows))
    return linalg.content_digest(
        np.asarray(shape, dtype=np.int64).tobytes(),
        rows[order].tobytes(),
        cols[order].tobytes(),
        vals[order].tobytes(),
        extra,
    )


def test_sparse_digest_reads_canonical_csr_order(a4_c):
    # row 0 lists its columns out of order; row 2 holds (2, 3) as -3 + 1
    # and (1, 2) as 4 - 4, which cancels
    mat = csr_from_entries(
        (3, 4),
        np.array([0, 0, 1, 2, 2, 2, 1, 1]),
        np.array([3, 0, 1, 3, 0, 3, 2, 2]),
        np.array([5, -1, 3, -3, 7, 1, 4, -4]),
    )
    entries = [(0, 0, -1), (2, 3, -2), (0, 3, 5), (1, 1, 3), (2, 0, 7)]
    assert mat.indptr.tolist() == [0, 2, 3, 5]
    assert _sparse_digest(mat, b"x") == _lexsort_digest((3, 4), entries, b"x")
    # against the oracle: scipy's product, read in lexsort order
    big = _scipy_factorial(braiding(a4_c), 5).tocoo()
    entries = list(zip(big.row.tolist(), big.col.tolist(), big.data.tolist()))
    want = _lexsort_digest(big.shape, entries, b"exterior")
    assert _sparse_digest(_factorial_sparse(braiding(a4_c), 5), b"exterior") == want


def _scipy_bracket(b, m):
    """Oracle: [m, -psi] = id - psi_12 (id (x) [m-1, -psi]) by scipy products."""
    n = b.n
    if m == 1:
        return sp.identity(n, dtype=np.int64, format="csr")
    size = n * n
    psi = sp.csr_matrix(
        (np.ones(size, dtype=np.int64), (np.array(b.perm), np.arange(size))),
        shape=(size, size),
    )
    psi12 = sp.kron(psi, sp.identity(n ** (m - 2), dtype=np.int64), format="csr")
    shifted = sp.kron(sp.identity(n, dtype=np.int64), _scipy_bracket(b, m - 1), format="csr")
    return sp.identity(n**m, dtype=np.int64, format="csr") - psi12 @ shifted


def _scipy_factorial(b, m):
    """Oracle: A_m = (id (x) A_{m-1}) [m, -psi] by scipy products."""
    n = b.n
    if m == 1:
        return sp.identity(n, dtype=np.int64, format="csr")
    shifted = sp.kron(sp.identity(n, dtype=np.int64), _scipy_factorial(b, m - 1), format="csr")
    return shifted @ _scipy_bracket(b, m)


def _assert_same_entries(got, want):
    want = want.tocsr()
    want.sum_duplicates()
    want.eliminate_zeros()
    assert got.shape == want.shape
    assert got.indptr.tolist() == want.indptr.tolist()
    assert got.indices.tolist() == want.indices.tolist()
    assert got.data.tolist() == want.data.tolist()


@pytest.mark.parametrize("group, element, top", [
    ("a4", "t", 5), ("s3", "(12)", 5), ("sl2z3", "0121", 5),
    ("s4", "(34)", 5), ("s4", "(123)", 4),
])
def test_numpy_factorials_equal_the_scipy_products(group, element, top):
    b = braiding(class_calculus(build_group(group), element))
    for m in range(1, top + 1):
        _assert_same_entries(_bracket_sparse(b, m), _scipy_bracket(b, m))
        _assert_same_entries(_factorial_sparse(b, m), _scipy_factorial(b, m))


@pytest.mark.parametrize("group, element, top", [
    ("a4", "t", 6), ("s4", "(34)", 5), ("s4", "(123)", 5), ("s4", "(34)", 6),
])
def test_factorial_entries_lie_within_m_factorial(group, element, top):
    b = braiding(class_calculus(build_group(group), element))
    for m in range(2, top + 1):
        mat = _factorial_sparse(b, m)
        # the narrowest signed type that holds m!
        assert mat.data.dtype == (np.int8 if m <= 5 else np.int16)
        assert np.abs(mat.data.astype(np.int64)).max() <= math.factorial(m)
        # int16 columns up to 2**15 words; S4 (34) degree 6 (6**6 words) is
        # built from int16 degree-5 columns offset by up to 5 * 6**5 > 2**15
        assert mat.indices.dtype == (np.int16 if b.n**m <= 2**15 else np.int32)


def test_factorial_entry_beyond_m_factorial_is_refused(a4_c, monkeypatch):
    b = braiding(a4_c)
    prev = _factorial_sparse(b, 3)
    data = prev.data.astype(np.int64)
    data[0] = 10**6
    monkeypatch.setattr(calculus, "_factorial_sparse", lambda _b, _m: prev._replace(data=data))
    with pytest.raises(CertificationError):
        _factorial_sparse.__wrapped__(b, 4)


@pytest.mark.parametrize("group, element, top", [("a4", "t", 6), ("s4", "(34)", 5)])
def test_factorial_cache_holds_only_the_last_degree(group, element, top):
    calculus._exterior_rank.cache_clear()
    c = class_calculus(build_group(group), element)
    for m in range(top + 1):
        exterior_dimension_info(c, m)
    info = _factorial_sparse.cache_info()
    assert info.currsize == 1
    _factorial_sparse(braiding(c), top)  # the one the next degree reads
    assert _factorial_sparse.cache_info().hits == info.hits + 1


def test_rank_mod_p_on_the_s4_123_degree_five_cores(s4):
    c = class_calculus(s4, "(123)")
    blocks = _orbit_blocks(c, 5, _factorial_sparse(braiding(c), 5))
    cores = [linalg.reduce_block(block)[1] for block, _ in blocks]
    # the 879-wide core spans four row batches of rank_mod_p and has rank 127
    assert [core.shape for core in cores] == [(276, 276), (879, 879), (448, 448)]
    p = S4_TOWERS["(123)"][5][2][0]
    ranks = [linalg.rank_mod_p(core, p) for core in cores]
    assert ranks == [rank_mod_p_oracle(core.tolist(), p) for core in cores] == [64, 127, 76]


def test_s4_123_degree_five_blocks_reduce_and_rank_in_a_small_working_set(s4):
    c = class_calculus(s4, "(123)")
    blocks = _orbit_blocks(c, 5, _factorial_sparse(braiding(c), 5))
    p = S4_TOWERS["(123)"][5][2][0]
    for block, _ in blocks:
        tracemalloc.start()
        try:
            _, core = linalg.reduce_block(block)
            reduce_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            linalg.rank_mod_p(core, p)
            rank_extra = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the block's entries take 7 bytes each (int32 row, int16 column,
        # int8 value); the temporaries stay within 32 bytes per entry
        assert reduce_peak <= 32 * block.data.size
        if core.shape == (879, 879):
            assert rank_extra <= 1.5e6


def test_a4_quadratic_dimensions(a4_c):
    # degrees 2..5 agree with the full exterior tower
    assert [quadratic_dimension(a4_c, m) for m in range(2, 6)] == [8, 11, 12, 12]


S4_123_QUADRATIC = [1, 8, 38, 142, 456, 1316]


def test_s4_123_quadratic_tower(s4):
    c = class_calculus(s4, "(123)")
    tower = [1, c.n] + [quadratic_dimension(c, m) for m in range(2, 6)]
    assert tower == S4_123_QUADRATIC
    exterior = [dim for dim, _, _ in S4_TOWERS["(123)"]]
    # the exterior algebra's first relation beyond degree two sits in degree four
    assert [q - e for q, e in zip(tower, exterior)] == [0, 0, 0, 0, 1, 8]
    with pytest.raises(ScaleCapError) as exc:
        quadratic_dimension(c, 6)
    diag = exc.value.diagnostic
    assert (diag["degree"], diag["spanning_set"], diag["allowed"]) == (6, 8 * 1316, 4096)


def test_s4_34_quadratic_tower_equals_exterior(s4):
    c = class_calculus(s4, "(34)")
    exterior = [dim for dim, _, _ in S4_TOWERS["(34)"]]
    assert [1, c.n] + [quadratic_dimension(c, m) for m in range(2, 7)] == exterior


@pytest.mark.parametrize("group_name, element", [("a4", "t"), ("sl2z3", "0121")])
def test_quadratic_tower_is_stable_at_twelve(group_name, element):
    c = class_calculus(build_group(group_name), element)
    assert [quadratic_dimension(c, m) for m in range(4, 11)] == [12] * 7


def _stacked_relations(c, m):
    """The rows of every I (x) R (x) I in degree m, as one dense matrix."""
    n = c.n
    rows = []
    for i in range(m - 1):
        right = n ** (m - 2 - i)
        for rel in degree2_relations(c):
            for u in range(n**i):
                for v in range(right):
                    row = [cyc(0)] * n**m
                    for q, x in enumerate(rel):
                        row[(u * n * n + q) * right + v] = x
                    rows.append(row)
    return ExactMatrix.from_rows(rows)


@pytest.mark.parametrize(
    "group_name, element, top",
    [("a4", "t", 4), ("s3", "(12)", 4), ("s4", "(34)", 3)],
)
def test_quadratic_tower_matches_dense_relation_rank(group_name, element, top):
    c = class_calculus(build_group(group_name), element)
    for m in range(2, top + 1):
        want = c.n**m - rank(_stacked_relations(c, m))
        assert quadratic_dimension(c, m) == want


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_quadratic_tower_is_relabelling_invariant(a4, s3, data):
    for group, element, top in ((a4, "t", 7), (s3, "(12)", 6)):
        perm = data.draw(st.permutations(range(1, group.order)))
        c = class_calculus(build_group(relabelled(group, perm)), element)
        tower = [quadratic_dimension(c, m) for m in range(2, top + 1)]
        base = class_calculus(group, element)
        assert tower == [quadratic_dimension(base, m) for m in range(2, top + 1)]


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_exterior_dims_are_relabelling_invariant(s4, data):
    perm = data.draw(st.permutations(range(1, s4.order)))
    c = class_calculus(build_group(relabelled(s4, perm)), "(34)")
    assert [exterior_dimension_info(c, m)[0] for m in range(6)] == [1, 6, 19, 42, 71, 96]


def test_degree_cap_refusal(a4_c):
    with pytest.raises(ScaleCapError) as exc:
        exterior_dimension_info(a4_c, 7)
    diag = exc.value.diagnostic
    assert diag["degree"] == 7
    assert diag["cap"] == 6
    assert "matrix_side" in diag


def test_degree_two_matches_relations(a4_c, s3_c):
    for c in (a4_c, s3_c):
        assert (
            exterior_dimension_info(c, 2)[0]
            == c.n * c.n - len(degree2_relations(c))
        )


# ---------------------------------------------------------------------------
# first-order calculus
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_d0_leibniz(data):
    for c in BIMODULE_CALCULI:
        f = data.draw(functions(c.group.order))
        g = data.draw(functions(c.group.order))
        lhs = d0(c, f * g)
        rhs = one_form_times(c, d0(c, f), g) + d0(c, g).left_mul(f)
        assert (lhs - rhs).is_zero()


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_d_squared_is_zero(a4_c, data):
    f = data.draw(functions(a4_c.group.order))
    assert d1(a4_c, d0(a4_c, f)).is_zero()


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_d1_leibniz_left(a4_c, data):
    f = data.draw(functions(a4_c.group.order))
    w = data.draw(one_forms(a4_c))
    lhs = d1(a4_c, w.left_mul(f))
    rhs = wedge(a4_c, d0(a4_c, f), w) + d1(a4_c, w).left_mul(f)
    assert (lhs - rhs).is_zero()


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_d1_leibniz_right(data):
    for c in BIMODULE_CALCULI:
        f = data.draw(functions(c.group.order))
        w = data.draw(one_forms(c))
        lhs = d1(c, one_form_times(c, w, f))
        rhs = two_form_times(c, d1(c, w), f) - wedge(c, w, d0(c, f))
        assert (lhs - rhs).is_zero()


def test_theta_identities(a4_c, s3_c):
    for c in (a4_c, s3_c):
        th = theta(c)
        assert d1(c, th).is_zero()
        assert wedge(c, th, th).is_zero()
        des = de_basis(c)
        for a in range(c.n):
            ea = e_form(c, a)
            expected = wedge(c, th, ea) + wedge(c, ea, th)
            assert (des[a] - expected).is_zero()


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_basis_form_commutation(data):
    # e_a f = (f shifted by right translation) e_a, the shift read off the table
    for c in BIMODULE_CALCULI:
        group = c.group
        f = data.draw(functions(group.order))
        for a, g in enumerate(c.elements):
            shifted = GroupFunction(tuple(f.values[group.mult(h, g)] for h in range(group.order)))
            moved = one_form_times(c, e_form(c, a), f)
            assert (moved - e_form(c, a).left_mul(shifted)).is_zero()


def test_partial_transpose_is_square(a4, a4_c):
    # the matrix transpose of a first-order difference operator is the
    # difference operator of the squared class element
    order = a4.order

    def difference_matrix(elem):
        mat = np.zeros((order, order), dtype=np.int64)
        for g in range(order):
            mat[g, a4.mult(g, elem)] += 1
            mat[g, g] -= 1
        return mat

    for a in range(a4_c.n):
        elem = a4_c.elements[a]
        asq_elem = a4.mult(elem, elem)
        # for an order-three element the square is the inverse and lies
        # in the other four-element class
        assert asq_elem == a4.inv(elem)
        assert asq_elem not in a4_c.elements
        assert difference_matrix(elem).T.tolist() == difference_matrix(
            asq_elem
        ).tolist()


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_d0_expands_in_partials(a4_c, data):
    # the coefficient of e_a in d f is the difference (R_a - id) f, at every point
    group = a4_c.group
    f = data.draw(functions(group.order))
    w = d0(a4_c, f)
    for a, g in enumerate(a4_c.elements):
        expected = [f.values[group.mult(h, g)] - f.values[h] for h in range(group.order)]
        assert list(w.coeffs[a].values) == expected


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_right_to_left_respects_right_multiplication(a4_c, data):
    order = a4_c.group.order
    rights = [data.draw(functions(order)) for _ in range(a4_c.n)]
    f = data.draw(functions(order))

    def right_to_left(right_coeffs):
        # sum_b e_b h_b is sum_b R_b(h_b) e_b
        return Form(
            tuple(right_translate(a4_c.group, g, h) for g, h in zip(a4_c.elements, right_coeffs))
        )

    w = right_to_left(rights)
    wf = one_form_times(a4_c, w, f)
    expected = right_to_left([h * f for h in rights])
    assert (wf - expected).is_zero()


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_two_form_right_mul_is_action(data):
    for c in BIMODULE_CALCULI:
        f = data.draw(functions(c.group.order))
        g = data.draw(functions(c.group.order))
        u = data.draw(one_forms(c))
        v = data.draw(one_forms(c))
        w = wedge(c, u, v)
        assert (
            two_form_times(c, two_form_times(c, w, f), g) - two_form_times(c, w, f * g)
        ).is_zero()
        # wedge is a bimodule map
        assert (two_form_times(c, w, f) - wedge(c, u, one_form_times(c, v, f))).is_zero()


# ---------------------------------------------------------------------------
# the degree-two basis
# ---------------------------------------------------------------------------


def test_a4_basis_pairs(a4_c):
    assert basis_pair_labels(a4_c) == [
        "e_t^e_x",
        "e_t^e_y",
        "e_t^e_z",
        "e_x^e_t",
        "e_y^e_t",
        "e_x^e_y",
        "e_y^e_z",
        "e_x^e_z",
    ]


def test_basis_wedges_are_unit_vectors(a4_c):
    basis = omega2_basis(a4_c)
    for k, (a, b) in enumerate(basis.pairs):
        w = wedge(a4_c, e_form(a4_c, a), e_form(a4_c, b))
        for beta, coeff in enumerate(w.coeffs):
            if beta == k:
                assert coeff.is_constant() and coeff.values[0] == cyc(1)
            else:
                assert coeff.is_zero()


def test_diagonal_wedges_vanish(a4_c, s3_c):
    for c in (a4_c, s3_c):
        for a in range(c.n):
            assert wedge(c, e_form(c, a), e_form(c, a)).is_zero()


def test_relation_span_is_diagonals_plus_triples(a4_c):
    # frozen: the braiding-invariant subspace of the tensor square is
    # spanned by the four diagonal squares and four triple cycles
    n = a4_c.n
    lbl = {name: i for i, name in enumerate(a4_c.labels)}
    triples = [
        [("t", "x"), ("x", "z"), ("z", "t")],
        [("t", "y"), ("y", "x"), ("x", "t")],
        [("t", "z"), ("z", "y"), ("y", "t")],
        [("x", "y"), ("y", "z"), ("z", "x")],
    ]
    candidates = []
    for a in range(n):
        vec = [cyc(0)] * (n * n)
        vec[a * n + a] = cyc(1)
        candidates.append(vec)
    for triple in triples:
        vec = [cyc(0)] * (n * n)
        for a, b in triple:
            vec[lbl[a] * n + lbl[b]] = cyc(1)
        candidates.append(vec)
    # all candidates are braiding-invariant
    perm = braiding(a4_c).perm
    for vec in candidates:
        moved = [cyc(0)] * (n * n)
        for q, vq in enumerate(vec):
            moved[perm[q]] = moved[perm[q]] + vq
        assert moved == vec
    # and they are independent, so they span the 8-dimensional kernel
    from ncgeo import ExactMatrix, rank

    kernel = degree2_relations(a4_c)
    assert len(kernel) == 8
    assert rank(ExactMatrix.from_rows(candidates)) == 8


def test_omega2_reduction_kills_kernel(a4_c, s3_c):
    for c in (a4_c, s3_c):
        for vec in relations_oracle(c):
            assert wedge_tensor(c, Form.constant(c.group.order, vec)).is_zero()


def test_a_third_table_frame_that_is_no_complement_gives_the_least_pairs(a4_c, monkeypatch):
    # with y and z swapped the eight frame wedges hold the whole cycle
    # (t,x),(x,z),(z,t) and leave out two pairs of (x,y),(y,z),(z,x): they
    # are no complement of the relations, so the basis is every pair but
    # the pivots of the relations' reduced form
    t, x, y, z = calculus.tableiii_assignment(a4_c)
    monkeypatch.setattr(calculus, "tableiii_assignment", lambda c: (t, x, z, y))
    basis = omega2_basis.__wrapped__(a4_c)
    _, pivots = linalg.rref(ExactMatrix.from_rows(relations_oracle(a4_c)))
    assert basis.pairs == tuple(divmod(q, 4) for q in range(16) if q not in pivots)

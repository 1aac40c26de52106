import ast
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ncgeo import ONE, ZERO, Cyclotomic, ExactMatrix, cyc
from ncgeo.linalg import (
    _BATCH,
    MILLER_RABIN_LIMIT,
    AffineSpace,
    certified_rank_blocks,
    content_digest,
    csr_from_entries,
    deterministic_primes,
    exact_rank_blocks,
    invert,
    is_prime,
    nullspace,
    rank,
    rank_mod_p,
    reduce_block,
    rref,
    solve_affine,
)

from helpers import affine_contains, rank_mod_p_oracle, to_int_array

small_fracs = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)


def matrices(max_side=5, entries=small_fracs):
    return st.integers(min_value=1, max_value=max_side).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_side).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(ExactMatrix.from_rows)
        )
    )


cyc_entries = st.builds(
    Cyclotomic,
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3),
)


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rank_matches_sympy(m):
    sym = sympy.Matrix([[v.re for v in row] for row in m.data])
    assert rank(m) == sym.rank()


@settings(max_examples=30, deadline=None)
@given(matrices(entries=cyc_entries))
def test_rank_nullity(m):
    null = nullspace(m)
    assert rank(m) + len(null) == m.cols
    for vec in null:
        assert all(not v for v in m.matvec(vec))


@settings(max_examples=30, deadline=None)
@given(matrices(entries=cyc_entries), st.data())
def test_solve_affine_residuals(m, data):
    # build a guaranteed-consistent right-hand side
    x = data.draw(
        st.lists(cyc_entries, min_size=m.cols, max_size=m.cols)
    )
    b = m.matvec(x)
    space = solve_affine(m, b)
    assert space is not None
    assert m.matvec(list(space.particular)) == b
    for vec in space.basis:
        assert all(not v for v in m.matvec(vec))
    assert space.dimension == m.cols - rank(m)
    assert affine_contains(space, x)


@settings(max_examples=30, deadline=None)
@given(matrices(entries=cyc_entries), st.data())
def test_zero_duplicate_and_permuted_rows_change_nothing(m, data):
    x = data.draw(st.lists(cyc_entries, min_size=m.cols, max_size=m.cols))
    consistent = m.matvec(x)
    arbitrary = data.draw(st.lists(cyc_entries, min_size=m.rows, max_size=m.rows))
    zero = [Cyclotomic(0)] * m.cols
    extra = data.draw(
        st.lists(
            st.one_of(st.just(-1), st.integers(min_value=0, max_value=m.rows - 1)),
            max_size=6,
        )
    )
    rows = [(list(r), v, w) for r, v, w in zip(m.data, consistent, arbitrary)]
    rows += [(zero, Cyclotomic(0), Cyclotomic(0)) if i < 0 else rows[i] for i in extra]
    rows = data.draw(st.permutations(rows))
    grown = ExactMatrix.from_rows([r for r, _, _ in rows])
    assert nullspace(grown) == nullspace(m)
    assert solve_affine(grown, [v for _, v, _ in rows]) == solve_affine(m, consistent)
    assert solve_affine(grown, [w for _, _, w in rows]) == solve_affine(m, arbitrary)


def reference_rref(rows, ncols):
    """Gauss-Jordan on Cyclotomic entries, one field division per pivot row.

    Independent of the integer kernel; returns the nonzero RREF rows and
    their pivot columns.
    """
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        pr = len(pivots)
        piv = next((r for r in range(pr, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        inv = rows[pr][col].inverse()
        rows[pr] = [inv * v for v in rows[pr]]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != pr and f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def reference_free_basis(rows, pivots, ncols):
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = [ZERO] * ncols
            vec[f] = ONE
            for row, p in zip(rows, pivots):
                vec[p] = -row[f]
            basis.append(vec)
    return basis


def reference_solve(m, b):
    rows, pivots = reference_rref([r + [v] for r, v in zip(m.data, b)], m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    particular = [ZERO] * m.cols
    for row, p in zip(rows, pivots):
        particular[p] = row[m.cols]
    return particular, reference_free_basis(rows, pivots, m.cols)


def _triples(rows):
    return [[v.triple() for v in row] for row in rows]


qw_entries = st.one_of(
    st.just(Cyclotomic(0)),
    st.builds(
        Cyclotomic,
        st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4),
        st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4),
    ),
)


@st.composite
def degenerate_matrices(draw):
    """Wide, tall and square Q(omega) matrices, often rank-deficient.

    Besides fresh rows there are zero rows, repeated rows, scaled rows and
    sums of two earlier rows.
    """
    nrows = draw(st.integers(min_value=1, max_value=7))
    ncols = draw(st.integers(min_value=1, max_value=7))
    fresh = st.lists(qw_entries, min_size=ncols, max_size=ncols)
    rows = [draw(fresh)]
    while len(rows) < nrows:
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "scaled", "sum")))
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        j = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        if kind == "fresh":
            rows.append(draw(fresh))
        elif kind == "zero":
            rows.append([Cyclotomic(0)] * ncols)
        elif kind == "repeat":
            rows.append(list(rows[i]))
        elif kind == "scaled":
            s = draw(qw_entries.filter(bool))
            rows.append([s * v for v in rows[i]])
        else:
            rows.append([a + b for a, b in zip(rows[i], rows[j])])
    return ExactMatrix.from_rows(draw(st.permutations(rows)))


@st.composite
def sparse_matrices(draw):
    """Mostly-zero Q(omega) matrices up to 12 columns wide.

    Fresh rows hold one to three nonzero entries.  Besides them there are
    combinations of two earlier rows, which cancel to zero, and rows that
    start on a later nonzero column of an earlier row: made a pivot row,
    such a row empties that entry of the earlier one.
    """
    ncols = draw(st.integers(min_value=1, max_value=12))
    nrows = draw(st.integers(min_value=1, max_value=8))
    nonzero = qw_entries.filter(bool)

    def sparse_row(cols):
        row = [ZERO] * ncols
        for j in cols:
            row[j] = draw(nonzero)
        return row

    def fresh():
        return sparse_row(draw(st.sets(st.integers(0, ncols - 1), min_size=1, max_size=3)))

    rows = [fresh()]
    while len(rows) < nrows:
        kind = draw(st.sampled_from(("fresh", "cancel", "shared")))
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        j = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        support = [k for k, v in enumerate(rows[i]) if v]
        if kind == "fresh" or not support:
            rows.append(fresh())
        elif kind == "cancel":
            s, t = draw(nonzero), draw(nonzero)
            rows.append([s * a + t * b for a, b in zip(rows[i], rows[j])])
        else:
            k = draw(st.sampled_from(support[1:] or support))
            tail = draw(st.sets(st.integers(k, ncols - 1), max_size=2))
            rows.append(sparse_row({k, *tail}))
    return ExactMatrix.from_rows(rows)


@settings(max_examples=300, deadline=None)
@given(st.one_of(degenerate_matrices(), sparse_matrices()), st.data())
def test_integer_kernel_matches_field_gauss_jordan(m, data):
    ref_rows, ref_pivots = reference_rref(m.data, m.cols)
    rows, pivots = rref(m)
    assert pivots == ref_pivots
    assert _triples(rows) == _triples(ref_rows)
    assert rank(m) == len(ref_pivots)
    assert _triples(nullspace(m)) == _triples(reference_free_basis(ref_rows, ref_pivots, m.cols))
    x = data.draw(st.lists(qw_entries, min_size=m.cols, max_size=m.cols))
    arbitrary = data.draw(st.lists(qw_entries, min_size=m.rows, max_size=m.rows))
    for b in (m.matvec(x), arbitrary):
        space, ref = solve_affine(m, b), reference_solve(m, b)
        if ref is None:
            assert space is None
        else:
            assert _triples([space.particular]) == _triples([ref[0]])
            assert _triples(space.basis) == _triples(ref[1])
    assert reference_solve(m, m.matvec(x)) is not None
    k = min(m.rows, m.cols)
    square = m.submatrix(range(k), range(k))
    ref_rows, ref_pivots = reference_rref(
        [r + [ONE if i == j else ZERO for j in range(k)] for i, r in enumerate(square.data)],
        2 * k,
    )
    if ref_pivots[:k] == list(range(k)):
        assert _triples(invert(square).data) == _triples([r[k:] for r in ref_rows])
    else:
        with pytest.raises(ValueError):
            invert(square)


def test_solve_affine_inconsistent():
    m = ExactMatrix.from_rows([[1, 1], [1, 1]])
    assert solve_affine(m, [0, 1]) is None


def test_invert_round_trip():
    m = ExactMatrix.from_rows(
        [[1, 2, 0], [0, 1, Fraction(1, 3)], [5, 0, 1]]
    )
    assert m @ invert(m) == ExactMatrix.identity(3)
    assert invert(m) @ m == ExactMatrix.identity(3)


def test_invert_with_omega_entries():
    m = ExactMatrix.from_rows([[cyc(0, 1), 1], [1, cyc(1, 1)]])
    assert m @ invert(m) == ExactMatrix.identity(2)


def test_invert_singular():
    m = ExactMatrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        invert(m)


def test_affine_space_points():
    space = AffineSpace(
        particular=(cyc(1), cyc(0)), basis=((cyc(0), cyc(1)),)
    )
    assert space.dimension == 1
    assert space.point([cyc(7)]) == [cyc(1), cyc(7)]
    assert affine_contains(space, [cyc(1), cyc(-3)])
    assert not affine_contains(space, [cyc(2), cyc(0)])


def test_affine_space_refuses_points_of_another_length():
    # a longer point must not be judged on its prefix
    space = AffineSpace((cyc(1), cyc(2)), ((cyc(1), cyc(0)),))
    for point in ([5, 2, 99], [5]):
        with pytest.raises(ValueError, match="point length mismatch"):
            affine_contains(space, point)


def test_deterministic_primes_are_stable_and_valid():
    digest = content_digest(b"abc", b"def")
    primes = deterministic_primes(digest)
    assert primes == deterministic_primes(digest)
    for p in primes:
        assert 2**30 < p < 2**31
        assert p % 3 == 1
        assert sympy.isprime(p)
    other = deterministic_primes(content_digest(b"something else"))
    assert other != primes
    # frozen: every certified rank's "primes" field depends on these
    assert primes == (1801848553, 1360748209)
    assert deterministic_primes(content_digest(b"something else"), 3) == (
        1307783107, 1560592093, 2124417439,
    )


def test_certified_rank_blocks_matches_block_ranks():
    blocks = [
        (to_int_array(ExactMatrix.from_rows([[1, 2], [2, 4]])), 1),
        (to_int_array(ExactMatrix.from_rows([[1, 0], [0, 1]])), 1),
    ]
    total, primes = certified_rank_blocks(blocks, content_digest(b"blocks"))
    assert total == 1 + 2
    assert len(primes) == 2
    # a weight stands for that many similar blocks
    weighted, same = certified_rank_blocks(
        [(blocks[0][0], 3), (blocks[1][0], 2)], content_digest(b"blocks"))
    assert (weighted, same) == (3 * 1 + 2 * 2, primes)


@st.composite
def padded_blocks(draw):
    """Small integer blocks with redundant rows and columns and unit rows.

    Rows and columns are repeated, negated or zero; each +-1 unit row comes
    with a row that also has a nonzero entry in its column.
    """
    entries = st.integers(min_value=-2, max_value=2)
    nrows = draw(st.integers(min_value=1, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    signs = st.sampled_from((1, -1))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        j = draw(st.integers(min_value=0, max_value=ncols - 1))
        unit = [0] * ncols
        unit[j] = draw(signs)
        other = list(draw(st.sampled_from(rows)))
        other[j] = draw(st.sampled_from((-2, -1, 1, 2)))
        rows += [unit, other]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        k = draw(st.integers(min_value=-1, max_value=len(rows) - 1))
        rows.append([0] * ncols if k < 0 else [draw(signs) * v for v in rows[k]])
    cols = [list(col) for col in zip(*rows)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        k = draw(st.integers(min_value=-1, max_value=ncols - 1))
        cols.append([0] * len(rows) if k < 0 else [draw(signs) * v for v in cols[k]])
    cols = draw(st.permutations(cols))
    return np.array(draw(st.permutations(list(zip(*cols)))), dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(padded_blocks())
def test_reduce_block_keeps_rank_and_leaves_no_redundant_line(block):
    peeled, core = reduce_block(block)
    exact = sympy.Matrix(block.tolist()).rank()
    assert rank(ExactMatrix.from_rows(block.tolist())) == exact
    assert peeled + rank(ExactMatrix.from_rows(core.tolist())) == exact
    assert exact_rank_blocks([(block, 1)]) == exact
    assert exact_rank_blocks([(block, 3)]) == 3 * exact
    for p in deterministic_primes(content_digest(block.tobytes())):
        assert peeled + rank_mod_p(core, p) == rank_mod_p(block, p)
    assert core.shape[1] <= core.shape[0]
    for lines in (core, core.T):
        seen = set()
        for line in lines:
            assert line.any()
            key = (line * np.sign(line[np.flatnonzero(line)[0]])).tobytes()
            assert key not in seen
            seen.add(key)
    rows, cols = np.nonzero(block)
    sparse = csr_from_entries(block.shape, rows, cols, block[rows, cols])
    sparse_peeled, sparse_core = reduce_block(sparse)
    assert sparse_peeled == peeled
    assert np.array_equal(sparse_core, core)


def test_reduce_block_keeps_lines_that_a_wrapped_negation_would_merge():
    # negated in int8, (-1, -128) would read (1, -128), the first row
    block = np.array([[1, -128], [-1, -128]], dtype=np.int8)
    peeled, core = reduce_block(block)
    assert peeled + rank_mod_p(core, 7) == 2


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(-3, 3)),
                max_size=30))
def test_csr_from_entries_sums_repeats_and_drops_zeros(entries):
    rows, cols, vals = (np.array([e[i] for e in entries], dtype=np.int64) for i in range(3))
    mat = csr_from_entries((5, 6), rows, cols, vals)
    dense = np.zeros((5, 6), dtype=np.int64)
    np.add.at(dense, (rows, cols), vals)
    r, c = np.nonzero(dense)  # row-major
    assert mat.indptr.tolist() == [0, *np.cumsum(np.count_nonzero(dense, axis=1)).tolist()]
    assert mat.indices.tolist() == c.tolist()
    assert mat.data.tolist() == dense[r, c].tolist()
    assert np.array_equal(mat.row_indices(), r)


def test_csr_from_entries_refuses_keys_beyond_int64():
    one = np.array([1])
    assert csr_from_entries((2**20, 2**20), one, one, one).data.tolist() == [1]
    with pytest.raises(OverflowError):
        csr_from_entries((2**20, 2**20), one, one, np.array([2**30]))


def test_rank_mod_p_refuses_moduli_outside_int64_range():
    a = np.array([[1, 2], [3, 4]])
    assert rank_mod_p(a, 2**31 - 1) == 2
    for p in (-7, 0, 1, 2**31, 2**32 + 15):
        with pytest.raises(ValueError):
            rank_mod_p(a, p)


@st.composite
def low_rank_matrices(draw):
    """Products of two random integer factors, up to more than two row batches tall.

    Some rows are zeroed, and the entries come in a signed type that holds them.
    """
    nrows = draw(st.integers(min_value=1, max_value=2 * _BATCH + 60))
    ncols = draw(st.integers(min_value=1, max_value=24))
    inner = draw(st.integers(min_value=0, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = rng.integers(-3, 4, (nrows, inner)) @ rng.integers(-3, 4, (inner, ncols))
    a[rng.random(nrows) < 0.3] = 0
    return a.astype(draw(st.sampled_from((np.int8, np.int16, np.int64))))


@st.composite
def large_residue_matrices(draw):
    """Small matrices with entries just below 2**31, so products come near 2**62."""
    nrows = draw(st.integers(min_value=1, max_value=8))
    ncols = draw(st.integers(min_value=1, max_value=8))
    entries = st.integers(min_value=2**31 - 40, max_value=2**31 - 1)
    return np.array(draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                                  min_size=nrows, max_size=nrows)), dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(st.one_of(low_rank_matrices(), large_residue_matrices()),
       st.sampled_from((2, 3, 7, 1750314619, 2**31 - 1)))
def test_rank_mod_p_matches_pure_python_elimination(a, p):
    assert rank_mod_p(a, p) == rank_mod_p_oracle(a.tolist(), p)
    assert rank_mod_p(a.T, p) == rank_mod_p_oracle(a.T.tolist(), p)


# base-2 strong pseudoprimes, Carmichael numbers, strong pseudoprimes to
# bases (2, 3) and (2, 3, 5), and values around 2**30 and 2**31
PRIME_TEST_TRAPS = [
    2047, 3277, 4033, 4681, 8321, 561, 1105, 1729, 41041, 825265,
    1373653, 25326001, 3215031749, 2147483647, 2147483646, 2**30 + 3,
]


def test_is_prime_agrees_with_sympy():
    assert [n for n in range(10**5) if is_prime(n) != sympy.isprime(n)] == []
    rng = random.Random(20011)
    sample = [rng.randrange(2**30, 2**31) for _ in range(3000)]
    sample += [n | 1 for n in sample] + PRIME_TEST_TRAPS
    assert [n for n in sample if is_prime(n) != sympy.isprime(n)] == []


def test_is_prime_refuses_the_undecided_range():
    # the least strong pseudoprime to bases 2, 3, 5 and 7
    assert not sympy.isprime(MILLER_RABIN_LIMIT)
    with pytest.raises(ValueError):
        is_prime(MILLER_RABIN_LIMIT)


def _modules_loaded_after(statements, *names):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys\n{statements}\nprint([n in sys.modules for n in {names!r}])"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def _modules_loaded_by_cli_import(*names):
    return _modules_loaded_after("import ncgeo.cli", *names)


def test_cli_import_leaves_out_sympy():
    assert _modules_loaded_by_cli_import("sympy") == "[False]"


def test_cli_import_leaves_out_scipy():
    # only the exterior ranks need numpy, and they import it themselves
    names = ("numpy", "scipy", "scipy.sparse")
    for module in ("ncgeo", "ncgeo.cli"):
        assert _modules_loaded_after(f"import {module}", *names) == "[False, False, False]"


def _run_quietly(*argvs):
    runs = ", ".join(repr(argv) for argv in argvs)
    return (
        "import contextlib, io\n"
        "from ncgeo.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert [run(argv) for argv in ({runs},)] == [0] * {len(argvs)}"
    )


def test_numpy_loads_only_for_the_modular_exterior_ranks():
    exact = _run_quietly(["cohomology"], ["connections", "--mu", "3/7"])
    assert _modules_loaded_after(exact, "numpy") == "[False]"
    assert _modules_loaded_after(_run_quietly(["extdims"]), "numpy") == "[True]"
    # the braided factorials are plain numpy arrays: scipy is never loaded
    quadratic = _run_quietly(["extdims", "--quadratic"])
    assert _modules_loaded_after(quadratic, "numpy", "scipy") == "[True, False]"
    # nor numpy.ma, which a plain np.unique or np.isin would load
    s4 = _run_quietly(["extdims", "--group", "s4", "--class", "(123)", "--max-degree", "5"])
    for statements in (quadratic, s4):
        assert _modules_loaded_after(statements, "numpy", "numpy.ma") == "[True, False]"


# each entry point loads only the layers its work runs
LAYERS = ("cyclotomic", "groups", "linalg", "calculus", "riemann", "dirac", "cohomology", "cli")


def _layers_loaded_after(statements, *layers):
    return _modules_loaded_after(statements, *(f"ncgeo.{layer}" for layer in layers))


def _perfbench_cli_setup():
    """The set-up statement that perfbench/run.py times on the cli-a4 workload."""
    run_py = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "run.py")
    with open(run_py, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CLI_SETUP":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no CLI_SETUP")


def test_package_import_loads_no_submodule():
    assert _layers_loaded_after("import ncgeo", *LAYERS) == str([False] * len(LAYERS))


def test_cli_import_loads_only_groups_and_cyclotomic():
    heavy = ("ncgeo.calculus", "ncgeo.linalg", "ncgeo.riemann", "ncgeo.dirac",
             "ncgeo.cohomology", "dataclasses", "hashlib")
    for statements in ("import ncgeo.cli", _perfbench_cli_setup()):
        assert _modules_loaded_after(statements, *heavy) == str([False] * len(heavy))
    assert _layers_loaded_after("import ncgeo.cli", "cyclotomic", "groups") == "[True, True]"


def test_each_command_loads_only_its_layers():
    extdims = _run_quietly(["extdims"])
    assert _layers_loaded_after(extdims, "riemann", "dirac", "cohomology") == "[False, False, False]"
    connections = _run_quietly(["connections", "--mu", "3/7"])
    assert _layers_loaded_after(connections, "riemann", "dirac", "cohomology") == "[True, False, False]"

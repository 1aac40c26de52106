import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncgeo import (
    Cyclotomic,
    ExactMatrix,
    FOURIER_LABELS,
    GroupSpecError,
    OMEGA,
    builtin_reps,
    casimir_action,
    chi_operator,
    chirality_gamma,
    build_group,
    class_calculus,
    conjugacy_classes,
    cyc,
    dirac_eigenbasis,
    dirac_operator,
    fourier_decompose,
    fourier_reconstruct,
    gamma_matrices,
    laplacian,
    metric_from_mu,
    rank,
    right_multiplication,
    verify_spectrum,
)
from ncgeo import dirac, riemann
from ncgeo.cli import run
from ncgeo.cyclotomic import as_cyc
from ncgeo.dirac import casimir_element, dirac_candidates

from helpers import counted_calls, relabelled, to_int_array

W_SIGNS = {
    # off-diagonal blocks of the free operator, frozen sign patterns
    # over the class order (t, x, y, z)
    (0, 2): [1, -1, -1, 1],
    (1, 0): [1, -1, 1, -1],
    (2, 1): [1, 1, -1, -1],
}


GROUP_NAMES = ("a4", "s3", "s4", "sl2z3", "klein")


def _right_translation(group, elem):
    order = group.order
    rows = [[0] * order for _ in range(order)]
    for g in range(order):
        rows[g][group.mult(g, elem)] = 1
    return ExactMatrix.from_rows(rows)


def _partial(group, elem):
    return _right_translation(group, elem) - ExactMatrix.identity(group.order)


def _kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    rows = []
    for i in range(a.rows):
        for k in range(b.rows):
            rows.append(
                [
                    a.data[i][j] * b.data[k][l]
                    for j in range(a.cols)
                    for l in range(b.cols)
                ]
            )
    return ExactMatrix.from_rows(rows)


def _block(m: ExactMatrix, i: int, j: int, size: int) -> ExactMatrix:
    idx_r = [i * size + r for r in range(size)]
    idx_c = [j * size + c for c in range(size)]
    return m.submatrix(idx_r, idx_c)


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


def test_rep_dimensions(a4):
    reps = builtin_reps(a4)
    assert sorted(reps) == ["W", "rho", "rho_bar", "trivial"]
    assert reps["trivial"].dim == 1
    assert reps["rho"].dim == 1
    assert reps["rho_bar"].dim == 1
    assert reps["W"].dim == 3
    # the squares of the irreducible dimensions fill the group order
    assert sum(r.dim**2 for r in reps.values()) == 12


def test_reps_are_homomorphisms(a4):
    reps = builtin_reps(a4)
    for rep in reps.values():
        assert rep(a4.identity) == ExactMatrix.identity(rep.dim)
        for g in range(12):
            for h in range(12):
                assert rep(a4.mult(g, h)) == rep(g) @ rep(h)


def test_reps_are_irreducible_by_character_norm(a4):
    reps = builtin_reps(a4)
    for rep in reps.values():
        total = cyc(0)
        for g in range(12):
            tr = sum(
                (rep(g).data[i][i] for i in range(rep.dim)), cyc(0)
            )
            total = total + tr * tr.conjugate()
        assert total == cyc(12)


def test_rho_conjugate_pair(a4):
    reps = builtin_reps(a4)
    for g in range(12):
        assert reps["rho_bar"](g).data[0][0] == reps["rho"](g).data[0][0].conjugate()


# ---------------------------------------------------------------------------
# gamma matrices and the operator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mu", [0, Fraction(1, 3)])
def test_casimir_is_scalar(a4_c, mu):
    metric = metric_from_mu(a4_c, mu)
    cas = casimir_action(a4_c, metric)
    scalar = cyc(4) * (cyc(1) + cyc(4) * cyc(mu)).inverse()
    assert cas == ExactMatrix.identity(3).scale(scalar)


@pytest.mark.parametrize("mu", [0, Fraction(1, 3)])
def test_gamma_sum(a4_c, mu):
    metric = metric_from_mu(a4_c, mu)
    gammas = gamma_matrices(a4_c, metric)
    total = gammas[0]
    for g in gammas[1:]:
        total = total + g
    scalar = cyc(-4) * (cyc(1) + cyc(4) * cyc(mu)).inverse()
    assert total == ExactMatrix.identity(3).scale(scalar)


@pytest.mark.parametrize("mu", [0, Fraction(1, 3)])
def test_gamma_anticommutator(a4, a4_c, mu):
    metric = metric_from_mu(a4_c, mu)
    gammas = gamma_matrices(a4_c, metric)
    reps = builtin_reps(a4)
    w = reps["W"]
    lam = (cyc(1) + cyc(4) * cyc(mu)).inverse()
    for a in range(4):
        for b in range(4):
            ga, gb = gammas[a], gammas[b]
            lhs = (
                ga @ gb
                + gb @ ga
                + (ga + gb).scale(cyc(2) * lam)
                + ExactMatrix.identity(3).scale(cyc(2) * lam * lam)
            )
            ea, eb = a4_c.elements[a], a4_c.elements[b]
            rhs = w(a4.mult(ea, eb)) + w(a4.mult(eb, ea))
            assert lhs == rhs


@pytest.mark.parametrize("mu", [0, Fraction(1, 3)])
def test_dirac_equals_translations_contracted_with_gamma(a4, a4_c, mu):
    metric = metric_from_mu(a4_c, mu)
    D = dirac_operator(a4_c, metric)
    gammas = gamma_matrices(a4_c, metric)
    total = ExactMatrix.zeros(36, 36)
    for a in range(4):
        total = total + _kron(gammas[a], _partial(a4, a4_c.elements[a]))
    total = total - ExactMatrix.identity(36).scale(cyc(4))
    assert D == total


def test_dirac_block_structure(a4, a4_c):
    D = dirac_operator(a4_c)
    d0m = right_multiplication(a4, dict.fromkeys(a4_c.elements, 1))
    for i in range(3):
        for j in range(3):
            block = _block(D, i, j, 12)
            if i == j:
                assert block == -d0m
            elif (i, j) in W_SIGNS:
                assert block == right_multiplication(a4, dict(zip(a4_c.elements, W_SIGNS[(i, j)])))
            else:
                assert block.is_zero()


def test_translation_blocks_are_permutations():
    for name in GROUP_NAMES + ("cyclic(5)",):
        group = build_group(name)
        for g in range(group.order):
            mat = right_multiplication(group, {g: 1})
            assert mat == _right_translation(group, g)
            arr = to_int_array(mat)
            assert arr.sum(axis=0).tolist() == [1] * group.order
            assert arr.sum(axis=1).tolist() == [1] * group.order


def _product(group, x, y):
    """x y in the group algebra, zero coefficients dropped."""
    out = {}
    for h, a in x.items():
        for k, b in y.items():
            g = group.mult(h, k)
            out[g] = out.get(g, cyc(0)) + as_cyc(a) * as_cyc(b)
    return {g: v for g, v in out.items() if v}


def _random_element(group, rnd):
    return {
        g: cyc(Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)), rnd.randint(-2, 2))
        for g in rnd.sample(range(group.order), min(group.order, 5))
    }


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_right_multiplication_is_multiplicative(name):
    group = build_group(name)
    rnd = random.Random(23)
    for _ in range(3):
        x, y = _random_element(group, rnd), _random_element(group, rnd)
        product = right_multiplication(group, x) @ right_multiplication(group, y)
        assert product == right_multiplication(group, _product(group, x, y))


def _a4_classes():
    a4 = build_group("a4")
    perm = list(range(1, 12))
    random.Random(7).shuffle(perm)
    shuffled = build_group(relabelled(a4, perm))
    return [class_calculus(a4, "t"), class_calculus(a4, "t2"), class_calculus(shuffled, "t")]


@pytest.mark.parametrize("mu", [0, Fraction(3, 7)])
@pytest.mark.parametrize("which", range(3), ids=("t", "t2", "relabelled"))
def test_laplacian_and_casimir_read_one_element(which, mu):
    c = _a4_classes()[which]
    group, metric, e = c.group, metric_from_mu(c, mu), c.group.identity
    z = casimir_element(c, metric)
    # z multiplied out in the group algebra, and the Laplacian as n^2 dense products
    want, dense = {}, ExactMatrix.zeros(12, 12)
    for a, ga in enumerate(c.elements):
        for b, gb in enumerate(c.elements):
            s = metric.eta_inv.data[a][b]
            for g, v in _product(group, {ga: 1, e: -1}, {gb: 1, e: -1}).items():
                want[g] = want.get(g, cyc(0)) + s * v
            dense = dense - (_partial(group, ga) @ _partial(group, gb)).scale(s)
    assert {g: v for g, v in z.items() if v} == {g: v for g, v in want.items() if v}
    box = laplacian(c, metric)
    assert box == right_multiplication(group, {g: -v for g, v in z.items()})
    assert box == dense
    w = builtin_reps(group)["W"]
    rho_z = ExactMatrix.zeros(3, 3)
    for g, v in z.items():
        rho_z = rho_z + w(g).scale(v)
    assert casimir_action(c, metric) == rho_z


@pytest.mark.parametrize("mu", [0, Fraction(3, 7)])
@pytest.mark.parametrize("name", GROUP_NAMES)
def test_casimir_element_is_central(name, mu):
    group = build_group(name)
    for members in conjugacy_classes(group)[1:]:
        c = class_calculus(group, members[0])
        z = {g: v for g, v in casimir_element(c, metric_from_mu(c, mu)).items() if v}
        for g in range(group.order):
            assert _product(group, z, {g: 1}) == _product(group, {g: 1}, z), (name, c.labels, g)


def test_d0_squared_is_translation_by_squares(a4, a4_c):
    d0m = right_multiplication(a4, dict.fromkeys(a4_c.elements, 1))
    total = ExactMatrix.zeros(12, 12)
    for a in range(4):
        sq = a4.mult(a4_c.elements[a], a4_c.elements[a])
        total = total + _right_translation(a4, sq)
    assert d0m @ d0m == total.scale(cyc(4))


def test_mu_shift_law(a4_c):
    mu = Fraction(1, 3)
    D0 = dirac_operator(a4_c)
    Dmu = dirac_operator(a4_c, metric_from_mu(a4_c, mu))
    s = cyc(4) * cyc(mu) * (cyc(1) + cyc(4) * cyc(mu)).inverse()
    d0m = right_multiplication(a4_c.group, dict.fromkeys(a4_c.elements, 1))
    shift = _kron(
        ExactMatrix.identity(3),
        (d0m - ExactMatrix.identity(12).scale(cyc(4))).scale(s),
    )
    assert Dmu == D0 + shift
    # the two pieces commute
    assert D0 @ shift == shift @ D0


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def _expected_dirac_spectrum():
    out = {cyc(0): 18}
    for k in (4, -4):
        for npow in range(3):
            out[cyc(k) * OMEGA**npow] = 3
    return out


def test_dirac_spectrum_at_zero(a4_c):
    D = dirac_operator(a4_c)
    spec = verify_spectrum(D, list(_expected_dirac_spectrum()))
    assert spec == _expected_dirac_spectrum()


def test_verify_spectrum_rejects_incomplete_candidates(a4_c):
    D = dirac_operator(a4_c)
    with pytest.raises(ValueError) as exc:
        verify_spectrum(D, [cyc(0), cyc(4)])
    assert "cover" in str(exc.value)


def test_verify_spectrum_ranks_each_distinct_candidate_once(a4_c, monkeypatch):
    candidates = dirac_candidates(a4_c)
    assert len(candidates) == 28 and len(set(candidates)) == 7
    ranks = []
    monkeypatch.setattr(dirac.linalg, "rank", lambda m: ranks.append(m) or rank(m))
    spec = verify_spectrum(dirac_operator(a4_c), candidates)
    assert spec == _expected_dirac_spectrum() and len(ranks) == 7


def test_dirac_operator_checks_levi_civita_against_its_metric(a4_c, monkeypatch):
    metric = metric_from_mu(a4_c, Fraction(3, 7))
    calls = counted_calls(monkeypatch, riemann, "cotorsion")
    dirac_operator(a4_c, metric)
    assert [args[2].mu for args in calls] == [metric.mu]


def test_laplacian_spectrum_and_closed_form(a4_c):
    box = laplacian(a4_c)
    d0m = right_multiplication(a4_c.group, dict.fromkeys(a4_c.elements, 1))
    shifted = d0m - ExactMatrix.identity(12).scale(cyc(4))
    assert box == (shifted @ shifted).scale(cyc(Fraction(-1, 4)))
    expected = {
        cyc(0): 1,
        cyc(12) * OMEGA: 1,
        cyc(12) * OMEGA * OMEGA: 1,
        cyc(-4): 9,
    }
    assert verify_spectrum(box, list(expected)) == expected


def test_laplacian_scales_with_metric(a4_c):
    mu = Fraction(1, 2)
    box = laplacian(a4_c, metric_from_mu(a4_c, mu))
    base = laplacian(a4_c)
    scalar = (cyc(1) + cyc(4) * cyc(mu)).inverse()
    assert box == base.scale(scalar)


# ---------------------------------------------------------------------------
# eigenbasis and symmetries
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def eigenbasis(a4_c):
    return dirac_eigenbasis(a4_c)


def test_eigenbasis_covers_the_spectrum(a4_c, eigenbasis):
    assert len(eigenbasis) == 36
    counts = {}
    for lam, _ in eigenbasis:
        counts[lam] = counts.get(lam, 0) + 1
    assert counts == _expected_dirac_spectrum()


def test_eigenbasis_satisfies_eigen_equations(a4_c, eigenbasis):
    D = dirac_operator(a4_c)
    for lam, vec in eigenbasis:
        image = D.matvec(list(vec))
        assert image == [lam * v for v in vec]


def test_eigenbasis_is_independent(a4_c, eigenbasis):
    mat = ExactMatrix.from_rows([list(vec) for _, vec in eigenbasis])
    assert rank(mat) == 36


def test_chirality_squares_to_identity_and_anticommutes(a4_c):
    D = dirac_operator(a4_c)
    gamma = chirality_gamma(a4_c)
    assert gamma @ gamma == ExactMatrix.identity(36)
    assert (gamma @ D + D @ gamma).is_zero()


def test_chi_symmetry(a4_c):
    D = dirac_operator(a4_c)
    chi = chi_operator(a4_c)
    assert chi @ chi @ chi == ExactMatrix.identity(36)
    assert chi @ D == D @ chi
    # chi is built from right translation by the class witness
    rt = right_multiplication(a4_c.group, {a4_c.group.index("t"): 1})
    for (i, j) in [(0, 2), (1, 0), (2, 1)]:
        assert _block(chi, i, j, 12) == rt


def test_twist_by_one_dimensional_character(a4, a4_c):
    # multiplying by the nontrivial character intertwines the operator
    # with its omega-multiple
    reps = builtin_reps(a4)
    rho = reps["rho"]
    rho_diag = ExactMatrix.from_rows(
        [
            [
                rho(g).data[0][0] if g == h else 0
                for h in range(12)
            ]
            for g in range(12)
        ]
    )
    rho_hat = _kron(ExactMatrix.identity(3), rho_diag)
    D = dirac_operator(a4_c)
    assert D @ rho_hat == (rho_hat @ D).scale(OMEGA)


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------


def test_fourier_labels():
    assert len(FOURIER_LABELS) == 12
    assert FOURIER_LABELS[:3] == ("trivial", "rho", "rho_bar")


small = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
)
cyc_vals = st.builds(Cyclotomic, small, small)


@settings(max_examples=25, deadline=None)
@given(st.lists(cyc_vals, min_size=12, max_size=12))
def test_fourier_roundtrip(a4, values):
    coeffs = fourier_decompose(a4, values)
    assert sorted(coeffs) == sorted(FOURIER_LABELS)
    back = fourier_reconstruct(a4, coeffs)
    assert back == values


def test_fourier_of_constant(a4):
    values = [cyc(5)] * 12
    coeffs = fourier_decompose(a4, values)
    assert coeffs["trivial"] == cyc(5)
    for label in FOURIER_LABELS[1:]:
        assert not coeffs[label]


# ---------------------------------------------------------------------------
# scope by structure: any group isomorphic to A4
# ---------------------------------------------------------------------------

SPINOR_COMMANDS = (["dirac", "--spectrum"], ["dirac", "--eigenbasis"], ["fourier"], ["laplacian"])


def _report_on(capsys, argv, spec=None, path=None):
    """The report of ``argv`` on the group ``spec`` (written to ``path``), or on the builtin."""
    if spec is not None:
        path.write_text(json.dumps(spec))
        argv = [*argv, "--group", str(path)]
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    report = json.loads(out)
    assert {cert["status"] for cert in report["certifications"]} == {"ok"}
    return report["results"]


@pytest.mark.parametrize("argv", SPINOR_COMMANDS, ids=" ".join)
def test_renamed_a4_gives_the_builtin_results(a4, tmp_path, capsys, argv):
    spec = {"names": [f"g{i}" for i in range(12)], "table": [list(row) for row in a4.table]}
    renamed = _report_on(capsys, argv, spec, tmp_path / "renamed.json")
    text = re.sub(r"g(\d+)\b", lambda m: a4.names[int(m.group(1))], json.dumps(renamed))
    assert json.loads(text) == _report_on(capsys, argv)


@pytest.mark.parametrize("seed", range(3))
def test_shuffled_a4_gives_the_builtin_spectra(a4, tmp_path, capsys, seed):
    perm = list(range(1, 12))
    random.Random(seed).shuffle(perm)
    for argv in SPINOR_COMMANDS:
        results = _report_on(capsys, argv, relabelled(a4, perm), tmp_path / f"{seed}.json")
        if "spectrum" in results:
            assert results["spectrum"] == _report_on(capsys, argv)["spectrum"]


def test_spinor_layer_refuses_an_order_12_group_that_is_not_a4():
    # Z2 x Z6: order 12 with two elements of order three
    table = [[(i // 6 + j // 6) % 2 * 6 + (i + j) % 6 for j in range(12)] for i in range(12)]
    group = build_group({"names": [f"g{i}" for i in range(12)], "table": table})
    c = class_calculus(group, "g1")
    for build in (lambda: builtin_reps(group), lambda: dirac_eigenbasis(c), lambda: chi_operator(c)):
        with pytest.raises(GroupSpecError):
            build()

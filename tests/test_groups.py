import itertools
import random

import pytest
from hypothesis import given, strategies as st

from ncgeo import (
    GroupSpecError,
    TABLE_II,
    TABLE_III,
    build_group,
    class_calculus,
    class_generates,
    classify_class_products,
    conjugacy_classes,
    cyclicity_witnesses,
    generated_subgroup,
    is_cyclic_class,
)
from ncgeo.groups import OTHER, _TABLES, _cycle_name, _match_tables, axiom_violation

from helpers import (
    CATALOGUE,
    CATALOGUE_CLASSES,
    conjugacy_class_oracle,
    cycle_name_oracle,
    is_witness_oracle,
    match_tables_oracle,
    relabelled,
    subgroup_oracle,
)


def test_builtin_orders():
    assert build_group("a4").order == 12
    assert build_group("s3").order == 6
    assert build_group("s4").order == 24
    assert build_group("sl2z3").order == 24
    assert build_group("klein").order == 4
    assert build_group("cyclic(5)").order == 5


def test_every_listed_builtin_builds():
    with pytest.raises(GroupSpecError) as exc:
        build_group("foo")
    listed = exc.value.diagnostic["builtins"]
    assert listed == ["a4", "s3", "s4", "sl2z3", "klein", "cyclic(n)"]
    for name in listed:
        assert build_group(name.replace("(n)", "(3)")).names


@given(st.integers(min_value=1, max_value=12))
def test_cyclic_groups(n):
    g = build_group(f"cyclic({n})")
    assert g.order == n
    # generator has the right order
    if n > 1:
        assert g.element_order(1) == n


def test_group_axioms_on_builtins(a4, s3, s4, sl2z3):
    for g in (a4, s3, s4, sl2z3):
        assert axiom_violation(g.names, g.table) is None
        e = g.identity
        for i in range(g.order):
            assert g.mult(i, g.inv(i)) == e
            assert g.mult(g.inv(i), i) == e
            assert g.mult(e, i) == i
        for i, j, k in itertools.product(range(g.order), repeat=3):
            assert g.mult(g.mult(i, j), k) == g.mult(i, g.mult(j, k))


def test_validation_rejects_broken_rows():
    with pytest.raises(GroupSpecError) as exc:
        build_group({"names": ["e", "a"], "table": [[0, 1], [1, 1]]})
    assert "row" in exc.value.diagnostic


def test_validation_rejects_an_empty_table():
    with pytest.raises(GroupSpecError) as exc:
        build_group({"names": [], "table": []})
    assert exc.value.diagnostic == {"error": "a group needs at least its identity, element 0"}


def test_validation_rejects_nonassociative_loop():
    # a Latin square with identity and two-sided inverses that is not
    # associative; found by brute force over order-5 loops
    found = None
    base = [0, 1, 2, 3, 4]
    for perm2 in itertools.permutations(base):
        if perm2[0] != 2 or perm2[2] == 2:
            continue
        for perm3 in itertools.permutations(base):
            if perm3[0] != 3 or perm3[3] == 3:
                continue
            for perm4 in itertools.permutations(base):
                if perm4[0] != 4 or perm4[4] == 4:
                    continue
                rows = [
                    base,
                    [1, 0, 3, 4, 2],
                    list(perm2),
                    list(perm3),
                    list(perm4),
                ]
                cols_ok = all(
                    sorted(rows[i][j] for i in range(5)) == base
                    for j in range(5)
                )
                if not cols_ok:
                    continue
                inv_ok = all(
                    any(
                        rows[i][j] == 0 and rows[j][i] == 0
                        for j in range(5)
                    )
                    for i in range(5)
                )
                if not inv_ok:
                    continue
                assoc = all(
                    rows[rows[i][j]][k] == rows[i][rows[j][k]]
                    for i, j, k in itertools.product(range(5), repeat=3)
                )
                if not assoc:
                    found = rows
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    with pytest.raises(GroupSpecError) as exc:
        build_group({"names": ["e", "a", "b", "c", "d"], "table": found})
    assert "triple" in exc.value.diagnostic


def test_conjugacy_classes_partition(a4, s4, sl2z3):
    for g in (a4, s4, sl2z3):
        classes = conjugacy_classes(g)
        seen = sorted(x for cls in classes for x in cls)
        assert seen == list(range(g.order))
        for cls in classes:
            assert g.order % len(cls) == 0


def test_a4_class_structure(a4):
    classes = conjugacy_classes(a4)
    sizes = sorted(len(cls) for cls in classes)
    assert sizes == [1, 3, 4, 4]


def test_a4_t_class_is_cyclic(a4_c):
    assert list(a4_c.labels) == ["t", "x", "y", "z"]
    cyclic, witness = is_cyclic_class(a4_c)
    assert cyclic
    assert witness == "t"
    assert cyclicity_witnesses(a4_c) == ["t", "x", "y", "z"]
    assert class_generates(a4_c)


def test_a4_class_calculus_tables(a4, a4_c):
    # ad(i, j) encodes conjugation a_i a_j a_i^{-1} inside the class
    for i in range(4):
        for j in range(4):
            gi, gj = a4_c.elements[i], a4_c.elements[j]
            conj = a4.mult(a4.mult(gi, gj), a4.inv(gi))
            assert a4_c.elements[a4_c.ad(i, j)] == conj
            assert a4_c.ad_inv(i, a4_c.ad(i, j)) == j


@pytest.mark.parametrize("key", sorted(CATALOGUE))
def test_right_translation_is_a_right_action(key):
    # (R_g f)(h) = f(h g) and R_g R_h = R_{gh}; f takes a distinct value at every point
    from ncgeo.calculus import GroupFunction, right_translate

    group = CATALOGUE[key]
    f = GroupFunction.from_values(range(group.order))
    moved = [right_translate(group, g, f) for g in range(group.order)]
    for g in range(group.order):
        assert moved[g].values == tuple(f.values[group.mult(h, g)] for h in range(group.order))
        for h in range(group.order):
            assert right_translate(group, g, moved[h]) == moved[group.mult(g, h)]


def test_a4_classification_is_third_table(a4_c):
    assert classify_class_products(a4_c) == TABLE_III


def test_class_frames_drive_classification_and_the_degree_two_basis(a4, a4_c, sl2z3):
    from ncgeo.calculus import tableiii_assignment
    from ncgeo.groups import class_frames

    frames = list(class_frames(a4_c))
    # frames are distinct and each names four distinct class positions
    assert len(frames) == len({f for f, _ in frames}) > 0
    assert all(len(set(f)) == 4 for f, _ in frames)
    first_iii = next(f for f, verdict in frames if verdict == TABLE_III)
    assert tableiii_assignment(a4_c) == first_iii == (0, 1, 2, 3)
    c = class_calculus(sl2z3, "0121")
    assert {verdict for _, verdict in class_frames(c)} == {TABLE_II}
    assert tableiii_assignment(c) is None
    assert list(class_frames(class_calculus(build_group("s3"), "(12)"))) == []


def test_a4_triple_products_are_constant(a4, a4_c):
    pos = {lbl: a4_c.elements[i] for i, lbl in enumerate(a4_c.labels)}
    triples = [
        [("t", "x"), ("x", "z"), ("z", "t")],
        [("t", "y"), ("y", "x"), ("x", "t")],
        [("t", "z"), ("z", "y"), ("y", "t")],
        [("x", "y"), ("y", "z"), ("z", "x")],
    ]
    values = []
    for triple in triples:
        prods = {a4.mult(pos[a], pos[b]) for a, b in triple}
        assert len(prods) == 1
        values.append(prods.pop())
    assert len(set(values)) == 4
    # squares land exactly on the four triple values (third-table pattern)
    sq = {lbl: a4.mult(pos[lbl], pos[lbl]) for lbl in "txyz"}
    assert sq["y"] == values[0]  # y^2 = t*x value
    assert sq["z"] == values[1]  # z^2 = t*y value
    assert sq["x"] == values[2]  # x^2 = t*z value
    assert sq["t"] == values[3]  # t^2 = x*y value
    assert set(sq.values()) == set(values)


def test_sl2z3_size_four_classes_are_second_table(sl2z3):
    four_classes = [
        cls for cls in conjugacy_classes(sl2z3) if len(cls) == 4
    ]
    assert len(four_classes) == 4
    for cls in four_classes:
        c = class_calculus(sl2z3, cls[0])
        cyclic, _ = is_cyclic_class(c)
        assert cyclic
        assert classify_class_products(c) == TABLE_II


def test_a4_involution_class_is_not_cyclic(a4):
    c = class_calculus(a4, "u")
    cyclic, witness = is_cyclic_class(c)
    assert not cyclic
    assert witness is None
    assert not class_generates(c)
    sub = generated_subgroup(c)
    assert len(sub) == 4
    # the closure is the Klein four-group: every element squares to e
    for g in sub:
        assert a4.mult(g, g) == a4.identity


def test_class_calculus_unknown_label(a4):
    with pytest.raises(GroupSpecError):
        class_calculus(a4, "nope")


@pytest.mark.parametrize("index", [12, -1])
def test_class_calculus_refuses_an_index_outside_the_group(a4, index):
    with pytest.raises(GroupSpecError) as exc:
        class_calculus(a4, index)
    assert exc.value.diagnostic["element"] == index
    assert exc.value.diagnostic["order"] == 12


def test_s3_transposition_class(s3_c):
    assert s3_c.n == 3
    cyclic, _ = is_cyclic_class(s3_c)
    assert cyclic
    with pytest.raises(GroupSpecError):
        classify_class_products(s3_c)


# ---------------------------------------------------------------------------
# classes, generated subgroups, witnesses and cycle names against their
# definitions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", sorted(CATALOGUE))
def test_conjugacy_classes_are_the_classes_by_definition(key):
    group = CATALOGUE[key]
    by_definition = {tuple(conjugacy_class_oracle(group, g)) for g in range(group.order)}
    assert conjugacy_classes(group) == [list(cls) for cls in sorted(by_definition)]


@pytest.mark.parametrize(
    "key, element", CATALOGUE_CLASSES, ids=[f"{key}-{element}" for key, element in CATALOGUE_CLASSES]
)
def test_class_structure_matches_its_definition(key, element):
    group = CATALOGUE[key]
    c = class_calculus(group, element)
    members = conjugacy_class_oracle(group, group.index(element))
    witnesses = [g for g in members if is_witness_oracle(group, members, g)]
    # ascending, with the first witness moved to the front
    assert list(c.elements) == witnesses[:1] + [g for g in members if g not in witnesses[:1]]
    assert cyclicity_witnesses(c) == [group.names[g] for g in c.elements if g in witnesses]
    assert [c.elements[p] for p in c.witnesses] == [g for g in c.elements if g in witnesses]
    assert generated_subgroup(c) == subgroup_oracle(group, members)
    # the tabulated action: conjugation by every element, pair products, Ad and its inverse
    for h in range(group.order):
        assert [c.elements[j] for j in c.conj[h]] == [group.conjugate(h, b) for b in c.elements]
    for i, a in enumerate(c.elements):
        assert c.products[i] == tuple(group.mult(a, b) for b in c.elements)
        for j, b in enumerate(c.elements):
            assert c.elements[c.ad(i, j)] == group.conjugate(a, b)
            assert c.elements[c.ad_inv(i, j)] == group.conjugate(group.inv(a), b)


def test_an_onto_conjugation_map_does_not_make_a_witness():
    # the dihedral group of order 10 as the maps x -> s x + b mod 5: on its
    # reflections a -> a t a^-1 is onto, yet Ad_t has three orbits
    maps = [(s, b) for s in (1, -1) for b in range(5)]
    table = [[maps.index((s * r, (s * c + b) % 5)) for r, c in maps] for s, b in maps]
    group = build_group({"names": [f"{s}x+{b}" for s, b in maps], "table": table})
    c = class_calculus(group, "-1x+0")
    members = list(c.elements)
    assert c.n == 5
    for t in members:
        assert {group.conjugate(a, t) for a in members} == set(members)
        assert not is_witness_oracle(group, members, t)
    assert cyclicity_witnesses(c) == []


def test_cycle_names_walk_each_permutation(s4):
    assert list(s4.names) == [
        cycle_name_oracle(p) for p in sorted(itertools.permutations(range(4)))
    ]
    for perm in itertools.permutations(range(5)):
        assert _cycle_name(perm) == cycle_name_oracle(perm)
    assert _cycle_name((1, 2, 0, 4, 3)) == "(123)(45)"


def _class_profile(group):
    """(size, witness count, product table, generated subgroup order) of each class, sorted."""
    profile = []
    for cls in conjugacy_classes(group)[1:]:
        c = class_calculus(group, cls[0])
        table = classify_class_products(c) if is_cyclic_class(c)[0] and c.n == 4 else ""
        profile.append((c.n, len(cyclicity_witnesses(c)), table, len(generated_subgroup(c))))
    return sorted(profile)


def test_a4_class_profile(a4):
    assert _class_profile(a4) == [(3, 0, "", 4), (4, 4, TABLE_III, 12), (4, 4, TABLE_III, 12)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["a4", "s3", "s4", "sl2z3"])
def test_class_structure_survives_relabelling(name, seed):
    group = build_group(name)
    perm = list(range(1, group.order))
    random.Random(seed).shuffle(perm)
    assert _class_profile(build_group(relabelled(group, perm))) == _class_profile(group)


# ---------------------------------------------------------------------------
# the product-table grids against the coincidence rules
# ---------------------------------------------------------------------------


def test_table_grids_are_the_papers_tables():
    iii, ii = ("".join(_TABLES[v]) for v in (TABLE_III, TABLE_II))
    assert list(_TABLES) == [TABLE_III, TABLE_II]
    assert sorted(iii.count(letter) for letter in set(iii)) == [4, 4, 4, 4]
    off_diagonal = [q for q in range(16) if q % 5]
    assert all(ii[q] == iii[q] for q in off_diagonal)
    diagonal = [ii[q] for q in range(0, 16, 5)]
    assert len(set(diagonal)) == 4
    assert all(ii.count(letter) == 1 for letter in diagonal)


FOUR_ELEMENT_CLASSES = {"a4": ["t", "t2"], "sl2z3": ["0121", "0122", "0211", "0212"]}


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
@pytest.mark.parametrize("name", sorted(FOUR_ELEMENT_CLASSES))
def test_table_matcher_agrees_with_the_rules_on_every_class_ordering(name, seed):
    group = build_group(name)
    if seed is not None:
        perm = list(range(1, group.order))
        random.Random(seed).shuffle(perm)
        group = build_group(relabelled(group, perm))
    verdicts = set()
    for label in FOUR_ELEMENT_CLASSES[name]:
        c = class_calculus(group, label)
        assert c.n == 4
        for frame in itertools.permutations(c.elements):
            cells = [group.mult(a, b) for a in frame for b in frame]
            verdicts.add(_match_tables(cells))
            assert _match_tables(cells) == match_tables_oracle(cells)
    assert verdicts == {TABLE_III if name == "a4" else TABLE_II, OTHER}


@given(
    st.sampled_from(sorted(_TABLES)),
    st.lists(st.integers(0, 30), min_size=8, max_size=8, unique=True),
    st.integers(0, 15),
    st.integers(0, 30),
)
def test_table_matcher_agrees_with_the_rules_on_drawn_grids(verdict, values, cell, value):
    letters = "".join(_TABLES[verdict])
    cells = [values[ord(letter) - ord("A")] for letter in letters]
    assert _match_tables(cells) == match_tables_oracle(cells) == verdict
    cells[cell] = value
    assert _match_tables(cells) == match_tables_oracle(cells)

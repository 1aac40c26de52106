"""Finite groups as validated Cayley tables, plus conjugacy-class machinery.

A group is a table of index products with the identity at index 0; builtins
cover the alternating group on four letters (in the element order used by
the rest of the engine), symmetric groups on 3 and 4 letters, SL(2, Z/3),
the Klein four-group, and cyclic groups.  A ClassCalculus is one conjugacy
class with its action computed once (conjugation by every element, the pair
products and the cyclicity witnesses): the site every other module works
over.  Right translation h -> h g is column g of the table.  ``orbits`` is
the one routine that walks a permutation: the conjugacy classes are the
orbits of conjugation, the subgroup a class generates is the identity's
orbit under the table's columns at the class, t is a cyclicity witness when
Ad_t has two orbits on its class, and the S4 builtin names each element by
its orbits.  The builtins and the paper's two class product tables (letter
grids over a frame (t, x, y, z) of a four-element class) are data, each
read by one routine.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, NamedTuple, Sequence, Union


class DiagnosticError(Exception):
    """An error that carries a JSON diagnostic: {"error": message, **details}."""

    def __init__(self, message: str, diagnostic: dict | None = None):
        super().__init__(message)
        self.diagnostic = {"error": message, **(diagnostic or {})}


class GroupSpecError(DiagnosticError, ValueError):
    """Raised for malformed group descriptions."""


# linalg exports it; it lives here beside its base, DiagnosticError
class CertificationError(DiagnosticError, RuntimeError):
    """A computed certificate failed, such as two modular ranks that disagree."""


class FiniteGroup(NamedTuple):
    """A finite group: element names and the index multiplication table."""

    names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.names)

    def mult(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def conjugate(self, g: int, h: int) -> int:
        """g * h * g^-1."""
        return self.table[self.table[g][h]][self.inverse[g]]

    def power(self, g: int, k: int) -> int:
        out = self.identity
        if k < 0:
            g, k = self.inverse[g], -k
        for _ in range(k):
            out = self.table[out][g]
        return out

    def element_order(self, g: int) -> int:
        k, acc = 1, g
        while acc != self.identity:
            acc = self.table[acc][g]
            k += 1
        return k

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise GroupSpecError(
                f"unknown element label {name!r}", {"known": list(self.names)}
            ) from None


def axiom_violation(
    names: Sequence[str], table: Sequence[Sequence[int]]
) -> GroupSpecError | None:
    """The first failed group axiom of a square index table, or None.

    Index 0 must be a two-sided identity, the product associative and every
    element must have a two-sided inverse.
    """
    n = len(table)
    for j in range(n):
        if table[0][j] != j or table[j][0] != j:
            return GroupSpecError(
                "index 0 is not a two-sided identity", {"element": names[j]}
            )
    for i in range(n):
        for j in range(n):
            ij = table[i][j]
            for k in range(n):
                if table[ij][k] != table[i][table[j][k]]:
                    return GroupSpecError(
                        "associativity fails",
                        {"triple": [names[i], names[j], names[k]]},
                    )
    for i in range(n):
        inv = next((j for j in range(n) if table[i][j] == 0), None)
        if inv is None or table[inv][i] != 0:
            return GroupSpecError("missing inverse", {"element": names[i]})
    return None


def _validate(names: Sequence[str], table: Sequence[Sequence[int]]) -> FiniteGroup:
    if not isinstance(names, (list, tuple)) or not all(isinstance(x, str) for x in names):
        raise GroupSpecError("element names must be a list of strings")
    n = len(names)
    if n == 0:
        raise GroupSpecError("a group needs at least its identity, element 0")
    if len(set(names)) != n:
        raise GroupSpecError("duplicate element names", {"names": list(names)})
    rows = (list, tuple)
    if not isinstance(table, rows) or not all(isinstance(row, rows) for row in table):
        raise GroupSpecError("table must be a list of lists of integers")
    if len(table) != n or any(len(row) != n for row in table):
        raise GroupSpecError("table is not |G| x |G|", {"order": n})
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            # bool is a subclass of int, but true is not an element index
            if type(v) is not int or not 0 <= v < n:
                raise GroupSpecError(
                    "table entry out of range",
                    {"row": names[i], "col": names[j], "value": v},
                )
    for i, row in enumerate(table):
        if len(set(row)) != n:
            raise GroupSpecError("row is not a permutation", {"row": names[i]})
    for j in range(n):
        if len({table[i][j] for i in range(n)}) != n:
            raise GroupSpecError("column is not a permutation", {"col": names[j]})
    violation = axiom_violation(names, table)
    if violation is not None:
        raise violation
    inverse = [row.index(0) for row in table]
    return FiniteGroup(
        names=tuple(names),
        table=tuple(tuple(row) for row in table),
        identity=0,
        inverse=tuple(inverse),
    )


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------


def _compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """(f g)(i) = f(g(i))."""
    return tuple(f[x] for x in g)


def _perm_group(perms: Sequence[tuple[int, ...]], names: Sequence[str]) -> FiniteGroup:
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[_compose(a, b)] for b in perms] for a in perms]
    return _validate(names, table)


def _cycle_name(perm: tuple[int, ...]) -> str:
    """Cycle notation on 1..n, each cycle walked from its least point; "e" if none moves."""
    cycles = []
    for orbit in sorted(orbits([perm], len(perm))):
        if len(orbit) > 1:
            cycle = [orbit[0]]
            for _ in orbit[1:]:
                cycle.append(perm[cycle[-1]])
            cycles.append("(" + "".join(str(p + 1) for p in cycle) + ")")
    return "".join(cycles) or "e"


def _builtin_a4() -> FiniteGroup:
    e = (0, 1, 2, 3)
    u = (3, 2, 1, 0)  # (14)(23)
    v = (1, 0, 3, 2)  # (12)(34)
    w = (2, 3, 0, 1)  # (13)(24)
    t = (1, 2, 0, 3)  # (123)
    x = _compose(u, t)
    y = _compose(v, t)
    z = _compose(w, t)
    t2 = _compose(t, t)
    elems = [e, u, v, w, t, x, y, z, t2, _compose(u, t2), _compose(v, t2), _compose(w, t2)]
    names = ["e", "u", "v", "w", "t", "x", "y", "z", "t2", "ut2", "vt2", "wt2"]
    return _perm_group(elems, names)


def _builtin_s3() -> FiniteGroup:
    elems = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    names = ["e", "(12)", "(13)", "(23)", "(123)", "(132)"]
    return _perm_group(elems, names)


def _builtin_s4() -> FiniteGroup:
    elems = sorted(itertools.permutations(range(4)))
    names = [_cycle_name(p) for p in elems]
    return _perm_group(elems, names)


def _builtin_sl2z3() -> FiniteGroup:
    mats = []
    for a, b, c, d in itertools.product(range(3), repeat=4):
        if (a * d - b * c) % 3 == 1:
            mats.append((a, b, c, d))
    ident = (1, 0, 0, 1)
    mats.remove(ident)
    mats = [ident] + sorted(mats)
    idx = {m: i for i, m in enumerate(mats)}

    def mul(m1, m2):
        a, b, c, d = m1
        e_, f, g, h = m2
        return (
            (a * e_ + b * g) % 3,
            (a * f + b * h) % 3,
            (c * e_ + d * g) % 3,
            (c * f + d * h) % 3,
        )

    names = ["".join(str(v) for v in m) for m in mats]
    table = [[idx[mul(m1, m2)] for m2 in mats] for m1 in mats]
    return _validate(names, table)


def _builtin_klein() -> FiniteGroup:
    names = ["e", "u", "v", "w"]
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return _validate(names, table)


def _builtin_cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupSpecError("cyclic group order must be >= 1", {"order": n})
    names = ["e"] + ["u" if k == 1 else f"u{k}" for k in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return _validate(names, table)


_BUILTINS = {
    "a4": _builtin_a4, "s3": _builtin_s3, "s4": _builtin_s4,
    "sl2z3": _builtin_sl2z3, "klein": _builtin_klein,
}

GroupSpec = Union[str, Mapping]


def build_group(spec: GroupSpec) -> FiniteGroup:
    """Build a validated group from a builtin name or a names/table mapping."""
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name in _BUILTINS:
            return _BUILTINS[name]()
        if name.startswith("cyclic(") and name.endswith(")"):
            try:
                n = int(name[7:-1])
            except ValueError:
                raise GroupSpecError(f"bad cyclic order in {spec!r}") from None
            return _builtin_cyclic(n)
        raise GroupSpecError(
            f"unknown builtin group {spec!r}", {"builtins": [*_BUILTINS, "cyclic(n)"]}
        )
    if isinstance(spec, Mapping):
        if "names" not in spec or "table" not in spec:
            raise GroupSpecError("group spec needs 'names' and 'table' keys")
        return _validate(spec["names"], spec["table"])
    raise GroupSpecError(f"unsupported group spec type {type(spec).__name__}")


# ---------------------------------------------------------------------------
# conjugacy classes and the class calculus
# ---------------------------------------------------------------------------


def orbits(perms: Sequence[Sequence[int]], size: int) -> list[tuple[int, ...]]:
    """Orbits of 0..size-1 under the permutations, each in ascending order.

    The orbits are ordered by their largest element.  A vector is fixed by
    every permutation exactly when it is constant on every orbit, and in
    this order the orbits' indicator vectors are the basis that
    ``linalg.nullspace`` reads off the reduced form of the fixing equations.
    """
    seen = [False] * size
    out = []
    for start in range(size):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for q in orbit:
            for perm in perms:
                if not seen[perm[q]]:
                    seen[perm[q]] = True
                    orbit.append(perm[q])
        out.append(tuple(sorted(orbit)))
    return sorted(out, key=lambda orbit: orbit[-1])


def conjugacy_classes(group: FiniteGroup) -> list[list[int]]:
    """Orbits of the conjugations h -> g h g^-1; the identity's first, then by least element."""
    conj = [[group.conjugate(g, h) for h in range(group.order)] for g in range(group.order)]
    return sorted(list(orbit) for orbit in orbits(conj, group.order))


class ClassCalculus(NamedTuple):
    """A nontrivial conjugacy class a_0, ..., a_{n-1} with its action tabulated once.

    conj[g][j] is the class position of g a_j g^-1 for every group element g,
    products[i][j] the group element a_i a_j, and witnesses the positions, in
    class order, whose Ad cycles the rest of the class (``_is_witness``).
    """

    group: FiniteGroup
    elements: tuple[int, ...]  # ascending group indices, the first witness moved to the front
    conj: tuple[tuple[int, ...], ...]
    products: tuple[tuple[int, ...], ...]
    witnesses: tuple[int, ...]

    def __hash__(self) -> int:  # equal calculi have equal names and elements; no table is hashed
        return hash((self.group.names, self.elements))

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.group.names[g] for g in self.elements)

    def position(self, label: str) -> int:
        return self.elements.index(self.group.index(label))

    def ad(self, i: int, j: int) -> int:
        """Class position of a_i a_j a_i^-1."""
        return self.conj[self.elements[i]][j]

    def ad_inv(self, i: int, j: int) -> int:
        """Class position of a_i^-1 a_j a_i."""
        return self.conj[self.group.inverse[self.elements[i]]][j]


def class_calculus(group: FiniteGroup, element: Union[str, int]) -> ClassCalculus:
    """The calculus site for the conjugacy class containing the element."""
    g = group.index(element) if isinstance(element, str) else element
    if not 0 <= g < group.order:
        raise GroupSpecError(
            "element index outside the group", {"element": g, "order": group.order}
        )
    if g == group.identity:
        raise GroupSpecError("the identity class carries no calculus")
    members = next(cls for cls in conjugacy_classes(group) if g in cls)
    witnesses = [m for m in members if _is_witness(group, members, m)]
    ordered = witnesses[:1] + [m for m in members if m not in witnesses[:1]]
    place = {e: pos for pos, e in enumerate(ordered)}
    conj = tuple(tuple(place[group.conjugate(h, e)] for e in ordered) for h in range(group.order))
    products = tuple(tuple(group.mult(a, b) for b in ordered) for a in ordered)
    positions = tuple(sorted(place[w] for w in witnesses))
    return ClassCalculus(group, tuple(ordered), conj, products, positions)


def _is_witness(group: FiniteGroup, members: list[int], t: int) -> bool:
    """Does Ad_t cycle the rest of the class, with a -> Ad_a(t) a bijection?

    Ad_t fixes t, so it cycles the rest exactly when it has two orbits on the class.
    """
    ad_t = [members.index(group.conjugate(t, m)) for m in members]
    onto = {group.conjugate(a, t) for a in members} == set(members)
    return onto and len(orbits([ad_t], len(members))) == 2


def is_cyclic_class(c: ClassCalculus) -> tuple[bool, str | None]:
    """First witness (in class order) of the cyclicity condition, if any."""
    witnesses = cyclicity_witnesses(c)
    return bool(witnesses), witnesses[0] if witnesses else None


def cyclicity_witnesses(c: ClassCalculus) -> list[str]:
    """Every class element whose adjoint action cycles the rest, in class order."""
    return [c.group.names[c.elements[pos]] for pos in c.witnesses]


def class_generates(c: ClassCalculus) -> bool:
    """Does the class generate the whole group?"""
    return len(generated_subgroup(c)) == c.group.order


def generated_subgroup(c: ClassCalculus) -> list[int]:
    """The identity's orbit under h -> h a, a in the class: in a finite group, the subgroup."""
    columns = [[row[a] for row in c.group.table] for a in c.elements]
    return list(next(o for o in orbits(columns, c.group.order) if c.group.identity in o))


# ---------------------------------------------------------------------------
# product-table classification for four-element cyclic classes
# ---------------------------------------------------------------------------

TABLE_II = "TableII"
TABLE_III = "TableIII"
OTHER = "Other"

# The admissible class product tables over a frame (t, x, y, z), in the order they
# are tried.  Cell (i, j) of a grid stands for the product e_i e_j, and two cells
# hold equal products exactly when they hold the same letter.  Table II is Table
# III off the diagonal, with four squares that occur nowhere else.
_TABLES = {
    TABLE_III: ("DABC", "BCDA", "CBAD", "ADCB"),
    TABLE_II: ("EABC", "BFDA", "CBGD", "ADCH"),
}


def classify_class_products(c: ClassCalculus) -> str:
    """Which of the admissible 4x4 class product tables occurs, or Other.

    A table occurs when some frame's products match its letter grid;
    Table III is tried before Table II.
    """
    cyclic, _ = is_cyclic_class(c)
    if not cyclic or c.n != 4:
        raise GroupSpecError(
            "product-table classification needs a cyclic class of size 4",
            {"size": c.n, "cyclic": cyclic},
        )
    verdicts = {verdict for _, verdict in class_frames(c)}
    return next((v for v in _TABLES if v in verdicts), OTHER)


def class_frames(c: ClassCalculus) -> Iterator[tuple[tuple[int, int, int, int], str]]:
    """Frames (t, x, y, z) of a four-element class, each with its table verdict.

    t runs over the cyclicity witnesses and x over the rest, in class order;
    z = Ad_t(x) and y = Ad_t(z), and frames that repeat a position are skipped.
    The verdict is the first grid of ``_TABLES`` that the frame's 16 products
    e_i e_j match, or Other.  A class of another size has no frames.
    """
    if c.n != 4:
        return
    for t in c.witnesses:
        for x in range(4):
            z = c.ad(t, x)
            y = c.ad(t, z)
            frame = (t, x, y, z)
            if len(set(frame)) == 4:
                yield frame, _match_tables([c.products[i][j] for i in frame for j in frame])


def _match_tables(cells: Sequence[int]) -> str:
    """The first table whose letters match the 16 products one-to-one, else Other."""
    for verdict, grid in _TABLES.items():
        letters = "".join(grid)
        if len(set(zip(letters, cells))) == len(set(letters)) == len(set(cells)):
            return verdict
    return OTHER

"""Catalogs of all skew braces of a small order, up to isomorphism.

For each additive group G the braces with that additive group correspond
to the regular subgroups of Hol(G), the group of permutations
x -> g + alpha(x) with alpha an automorphism. A regular subgroup contains
exactly one element per shift g, so the search assigns an automorphism to
every shift and propagates the closure constraint
alpha_{a + alpha_a(b)} = alpha_a o alpha_b, each product in one order
only (the proof is in _regular_assignments); complete assignments are
exactly the regular subgroups. Products of automorphisms are composed as
the search meets them, so no |Aut| x |Aut| table is built. Two regular
subgroups conjugate under an automorphism of G give isomorphic braces, so
the least assignment of each orbit is kept, the orbits found by
breadth-first search over a few generators of Aut(G), chosen by the
greedy routine that chooses a group's generators, groups._spanning. These
orbits are exactly the isomorphism classes of braces with additive group
G (Guarnieri and Vendramin, Math. Comp. 86 (2017), section 4), so no
representative is compared with another. Through order 8 the blocks are
ordered by a canonical table of the multiplicative group, its least
relabeling, found by branch and bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .braces import SkewBrace, _brace
from .errors import UnsupportedOrder
from .groups import (
    FiniteGroup,
    Perm,
    _group,
    _spanning,
    alternating_group_4,
    automorphism_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    is_isomorphic,
    table_isomorphisms,
    trivial_group,
)

# The orders groups_of_order knows, so the orders every catalog covers.
SUPPORTED_ORDERS = range(1, 16)


@dataclass(frozen=True)
class BraceCatalog:
    order: int
    entries: tuple[SkewBrace, ...]
    group_names: tuple[str, ...]
    provenance: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.entries)

    def per_group_counts(self) -> list[tuple[str, int]]:
        counts = [0] * len(self.group_names)
        for gi in self.provenance:
            counts[gi] += 1
        return list(zip(self.group_names, counts))


def groups_of_order(n: int) -> list[FiniteGroup]:
    """One representative per isomorphism class of groups of each order in
    SUPPORTED_ORDERS."""
    if n not in SUPPORTED_ORDERS:
        raise UnsupportedOrder(n, SUPPORTED_ORDERS[-1])
    if n == 1:
        return [trivial_group()]
    if n in (2, 3, 5, 7, 11, 13):
        return [cyclic_group(n)]
    if n == 4:
        C2 = cyclic_group(2)
        return [cyclic_group(4), direct_product(C2, C2)]
    if n == 6:
        return [cyclic_group(6), dihedral_group(6)]
    if n == 8:
        C2 = cyclic_group(2)
        return [
            cyclic_group(8),
            direct_product(cyclic_group(4), C2),
            direct_product(direct_product(C2, C2), C2),
            dihedral_group(8),
            dicyclic_group(8),
        ]
    if n == 9:
        C3 = cyclic_group(3)
        return [cyclic_group(9), direct_product(C3, C3)]
    if n == 10:
        return [cyclic_group(10), dihedral_group(10)]
    if n == 12:
        return [
            cyclic_group(12),
            direct_product(cyclic_group(2), cyclic_group(6)),
            dihedral_group(12),
            alternating_group_4(),
            dicyclic_group(12),
        ]
    if n == 14:
        return [cyclic_group(14), dihedral_group(14)]
    if n == 15:
        return [cyclic_group(15)]
    raise UnsupportedOrder(n, SUPPORTED_ORDERS[-1])  # pragma: no cover


class _Products(dict):
    """p o auts[j] as an index, under the key j: one row of the product
    table of auts, whose rows share index.

    An entry is composed the first time it is looked up and kept for the
    rest of one search, so no |Aut| x |Aut| table is built.
    """

    def __init__(self, p: Perm, auts: Sequence[Perm], index: dict[Perm, int]) -> None:
        super().__init__()
        self.p = p
        self.auts = auts
        self.index = index

    def __missing__(self, j: int) -> int:
        p = self.p
        r = self[j] = self.index[tuple(p[x] for x in self.auts[j])]
        return r


def _product_rows(auts: Sequence[Perm]) -> tuple[list[_Products], dict[Perm, int]]:
    """Rows amul[i][j] = auts[i] o auts[j], and the index they share."""
    index = {p: i for i, p in enumerate(auts)}
    return [_Products(p, auts, index) for p in auts], index


def _regular_assignments(
    G: FiniteGroup, auts: Sequence[Perm]
) -> list[tuple[int, ...]]:
    """All maps shift -> automorphism index whose graph is a regular
    subgroup of Hol(G), in lexicographic search order.

    propagate computes each product x * s, never also s * x, with x the
    pair just popped and s any pair already assigned. That is enough.
    Before a new pair gamma is placed, the assigned pairs form a subgroup
    K of Hol(G); let Y = <K, gamma>. Right products by K and gamma,
    starting from gamma and never stepping into K, reach every element of
    Y outside K. Take the digraph on the left cosets of K in Y with arcs
    yK -> yk gamma K (k in K). Left multiplication by Y acts transitively
    on its vertices and on its arcs, and it is strongly connected, since K
    and gamma generate Y. For an arc (v, u) let R(v, u) be the vertices
    reachable from u without passing v; all these sets have one size r.
    Let A = R(K, gamma K), and suppose some vertex other than K lies
    outside A. A path from K to it leaves K for the last time along an
    arc (K, u'), with u' not in A. If gamma K is in R(K, u'), then A is in
    R(K, u'), of the same size, so u' is in A: impossible. Otherwise K and
    R(K, u') are r + 1 vertices reachable from K without passing gamma K.
    A shortest path from gamma K back to K starts with an arc (gamma K, w),
    and R(gamma K, w) holds all r + 1 of them: impossible. Inside a
    reached coset zK each zk is the product z * k, and an arc is
    (zk) * gamma.

    So both orders compute only products in Y, and one order alone
    reaches all of Y. Each meets a clash, or a shift outside its
    candidates, exactly when the other does; on success both leave the
    assigned set equal to Y, with the same automorphism at each shift.
    The backtracking visits the same tree, and the results are identical.
    """
    n = G.n
    add = G.table
    amul, index = _product_rows(auts)
    id_idx = index[tuple(range(n))]

    # Every non-identity element of a regular subgroup moves every point,
    # so each shift only admits automorphisms giving a fixed-point-free map.
    candidates: list[set[int]] = []
    for a in range(n):
        if a == 0:
            candidates.append({id_idx})
            continue
        row = add[a]
        ok = {
            i
            for i, p in enumerate(auts)
            if all(row[p[x]] != x for x in range(n))
        }
        candidates.append(ok)

    results: list[tuple[int, ...]] = []

    def propagate(assign: list[int], queue: list[int]) -> bool:
        while queue:
            a = queue.pop()
            pa = auts[assign[a]]
            row_a = add[a]
            prod_a = amul[assign[a]]
            for b in [x for x in range(n) if assign[x] >= 0]:
                c = row_a[pa[b]]
                req = prod_a[assign[b]]
                cur = assign[c]
                if cur >= 0:
                    if cur != req:
                        return False
                elif req not in candidates[c]:
                    return False
                else:
                    assign[c] = req
                    queue.append(c)
        return True

    def backtrack(assign: list[int]) -> None:
        try:
            a = assign.index(-1)
        except ValueError:
            results.append(tuple(assign))
            return
        for phi in sorted(candidates[a]):
            trial = assign.copy()
            trial[a] = phi
            if propagate(trial, [a]):
                backtrack(trial)

    init = [-1] * n
    init[0] = id_idx
    if propagate(init, [0]):
        backtrack(init)
    return results


def are_isomorphic_braces(B1: SkewBrace, B2: SkewBrace) -> Optional[Perm]:
    """A bijection fixing 0 preserving both operations, or None."""
    if B1.n != B2.n:
        return None
    if B1.add.table == B2.add.table and B1.mul.table == B2.mul.table:
        return tuple(range(B1.n))
    found = table_isomorphisms(
        [B1.add.table, B1.mul.table], [B2.add.table, B2.mul.table]
    )
    return found[0] if found else None


def canonical_table(table: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least relabeling of the table over all
    permutations fixing 0.

    A branch and bound on the first row that a relabeling can change: row
    1 when row 0 is the identity, as in a group table, else row 0. That row
    is filled cell by cell. A cell whose column has no preimage yet
    branches over the elements not yet labeled; a value not yet labeled
    takes the smallest free label, as any other makes the row larger
    there. A branch is cut as soon as its row is larger than the best one
    found. A complete row labels every element, so the later rows are then
    compared with the best table, with an early exit.
    """
    n = len(table)
    rows = [tuple(r) for r in table]
    top = 1 if rows[0] == tuple(range(n)) else 0
    if top == n:
        return tuple(rows)
    best: Optional[tuple[tuple[int, ...], ...]] = None

    def search(
        j: int, label: list[int], elem: list[int], free: int, first: list[int]
    ) -> None:
        # label: element -> label, elem: label -> element, -1 where unset.
        # Labels are handed out in increasing order, so a row or column
        # without a preimage always asks for the next free label.
        nonlocal best
        while j < n:
            need = top if elem[top] < 0 else j
            if elem[need] < 0:
                for x in range(n):
                    if label[x] < 0:
                        label2 = label.copy()
                        elem2 = elem.copy()
                        label2[x] = free
                        elem2[free] = x
                        search(j, label2, elem2, free + 1, first.copy())
                return
            v = rows[elem[top]][elem[j]]
            if label[v] < 0:
                label[v] = free
                elem[free] = v
                free += 1
            first.append(label[v])
            j += 1
            if best is not None and first > list(best[top][:j]):
                return
        head = tuple(first)
        # tie: the best table while this one equals it so far, else None
        tie = best if best is not None and head == best[top] else None
        out = rows[:top] + [head]
        for i in range(top + 1, n):
            src = rows[elem[i]]
            row = tuple(label[src[elem[c]]] for c in range(n))
            if tie is not None:
                if row > tie[i]:
                    return
                if row < tie[i]:
                    tie = None
            out.append(row)
        if tie is None:
            best = tuple(out)

    label = [-1] * n
    elem = [-1] * n
    label[0] = elem[0] = 0
    search(0, label, elem, 1, [])
    assert best is not None
    return best


def _orbit_representatives(
    assignments: Sequence[tuple[int, ...]], auts: Sequence[Perm]
) -> list[tuple[int, ...]]:
    """The least assignment of each Aut(G)-orbit that meets assignments,
    sorted.

    f in Aut(G) sends an assignment a -> alpha_a to f(a) -> f o alpha_a o
    f^-1. The orbits are found by breadth-first search over a few
    generators of Aut(G), each acting through one conjugation table on
    automorphism indices (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005, section 4.1). Regular assignments map to regular
    assignments, so every orbit stays inside the set searched.
    """
    rows, index = _product_rows(auts)
    actions = []
    for f in _spanning(rows, index[tuple(range(len(auts[0])))]):
        phi = auts[f]
        inv = [0] * len(phi)
        for x, y in enumerate(phi):
            inv[y] = x
        conj = [index[tuple(phi[p[x]] for x in inv)] for p in auts]
        actions.append((phi, conj))

    seen: set[tuple[int, ...]] = set()
    reps: list[tuple[int, ...]] = []
    for start in assignments:
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for assign in orbit:
            for phi, conj in actions:
                out = [0] * len(assign)
                for a, alpha in enumerate(assign):
                    out[phi[a]] = conj[alpha]
                image = tuple(out)
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        reps.append(min(orbit))
    return sorted(reps)


def _brace_from_assignment(
    G: FiniteGroup, auts: Sequence[Perm], assign: Sequence[int]
) -> SkewBrace:
    """The brace with a * b = a + alpha_a(b), alpha_a = auts[assign[a]].

    A regular assignment is a regular subgroup of Hol(G), so both laws hold
    by construction and nothing is checked; lambda_a is alpha_a.
    """
    mul = [[row[x] for x in auts[i]] for row, i in zip(G.table, assign)]
    return _brace(G, _group(mul))


@lru_cache(maxsize=None)
def all_skew_braces(n: int) -> BraceCatalog:
    """Catalog of all skew braces of order n up to isomorphism, for n in
    SUPPORTED_ORDERS; built once per order."""
    groups = groups_of_order(n)
    # Through order 8 each additive block is ordered by the canonical table
    # of its multiplicative group's type, one per group of order n; ties
    # keep search order.
    canon = [canonical_table(H.table) for H in groups] if n <= 8 else []

    def mul_type_key(b: SkewBrace) -> tuple[tuple[int, ...], ...]:
        return next(
            c for H, c in zip(groups, canon) if is_isomorphic(b.mul, H) is not None
        )

    entries: list[SkewBrace] = []
    provenance: list[int] = []
    for gi, G in enumerate(groups):
        auts = automorphism_group(G)
        assignments = _regular_assignments(G, auts)
        reps = _orbit_representatives(assignments, auts)
        kept = [_brace_from_assignment(G, auts, assign) for assign in reps]
        if canon:
            kept.sort(key=mul_type_key)
        entries.extend(kept)
        provenance.extend([gi] * len(kept))
    return BraceCatalog(
        order=n,
        entries=tuple(entries),
        group_names=tuple(G.name for G in groups),
        provenance=tuple(provenance),
    )


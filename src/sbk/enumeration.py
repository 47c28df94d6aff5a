"""Catalogs of all skew braces of a small order, up to isomorphism.

For each additive group G the braces with that additive group correspond
to the regular subgroups of Hol(G), the group of permutations
x -> g + alpha(x) with alpha an automorphism. A regular subgroup contains
exactly one element per shift g, so the search assigns an automorphism to
every shift and propagates the closure constraint
alpha_{a + alpha_a(b)} = alpha_a o alpha_b, with b only over the shifts
placed at branch points, which generate the subgroup (the proof is in
_regular_assignments); complete assignments are exactly the regular
subgroups. Products of automorphisms are composed as the search meets
them, so no |Aut| x |Aut| table is built. Two regular subgroups conjugate
under an automorphism of G give isomorphic braces, so the search branches
once per class of automorphisms under the automorphisms that fix its
earlier choices: it lists some regular subgroups, at least one in every
orbit, not all of them. Of the orbits it meets, the least assignment of
each is kept, the orbits found by breadth-first search over a few
generators of Aut(G), chosen by the greedy routine that chooses a group's
generators, groups._spanning. These orbits are exactly the isomorphism
classes of braces with additive group G (Guarnieri and Vendramin, Math.
Comp. 86 (2017), section 4), so no representative is compared with
another. Through order 8 the blocks are ordered by a canonical table of
the multiplicative group, its least relabeling, found by branch and bound
pruned by the group's automorphisms.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from .braces import SkewBrace, _brace
from .errors import UnsupportedOrder
from .groups import (
    FiniteGroup,
    Perm,
    _group,
    _order_profile,
    _spanning,
    alternating_group_4,
    automorphism_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    table_isomorphisms,
    trivial_group,
)

# The orders groups_of_order knows, so the orders every catalog covers.
SUPPORTED_ORDERS = range(1, 16)


class BraceCatalog(NamedTuple):
    order: int
    entries: tuple[SkewBrace, ...]
    group_names: tuple[str, ...]
    provenance: tuple[int, ...]

    @property
    def count(self) -> int:
        # the number of classes; shadows tuple.count, which no caller uses
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
    table of auts, whose rows share index and the getters, getters[j](p)
    being p o auts[j].

    An entry is composed the first time it is looked up and kept for the
    rest of one search, so no |Aut| x |Aut| table is built.
    """

    def __init__(
        self, p: Perm, getters: Sequence[Callable[[Perm], Perm]], index: dict[Perm, int]
    ) -> None:
        super().__init__()
        self.p = p
        self.getters = getters
        self.index = index

    def __missing__(self, j: int) -> int:
        r = self[j] = self.index[self.getters[j](self.p)]
        return r


def _product_rows(auts: Sequence[Perm]) -> tuple[list[_Products], dict[Perm, int]]:
    """Rows amul[i][j] = auts[i] o auts[j], and the index they share.

    p o q is one itemgetter over p, built once per q. At order 1 an
    itemgetter returns a scalar, not a 1-tuple; there the one automorphism
    is (0,), and p o (0,) is p."""
    index = {p: i for i, p in enumerate(auts)}
    if len(auts[0]) == 1:
        getters: list[Callable[[Perm], Perm]] = [tuple]
    else:
        getters = [itemgetter(*q) for q in auts]
    return [_Products(p, getters, index) for p in auts], index


def _regular_assignments(
    G: FiniteGroup, auts: Sequence[Perm]
) -> list[tuple[int, ...]]:
    """Maps shift -> automorphism index whose graph is a regular subgroup
    of Hol(G), at least one in every Aut(G)-orbit, in lexicographic search
    order.

    propagate multiplies each assigned pair on the right only by the
    steps, the pairs placed at branch points on this branch. That is
    enough. Let Y be the subgroup of Hol(G) that the steps generate; every
    product computed lies in Y. When propagate meets no clash, the assigned
    pairs hold the identity and are closed under right products by the
    steps, so they hold Y, since in a finite group every element is a
    product of generators. So propagate succeeds exactly when Y has at most
    one element per shift, each with an allowed automorphism, and then
    leaves Y assigned: the outcome of multiplying every pair of assigned
    elements, so the tree and the results are the same.

    backtrack branches once per stabilizer class (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, section 4.1). f in
    Aut(G) sends an assignment A to f.A: f(b) -> f o A(b) o f^-1. backtrack
    carries H, the f that fix every shift branched on so far and commute
    with the automorphism chosen there. For f in H, f.A agrees with A at
    those shifts, so it holds the pairs chosen there and the subgroup they
    generate: the node's whole partial assignment. At the next shift a,
    each f in H_a = {f in H : f(a) = a} therefore sends a completion below
    the node with phi at a to one with f o phi o f^-1 at a. So only the
    least candidate of each H_a-class is branched on, and the child's H is
    the centralizer of that phi in H_a. Every Aut(G)-orbit with a member
    below the node still has one below a branch taken, and the result is a
    subsequence of the list that branching on every candidate gives.
    """
    n = G.n
    add = G.table
    amul, index = _product_rows(auts)
    id_idx = index[tuple(range(n))]
    inverse = []
    for p in auts:
        q = [0] * n
        for x, y in enumerate(p):
            q[y] = x
        inverse.append(index[tuple(q)])

    # Every non-identity element of a regular subgroup moves every point,
    # so each shift only admits automorphisms giving a fixed-point-free map.
    # x -> a + p(x) fixes x exactly when a = x - p(x).
    neg = G.inv
    candidates: list[set[int]] = [set() for _ in range(n)]
    for i, p in enumerate(auts):
        fixing = {add[x][neg[p[x]]] for x in range(n)}
        for a in range(1, n):
            if a not in fixing:
                candidates[a].add(i)
    candidates[0] = {id_idx}

    results: list[tuple[int, ...]] = []

    def propagate(
        assign: list[int], known: list[int], steps: list[int], a: int
    ) -> bool:
        # Every step has acted on each shift in known; a was just assigned.
        done = len(known)
        known.append(a)
        steps.append(a)
        new = [a]
        i = 0
        while i < len(known):
            x = known[i]
            ss = new if i < done else steps
            i += 1
            px = auts[assign[x]]
            row_x = add[x]
            prod_x = amul[assign[x]]
            for s in ss:
                c = row_x[px[s]]
                req = prod_x[assign[s]]
                cur = assign[c]
                if cur >= 0:
                    if cur != req:
                        return False
                elif req not in candidates[c]:
                    return False
                else:
                    assign[c] = req
                    known.append(c)
        return True

    def backtrack(
        assign: list[int], known: list[int], steps: list[int], H: list[int]
    ) -> None:
        try:
            a = assign.index(-1)
        except ValueError:
            results.append(tuple(assign))
            return
        H_a = [f for f in H if auts[f][a] == a]
        met: set[int] = set()
        for phi in sorted(candidates[a]):
            if phi in met:
                continue
            centralizer = []
            for f in H_a:
                conj = amul[amul[f][phi]][inverse[f]]
                met.add(conj)
                if conj == phi:
                    centralizer.append(f)
            trial = assign.copy()
            trial[a] = phi
            known2 = known.copy()
            steps2 = steps.copy()
            if propagate(trial, known2, steps2, a):
                backtrack(trial, known2, steps2, centralizer)

    init = [-1] * n
    init[0] = id_idx
    backtrack(init, [0], [], list(range(len(auts))))
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


def canonical_table(
    table: Sequence[Sequence[int]], auts: Sequence[Perm]
) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least relabeling of the table over all
    permutations fixing 0. auts are automorphisms of the table that form a
    group: all of them, or any subgroup, [tuple(range(n))] at least.

    A branch and bound on the first row that a relabeling can change: row
    1 when row 0 is the identity, as in a group table, else row 0. That row
    is filled cell by cell. A cell whose column has no preimage yet
    branches over the elements not yet labeled; a value not yet labeled
    takes the smallest free label, as any other makes the row larger
    there. A branch is cut as soon as its row is larger than the best one
    found. A complete row labels every element, so the later rows are then
    compared with the best table, with an early exit.

    A branch point branches on one unlabeled element per orbit of S, the
    automorphisms in auts that fix every element labeled so far. Relabeling
    by sigma o f, f an automorphism, gives the same table as sigma: it puts
    sigma(f(t[i][j])) = sigma(t[f(i)][f(j)]) at (sigma(f(i)), sigma(f(j))).
    The search below a node depends only on the table and its labeling, so
    the node whose labeling is label o f^-1 searches the same way with every
    element moved by f: a value v met there is f(v), takes the same label,
    and gives the same rows. For f in S, label o f^-1 is the labeling of
    this node with x labeled in place of f(x), where x takes the next
    label, so the branches on x and on f(x) reach the same tables, and the
    least table is found below the branches taken.
    """
    n = len(table)
    rows = [tuple(r) for r in table]
    top = 1 if rows[0] == tuple(range(n)) else 0
    if top == n:
        return tuple(rows)
    best: Optional[tuple[tuple[int, ...], ...]] = None

    def search(
        j: int,
        label: list[int],
        elem: list[int],
        free: int,
        first: list[int],
        stab: Sequence[Perm],
    ) -> None:
        # label: element -> label, elem: label -> element, -1 where unset.
        # Labels are handed out in increasing order, so a row or column
        # without a preimage always asks for the next free label. stab
        # fixes every element labeled when it was passed down.
        nonlocal best
        while j < n:
            need = top if elem[top] < 0 else j
            if elem[need] < 0:
                labeled = elem[:free]
                S = [f for f in stab if all(f[x] == x for x in labeled)]
                met: set[int] = set()
                for x in range(n):
                    if label[x] < 0 and x not in met:
                        met.update(f[x] for f in S)
                        label2 = label.copy()
                        elem2 = elem.copy()
                        label2[x] = free
                        elem2[free] = x
                        search(j, label2, elem2, free + 1, first.copy(), S)
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
    search(0, label, elem, 1, [], auts)
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
    Group Theory, 2005, section 4.1). An orbit is grown from its first
    member in assignments, so assignments need not hold whole orbits.
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


def _sorted_profile(G: FiniteGroup, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(_order_profile([G.table], n)))


@lru_cache(maxsize=None)
def all_skew_braces(n: int) -> BraceCatalog:
    """Catalog of all skew braces of order n up to isomorphism, for n in
    SUPPORTED_ORDERS; built once per order."""
    groups = groups_of_order(n)
    auts_of = [automorphism_group(G) for G in groups]
    # Through order 8 each additive block is ordered by the canonical table
    # of its multiplicative group's type, one per group of order n; ties
    # keep search order.
    canon = (
        [canonical_table(H.table, auts) for H, auts in zip(groups, auts_of)]
        if n <= 8
        else []
    )

    # isomorphic groups share their sorted order profile, and the groups of
    # each supported order have pairwise distinct ones (a test pins this),
    # so the profile of a brace's multiplicative group names its type
    canon_of = {_sorted_profile(H, n): c for H, c in zip(groups, canon)}

    def mul_type_key(b: SkewBrace) -> tuple[tuple[int, ...], ...]:
        return canon_of[_sorted_profile(b.mul, n)]

    entries: list[SkewBrace] = []
    provenance: list[int] = []
    for gi, (G, auts) in enumerate(zip(groups, auts_of)):
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


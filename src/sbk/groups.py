"""Finite groups as explicit Cayley tables on indices 0..n-1.

Every group is normalized at construction so that the identity is index 0;
the two group structures of a skew brace can then share their identity by
sharing the index. Orders are capped at 64 so subsets fit in one machine
word as bitmasks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .bitset import ElementSet, contains, full_mask, mask_of, members, size, sort_key
from .errors import (
    GroupTooLarge,
    NoIdentity,
    NotAssociative,
    NotLatinSquare,
    NotPrime,
)

Perm = tuple[int, ...]

MAX_GROUP_ORDER = 64


@dataclass(frozen=True)
class FiniteGroup:
    """Group given by its Cayley table; identity is always index 0."""

    n: int
    table: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    name: str = field(default="", compare=False)

    def elements(self) -> range:
        return range(self.n)

    def __repr__(self) -> str:
        label = self.name or f"order {self.n}"
        return f"FiniteGroup({label})"


@dataclass(frozen=True)
class GroupProperties:
    abelian: bool
    nilpotent: bool
    soluble: bool


@dataclass(frozen=True)
class CharacteristicSubgroups:
    center: ElementSet
    derived: ElementSet


def find_identity(table: Sequence[Sequence[int]]) -> Optional[int]:
    """The first two-sided identity of a square table, or None."""
    n = len(table)
    for e in range(n):
        if all(table[e][j] == j for j in range(n)) and all(table[i][e] == i for i in range(n)):
            return e
    return None


def make_group(table: Sequence[Sequence[int]], name: str = "") -> FiniteGroup:
    """Validate a Cayley table and return the group, identity moved to 0.

    Raises NoIdentity, NotLatinSquare or NotAssociative naming the first
    violation found; a table passing all three is a group. A ValueError
    signals a malformed table (non-square or out-of-range entries).
    """
    n = len(table)
    if n == 0:
        raise ValueError("empty table")
    if n > MAX_GROUP_ORDER:
        raise GroupTooLarge(n, MAX_GROUP_ORDER)
    rows = [tuple(row) for row in table]
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        for x in row:
            if not isinstance(x, int) or not 0 <= x < n:
                raise ValueError(f"entry {x!r} in row {i} out of range 0..{n - 1}")

    identity = find_identity(rows)
    if identity is None:
        raise NoIdentity()

    expected = frozenset(range(n))
    for i in range(n):
        if frozenset(rows[i]) != expected:
            raise NotLatinSquare("row", i)
    for j in range(n):
        if frozenset(rows[i][j] for i in range(n)) != expected:
            raise NotLatinSquare("column", j)

    for i in range(n):
        for j in range(n):
            tij = rows[i][j]
            for k in range(n):
                if rows[tij][k] != rows[i][rows[j][k]]:
                    raise NotAssociative(i, j, k)

    if identity != 0:
        # relabel by the transposition (0 identity)
        sigma = list(range(n))
        sigma[0], sigma[identity] = identity, 0
        rows = [
            tuple(sigma[rows[sigma[i]][sigma[j]]] for j in range(n)) for i in range(n)
        ]
    return _group(rows, name)


def _group(rows: Iterable[Iterable[int]], name: str = "") -> FiniteGroup:
    """The group of a table already known to be a group with identity 0;
    nothing is checked. A right inverse in a group is two-sided."""
    table = tuple(tuple(row) for row in rows)
    inv = tuple(row.index(0) for row in table)
    return FiniteGroup(n=len(table), table=table, inv=inv, name=name)


def element_order(G: FiniteGroup, x: int) -> int:
    """Least k >= 1 with the k-fold product of x equal to the identity."""
    return _order_in_table(G.table, x)


def _order_in_table(table: Sequence[Sequence[int]], x: int) -> int:
    k = 1
    y = x
    while y != 0:
        y = table[y][x]
        k += 1
    return k


def generated_subgroup(G: FiniteGroup, gens: Iterable[int]) -> ElementSet:
    """Subgroup generated by the given elements, as a bitmask.

    The closure of {0} under right multiplication by the generators: in a
    finite group every inverse is a positive power, so that closure is
    already the subgroup. Each element found costs one step per generator.
    """
    steps = [g for g in dict.fromkeys(gens) if g != 0]
    table = G.table
    seen = 1  # identity
    frontier = [0]
    while frontier:
        row = table[frontier.pop()]
        for g in steps:
            c = row[g]
            if not seen >> c & 1:
                seen |= 1 << c
                frontier.append(c)
    return seen


def is_subgroup(G: FiniteGroup, mask: ElementSet) -> bool:
    if not contains(mask, 0):
        return False
    ms = members(mask)
    table = G.table
    for a in ms:
        if not contains(mask, G.inv[a]):
            return False
        row = table[a]
        for b in ms:
            if not mask >> row[b] & 1:
                return False
    return True


def subgroups(G: FiniteGroup) -> list[ElementSet]:
    """All subgroups, sorted by size then by member sequence.

    Cyclic subgroups seed the search; the lattice is completed by joining
    each known subgroup with each cyclic seed until no new subgroup
    appears. Every subgroup is a join of cyclic ones, so this is complete.
    Each subgroup keeps the generators it was found with (its parent's
    plus the seed's), so a join is closed from a few generators rather
    than from all members.
    """
    gens_of: dict[ElementSet, list[int]] = {}
    for x in G.elements():
        gens_of.setdefault(generated_subgroup(G, [x]), [x])
    cyclics = sorted(gens_of)
    frontier = cyclics
    while frontier:
        new: list[ElementSet] = []
        for sub in frontier:
            sub_gens = gens_of[sub]
            for cyc in cyclics:
                if cyc & ~sub == 0:
                    continue
                gens = sub_gens + gens_of[cyc]
                join = generated_subgroup(G, gens)
                if join not in gens_of:
                    gens_of[join] = gens
                    new.append(join)
        frontier = new
    return sorted(gens_of, key=sort_key)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def prime_divisors(n: int) -> list[int]:
    out = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def sylow_p(G: FiniteGroup, p: int) -> list[ElementSet]:
    """All Sylow p-subgroups; empty exactly when p does not divide |G|."""
    if not _is_prime(p):
        raise NotPrime(p)
    if G.n % p != 0:
        return []
    q = 1
    while G.n % (q * p) == 0:
        q *= p
    return [m for m in subgroups(G) if size(m) == q]


def centralizer(G: FiniteGroup, x: int) -> ElementSet:
    table = G.table
    return mask_of(g for g in G.elements() if table[g][x] == table[x][g])


def center(G: FiniteGroup) -> ElementSet:
    table = G.table
    out = 0
    for g in G.elements():
        row = table[g]
        if all(row[h] == table[h][g] for h in G.elements()):
            out |= 1 << g
    return out


def _commutator(G: FiniteGroup, a: int, b: int) -> int:
    t = G.table
    return t[t[t[a][b]][G.inv[a]]][G.inv[b]]


def _derived_of(G: FiniteGroup, mask: ElementSet) -> ElementSet:
    ms = members(mask)
    comms = {_commutator(G, a, b) for a in ms for b in ms}
    return generated_subgroup(G, comms)


def characteristic_subgroups(G: FiniteGroup) -> CharacteristicSubgroups:
    """Center and derived subgroup of the group."""
    return CharacteristicSubgroups(
        center=center(G),
        derived=_derived_of(G, full_mask(G.n)),
    )


def is_normal(G: FiniteGroup, mask: ElementSet) -> bool:
    table = G.table
    inv = G.inv
    ms = members(mask)
    for g in G.elements():
        row = table[g]
        g_inv = inv[g]
        for s in ms:
            if not mask >> table[row[s]][g_inv] & 1:
                return False
    return True


def group_properties(G: FiniteGroup) -> GroupProperties:
    """Abelian by table scan, nilpotency by the ascending central series,
    solubility by the derived series."""
    table = G.table
    abelian = all(
        table[a][b] == table[b][a] for a in G.elements() for b in G.elements()
    )

    full = full_mask(G.n)
    z = 1  # trivial subgroup
    while True:
        nxt = 0
        for x in G.elements():
            if all(contains(z, _commutator(G, x, g)) for g in G.elements()):
                nxt |= 1 << x
        if nxt == z:
            break
        z = nxt
    nilpotent = z == full

    d = full
    while True:
        nxt = _derived_of(G, d)
        if nxt == d:
            break
        d = nxt
    soluble = d == 1

    return GroupProperties(abelian=abelian, nilpotent=nilpotent, soluble=soluble)


# ---------------------------------------------------------------------------
# Isomorphism machinery shared with the skew brace layer.  A map between two
# structures carrying k parallel Cayley tables is searched by backtracking on
# images of greedily chosen generators, pruned by per-element order tuples.
# ---------------------------------------------------------------------------


def _order_profile(tables: Sequence[Sequence[Sequence[int]]], n: int) -> list[tuple[int, ...]]:
    return [tuple(_order_in_table(t, x) for t in tables) for x in range(n)]


def table_isomorphisms(
    src_tables: Sequence[Sequence[Sequence[int]]],
    dst_tables: Sequence[Sequence[Sequence[int]]],
    find_all: bool = False,
) -> list[Perm]:
    """Bijections fixing 0 that respect every table pair simultaneously.

    Returns all such maps when find_all is set, otherwise at most one.
    Each next generator is the unmapped element of largest order profile,
    least index on ties, so it lies outside the substructure generated so
    far.
    """
    n = len(src_tables[0])
    if len(dst_tables[0]) != n:
        return []
    src_profile = _order_profile(src_tables, n)
    dst_profile = _order_profile(dst_tables, n)
    if sorted(src_profile) != sorted(dst_profile):
        return []

    order = sorted(range(1, n), key=lambda x: (src_profile[x], -x), reverse=True)
    candidates: dict[tuple[int, ...], list[int]] = {}
    for y in range(n):
        candidates.setdefault(dst_profile[y], []).append(y)

    results: list[Perm] = []

    def propagate(fwd: list[int], used: list[bool], start: int) -> bool:
        queue = [start]
        known = [x for x in range(n) if fwd[x] >= 0]
        while queue:
            a = queue.pop()
            for b in list(known):
                for ts, td in zip(src_tables, dst_tables):
                    for (c, d) in (
                        (ts[a][b], td[fwd[a]][fwd[b]]),
                        (ts[b][a], td[fwd[b]][fwd[a]]),
                    ):
                        fc = fwd[c]
                        if fc >= 0:
                            if fc != d:
                                return False
                        else:
                            if used[d]:
                                return False
                            fwd[c] = d
                            used[d] = True
                            known.append(c)
                            queue.append(c)
        return True

    # propagate checks every pair of mapped elements in both orders, so the
    # mapped set is closed: the substructure generated by the generators
    # placed so far. The mapped set only grows along a branch, so the next
    # generator comes after the last one in `order`; once nothing is left
    # unmapped, the map is an isomorphism with nothing to verify.
    def search(i: int, fwd: list[int], used: list[bool]) -> bool:
        while i < len(order) and fwd[order[i]] >= 0:
            i += 1
        if i == len(order):
            results.append(tuple(fwd))
            return not find_all
        g = order[i]
        for img in candidates[src_profile[g]]:
            if used[img]:
                continue
            fwd2 = fwd.copy()
            used2 = used.copy()
            fwd2[g] = img
            used2[img] = True
            if propagate(fwd2, used2, g) and search(i + 1, fwd2, used2):
                return True
        return False

    fwd0 = [-1] * n
    used0 = [False] * n
    fwd0[0] = 0
    used0[0] = True
    search(0, fwd0, used0)
    return results


def automorphism_group(G: FiniteGroup) -> list[Perm]:
    """Every automorphism, found by backtracking on generator images."""
    return sorted(table_isomorphisms([G.table], [G.table], find_all=True))


def is_isomorphic(G: FiniteGroup, H: FiniteGroup) -> Optional[Perm]:
    """An isomorphism G -> H, or None if the groups are not isomorphic."""
    if G.n != H.n:
        return None
    if G.table == H.table:
        return tuple(range(G.n))
    found = table_isomorphisms([G.table], [H.table])
    return found[0] if found else None


def is_automorphism(G: FiniteGroup, perm: Perm) -> bool:
    if perm[0] != 0 or sorted(perm) != list(range(G.n)):
        return False
    t = G.table
    return all(
        perm[t[a][b]] == t[perm[a]][perm[b]] for a in range(G.n) for b in range(G.n)
    )


# ---------------------------------------------------------------------------
# Standard constructions used to seed the catalogs. Each table is a group
# with identity 0 by construction, so none is validated.
# ---------------------------------------------------------------------------


def trivial_group() -> FiniteGroup:
    return _group([[0]], name="C1")


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return _group(table, name=f"C{n}")


def direct_product(G: FiniteGroup, H: FiniteGroup, name: str = "") -> FiniteGroup:
    n = G.n * H.n

    def enc(a: int, b: int) -> int:
        return a * H.n + b

    table = [[0] * n for _ in range(n)]
    for a1 in range(G.n):
        for b1 in range(H.n):
            for a2 in range(G.n):
                for b2 in range(H.n):
                    table[enc(a1, b1)][enc(a2, b2)] = enc(
                        G.table[a1][a2], H.table[b1][b2]
                    )
    return _group(table, name=name or f"{G.name}x{H.name}")


def dihedral_group(order: int) -> FiniteGroup:
    """Dihedral group of the given even order >= 6 (rotations then
    reflections)."""
    if order % 2 != 0 or order < 6:
        raise ValueError(f"dihedral order must be even and >= 6, got {order}")
    m = order // 2
    table = [[0] * order for _ in range(order)]
    for i in range(m):
        for j in range(m):
            table[i][j] = (i + j) % m
            table[i][m + j] = m + (i + j) % m
            table[m + i][j] = m + (i - j) % m
            table[m + i][m + j] = (i - j) % m
    return _group(table, name=f"D{order}")


def dicyclic_group(order: int) -> FiniteGroup:
    """Dicyclic group of order 4m (quaternion group for order 8)."""
    if order % 4 != 0 or order < 8:
        raise ValueError(f"dicyclic order must be a multiple of 4 and >= 8, got {order}")
    m = order // 4
    two_m = 2 * m
    table = [[0] * order for _ in range(order)]
    for i in range(two_m):
        for j in range(two_m):
            table[i][j] = (i + j) % two_m
            table[i][two_m + j] = two_m + (i + j) % two_m
            table[two_m + i][j] = two_m + (i - j) % two_m
            table[two_m + i][two_m + j] = (i - j + m) % two_m
    return _group(table, name=f"Q{order}")


def alternating_group_4() -> FiniteGroup:
    perms = sorted(
        p
        for p in itertools.permutations(range(4))
        if _parity(p) == 0
    )
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(4))] for q in perms] for p in perms
    ]
    return _group(table, name="A4")


def _parity(perm: Sequence[int]) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return inversions % 2

"""Finite groups as explicit Cayley tables on indices 0..n-1.

Every group is normalized at construction so that the identity is index 0;
the two group structures of a skew brace can then share their identity by
sharing the index. Orders are capped at 64 so subsets fit in one machine
word as bitmasks.

Associativity is decided on a generating set, by Light's test (Clifford
and Preston, The Algebraic Theory of Semigroups I, 1961, Sec. 1.2). Let N
be the set of i with (ij)k = i(jk) for all j, k. N contains the identity
e, and it is closed under products: for g, h in N,

    ((gh)j)k = (g(hj))k = g((hj)k) = g(h(jk)) = (gh)(jk).

So a table with identity e is associative as soon as every i in a set S
is in N, provided the closure of {e} under right products by S is the
whole table, as every element of that closure is then a product of
elements of N. _spanning picks such an S, of at most log2(n) elements
for a group, and make_group tests i over S: O(n^2 |S|) work in place of
n^3.
The same argument decides normality: the g with gHg^-1 in H are closed
under products, so is_normal tests only the group's generators. So does
center: the centralizer of g is a subgroup, so g is central once it
commutes with every generator, and the centre is the intersection of
the generators' centralizers, one bitmask each. The brace layer decides
its tests the same way, on generators of (B,*) through lambda_(a*b) =
lambda_a lambda_b and on generators of a subgroup through the
additivity of each lambda_a: lambda invariance, the carrier filter of
the subbrace lattice, the star square and the compatibility law
(substructure.py and braces.py give the proofs).

_flat_table flattens each table to one byte string, row by row, while it
checks the entries, which the order cap keeps possible, and every later
test reads that string. bytes() of a row refuses every entry that is not
an int, but takes a bool as 0 or 1, so the entries of type int exactly
are counted on every table the Python API is given. A table load_brace
decoded by json from a text in which neither true nor false appears
holds no bool, as json decodes only those tokens to one, and skips that
count. make_group first moves the identity e to 0 by
the transposition s = (0 e): cell (i, j) becomes s(s(i)s(j)), so one
bytes.translate applies s to every entry and two slice swaps exchange
rows 0 and e and columns 0 and e. A relabeled table is associative
exactly when the table is. Light's test is then O(1) byte operations per
i. Row i names, for each j, the row of ij, so the rows joined in the
order row i names them hold (ij)k at jn + k, and the table translated by
row i holds i(jk) there; i is in N exactly when the two strings are
equal, and else the first byte where they differ names the least
failing (j, k). One such pass per i, in order, names the first failing
triple of a table that is not associative.

No Latin square test is needed beside it. In an associative table with
identity e in which every row holds e, every x has a right inverse y,
xy = e. Let z be a right inverse of y; then

    x = xe = x(yz) = (xy)z = ez = z,

so yx = yz = e: y is a two-sided inverse and the table is a group, whose
rows and columns are permutations. make_group decides the axioms on
these three tests: an identity, e in every row, and Light's test. Only a
table that fails one is scanned in full (Latin rows, Latin columns, then
associativity over every i) to name the same first violation as a full
check would.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import isqrt
from operator import eq, itemgetter
from typing import Iterable, NoReturn, Optional, Sequence

from .bitset import ElementSet, contains, full_mask, members, size
from .errors import (
    BadInput,
    GroupTooLarge,
    NoIdentity,
    NotAssociative,
    NotLatinSquare,
    NotPrime,
)

Perm = tuple[int, ...]
# a square table's entries row by row, as _flat_table returns them
Flat = bytes | tuple[int, ...]
# each subgroup's mask -> (elements generating it, its members ascending)
Lattice = dict[ElementSet, tuple[list[int], list[int]]]

MAX_GROUP_ORDER = 64


class _Frozen:
    """Refuses assignment and deletion of attributes. A subclass's __init__
    fills __dict__ directly; cached_property writes there too."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r}")


class FiniteGroup(_Frozen):
    """Group given by its Cayley table; identity is always index 0.

    Immutable after construction. Equality and hash ignore the name.
    """

    n: int
    table: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    name: str

    def __init__(
        self, n: int, table: tuple[tuple[int, ...], ...], inv: tuple[int, ...], name: str = ""
    ) -> None:
        self.__dict__.update(n=n, table=table, inv=inv, name=name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.table, self.inv) == (other.n, other.table, other.inv)

    def __hash__(self) -> int:
        return hash((self.n, self.table, self.inv))

    def elements(self) -> range:
        return range(self.n)

    @cached_property
    def gens(self) -> tuple[int, ...]:
        """At most log2(n) elements whose right products, starting from the
        identity, reach the whole group; computed once per group."""
        return _spanning(self.table)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The transposed table, columns[j][i] = i o j; computed once per
        group."""
        return tuple(zip(*self.table))

    def __repr__(self) -> str:
        label = self.name or f"order {self.n}"
        return f"FiniteGroup({label})"


def find_identity(flat: Flat) -> Optional[int]:
    """The first two-sided identity of a table flattened by _flat_table, or
    None: the first e whose row and column both read 0..n-1."""
    n = isqrt(len(flat))
    ident = type(flat)(range(n))
    for e in range(n):
        if flat[e * n : e * n + n] == ident and flat[e::n] == ident:
            return e
    return None


def make_group(table: Sequence[Sequence[int]], name: str = "") -> FiniteGroup:
    """Validate a Cayley table and return the group, identity moved to 0.

    Raises BadInput when the table is not square with entries 0..n-1, then
    NoIdentity, NotLatinSquare or NotAssociative naming the first
    violation; a table passing all of them is a group.
    """
    flat = _flat_table(table, "table")
    return _group_of_flat(flat, find_identity(flat), name)


def _group_of_flat(flat: Flat, identity: Optional[int], name: str = "") -> FiniteGroup:
    """make_group on a table that _flat_table has already checked and
    flattened, whose identity find_identity returned: an index, or None
    when the table has none.

    Light's test runs on the table already relabeled, with the greedy
    span that is then the group's gens, so _spanning runs once per table.
    A table that fails is scanned as given, so every error names the
    cells, elements and triples of the caller's labels.
    """
    n = isqrt(len(flat))
    if n == 0:
        raise ValueError("empty table")
    if n > MAX_GROUP_ORDER:
        raise GroupTooLarge(n, MAX_GROUP_ORDER)
    if identity is None:
        raise NoIdentity()
    # a relabeled table is associative exactly when the table is, and it
    # holds 0 in every row exactly when the table holds the identity there
    moved = _moved_to_zero(flat, identity) if identity else flat
    rows = [moved[i : i + n] for i in range(0, n * n, n)]
    # the greedy span of the table the group keeps is its gens
    span = _spanning(rows)
    if not all(0 in row for row in rows) or _associativity_failure(moved, span) is not None:
        _raise_first_violation(flat)  # in the labels as given
    return _group(rows, name, gens=span)


def _flat_table(table: Sequence[Sequence[int]], key: str, no_bools: bool = False) -> Flat:
    """The entries of a square table of indices, row by row, in one flat
    sequence: each row a list or tuple of len(table) entries, each an int
    (not a bool) in 0..n-1. The sequence is a byte string, which every
    later test reads; only a table past MAX_GROUP_ORDER, which
    find_identity alone reads before make_group refuses it, is a tuple, as
    its entries need not fit in a byte.

    A few whole-table tests decide it: the row types and lengths, then the
    bytes() of the rows joined, with nothing left once 0..n-1 is deleted
    from it. bytes() raises TypeError on an entry that is not an int and
    ValueError on one outside 0..255, but it takes a bool, or any other int
    subclass, as an int. So the entries of type int exactly are counted
    first, unless no_bools says no entry can be an int subclass: the table
    was decoded by json from a text that spells neither true nor false.
    json decodes only those two tokens to a bool, and every other value it
    decodes is an int, which bytes() takes, or a float, str, None, list or
    dict, which it refuses. The Python API (make_group, make_skew_brace,
    brace_from_obj) always counts. Only when a test fails is the table
    scanned row by row, to raise BadInput on the first bad row or entry,
    calling the table key.
    """
    n = len(table)
    if all(type(row) in (list, tuple) and len(row) == n for row in table) and (
        no_bools and n <= MAX_GROUP_ORDER
        or list(map(type, itertools.chain.from_iterable(table))).count(int) == n * n
    ):
        if n > MAX_GROUP_ORDER:
            cells = tuple(itertools.chain.from_iterable(table))
            if set(range(n)).issuperset(cells):
                return cells
        else:
            try:
                flat = b"".join(map(bytes, table))
            except (TypeError, ValueError):  # an entry not an int, or outside 0..255
                pass
            else:
                if not flat.translate(None, bytes(range(n))):
                    return flat
    for i, row in enumerate(table):
        if type(row) not in (list, tuple) or len(row) != n:
            raise BadInput(f"row {i} of {key!r} must have length {n}")
        for x in row:
            if type(x) is not int or not 0 <= x < n:
                raise BadInput(f"entry {x!r} in row {i} of {key!r} out of range")
    raise AssertionError("unreachable: a whole-table test fails only on a bad row or entry")


def _moved_to_zero(flat: bytes, e: int) -> bytes:
    """The flat table relabeled by the transposition s = (0 e), whose cell
    (i, j) is s(ij) read at (s(i), s(j)): one translate applies s to every
    entry, then rows 0 and e and columns 0 and e trade places, each pair
    by one slice assignment."""
    n = isqrt(len(flat))
    swap = bytearray(range(256))
    swap[0], swap[e] = e, 0
    t = bytearray(flat.translate(swap))
    t[:n], t[e * n : e * n + n] = t[e * n : e * n + n], t[:n]
    t[::n], t[e::n] = t[e::n], t[::n]
    return bytes(t)


def _associativity_failure(flat: bytes, is_: Iterable[int]) -> Optional[tuple[int, int, int]]:
    """The first triple (i, j, k) with i in is_ and (ij)k != i(jk), in the
    order of i in is_, then j, then k, on a flat table of at most 256 rows;
    None when there is none. O(1) whole-table byte operations decide each i.

    Row i names, for each j, the row of ij, so the rows joined in the
    order row i names them hold (ij)k at jn + k; the table translated by
    row i (padded with zeros to the 256 bytes translate takes) holds i(jk)
    there. i passes exactly when the two strings are equal, and else the
    first byte where they differ is at jn + k for the least (j, k): the
    top set bit of their xor read as integers, as the first byte is the
    most significant.
    """
    n = isqrt(len(flat))
    pad = bytes(256 - n)
    rows = [flat[r : r + n] for r in range(0, n * n, n)]
    for i in is_:
        left = b"".join(map(rows.__getitem__, rows[i]))
        right = flat.translate(rows[i] + pad)
        if left != right:
            diff = int.from_bytes(left, "big") ^ int.from_bytes(right, "big")
            return (i, *divmod(n * n - 1 - (diff.bit_length() - 1) // 8, n))
    return None


def _raise_first_violation(flat: bytes) -> NoReturn:
    """Raise the first failure of the full check on a flat square table
    with an identity that is not a group: a row, then a column, that is not
    a permutation, then the first non-associative triple. n cells are a
    permutation exactly when deleting them from 0..n-1 leaves nothing."""
    n = isqrt(len(flat))
    ident = bytes(range(n))
    for i in range(n):
        if ident.translate(None, flat[i * n : i * n + n]):
            raise NotLatinSquare("row", i)
    for j in range(n):
        if ident.translate(None, flat[j::n]):
            raise NotLatinSquare("column", j)
    raise NotAssociative(*_associativity_failure(flat, range(n)))


def _spanning(
    table: Sequence[Sequence[int]], e: int = 0, among: Optional[Iterable[int]] = None
) -> tuple[int, ...]:
    """Elements whose right products, starting from the identity e, reach
    every index of the table. When among is given the elements are chosen
    from it, and they reach every element of it: exactly among when it is
    a subgroup.

    Greedy: the least index not reached yet is the next element. In a group
    the reached set is a subgroup, which each new element at least doubles,
    so at most log2(n) elements are chosen. On any other table with
    identity e up to n may be, and they still reach every index.

    Each product of a reached element by a step is read once, on any
    table, group or not. The reached set R is closed under right products
    by the earlier steps S: so it is at the start, when R = {e} and S is
    empty, and so it stays. When x becomes a step, R is walked with x
    alone, and each element this adds is walked with every step of S and
    x, as is each element that walk adds in turn. Then every r in R has rs
    in R for s in S and rx walked, and every new element has all its
    products walked, so the union is closed under S and x. It holds only
    products of e by S and x, so it is their closure, and the same closure
    as walking all of it with every step: the greedy steps are the same.
    """
    steps: list[int] = []
    seen = 1 << e
    reached = [e]
    for x in range(len(table)) if among is None else among:
        if seen >> x & 1:
            continue
        steps.append(x)
        # walk meets the elements added to reached, after those it held
        walk = iter(reached)
        for a in itertools.islice(walk, len(reached)):
            c = table[a][x]
            if not seen >> c & 1:
                seen |= 1 << c
                reached.append(c)
        for a in walk:
            row = table[a]
            for g in steps:
                c = row[g]
                if not seen >> c & 1:
                    seen |= 1 << c
                    reached.append(c)
    return tuple(steps)


def _group(
    rows: Sequence[Sequence[int]], name: str = "", gens: Optional[tuple[int, ...]] = None
) -> FiniteGroup:
    """The group of a table already known to be a group with identity 0;
    nothing is checked. A right inverse in a group is two-sided, and it is
    read off the rows as given: on the byte rows of make_group, index is a
    memchr. gens, when given, is _spanning(rows) already computed, and
    becomes G.gens."""
    inv = tuple(row.index(0) for row in rows)
    table = tuple(map(tuple, rows))
    G = FiniteGroup(n=len(table), table=table, inv=inv, name=name)
    if gens is not None:
        G.__dict__["gens"] = gens  # where cached_property keeps it
    return G


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
    """Whether the set M is a subgroup, decided on right products by the
    elements S chosen from M by _spanning, whose right products reach
    every element of M from the identity e: |M| |S| products with
    |S| <= log2(n), where a scan of all pairs takes |M|^2.

    If M holds e and ms lies in M for all m in M and s in S, then M is
    closed under products: each b in M is a product s1 s2 ... sk of
    elements of S, so ab = (...((a s1) s2) ...) sk stays in M step by
    step. A finite nonempty subset of a group closed under products is a
    subgroup (the inverse of a is a power of a), so no inverse is looked
    up.
    """
    if not contains(mask, 0):
        return False
    ms = members(mask)
    table = G.table
    steps = _spanning(table, among=ms)
    return all(mask >> table[a][s] & 1 for a in ms for s in steps)


def subgroups(G: FiniteGroup) -> list[ElementSet]:
    """All subgroups, sorted by size then by member sequence."""
    return list(_subgroup_lattice(G))


def _cyclic_subgroups(G: FiniteGroup) -> list[ElementSet]:
    """<x> for each x, as a bitmask: the powers x, x^2, ... read down
    column x, each the last one times x, until the identity."""
    cyclic = []
    for x, col in enumerate(G.columns):
        mask = 1  # identity
        y = x
        while y:
            mask |= 1 << y
            y = col[y]
        cyclic.append(mask)
    return cyclic


def _subgroup_lattice(G: FiniteGroup) -> Lattice:
    """Every subgroup, each with a list of elements generating it and its
    members, sorted by size then by member sequence. The members are
    listed once here, for every later test on the subgroup to read.

    Cyclic subgroups seed the search; the lattice is completed by joining
    each known subgroup H with elements outside it until no new subgroup
    appears. Every subgroup is a join of cyclic ones, so this is complete.
    Since <H, x> = <H, hx> for h in H, one x per right coset Hx is joined:
    x is walked upward, and an x in a coset already met is skipped. As
    <H, x> depends only on H and <x>, an x in a new coset is skipped too
    when an earlier x' has <x'> = <x>: H is joined once per cyclic
    subgroup. Either skip leaves out only a join already made, which
    already holds the generators it was first found with, so the lattice
    and every generator list are those of joining every x. Each subgroup
    keeps the generators it was found with (its parent's plus x).
    A join with an x whose cyclic subgroup holds H is that cyclic subgroup.
    Any other join J = <H, x> is grown a right coset at a time: the union
    U of the cosets Hc reached from H by right products c -> cg, g a
    generator of H or x, holds 0 and is closed under those right products,
    since hc * g lies in H(cg); so U is J. Each coset Hd is filled by one
    gather over column d, read at H's members: |J:H| (|gens| + 1) steps
    where closing J element by element takes |J| (|gens| + 1).
    """
    table = G.table
    n = G.n
    # bits[d][h] = the bit of h * d; a coset mask is a sum of distinct bits
    bit = [1 << i for i in range(n)]
    bits = [tuple(map(bit.__getitem__, col)) for col in G.columns]
    cyclic = _cyclic_subgroups(G)
    gens_of: dict[ElementSet, list[int]] = {}
    for x, cyc in enumerate(cyclic):
        gens_of.setdefault(cyc, [x])
    lattice: Lattice = {}
    frontier = sorted(gens_of)
    while frontier:
        new: list[ElementSet] = []
        for sub in frontier:
            sub_gens = gens_of[sub]
            hs = members(sub)
            lattice[sub] = (sub_gens, hs)
            if len(hs) == 1:
                continue  # every join with the trivial subgroup is cyclic
            coset = itemgetter(*hs)
            covered = sub
            joined = set()
            for x in range(n):
                if covered >> x & 1:
                    continue
                covered |= sum(coset(bits[x]))
                cyc = cyclic[x]
                if cyc in joined:
                    continue
                joined.add(cyc)
                gens = sub_gens + [x]
                # <H, x> is <x> when H lies in <x>
                if sub & ~cyc == 0:
                    join = cyc
                else:
                    join = sub
                    reps = [0]
                    for c in reps:
                        row = table[c]
                        for g in gens:
                            d = row[g]
                            if not join >> d & 1:
                                join |= sum(coset(bits[d]))
                                reps.append(d)
                if join not in gens_of:
                    gens_of[join] = gens
                    new.append(join)
        frontier = new
    return dict(sorted(lattice.items(), key=lambda item: (len(item[1][1]), item[1][1])))


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


def center(G: FiniteGroup) -> ElementSet:
    """The g commuting with every element. The centralizer of g is a
    subgroup, so it is G once it holds every generator in G.gens.

    The centralizer of each s in G.gens is one mask, the sum of the bits
    1 << g at which column s and row s agree, built by map and compress;
    the centre is their intersection."""
    table = G.table
    bits = list(map((1).__lshift__, range(G.n)))
    out = full_mask(G.n)
    for s in G.gens:
        out &= sum(itertools.compress(bits, map(eq, map(itemgetter(s), table), table[s])))
    return out


def is_normal(G: FiniteGroup, mask: ElementSet) -> bool:
    """Whether gHg^-1 lies in H for every g. The g for which it does are
    closed under products, (gh)H(gh)^-1 = g(hHh^-1)g^-1, so testing the
    generators in G.gens decides it."""
    return _conjugates_inside(G, mask, members(mask))


def _conjugates_inside(G: FiniteGroup, mask: ElementSet, xs: Iterable[int]) -> bool:
    """Whether gxg^-1 lies in the mask for every g in G.gens and x in xs.
    With xs the members, this is is_normal. With xs generating the
    subgroup mask it decides the same, since conjugation by g is an
    automorphism and maps <xs> into the mask once it maps xs there."""
    table = G.table
    inv = G.inv
    for g in G.gens:
        row = table[g]
        g_inv = inv[g]
        for s in xs:
            if not mask >> table[row[s]][g_inv] & 1:
                return False
    return True


def normal_closure(G: FiniteGroup, xs: Iterable[int]) -> ElementSet:
    """The least normal subgroup holding xs, as a bitmask.

    H = <X> is normal once gxg^-1 lies in H for every g in G.gens and x in
    X: the g that conjugate H into itself are closed under products, and
    conjugation by g is an automorphism, so it maps H into H once it maps
    X into H. Every conjugate gxg^-1 outside H joins X, and H is grown
    again; each time H at least doubles.
    """
    table = G.table
    inv = G.inv
    xs = list(dict.fromkeys(xs))
    H = generated_subgroup(G, xs)
    for x in xs:  # xs grows while it is walked
        for g in G.gens:
            y = table[table[g][x]][inv[g]]
            if not H >> y & 1:
                xs.append(y)
                H = generated_subgroup(G, xs)
    return H


# ---------------------------------------------------------------------------
# Isomorphism machinery shared with the skew brace layer.  A map between two
# structures carrying k parallel Cayley tables is searched by backtracking on
# images of greedily chosen generators, pruned by per-element order tuples.
# With one table the map is checked only on products by those generators;
# with several, on every product of mapped elements (table_isomorphisms).
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

    Propagate maps x * s in every table, for each mapped x and each step
    s, and checks f(x * s) = f(x) * f(s). With one table the steps are the
    generators placed on this branch. That is enough. Let M be the mapped
    set, and suppose f(x * s) = f(x) * f(s) for every x in M and every s
    in a set S that generates M. In a finite group every y in M is a word
    s_1 ... s_k over S, and by induction on k

        f(x * y) = f(x * s_1 ... s_(k-1)) * f(s_k) = f(x) * f(s_1) ... f(s_k);

    for x = 0 this reads f(y) = f(s_1) ... f(s_k), so f(x * y) = f(x) * f(y)
    for every x and y in M. M is the closure of {0} under right products
    by the steps, which is the subgroup they generate.

    With several tables every newly mapped element becomes a step too, so
    on entry to propagate the steps are all of M but 0. On success M is
    closed under x * y for all x and y in M, in every table, with f checked
    on each product: M is the substructure generated by the placed
    generators, and f an injective homomorphism on it. Propagate fails
    exactly when f has no such extension, and one that exists is unique,
    so M, the next generator, the pruning and the results are those of
    any complete check.
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
    pairs = list(zip(src_tables, dst_tables))
    several = len(pairs) > 1

    results: list[Perm] = []

    def propagate(
        fwd: list[int],
        used: list[bool],
        known: list[int],
        steps: list[int],
        g: int,
    ) -> bool:
        # Every step has met each element of known; g is mapped and new.
        done = len(known)
        known.append(g)
        new = [g]
        while True:
            steps.extend(new)
            i = 0
            while i < len(known):
                x = known[i]
                ss = new if i < done else steps
                i += 1
                for ts, td in pairs:
                    row = ts[x]
                    row_f = td[fwd[x]]
                    for s in ss:
                        c = row[s]
                        d = row_f[fwd[s]]
                        fc = fwd[c]
                        if fc >= 0:
                            if fc != d:
                                return False
                        elif used[d]:
                            return False
                        else:
                            fwd[c] = d
                            used[d] = True
                            known.append(c)
            if not several:
                return True
            new = known[len(steps) + 1 :]
            if not new:
                return True
            done = len(known)

    # After propagate the mapped set is the substructure generated by the
    # generators placed so far. It only grows along a branch, so the next
    # generator comes after the last one in `order`; once nothing is left
    # unmapped, the map is an isomorphism with nothing to verify.
    def search(
        i: int,
        fwd: list[int],
        used: list[bool],
        known: list[int],
        steps: list[int],
    ) -> bool:
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
            known2 = known.copy()
            steps2 = steps.copy()
            if propagate(fwd2, used2, known2, steps2, g) and search(
                i + 1, fwd2, used2, known2, steps2
            ):
                return True
        return False

    fwd0 = [-1] * n
    used0 = [False] * n
    fwd0[0] = 0
    used0[0] = True
    search(0, fwd0, used0, [0], [])
    return results


def automorphism_group(G: FiniteGroup) -> list[Perm]:
    """Every automorphism, found by backtracking on generator images."""
    return sorted(table_isomorphisms([G.table], [G.table], find_all=True))


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

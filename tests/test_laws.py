"""Property tests of the law checks against the O(n^3) oracles.

make_group decides associativity on a generating set (Light's test), and
assemble, is_two_sided and the bi-skew flag decide the compatibility law
on pairs of generators, a of the group playing the multiplication and c
of the additive group. Every group and catalog brace through order 15, and
products of orders 16 to 64, are corrupted with seeded random: one changed
cell, a Latin-preserving 2x2 swap (a loop that still passes the Latin
check), and, for the law, a corrupted second table over a valid group.
A corrupted table that is not a group goes through make_skew_brace, which
must raise the failure tests/oracles.py finds first. Group tables (the
brace's own, the same relabeled, relabeled tables of other catalog braces
of the same order, and the corruptions that stay groups) go through
assemble, is_two_sided and classify, whose verdicts must agree with the
full scan and whose errors must name the first triple it finds. On every
table the two law kernels, the associativity scan on byte strings and the
compatibility scan with operator.itemgetter, must also name the same first
triple as the list comprehension loops they replaced, kept in
tests/oracles.py; at orders 1 and 2 they are checked on every table, where
an itemgetter of one index returns a scalar. Order-64 tables whose only
failure sits at index 63 check that neither kernel stops short of the
last row, column or generator. The associativity kernel reads each table
flattened to one byte string, as make_group does.
"""

import itertools
import random

import pytest

from sbk.braces import (
    SkewBrace,
    _law_failure,
    assemble,
    classify,
    is_two_sided,
    make_skew_brace,
)
from sbk.enumeration import all_skew_braces, groups_of_order
from sbk.errors import LeftDistributivityFails, NoIdentity, NotAssociative, NotLatinSquare
from sbk.groups import (
    FiniteGroup,
    _associativity_failure,
    _flat_table,
    _spanning,
    alternating_group_4,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    make_group,
)

import oracles

SMALL_ORDERS = range(1, 16)


def _power(G: FiniteGroup, k: int) -> FiniteGroup:
    out = G
    for _ in range(k - 1):
        out = direct_product(out, G)
    return out


def _large_groups() -> list[FiniteGroup]:
    """Groups of orders 16 to 64, from one to six generators."""
    c2, c4 = cyclic_group(2), cyclic_group(4)
    return [
        _power(c2, 4),
        dihedral_group(16),
        dicyclic_group(16),
        direct_product(c4, c4),
        direct_product(dihedral_group(12), c2),
        direct_product(dicyclic_group(8), c4),
        direct_product(alternating_group_4(), c4),
        _power(c2, 6),
        direct_product(dihedral_group(8), dihedral_group(8)),
    ]


def _product(B1: SkewBrace, B2: SkewBrace) -> SkewBrace:
    return assemble(direct_product(B1.add, B2.add), direct_product(B1.mul, B2.mul))


# Products of catalog braces, of orders 16, 24, 32, 48 and 64, as the
# (order, index) pairs of their factors.
LARGE_FACTORS = (
    ((4, 3), (4, 2)),
    ((6, 3), (4, 3)),
    ((8, 25), (4, 0)),
    ((12, 5), (4, 1)),
    ((8, 25), (8, 3)),
)


def _catalog_product(factors, shift: int = 0) -> SkewBrace:
    """The product of the catalog braces at the given (order, index) pairs,
    each index moved on by shift within its order."""
    B1, B2 = (all_skew_braces(n).entries for n, _ in factors)
    (_, i1), (_, i2) = factors
    return _product(B1[(i1 + shift) % len(B1)], B2[(i2 + shift) % len(B2)])


def _transpose(table):
    return [list(col) for col in zip(*table)]


def _random_labels(rng: random.Random, n: int) -> list[int]:
    sigma = list(range(n))
    rng.shuffle(sigma)
    return sigma


def _corruptions(rng: random.Random, table, first: int):
    """One changed cell and two Latin-preserving 2x2 swaps, each among rows
    and columns at least first; any that does not exist is left out."""
    out = [
        oracles.changed_cell(rng, table, first),
        oracles.intercalate_swap(rng, table, first),
        oracles.intercalate_swap(rng, table, first),
    ]
    return [t for t in out if t is not None]


def _assert_associativity_kernel_agrees(table) -> None:
    """_associativity_failure names the list loop's first triple, with i
    over every element and over a descending subset."""
    n = len(table)
    flat = _flat_table(table, "table")
    for is_ in (range(n), range(n - 1, 0, -2)):
        expected = oracles.associativity_failure_by_lists(table, is_)
        assert _associativity_failure(flat, is_) == expected


def _assert_law_kernel_agrees(add: FiniteGroup, table) -> None:
    """_law_failure names the list loop's first triple, with a over every
    element and over the table's spanning set, and c over every element
    and over the additive generators: the ranges the law is decided on."""
    n = add.n
    for as_ in (range(n), _spanning(table)[0]):
        for cs in (range(n), add.gens):
            expected = oracles.law_failure_by_lists(add.table, table, as_, cs)
            assert _law_failure(add, table, as_, cs) == expected


def _all_tables(n: int):
    """Every n x n table with entries in 0..n-1."""
    for cells in itertools.product(range(n), repeat=n * n):
        yield [cells[i * n : (i + 1) * n] for i in range(n)]


@pytest.mark.parametrize("n", [1, 2])
def test_law_kernels_match_the_list_loops_on_every_table(n):
    index_lists = [ks for r in range(n + 1) for ks in itertools.permutations(range(n), r)]
    add = cyclic_group(n)
    failures = 0
    for table in _all_tables(n):
        flat = _flat_table(table, "table")
        for ks in index_lists:
            expected = oracles.associativity_failure_by_lists(table, ks)
            assert _associativity_failure(flat, ks) == expected
            for as_, cs in ((range(n), ks), (ks, range(n))):
                law_expected = oracles.law_failure_by_lists(add.table, table, as_, cs)
                assert _law_failure(add, table, as_, cs) == law_expected
                failures += law_expected is not None
            failures += expected is not None
    assert (failures > 0) == (n > 1)


def _null_table(n: int, cells: dict[tuple[int, int], int]) -> list[list[int]]:
    """The n x n table with every product 0 but the given cells."""
    table = [[0] * n for _ in range(n)]
    for (x, y), z in cells.items():
        table[x][y] = z
    return table


@pytest.mark.parametrize("triple", [(63, 1, 2), (1, 63, 2), (1, 2, 63)])
def test_associativity_kernel_reaches_index_63(triple):
    """In the null table with ij = c and ck = e, for distinct nonzero i,
    j, k, c and e, (ij)k = e while jk = 0 and i0 = 0; every other triple
    has both sides 0. So (i, j, k) is the only failure, and a kernel that
    skips the last row or column, or the last i it is given, misses it."""
    n = 64
    i, j, k = triple
    c, e = [x for x in range(1, n) if x not in triple][:2]
    table = _null_table(n, {(i, j): c, (c, k): e})
    assert oracles.first_nonassociative(table) == triple
    flat = _flat_table(table, "table")
    for is_ in (range(n), range(n - 1, 0, -1), [i]):
        assert _associativity_failure(flat, is_) == triple
    assert _associativity_failure(flat, [x for x in range(n) if x != i]) is None


def test_law_kernel_reaches_c_63():
    """Over the cyclic group of order 64, row 1 of the table is 1 + f(x)
    with f(x) = x mod 2, and every other row a is a + x. f(b + c) = f(b) +
    f(c) fails exactly when b and c are odd, so with c over the evens and
    63 the only failures are (1, b, 63) for odd b, and a kernel that skips
    the last c finds none."""
    n = 64
    add = cyclic_group(n)
    table = [[(a + x) % n for x in range(n)] for a in range(n)]
    table[1] = [1 + x % 2 for x in range(n)]
    cs = [*range(0, n, 2), n - 1]
    assert oracles.law_failure_by_lists(add.table, table, range(n), cs) == (1, 1, 63)
    assert _law_failure(add, table, range(n), cs) == (1, 1, 63)
    assert _law_failure(add, table, range(n), cs[:-1]) is None


@pytest.mark.parametrize("n", range(2, 7))
def test_law_never_fails_at_one_b_alone(n):
    """For each a and c the b with a*(b+c) != a*b - a + a*c are never
    exactly one. So the least failing b is never n - 1, and a kernel that
    skipped b = n - 1 would name the same first triple on every table: no
    table can tell it apart.

    With f(x) = -a + a*x the law at (a, b, c) reads f(b + c) = f(b) + f(c).
    Along the cycle b, b + c, b + 2c, ... of length m, the order of c, if
    the law held at every b but one, chaining the equations round the
    cycle gives the failing one's defect as -m f(c), nonzero, and every
    other cycle then fails somewhere too; one failure in all means one
    cycle, c of order n, and m f(c) = 0, a contradiction. As row a ranges
    over every row, f ranges over every map, so f is checked here as a
    map: every map over every group of order up to 5, and seeded maps at
    order 6."""
    rng = random.Random(f"one-b:{n}")
    for G in groups_of_order(n):
        t = G.table
        if n <= 5:
            maps = itertools.product(range(n), repeat=n)
        else:
            maps = [[rng.randrange(n) for _ in range(n)] for _ in range(2000)]
        for f in maps:
            for c in range(n):
                bad = sum(f[t[b][c]] != t[f[b]][f[c]] for b in range(n))
                assert bad != 1


def _make_group_verdict(table) -> str:
    """make_group's verdict on a table, checked against the full scan."""
    try:
        make_group(table)
    except NotAssociative as exc:
        assert not oracles._associative(table, len(table))
        assert exc.triple == oracles.first_nonassociative(table)
        return "not associative"
    except (NoIdentity, NotLatinSquare):
        return "not a loop"
    assert oracles._associative(table, len(table))
    return "group"


def _check_groups(groups, rng: random.Random) -> dict[str, int]:
    verdicts: dict[str, int] = {}
    for G in groups:
        # first = 1 keeps the identity, so the Latin check passes more often
        tables = [G.table, *_corruptions(rng, G.table, 0), *_corruptions(rng, G.table, 1)]
        for table in tables:
            relabeled = oracles.relabel(table, _random_labels(rng, G.n))
            _assert_associativity_kernel_agrees(relabeled)
            verdict = _make_group_verdict(relabeled)
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
    return verdicts


@pytest.mark.parametrize("n", SMALL_ORDERS)
def test_make_group_agrees_with_full_associativity_scan(n):
    verdicts = _check_groups(groups_of_order(n), random.Random(f"assoc:{n}"))
    assert verdicts["group"] >= len(groups_of_order(n))
    if n % 2 == 0 and n >= 6:
        # a group of even order has 2x2 swaps; every loop of order 4 or
        # less is a group
        assert verdicts.get("not associative", 0) > 0


def test_make_group_agrees_with_full_associativity_scan_orders_16_to_64():
    verdicts = _check_groups(_large_groups(), random.Random("assoc:large"))
    assert verdicts.get("not associative", 0) >= len(_large_groups())


def _relabeled_sides(braces: list[SkewBrace], side: str, rng: random.Random):
    """The add or mul table of each brace, relabeled by a seeded
    permutation fixing 0."""
    for B in braces:
        sigma = [0, *rng.sample(range(1, B.n), B.n - 1)]
        yield oracles.relabel(getattr(B, side).table, sigma)


def _next_two(entries: list[SkewBrace], i: int) -> list[SkewBrace]:
    """The two braces after entry i, cyclically: other group tables of the
    same order, which mostly break the law beside entry i's tables."""
    return [entries[(i + k) % len(entries)] for k in (1, 2)]


_GROUP_ERRORS = (NoIdentity, NotLatinSquare, NotAssociative)


def _group_failure(exc: Exception):
    """The exception make_group raised, in the form of
    oracles.first_group_failure."""
    if isinstance(exc, NoIdentity):
        return ("identity",)
    if isinstance(exc, NotLatinSquare):
        return (exc.kind, exc.index)
    return ("associativity", exc.triple)


def _groups_among(tables, make) -> list:
    """The tables that are groups. make_skew_brace, given make(t) for each
    other table t, must raise the failure the oracle finds first in t."""
    out = []
    for t in tables:
        expected = oracles.first_group_failure(t)
        if expected is None:
            out.append(t)
            continue
        with pytest.raises(_GROUP_ERRORS) as info:
            make_skew_brace(*make(t))
        assert _group_failure(info.value) == expected
    return out


def _check_law(B: SkewBrace, others: list[SkewBrace], rng: random.Random) -> tuple[int, int]:
    """Check assemble, is_two_sided and the bi-skew flag against
    left_compatible on group tables beside B's other table: B's own,
    relabeled or not, those of the other braces of its order, relabeled,
    and the corruptions that stay groups. make_skew_brace must reject the
    other corruptions. Returns how many pairs failed the law, and how many
    of them were pairs of groups that assemble or the bi-skew flag
    rejected. Corruptions and relabelings keep row and column 0, so 0
    stays a two-sided identity of every table and left_compatible, which
    skips a = 0, is the full law."""
    n = B.n
    add, mul = B.add.table, B.mul.table
    sigma = [0, *rng.sample(range(1, n), n - 1)]
    failed = rejected = 0
    # assemble and is_two_sided decide the law for (add, table)
    muls = [mul, oracles.relabel(mul, sigma), *_relabeled_sides(others, "mul", rng)]
    corrupted = _corruptions(rng, mul, 1)
    for table in muls + corrupted:
        _assert_law_kernel_agrees(B.add, table)
        _assert_law_kernel_agrees(B.add, _transpose(table))
        failed += not oracles.left_compatible(add, table)
    for table in muls + _groups_among(corrupted, lambda t: (add, t)):
        G = make_group(table)
        try:
            assemble(B.add, G)
            assert oracles.left_compatible(add, table)
        except LeftDistributivityFails as exc:
            assert exc.triple == oracles.first_incompatible(add, table)
            rejected += 1
        pair = SkewBrace(n=n, add=B.add, mul=G, lam=())
        assert is_two_sided(pair) == oracles.left_compatible(add, _transpose(table))
    # the bi-skew flag decides the law for (mul, table): vary the table playing *
    adds = [add, oracles.relabel(add, sigma), *_relabeled_sides(others, "add", rng)]
    corrupted = _corruptions(rng, add, 1)
    for table in adds + corrupted:
        _assert_law_kernel_agrees(B.mul, table)
        failed += not oracles.left_compatible(mul, table)
    for table in adds + _groups_among(corrupted, lambda t: (t, mul)):
        pair = SkewBrace(n=n, add=make_group(table), mul=B.mul, lam=())
        bi_skew = classify(pair).bi_skew
        assert bi_skew == oracles.left_compatible(mul, table)
        rejected += not bi_skew
    return failed, rejected


@pytest.mark.parametrize("n", SMALL_ORDERS)
def test_law_checks_agree_with_full_compatibility_scan(n):
    rng = random.Random(f"law:{n}")
    entries = all_skew_braces(n).entries
    counts = [_check_law(B, _next_two(entries, i), rng) for i, B in enumerate(entries)]
    failed, rejected = map(sum, zip(*counts))
    if n > 2:
        assert failed > 0
    if n > 3:
        # every group table of order 3 with identity 0 is the same
        assert rejected > 0


def test_law_checks_agree_with_full_compatibility_scan_orders_16_to_64():
    rng = random.Random("law:large")
    for factors in LARGE_FACTORS:
        B = _catalog_product(factors)
        failed, rejected = _check_law(B, [_catalog_product(factors, 1)], rng)
        assert failed >= rejected > 0

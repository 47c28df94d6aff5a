"""Property tests of the law checks against the O(n^3) oracles.

make_group decides associativity on a generating set (Light's test), and
assemble, is_two_sided and swap decide the compatibility law on generators
of the additive group. Every group and catalog brace through order 15, and
products of orders 16 to 64, are corrupted with seeded random: one changed
cell, a Latin-preserving 2x2 swap (a loop that still passes the Latin
check), and, for the law, a corrupted second table over a valid group.
Each verdict must agree with the full scan in tests/oracles.py, and each
error must name the first triple that scan finds. On every such table the
two law kernels, which compose rows with operator.itemgetter, must also
name the same first triple as the list comprehension loops they replaced,
kept in tests/oracles.py; at orders 1 and 2 they are checked on every
table, where an itemgetter of one index returns a scalar.
"""

import itertools
import random

import pytest

from sbk.braces import SkewBrace, _law_failure, assemble, is_two_sided, swap
from sbk.enumeration import all_skew_braces, groups_of_order
from sbk.errors import LeftDistributivityFails, NoIdentity, NotAssociative, NotLatinSquare
from sbk.groups import (
    FiniteGroup,
    _associativity_failure,
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


def _large_braces() -> list[SkewBrace]:
    """Products of catalog braces, of orders 16, 24, 32, 48 and 64."""
    cat = lambda n, i: all_skew_braces(n).entries[i]  # noqa: E731
    return [
        _product(cat(4, 3), cat(4, 2)),
        _product(cat(6, 3), cat(4, 3)),
        _product(cat(8, 25), cat(4, 0)),
        _product(cat(12, 5), cat(4, 1)),
        _product(cat(8, 25), cat(8, 3)),
    ]


def _any_table(table) -> FiniteGroup:
    """A FiniteGroup around any table, for the side of the law that plays
    the multiplication: the law checks read only its table."""
    return FiniteGroup(n=len(table), table=tuple(map(tuple, table)), inv=())


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
    """_associativity_failure names the list loop's first triple, with k
    over every element and over a descending subset."""
    n = len(table)
    for ks in (range(n), range(n - 1, 0, -2)):
        expected = oracles.associativity_failure_by_lists(table, ks)
        assert _associativity_failure(table, ks) == expected


def _assert_law_kernel_agrees(add: FiniteGroup, table) -> None:
    """_law_failure names the list loop's first triple, with c over every
    element and over the generators the law is decided on."""
    for cs in (range(add.n), add.gens):
        expected = oracles.law_failure_by_lists(add.table, table, cs)
        assert _law_failure(add, table, cs) == expected


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
        for ks in index_lists:
            expected = oracles.associativity_failure_by_lists(table, ks)
            assert _associativity_failure(table, ks) == expected
            law_expected = oracles.law_failure_by_lists(add.table, table, ks)
            assert _law_failure(add, table, ks) == law_expected
            failures += (expected is not None) + (law_expected is not None)
    assert (failures > 0) == (n > 1)


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


def _check_law(B: SkewBrace, rng: random.Random) -> int:
    """Check assemble, is_two_sided and swap against left_compatible on the
    brace and on corrupted second tables; returns how many pairs failed
    the law. Corruptions keep row and column 0, so 0 stays a two-sided
    identity of every table and left_compatible, which skips a = 0, is the
    full law."""
    n = B.n
    add, mul = B.add.table, B.mul.table
    sigma = [0, *rng.sample(range(1, n), n - 1)]
    muls = [mul, oracles.relabel(mul, sigma), *_corruptions(rng, mul, 1)]
    failed = 0
    for table in muls:
        _assert_law_kernel_agrees(B.add, table)
        _assert_law_kernel_agrees(B.add, _transpose(table))
        compatible = oracles.left_compatible(add, table)
        try:
            assemble(B.add, _any_table(table))
            assert compatible
        except LeftDistributivityFails as exc:
            assert not compatible
            assert exc.triple == oracles.first_incompatible(add, table)
            failed += 1
        pair = SkewBrace(n=n, add=B.add, mul=_any_table(table), lam=())
        assert is_two_sided(pair) == oracles.left_compatible(add, _transpose(table))
    # swap decides the law for (mul, add): corrupt the table playing *
    adds = [add, oracles.relabel(add, sigma), *_corruptions(rng, add, 1)]
    for table in adds:
        _assert_law_kernel_agrees(B.mul, table)
        pair = SkewBrace(n=n, add=_any_table(table), mul=B.mul, lam=())
        compatible = oracles.left_compatible(mul, table)
        assert (swap(pair) is not None) == compatible
        failed += not compatible
    return failed


@pytest.mark.parametrize("n", SMALL_ORDERS)
def test_law_checks_agree_with_full_compatibility_scan(n):
    rng = random.Random(f"law:{n}")
    failed = sum(_check_law(B, rng) for B in all_skew_braces(n).entries)
    if n > 2:
        assert failed > 0


def test_law_checks_agree_with_full_compatibility_scan_orders_16_to_64():
    rng = random.Random("law:large")
    for B in _large_braces():
        assert _check_law(B, rng) > 0

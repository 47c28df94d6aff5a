"""The byte path of the group and brace layers.

Every group up to order 256 has byte rows and columns: a group make_group
checks keeps the relabeled strings it checked them in, and any other group
derives them from its tuple table. On them the lambda rows, the
compatibility law and the Yang-Baxter map are read by whole-row
bytes.translate calls; past order 256, where one byte cannot hold an
entry, lambda and the law take an itemgetter over tuple rows. These tests
hold both paths to the tuple formulas: each catalog brace through order 15
and each product of orders 16 to 64 is written with a seeded relabeling
that moves the identity off index 0, loaded with load_brace, and compared
with the same brace rebuilt from lists and on groups built in process.
"""

import functools
import itertools
import random
from operator import itemgetter

import pytest

from sbk.braces import BraceFlags, _law_failure, assemble, classify, from_group, make_skew_brace
from sbk.enumeration import SUPPORTED_ORDERS, all_skew_braces
from sbk.errors import LeftDistributivityFails
from sbk.groups import _group, cyclic_group, make_group
from sbk.serialize import canonical_dumps, load_brace
from sbk.ybe import to_solution

import oracles
from test_golden import product_braces


@functools.cache
def _products():
    return list(product_braces())


def _in_process(B):
    """B rebuilt from its tuple tables on groups built in process, whose
    byte rows and columns are derived from those tables, the law checked
    by assemble."""
    return assemble(_group(B.add.table), _group(B.mul.table))


def _loaded_braces(tmp_path):
    """(name, loaded brace) for every catalog brace through order 15 and
    the products of orders 16 to 64, each written with a seeded relabeling
    whose identity is off index 0 where the order allows."""
    rng = random.Random("byte-path")
    named = [
        (f"{n}.{i}", B) for n in SUPPORTED_ORDERS for i, B in enumerate(all_skew_braces(n).entries)
    ]
    for name, B in named + _products():
        n = B.n
        labels = list(range(n))
        rng.shuffle(labels)
        if n > 1 and labels[0] == 0:
            k = rng.randrange(1, n)
            labels[0], labels[k] = labels[k], labels[0]
        obj = {
            "order": n,
            "add": [list(r) for r in oracles.relabel(B.add.table, labels)],
            "mul": [list(r) for r in oracles.relabel(B.mul.table, labels)],
        }
        path = tmp_path / f"{name}.json"
        path.write_text(canonical_dumps(obj), encoding="utf-8")
        yield name, load_brace(str(path))


def _assert_group_matches_its_bytes(G, name):
    n = G.n
    assert len(G._rows) == len(G._cols) == n, name
    assert all(type(r) is bytes and len(r) == n for r in G._rows + G._cols), name
    assert G.table == tuple(map(tuple, G._rows)), name
    assert all(type(row) is tuple for row in G.table), name
    assert G.columns == tuple(zip(*G.table)) == tuple(map(tuple, G._cols)), name
    assert G.table[0] == tuple(range(n)) and G.columns[0] == tuple(range(n)), name


def test_loaded_braces_match_the_tuple_formulas(tmp_path):
    count = 0
    expected_count = sum(len(all_skew_braces(n).entries) for n in SUPPORTED_ORDERS) + 9
    for name, B in _loaded_braces(tmp_path):
        n = B.n
        for G in (B.add, B.mul):
            _assert_group_matches_its_bytes(G, name)
        at, mt = B.add.table, B.mul.table
        # lam[a] is row -a of (B,+) read at the entries of row a of (B,*)
        expected = tuple(
            (itemgetter(*mt[a])(at[B.add.inv[a]]) if n > 1 else (0,)) for a in range(n)
        )
        assert B.lam == expected, name
        assert all(type(row) is tuple for row in B.lam), name
        assert B._lam_flat == b"".join(map(bytes, B.lam)), name
        rebuilt = make_skew_brace(
            [list(r) for r in B.add.table], [list(r) for r in B.mul.table]
        )
        built = _in_process(B)
        for G, H in ((B.add, built.add), (B.mul, built.mul)):
            # the rows and columns a check kept, and those derived from tuples
            assert G._rows == H._rows and G._cols == H._cols, name
        assert B == rebuilt == built and B.lam == rebuilt.lam == built.lam, name
        assert B._lam_flat == built._lam_flat, name
        assert classify(B) == classify(rebuilt) == classify(built), name
        assert to_solution(B) == to_solution(rebuilt) == to_solution(built), name
        count += 1
    assert count == expected_count


@pytest.mark.parametrize("mode", ["trivial", "almost_trivial"])
def test_past_order_256_lambda_takes_the_itemgetter_path(mode):
    n = 257
    B = from_group(cyclic_group(n), mode)
    # no byte strings: the rows and columns are the tuple ones
    assert B.add._rows is B.add.table and B.mul._cols is B.mul.columns
    assert "_lam_flat" not in B.__dict__
    at, mt = B.add.table, B.mul.table
    for a in (0, 1, 128, 256):
        assert B.lam[a] == tuple(at[B.add.inv[a]][mt[a][b]] for b in range(n))
    # C257 is abelian: both modes give the trivial brace, lam the identity
    assert B.lam[1] == tuple(range(n))
    assert classify(B) == BraceFlags(True, True, True, True, True)


def test_past_order_256_the_law_takes_the_itemgetter_path():
    n = 257
    add = cyclic_group(n)
    broken_cell = [list(r) for r in add.table]
    broken_cell[1][7] = broken_cell[1][8]
    swapped = [list(r) for r in add.table]
    swapped[2][3], swapped[2][200] = swapped[2][200], swapped[2][3]
    ranges = ((range(3), range(n)), ((2, 1, 0), add.gens), (range(n - 1, n - 4, -1), range(n)))
    failures = 0
    for mul in (add.table, broken_cell, swapped):
        for as_, cs in ranges:
            expected = oracles.law_failure_by_lists(add.table, mul, as_, cs)
            assert _law_failure(add, mul, as_, cs) == expected
            failures += expected is not None
    assert failures == 4


def _assert_law_kernels_agree(add_table, mul_table, name):
    """_law_failure on a group that keeps the byte columns make_group
    checked, and on the same group built in process, with the rows given
    as lists and as bytes, names the list loop's first triple, over every
    element and over generators."""
    n = len(add_table)
    loaded = make_group(add_table)
    built = _group(loaded.table)
    ranges = ((range(n), range(n)), (range(n), loaded.gens), (range(n - 1, -1, -2), range(n)))
    for as_, cs in ranges:
        expected = oracles.law_failure_by_lists(loaded.table, mul_table, as_, cs)
        for add in (loaded, built):
            assert _law_failure(add, mul_table, as_, cs) == expected, name
        assert _law_failure(loaded, tuple(map(bytes, mul_table)), as_, cs) == expected, name


def test_byte_law_names_the_first_triple_on_corrupted_tables():
    rng = random.Random("byte-law")
    failures = 0
    for n in (*range(1, 16), 24, 32):
        entries = list(all_skew_braces(n).entries) if n < 16 else []
        braces = entries + [B for _, B in _products() if B.n == n]
        for B in braces[:6]:
            add = [list(r) for r in B.add.table]
            corrupted = oracles.changed_cell(rng, B.mul.table)
            for mul in (
                [list(r) for r in B.mul.table],
                *([corrupted] if corrupted else []),
                [list(r) for r in rng.choice(braces).mul.table],
            ):
                _assert_law_kernels_agree(add, mul, f"{n}: {mul}")
                failures += oracles.law_failure_by_lists(add, mul, range(n), range(n)) is not None
    assert failures > 20


def test_byte_law_on_every_table_of_orders_1_and_2():
    for n in (1, 2):
        add = cyclic_group(n).table
        for cells in itertools.product(range(n), repeat=n * n):
            mul = [list(cells[i * n : (i + 1) * n]) for i in range(n)]
            _assert_law_kernels_agree(add, mul, str(mul))


def test_assemble_names_the_same_triple_on_loaded_and_built_groups():
    rejected = 0
    for n in (8, 12, 16):
        entries = all_skew_braces(n).entries if n < 16 else [B for _, B in _products() if B.n == n]
        for A, M in itertools.product(entries[::4], repeat=2):
            loaded = make_group(A.add.table), make_group(M.mul.table)
            built = _group(A.add.table), _group(M.mul.table)
            outcomes = []
            for add, mul in (loaded, built):
                try:
                    outcomes.append(assemble(add, mul).lam)
                except LeftDistributivityFails as exc:
                    outcomes.append(exc.triple)
            assert outcomes[0] == outcomes[1], (n, outcomes)
            if type(outcomes[0][0]) is int:  # a triple, not lambda rows
                assert outcomes[0] == oracles.first_incompatible(A.add.table, M.mul.table)
                rejected += 1
    assert rejected > 0

import random
from itertools import product

import pytest

from sbk import braces
from sbk.braces import (
    _law_failure as law_failure,
    assemble,
    classify,
    from_group,
    is_almost_trivial,
    is_two_sided,
    make_skew_brace,
    opposite,
    star,
)
from sbk.enumeration import SUPPORTED_ORDERS, all_skew_braces, groups_of_order
from sbk.errors import (
    IdentityMismatch,
    LeftDistributivityFails,
    NotAssociative,
    NotLatinSquare,
)
from sbk.groups import cyclic_group, dihedral_group, element_order
from sbk.serialize import brace_from_obj

import oracles
from test_golden import product_braces


def z3_table():
    return [[(i + j) % 3 for j in range(3)] for i in range(3)]


def test_trivial_brace_of_order_3():
    B = make_skew_brace(z3_table(), z3_table())
    flags = classify(B)
    assert flags.trivial and flags.abelian and flags.two_sided and flags.bi_skew


def test_invalid_pairing_raises():
    # two cyclic tables sharing identity 0 but incompatibly labeled;
    # found by scanning all table pairs of order 4
    add = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]
    mul = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
    with pytest.raises(LeftDistributivityFails) as err:
        make_skew_brace(add, mul)
    a, b, c = err.value.triple
    neg = [row.index(0) for row in add]
    assert mul[a][add[b][c]] != add[add[mul[a][b]][neg[a]]][mul[a][c]]


def test_every_klein_cyclic_pairing_is_valid():
    # at order 4 the Klein table with identity 0 is unique and pairs
    # compatibly with every cyclic table in either orientation
    import oracles

    tables = oracles.group_tables_with_identity(4)
    kleins = [t for t in tables if all(t[i][i] == 0 for i in range(4))]
    cyclics = [t for t in tables if any(t[i][i] != 0 for i in range(4))]
    assert len(kleins) == 1 and len(cyclics) == 3
    for k in kleins:
        for c in cyclics:
            make_skew_brace([list(r) for r in k], [list(r) for r in c])
            make_skew_brace([list(r) for r in c], [list(r) for r in k])


def test_identity_mismatch():
    # second table is a group whose identity sits at index 2
    z3 = z3_table()
    relabeled = [[z3[(i + 1) % 3][(j + 1) % 3] for j in range(3)] for i in range(3)]
    relabeled = [[(x - 1) % 3 for x in row] for row in relabeled]
    # relabeled is Z3 with identity at index 2
    with pytest.raises(IdentityMismatch):
        make_skew_brace(z3, relabeled)


def test_shared_identity_normalized_on_load():
    # both tables written with identity at index 1: loader renumbers
    z3 = z3_table()
    sigma = [1, 0, 2]
    relabeled = [
        [sigma[z3[sigma[i]][sigma[j]]] for j in range(3)] for i in range(3)
    ]
    B = make_skew_brace(relabeled, relabeled)
    assert B.add.table[0] == (0, 1, 2)
    assert classify(B).trivial


def relabel_to(table, sigma):
    """The table with every label x renamed sigma[x]."""
    n = len(table)
    inv = [sigma.index(i) for i in range(n)]
    return [[sigma[table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]


def c6_identity_at_1():
    return relabel_to([[(i + j) % 6 for j in range(6)] for i in range(6)], [1, 0, 2, 3, 4, 5])


def test_off_zero_identity_compatibility_error_names_a_failing_triple():
    # two cyclic groups of order 4 that are not compatible, written with
    # their shared identity at index 1
    add = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]
    mul = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
    sigma = [1, 0, 2, 3]
    A, M = relabel_to(add, sigma), relabel_to(mul, sigma)
    with pytest.raises(LeftDistributivityFails) as info:
        make_skew_brace(A, M)
    a, b, c = info.value.triple
    neg_a = A[a].index(1)
    assert M[a][A[b][c]] != A[A[M[a][b]][neg_a]][M[a][c]]


def test_off_zero_identity_associativity_error_names_a_failing_triple():
    # cyclic group of order 6 with its identity at index 1, then a swap of
    # a 2x2 Latin subsquare away from the identity: rows and columns stay
    # permutations, associativity breaks
    good = c6_identity_at_1()
    i, j, k, l = next(
        (i, j, k, l)
        for i, j, k, l in product(range(6), repeat=4)
        if 1 not in (i, j, k, l) and i < k and j < l
        and good[i][j] == good[k][l] and good[i][l] == good[k][j]
    )
    bad = [row.copy() for row in good]
    bad[i][j], bad[i][l], bad[k][j], bad[k][l] = good[i][l], good[i][j], good[k][l], good[k][j]
    with pytest.raises(NotAssociative) as info:
        make_skew_brace(good, bad)
    x, y, z = info.value.triple
    assert bad[bad[x][y]][z] != bad[x][bad[y][z]]


def test_off_zero_identity_latin_error_names_the_bad_row():
    good = c6_identity_at_1()
    bad = [row.copy() for row in good]
    bad[0][2] = bad[0][3]
    with pytest.raises(NotLatinSquare) as info:
        make_skew_brace(good, bad)
    assert (info.value.kind, info.value.index) == ("row", 0)


def test_almost_trivial_sym3_valid():
    B = from_group(dihedral_group(6), "almost_trivial")
    flags = classify(B)
    assert flags.almost_trivial and not flags.trivial
    assert flags.two_sided and flags.bi_skew and not flags.abelian


def test_lambda_trivial_brace_is_identity():
    B = from_group(cyclic_group(6), "trivial")
    for a in range(6):
        assert B.lam[a] == tuple(range(6))


def test_lambda_almost_trivial_is_conjugation():
    B = from_group(dihedral_group(6), "almost_trivial")
    at = B.add.table
    ainv = B.add.inv
    for a in range(6):
        expected = tuple(at[at[ainv[a]][b]][a] for b in range(6))
        assert B.lam[a] == expected


def test_lambda_of_zero_is_identity():
    for B in all_skew_braces(6).entries:
        assert B.lam[0] == tuple(range(6))


def test_star_trivial_brace_vanishes():
    B = from_group(cyclic_group(6), "trivial")
    assert all(star(B, a, b) == 0 for a in range(6) for b in range(6))


def test_star_fixes_zero_slots():
    for B in all_skew_braces(8).entries[:10]:
        for a in range(8):
            assert star(B, a, 0) == 0
            assert star(B, 0, a) == 0


def test_star_almost_trivial_matches_definition():
    B = from_group(dihedral_group(6), "almost_trivial")
    at = B.add.table
    ainv = B.add.inv
    mt = B.mul.table
    for a in range(6):
        for b in range(6):
            assert star(B, a, b) == at[at[ainv[a]][mt[a][b]]][ainv[b]]


def test_opposite_is_involutive():
    for B in all_skew_braces(6).entries:
        BB = opposite(opposite(B))
        assert BB.add.table == B.add.table
        assert BB.mul.table == B.mul.table


def test_opposite_of_trivial_is_almost_trivial():
    B = opposite(from_group(dihedral_group(6), "trivial"))
    assert classify(B).almost_trivial


def test_opposite_lambda_formula():
    # the opposite lambda is the additive conjugate: a + lam_a(b) - a
    for B in all_skew_braces(6).entries:
        Bo = opposite(B)
        at = B.add.table
        ainv = B.add.inv
        for a in range(B.n):
            for b in range(B.n):
                assert Bo.lam[a][b] == at[at[a][B.lam[a][b]]][ainv[a]]


def test_opposite_star_formula():
    # a *op b = -b + ab - a, computed through the opposite brace
    for B in all_skew_braces(6).entries:
        Bo = opposite(B)
        at = B.add.table
        ainv = B.add.inv
        mt = B.mul.table
        for a in range(B.n):
            for b in range(B.n):
                assert star(Bo, a, b) == at[at[ainv[b]][mt[a][b]]][ainv[a]]


def test_swap_of_trivial_brace_always_succeeds():
    for n in (4, 6, 8):
        from sbk.enumeration import groups_of_order

        for G in groups_of_order(n):
            B = from_group(G, "trivial")
            assert oracles.left_compatible(B.mul.table, B.add.table)
            assert classify(B).bi_skew


def test_swap_returns_none_for_two_sided_non_bi_skew():
    found = None
    for n in range(2, 9):
        for B in all_skew_braces(n).entries:
            flags = classify(B)
            if flags.two_sided and not flags.bi_skew:
                found = B
                break
        if found:
            break
    assert found is not None
    assert not oracles.left_compatible(found.mul.table, found.add.table)


def test_swapped_lambda_relation_on_bi_skew():
    # the lambda map of the swapped brace at the inverse index agrees with
    # the original lambda map
    for B in all_skew_braces(6).entries:
        if not classify(B).bi_skew:
            continue
        sw = make_skew_brace(B.mul.table, B.add.table)
        for a in range(B.n):
            for b in range(B.n):
                assert sw.lam[B.mul.inv[a]][b] == B.lam[a][b]


def test_classify_trivial_on_abelian_group():
    B = from_group(cyclic_group(4), "trivial")
    flags = classify(B)
    assert flags == classify(from_group(cyclic_group(4), "almost_trivial"))
    assert flags.trivial and flags.almost_trivial and flags.abelian
    assert flags.two_sided and flags.bi_skew


def test_classify_flag_implications():
    for n in range(1, 9):
        for B in all_skew_braces(n).entries:
            flags = classify(B)
            if flags.abelian:
                assert flags.trivial
            add_abelian = all(
                B.add.table[a][b] == B.add.table[b][a]
                for a in range(n)
                for b in range(n)
            )
            assert flags.abelian == (flags.trivial and add_abelian)


def test_prime_order_braces_are_trivial_with_equal_groups():
    for p in (2, 3, 5, 7, 11):
        entries = all_skew_braces(p).entries
        assert len(entries) == 1
        B = entries[0]
        assert classify(B).trivial
        assert B.add.table == B.mul.table
        assert element_order(B.add, 1) == p


def test_trivial_braces_are_two_sided():
    from sbk.enumeration import groups_of_order

    for n in (4, 6, 8, 12):
        for G in groups_of_order(n):
            assert classify(from_group(G, "trivial")).two_sided


def test_from_group_same_brace_on_abelian():
    G = cyclic_group(5)
    assert (
        from_group(G, "trivial").mul.table
        == from_group(G, "almost_trivial").mul.table
    )


def test_lambda_is_multiplicative_homomorphism():
    for B in all_skew_braces(8).entries[:12]:
        n = B.n
        for a in range(n):
            for b in range(n):
                composed = tuple(B.lam[a][B.lam[b][c]] for c in range(n))
                assert B.lam[B.mul.table[a][b]] == composed


def test_two_sided_scan_matches_flag():
    for B in all_skew_braces(6).entries:
        at, mt, ainv = B.add.table, B.mul.table, B.add.inv
        expected = all(
            mt[at[b][c]][a] == at[at[mt[b][a]][ainv[a]]][mt[c][a]]
            for a, b, c in product(range(B.n), repeat=3)
        )
        assert is_two_sided(B) == expected


def _assert_validated(B, add_table, mul_table):
    """B equals the brace make_skew_brace validates from the two tables,
    and its lambda maps match their definition."""
    rebuilt = make_skew_brace(add_table, mul_table)
    assert rebuilt == B
    assert rebuilt.lam == B.lam
    assert oracles.lambda_maps_problem(B) is None


@pytest.mark.parametrize("n", range(1, 13))
def test_opposite_passes_validation(n):
    # opposite builds without checks: the opposite of a skew brace is one
    # (Koch and Truman, J. Algebra 546 (2020))
    for B in all_skew_braces(n).entries:
        transposed = [list(col) for col in zip(*B.add.table)]
        _assert_validated(opposite(B), transposed, B.mul.table)


@pytest.mark.parametrize("n", range(1, 16))
def test_from_group_passes_validation(n):
    for G in groups_of_order(n):
        transposed = [list(col) for col in zip(*G.table)]
        _assert_validated(from_group(G, "trivial"), G.table, G.table)
        _assert_validated(from_group(G, "almost_trivial"), G.table, transposed)


def _assert_flags_match_the_oracles(B0, name=""):
    """classify and is_two_sided agree with the brute-force compatibility
    check on B0 and its opposite, and a bi-skew brace's swapped tables
    make a brace."""
    n = B0.n
    for B in (B0, opposite(B0)):
        add, mul = B.add.table, B.mul.table
        flags = classify(B)
        two_sided = oracles.left_compatible(add, tuple(zip(*mul)))
        assert is_two_sided(B) == flags.two_sided == two_sided, name
        assert flags.bi_skew == oracles.left_compatible(mul, add), name
        if flags.bi_skew:
            swapped = make_skew_brace(mul, add)
            assert (swapped.add.table, swapped.mul.table) == (mul, add), name
        commutative = all(add[a][b] == add[b][a] for a in range(n) for b in range(n))
        assert flags.abelian == (mul == add and commutative), name


@pytest.mark.parametrize("n", range(1, 16))
def test_flags_match_the_oracles(n):
    # the flags are decided on generators; the brute-force compatibility
    # check is the arbiter, on every catalog brace and its opposite
    for B0 in all_skew_braces(n).entries:
        _assert_flags_match_the_oracles(B0)


def test_flags_match_the_oracles_on_relabelings_and_large_products():
    """The same on the kernel braces the catalog test leaves out: each
    seeded relabeling, whose identity is off index 0 in its file, and the
    nine products of orders 16 to 64 with their relabelings."""
    seen = set()
    for name, B in kernel_braces():
        if B.n > 15 or name.endswith("relabeled"):
            _assert_flags_match_the_oracles(B, name)
        if B.n > 15:
            flags = classify(B)
            seen |= {("two_sided", flags.two_sided), ("bi_skew", flags.bi_skew)}
    # the products give both answers of both flags
    assert len(seen) == 4


def test_classify_decides_the_flags_on_generators_alone(monkeypatch):
    """classify never scans every element as a: both flags read the law on
    mul.gens (or add.gens) only. assemble still scans every a and c once
    the generators fail, and names the brute-force first bad triple."""
    calls = []

    def spy(add, mul_table, as_, cs):
        calls.append((add.n, list(as_)))
        return law_failure(add, mul_table, as_, cs)

    monkeypatch.setattr(braces, "_law_failure", spy)
    for n in range(1, 16):
        for B0 in all_skew_braces(n).entries:
            for B in (B0, opposite(B0)):
                calls.clear()
                classify(B)
                assert len(calls) == 2
                assert all(as_ != list(range(k)) for k, as_ in calls), (n, calls)
    rejected = 0
    for n in range(4, 9):
        entries = all_skew_braces(n).entries
        for A, M in product(entries[:4], repeat=2):
            calls.clear()
            try:
                assemble(A.add, M.mul)
            except LeftDistributivityFails as exc:
                assert exc.triple == oracles.first_incompatible(A.add.table, M.mul.table)
                assert (n, list(range(n))) in calls
                rejected += 1
    assert rejected > 0


def kernel_braces():
    """(name, brace) for every catalog brace through order 15, the order-1
    brace among them, and the nine products of catalog braces of orders 16
    to 64; each is followed by a seeded relabeling of it, loaded from a
    JSON object with its identity off index 0 where the order allows."""
    rng = random.Random("kernels")
    named = [
        (f"{n}.{i}", B)
        for n in SUPPORTED_ORDERS
        for i, B in enumerate(all_skew_braces(n).entries)
    ]
    for name, B in named + list(product_braces()):
        yield name, B
        n = B.n
        labels = list(range(n))
        rng.shuffle(labels)
        if n > 1 and labels[0] == 0:
            k = rng.randrange(1, n)
            labels[0], labels[k] = labels[k], labels[0]
        moved = {
            "order": n,
            "add": [list(r) for r in oracles.relabel(B.add.table, labels)],
            "mul": [list(r) for r in oracles.relabel(B.mul.table, labels)],
        }
        yield f"{name} relabeled", brace_from_obj(moved)


def test_lambda_and_almost_trivial_match_the_definitions():
    almost = 0
    for name, B in kernel_braces():
        n = B.n
        at = B.add.table
        mt = B.mul.table
        for a in range(n):
            minus_a = at[a].index(0)
            # lam_a(b) = -a + ab
            assert B.lam[a] == tuple(at[minus_a][mt[a][b]] for b in range(n)), name
        # almost trivial: ab = b + a
        expected = all(mt[a][b] == at[b][a] for a in range(n) for b in range(n))
        assert is_almost_trivial(B) == expected, name
        almost += expected
    assert almost > 0

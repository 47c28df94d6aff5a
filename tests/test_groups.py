import random
from itertools import product

import pytest

from sbk.bitset import full_mask, mask_of, members, size
from sbk.errors import (
    BadInput,
    GroupTooLarge,
    NoIdentity,
    NotAssociative,
    NotLatinSquare,
    NotPrime,
)
from sbk.groups import (
    _spanning,
    alternating_group_4,
    automorphism_group,
    centralizer,
    characteristic_subgroups,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    element_order,
    generated_subgroup,
    group_properties,
    is_automorphism,
    is_isomorphic,
    make_group,
    subgroups,
    sylow_p,
    table_isomorphisms,
    trivial_group,
)
from sbk.serialize import brace_to_obj, canonical_dumps, load_brace

import oracles
from test_golden import _catalog_through, _large_brace_files, _large_braces


def test_make_group_z2():
    G = make_group([[0, 1], [1, 0]])
    assert G.n == 2
    assert G.inv == (0, 1)
    assert group_properties(G).abelian


def test_make_group_no_identity():
    with pytest.raises(NoIdentity):
        make_group([[0, 0], [0, 0]])


def test_make_group_not_latin():
    # identity row/column fine, but row 1 repeats an entry
    with pytest.raises(NotLatinSquare):
        make_group([[0, 1, 2], [1, 1, 0], [2, 0, 1]])


def _first_non_latin(table):
    """The full scan's verdict: the first row, then the first column, that
    is not a permutation of 0..n-1."""
    n = len(table)
    for i, row in enumerate(table):
        if sorted(row) != list(range(n)):
            return ("row", i)
    for j, col in enumerate(zip(*table)):
        if sorted(col) != list(range(n)):
            return ("column", j)
    return None


def _with_zero(G, at):
    """G with a zero adjoined at index at: z*x = x*z = z for every x."""
    label = [x if x < at else x + 1 for x in range(G.n)]
    table = [[at] * (G.n + 1) for _ in range(G.n + 1)]
    for a in range(G.n):
        for b in range(G.n):
            table[label[a]][label[b]] = label[G.table[a][b]]
    return table


def _monoids():
    # associative tables with a two-sided identity that are not groups
    for n in (4, 6, 12):
        yield pytest.param([[i * j % n for j in range(n)] for i in range(n)], id=f"Z{n}_mul")
    for G, at in ((cyclic_group(3), 0), (dihedral_group(6), 6), (cyclic_group(4), 2)):
        yield pytest.param(_with_zero(G, at), id=f"{G.name}_zero_at_{at}")


@pytest.mark.parametrize("table", _monoids())
def test_make_group_rejects_monoids_like_the_full_scan(table):
    assert oracles.first_nonassociative(table) is None
    with pytest.raises(NotLatinSquare) as err:
        make_group(table)
    assert (err.value.kind, err.value.index) == _first_non_latin(table)


def test_make_group_not_associative():
    # the nonassociative quasigroup on 5 points: x o y = 2x - y mod 5 has
    # no identity, so build a table that keeps identity 0 but breaks
    # associativity instead
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAssociative) as err:
        make_group(table)
    i, j, k = err.value.triple
    assert table[table[i][j]][k] != table[i][table[j][k]]


def test_make_group_normalizes_identity():
    # Z3 written with identity at index 2
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    G = make_group(table)
    assert G.table[0] == (0, 1, 2)
    assert all(G.table[i][0] == i for i in range(3))
    assert is_isomorphic(G, cyclic_group(3)) is not None


def test_make_group_symmetric_3_from_generators():
    # close the permutations (1 0 2) and (1 2 0) under composition and
    # build the Cayley table from scratch
    elements = []
    frontier = [(0, 1, 2)]
    while frontier:
        p = frontier.pop()
        if p in elements:
            continue
        elements.append(p)
        for q in ((1, 0, 2), (1, 2, 0)):
            frontier.append(tuple(p[q[i]] for i in range(3)))
    elements.sort()
    index = {p: i for i, p in enumerate(elements)}
    table = [
        [index[tuple(p[q[i]] for i in range(3))] for q in elements]
        for p in elements
    ]
    G = make_group(table)
    # exhaustive axiom check over all 216 triples
    for i in range(6):
        for j in range(6):
            for k in range(6):
                assert G.table[G.table[i][j]][k] == G.table[i][G.table[j][k]]
    assert not group_properties(G).abelian
    assert is_isomorphic(G, dihedral_group(6)) is not None


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 1], [1]], "row 1 of 'table' must have length 2"),
        ([[0, 1], "10"], "row 1 of 'table' must have length 2"),
        ([[0, 2], [1, 0]], "entry 2 in row 0 of 'table' out of range"),
        ([[0, 1], [True, 0]], "entry True in row 1 of 'table' out of range"),
    ],
)
def test_make_group_names_the_first_malformed_row_or_entry(table, message):
    with pytest.raises(BadInput) as err:
        make_group(table)
    assert str(err.value) == message


def test_group_order_cap():
    with pytest.raises(GroupTooLarge):
        make_group([[(i + j) % 65 for j in range(65)] for i in range(65)])


@pytest.mark.parametrize(
    "n,x,expected",
    [(4, 1, 4), (4, 2, 2), (4, 0, 1), (6, 2, 3), (6, 5, 6)],
)
def test_element_order_cyclic(n, x, expected):
    assert element_order(cyclic_group(n), x) == expected


def test_element_order_three_cycle():
    G = dihedral_group(6)
    orders = sorted(element_order(G, x) for x in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]


def test_subgroups_z4():
    G = cyclic_group(4)
    subs = subgroups(G)
    assert subs == [mask_of([0]), mask_of([0, 2]), full_mask(4)]


def test_subgroups_trivial_group():
    assert subgroups(trivial_group()) == [1]


def test_subgroups_klein():
    G = direct_product(cyclic_group(2), cyclic_group(2))
    assert len(subgroups(G)) == 5


@pytest.mark.parametrize("n", range(1, 9))
def test_subgroups_match_bruteforce(n):
    rng = random.Random(n)
    for G in _groups_of(n):
        relabeled = []
        for _ in range(3):
            sigma = list(range(n))
            rng.shuffle(sigma)
            relabeled.append(make_group(oracles.relabel(G.table, sigma)))
        for H in [G, *relabeled]:
            expected = sorted(oracles.subgroups_bruteforce(H.table, list(H.inv)))
            assert sorted(subgroups(H)) == expected


def _c2_power(k):
    G = cyclic_group(2)
    for _ in range(k - 1):
        G = direct_product(G, cyclic_group(2))
    return G


def test_generated_subgroup_matches_bruteforce_closure():
    rng = random.Random(5)
    groups = [G for n in range(1, 13) for G in _groups_of(n)] + [_c2_power(5)]
    for G in groups:
        for _ in range(25):
            # duplicates and the identity are allowed among the generators
            gens = [rng.randrange(G.n) for _ in range(rng.randint(0, 4))]
            assert generated_subgroup(G, gens) == oracles.generated_subgroup_bruteforce(
                G.table, gens
            ), (G, gens)


def test_subgroups_of_c2_5():
    assert len(subgroups(_c2_power(5))) == 374


def test_subgroups_of_c2_6():
    # the number of subspaces of GF(2)^6, summed over dimensions 0..6
    assert len(subgroups(_c2_power(6))) == 1 + 63 + 651 + 1395 + 651 + 63 + 1


def _groups_of(n):
    from sbk.enumeration import groups_of_order

    return groups_of_order(n)


def _assert_validated(G):
    rebuilt = make_group(G.table)
    assert rebuilt.table == G.table
    assert rebuilt.inv == G.inv
    assert all(G.table[x][G.inv[x]] == 0 == G.table[G.inv[x]][x] for x in G.elements())


@pytest.mark.parametrize("n", range(1, 16))
def test_standard_groups_pass_validation(n):
    # the standard constructors build their tables without checks;
    # make_group checks every group axiom, and the inverses are checked
    # against their definition
    for G in _groups_of(n):
        _assert_validated(G)


@pytest.mark.parametrize("k", [5, 6])
def test_c2_powers_pass_validation(k):
    _assert_validated(_c2_power(k))


def test_sylow_sym3():
    G = dihedral_group(6)
    assert len(sylow_p(G, 3)) == 1
    assert len(sylow_p(G, 2)) == 3
    assert size(sylow_p(G, 3)[0]) == 3


def test_sylow_empty_when_p_does_not_divide():
    assert sylow_p(cyclic_group(5), 3) == []


def test_sylow_requires_prime():
    with pytest.raises(NotPrime):
        sylow_p(cyclic_group(6), 4)


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_sylow_count_congruence(n):
    for G in _groups_of(n):
        for p in (2, 3):
            if n % p:
                continue
            count = len(sylow_p(G, p))
            assert count % p == 1


def test_centralizer_abelian_is_everything():
    G = cyclic_group(6)
    assert centralizer(G, 4) == full_mask(6)


def test_centralizer_of_identity():
    G = dihedral_group(8)
    assert centralizer(G, 0) == full_mask(8)


def test_centralizer_of_transposition():
    G = dihedral_group(6)
    t = next(x for x in range(6) if element_order(G, x) == 2)
    assert members(centralizer(G, t)) == [0, t]


def test_characteristic_subgroups_abelian():
    G = cyclic_group(6)
    ch = characteristic_subgroups(G)
    assert ch.center == full_mask(6)
    assert ch.derived == 1


def test_characteristic_subgroups_sym3():
    G = dihedral_group(6)
    ch = characteristic_subgroups(G)
    assert ch.center == 1
    assert size(ch.derived) == 3


def test_characteristic_subgroups_quaternion():
    G = dicyclic_group(8)
    ch = characteristic_subgroups(G)
    assert ch.center == ch.derived
    assert size(ch.center) == 2


def test_automorphism_group_counts():
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert len(automorphism_group(klein)) == 6
    assert len(automorphism_group(cyclic_group(5))) == 4
    assert len(automorphism_group(trivial_group())) == 1
    # |GL(4, 2)|
    assert len(set(automorphism_group(_c2_power(4)))) == 20160


@pytest.mark.parametrize(
    "G,order",
    [
        (_c2_power(4), 20160),  # |GL(4, 2)|
        (direct_product(cyclic_group(7), cyclic_group(7)), 2016),  # |GL(2, 7)|
    ],
    ids=["C2^4", "C7xC7"],
)
def test_automorphism_group_of_elementary_abelian_is_general_linear(G, order):
    auts = automorphism_group(G)
    assert len(set(auts)) == len(auts) == order
    assert all(is_automorphism(G, p) for p in auts)


def test_table_isomorphisms_span_check_on_two_tables():
    # Two cyclic tables of order 6 on one set. The first generator, 1, has
    # order 6 in the first table and 3 in the second, so its right products
    # map every element while it spans only half of the second table: the
    # span check adds a step. Without it the search would also return
    # x -> -x, an automorphism of the first table only.
    first = cyclic_group(6).table
    second = oracles.relabel(first, (0, 2, 1, 4, 5, 3))
    tables = [first, second]
    assert table_isomorphisms(tables, tables, find_all=True) == [tuple(range(6))]
    assert oracles.isomorphisms_bruteforce(tables, tables) == [tuple(range(6))]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_table_isomorphisms_on_two_group_tables_match_bruteforce(n):
    # pairs of group tables on one set, not only braces, against a relabeled
    # copy of a pair and against another pair
    rng = random.Random(n)
    groups = _groups_of(n)

    def pair():
        sigma = [0] + rng.sample(range(1, n), n - 1)
        return [rng.choice(groups).table, oracles.relabel(rng.choice(groups).table, sigma)]

    for _ in range(4 if n == 8 else 12):
        src = pair()
        tau = [0] + rng.sample(range(1, n), n - 1)
        for dst in ([oracles.relabel(t, tau) for t in src], pair()):
            assert sorted(table_isomorphisms(src, dst, find_all=True)) == (
                oracles.isomorphisms_bruteforce(src, dst)
            )


@pytest.mark.parametrize("make", [lambda: cyclic_group(6), lambda: dihedral_group(6)])
def test_automorphism_group_matches_bruteforce(make):
    G = make()
    assert sorted(automorphism_group(G)) == sorted(oracles.automorphisms_bruteforce(G))


@pytest.mark.parametrize("n", range(1, 9))
def test_automorphism_group_matches_bruteforce_by_order(n):
    rng = random.Random(n)
    for G in _groups_of(n):
        sigma = [0] + rng.sample(range(1, n), n - 1)
        for H in (G, make_group(oracles.relabel(G.table, sigma))):
            assert automorphism_group(H) == sorted(oracles.automorphisms_bruteforce(H))


def test_automorphism_group_is_closed_under_composition():
    for n in (8, 12):
        for G in _groups_of(n):
            auts = automorphism_group(G)
            index = set(auts)
            assert tuple(range(n)) in index
            assert all(
                tuple(p[q[x]] for x in range(n)) in index for p in auts for q in auts
            )


def test_automorphisms_verify():
    for n in range(1, 16):
        for G in _groups_of(n):
            auts = automorphism_group(G)
            index = set(auts)
            assert len(index) == len(auts)
            for p in auts:
                assert is_automorphism(G, p)
                inv = [0] * n
                for x, y in enumerate(p):
                    inv[y] = x
                assert tuple(inv) in index


def test_group_properties_sym3():
    props = group_properties(dihedral_group(6))
    assert (props.abelian, props.nilpotent, props.soluble) == (False, False, True)


def test_group_properties_quaternion():
    props = group_properties(dicyclic_group(8))
    assert (props.abelian, props.nilpotent, props.soluble) == (False, True, True)


def test_group_properties_cyclic():
    props = group_properties(cyclic_group(12))
    assert (props.abelian, props.nilpotent, props.soluble) == (True, True, True)


def test_group_properties_a4():
    props = group_properties(alternating_group_4())
    assert (props.abelian, props.nilpotent, props.soluble) == (False, False, True)


@pytest.mark.parametrize("n", [6, 8, 12])
def test_nilpotency_matches_sylow_criterion(n):
    for G in _groups_of(n):
        assert group_properties(G).nilpotent == oracles.sylow_count_nilpotency(G)


def test_is_isomorphic_distinguishes_z4_klein():
    assert is_isomorphic(cyclic_group(4), direct_product(cyclic_group(2), cyclic_group(2))) is None


def _product_table(elements, op):
    index = {x: i for i, x in enumerate(elements)}
    return [[index[op(x, y)] for y in elements] for x in elements]


def _heisenberg_3(x, y):
    # (a, b, c)(a', b', c') = (a + a', b + b', c + c' + ab') mod 3
    return ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3, (x[2] + y[2] + x[0] * y[1]) % 3)


def _c4_semidirect_c4(x, y):
    # x^i y^j x^k y^l = x^(i + (-1)^j k) y^(j + l)
    return ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 4)


def test_same_order_profile_is_not_isomorphic():
    # through order 15 the order profiles alone separate every pair of
    # groups; these pairs share their profiles, so only the search itself
    # can reject them
    z3_cubed = list(product(range(3), repeat=3))
    z4_squared = list(product(range(4), repeat=2))
    c3_3 = make_group(
        _product_table(z3_cubed, lambda x, y: tuple((u + v) % 3 for u, v in zip(x, y)))
    )
    heis = make_group(_product_table(z3_cubed, _heisenberg_3))
    c4_c4 = make_group(
        _product_table(z4_squared, lambda x, y: ((x[0] + y[0]) % 4, (x[1] + y[1]) % 4))
    )
    c4_sd_c4 = make_group(_product_table(z4_squared, _c4_semidirect_c4))
    for G, H in ((c3_3, heis), (c4_c4, c4_sd_c4)):
        profile = sorted(element_order(G, x) for x in G.elements())
        assert profile == sorted(element_order(H, x) for x in H.elements())
        assert is_isomorphic(G, H) is None
        assert is_isomorphic(H, G) is None
    auts = automorphism_group(heis)
    assert len(auts) == 432  # 9 inner automorphisms times |GL(2, 3)| = 48
    assert all(is_automorphism(heis, p) for p in auts)


def test_is_isomorphic_z6_z2xz3():
    G = cyclic_group(6)
    H = direct_product(cyclic_group(2), cyclic_group(3))
    f = is_isomorphic(G, H)
    assert f is not None
    for a in range(6):
        for b in range(6):
            assert f[G.table[a][b]] == H.table[f[a]][f[b]]


def test_is_isomorphic_reflexive_identity():
    G = dihedral_group(8)
    assert is_isomorphic(G, G) == tuple(range(8))


def test_loaded_groups_keep_the_span_of_their_table(tmp_path):
    # make_group hands the span it checked associativity on to the group
    # when the identity is already at 0; either way gens is that of the
    # table the group holds. The brace files of the golden digests.
    paths = list(_large_brace_files(tmp_path))
    for name, B in [*_catalog_through(12), *_large_braces()]:
        path = tmp_path / f"{name}.json"
        path.write_text(canonical_dumps(brace_to_obj(B)), encoding="utf-8")
        paths.append(path)
    for path in paths:
        B = load_brace(str(path))
        for G in (B.add, B.mul):
            assert G.gens == _spanning(G.table), path.name

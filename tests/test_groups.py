import random
from itertools import chain, product

import pytest

from sbk import groups
from sbk.bitset import full_mask, mask_of, members, size
from sbk.enumeration import all_skew_braces, groups_of_order
from sbk.braces import from_group, make_skew_brace
from sbk.errors import (
    BadInput,
    GroupTooLarge,
    IdentityMismatch,
    NoIdentity,
    NotAssociative,
    NotLatinSquare,
    NotPrime,
)
from sbk.enumeration import _product_rows
from sbk.groups import (
    _cyclic_subgroups,
    _is_prime,
    _spanning,
    alternating_group_4,
    automorphism_group,
    center,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    element_order,
    generated_subgroup,
    make_group,
    subgroups,
    sylow_p,
    table_isomorphisms,
    trivial_group,
)
from sbk.serialize import brace_to_obj, canonical_dumps, load_brace
from sbk.substructure import brace_centers, is_soluble_brace, quotient

import oracles
from test_golden import (
    _catalog_through,
    _large_brace_files,
    _large_braces,
    _order_64_analyze_braces,
    product_braces,
)
from test_laws import _corruptions, _random_labels


def test_make_group_z2():
    G = make_group([[0, 1], [1, 0]])
    assert G.n == 2
    assert G.inv == (0, 1)
    assert G.table[0][1] == G.table[1][0]


def test_make_group_no_identity():
    with pytest.raises(NoIdentity):
        make_group([[0, 0], [0, 0]])


def _identity_tables(rng: random.Random, n: int):
    """(kind, planted identity, table) for seeded square tables of order n
    with random entries: none planted; several left-only identity rows;
    several right-only identity columns; one two-sided identity; and one
    two-sided identity e after an index l < e whose row and column agree
    with the identity's everywhere but at e. A one-sided identity l can
    never sit beside a two-sided e, since l = l*e = e, so that near miss
    is the closest a table can come to one."""

    def rand():
        return [[rng.randrange(n) for _ in range(n)] for _ in range(n)]

    def plant_row(t, e):
        t[e] = list(range(n))

    def plant_column(t, e):
        for x in range(n):
            t[x][e] = x

    yield "random", None, rand()
    if n >= 2:
        for kind, plant in (("left-only", plant_row), ("right-only", plant_column)):
            t = rand()
            for e in rng.sample(range(n), rng.randrange(2, n + 1)):
                plant(t, e)
            yield kind, None, t
    e = rng.randrange(n)
    t = rand()
    plant_row(t, e)
    plant_column(t, e)
    yield "two-sided", e, t
    if n >= 2:
        e = rng.randrange(1, n)
        l = rng.randrange(e)
        t = rand()
        for x in (l, e):
            plant_row(t, x)
            plant_column(t, x)
        yield "after a near miss", e, t


def test_find_identity_matches_the_definition():
    rng = random.Random("identity")
    planted_before = 0
    for n in range(1, 13):
        for _ in range(20):
            for kind, planted, table in _identity_tables(rng, n):
                e = oracles.find_identity_by_definition(table)
                if planted is not None or kind != "random":
                    assert e == planted, (n, kind)
                for rows in ([list(r) for r in table], [tuple(r) for r in table]):
                    assert groups.find_identity(groups._flat_table(rows, "t")) == e, (n, kind)
                if e is None:
                    with pytest.raises(NoIdentity):
                        make_group(table)
                elif kind == "after a near miss":
                    planted_before += 1
    assert planted_before == 11 * 20


def test_identity_errors_name_the_identities_found():
    """make_skew_brace names both tables' identities when they differ,
    before it checks either table further; without one it raises
    NoIdentity, as make_group does."""
    rng = random.Random("identity errors")
    for n in range(2, 13):
        tables = [(e, t) for _, e, t in _identity_tables(rng, n) if e is not None]
        tables.append((None, [[0] * n for _ in range(n)]))
        for (e1, t1), (e2, t2) in product(tables, repeat=2):
            if e1 is not None and e2 is not None and e1 != e2:
                with pytest.raises(IdentityMismatch) as err:
                    make_skew_brace(t1, t2)
                assert (err.value.add_identity, err.value.mul_identity) == (e1, e2)
            elif e1 is None:
                with pytest.raises(NoIdentity):
                    make_skew_brace(t1, t2)


def test_center_past_the_order_cap():
    # direct_product builds its table unchecked, so past MAX_GROUP_ORDER
    cases = [
        (direct_product(dihedral_group(8), dihedral_group(12)), 4),
        (direct_product(dicyclic_group(8), cyclic_group(17)), 34),
        (direct_product(cyclic_group(9), cyclic_group(8)), 72),
    ]
    for G, order in cases:
        n, t = G.n, G.table
        assert n > groups.MAX_GROUP_ORDER
        expected = mask_of(g for g in range(n) if all(t[g][h] == t[h][g] for h in range(n)))
        assert groups.center(G) == expected
        assert size(expected) == order


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
    assert table_isomorphisms([G.table], [cyclic_group(3).table]) != []


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
    assert any(G.table[a][b] != G.table[b][a] for a in range(6) for b in range(6))
    assert table_isomorphisms([G.table], [dihedral_group(6).table]) != []


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


@pytest.mark.parametrize("n", range(1, 16))
def test_is_subgroup_matches_bruteforce(n):
    for G in _groups_of(n):
        expected = set(oracles.subgroups_bruteforce(G.table, list(G.inv)))
        if n <= 10:
            masks = range(1 << n)
        else:
            rng = random.Random(n)
            masks = [*expected]
            # each subgroup with one element more, and with one non-identity
            # element less: sets that hold 0 and are nearly closed
            for H in expected:
                outside = [x for x in range(n) if not H >> x & 1]
                inside = members(H)[1:]
                if outside:
                    masks.append(H | 1 << rng.choice(outside))
                if inside:
                    masks.append(H ^ 1 << rng.choice(inside))
            masks += [rng.getrandbits(n) for _ in range(300)]
            masks += [rng.getrandbits(n) | 1 for _ in range(300)]
        for mask in masks:
            is_subgroup = generated_subgroup(G, members(mask)) == mask
            assert is_subgroup == (mask in expected), (G.name, members(mask))


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


def _catalog_and_product_groups():
    """Every catalog group through order 15, then the groups of the
    order-16 to 64 product braces."""
    for n in range(1, 16):
        yield from groups_of_order(n)
    for _, B in product_braces():
        yield from (B.add, B.mul)


def test_cyclic_subgroups_are_the_generated_ones():
    for G in _catalog_and_product_groups():
        assert _cyclic_subgroups(G) == [generated_subgroup(G, [x]) for x in G.elements()], G


def test_spanning_matches_the_double_walk():
    # the greedy steps of the single walk are those of the double walk on
    # groups and on tables that are not groups, relabeled too; on
    # subgroups and other sets holding 0 (among, as generated_subgroup
    # passes it); and on the product rows of automorphism groups, as
    # _orbit_representatives passes them. What they reach is the subgroup
    # among generates on a group, and every index on a table whose row 0
    # reads 0..n-1, as each x is reached once it is a step
    rng = random.Random("spanning")
    for G in _catalog_and_product_groups():
        full = full_mask(G.n)
        tables = [G.table, *_corruptions(rng, G.table, 0), *_corruptions(rng, G.table, 1)]
        for table in tables:
            for t in (table, oracles.relabel(table, _random_labels(rng, G.n))):
                steps, reached = _spanning(t)
                assert steps == oracles.spanning_by_double_walk(t), G
                if list(t[0]) == list(G.elements()):
                    assert reached == full, G
        if G.n > 15:
            continue
        # sets holding 0 that need not be subgroups, as a subgroup test does
        masks = [1 | rng.getrandbits(G.n) for _ in range(5)]
        for mask in subgroups(G) + masks:
            ms = members(mask)
            steps, reached = _spanning(G.table, among=ms)
            assert steps == oracles.spanning_by_double_walk(G.table, among=ms)
            assert reached == oracles.generated_subgroup_bruteforce(G.table, ms), G
        auts = automorphism_group(G)
        rows, _ = _product_rows(auts)
        steps, reached = _spanning(rows)
        assert steps == oracles.spanning_by_double_walk(rows), G
        assert reached == full_mask(len(auts)), G


def _listable_groups():
    """_catalog_and_product_groups without the additive group of the
    order-64 product, whose automorphism group is too large to list in a
    test."""
    for n in range(1, 16):
        yield from groups_of_order(n)
    for _, B in product_braces():
        yield from (B.mul,) if B.n == 64 else (B.add, B.mul)


def test_automorphism_groups_list_the_identity_first():
    # _orbit_representatives starts _spanning at index 0 of the product
    # rows of automorphism_group's sorted list, and _regular_assignments
    # assigns index 0 to shift 0: the identity, the least permutation.
    for G in _listable_groups():
        assert automorphism_group(G)[0] == tuple(range(G.n)), G


def test_product_rows_invert_every_automorphism():
    # both catalog passes read inverses off _product_rows: the search to
    # conjugate candidates, the orbit pass to build its actions
    for G in _listable_groups():
        rows, inverse = _product_rows(automorphism_group(G))
        for i, j in enumerate(inverse):
            assert rows[i][j] == 0 == rows[j][i], (G, i)


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


def test_is_prime_matches_a_divisor_scan():
    for p in range(-3, 201):
        assert _is_prime(p) == (p >= 2 and all(p % d for d in range(2, p))), p


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
    assert oracles.centralizer(G.table, 4) == full_mask(6)


def test_centralizer_of_identity():
    G = dihedral_group(8)
    assert oracles.centralizer(G.table, 0) == full_mask(8)


def test_centralizer_of_transposition():
    G = dihedral_group(6)
    t = next(x for x in range(6) if element_order(G, x) == 2)
    assert members(oracles.centralizer(G.table, t)) == [0, t]


def _derived(G):
    """The subgroup generated by every commutator a b a^-1 b^-1."""
    t, inv = G.table, G.inv
    return generated_subgroup(
        G, {t[t[t[a][b]][inv[a]]][inv[b]] for a in G.elements() for b in G.elements()}
    )


def test_characteristic_subgroups_abelian():
    G = cyclic_group(6)
    assert center(G) == full_mask(6)
    assert _derived(G) == 1


def test_characteristic_subgroups_sym3():
    G = dihedral_group(6)
    assert center(G) == 1
    assert size(_derived(G)) == 3


def test_characteristic_subgroups_quaternion():
    G = dicyclic_group(8)
    assert center(G) == _derived(G)
    assert size(center(G)) == 2


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
    assert all(oracles.is_automorphism(G.table, p) for p in auts)


def test_table_isomorphisms_span_check_on_two_tables():
    # Two cyclic tables of order 6 on one set. The first generator, 1, has
    # order 6 in the first table and 3 in the second, so its right products
    # map every element while it generates only half of the second table.
    # With several tables every mapped element becomes a step, so f is
    # checked on every product in the second table as well. Stepping on
    # the placed generator alone, as with one table, the search would also
    # return x -> -x, an automorphism of the first table only.
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
                assert oracles.is_automorphism(G.table, p)
                inv = [0] * n
                for x, y in enumerate(p):
                    inv[y] = x
                assert tuple(inv) in index


def _nilpotent(G):
    """Whether the upper central series reaches G. In the trivial brace on
    G the ideals are the normal subgroups, and the quotient by Z(G) is the
    trivial brace on G/Z(G); so G is nilpotent exactly when quotients by
    the multiplicative centre end at order 1."""
    B = from_group(G, "trivial")
    while B.n > 1:
        z = brace_centers(B).z_mul
        if z == 1:
            return False
        B = quotient(B, z).brace
    return True


def _properties(G):
    """Abelian, nilpotent and soluble. The trivial brace on G is soluble
    exactly when G is: its ideals are the normal subgroups, and a quotient
    by one is an abelian brace exactly when the quotient group is
    abelian."""
    soluble = is_soluble_brace(from_group(G, "trivial")) is not None
    return center(G) == full_mask(G.n), _nilpotent(G), soluble


def test_group_properties_sym3():
    assert _properties(dihedral_group(6)) == (False, False, True)


def test_group_properties_quaternion():
    assert _properties(dicyclic_group(8)) == (False, True, True)


def test_group_properties_cyclic():
    assert _properties(cyclic_group(12)) == (True, True, True)


def test_group_properties_a4():
    assert _properties(alternating_group_4()) == (False, False, True)


@pytest.mark.parametrize("n", [6, 8, 12])
def test_nilpotency_matches_sylow_criterion(n):
    for G in _groups_of(n):
        assert _nilpotent(G) == oracles.sylow_count_nilpotency(G)


def test_is_isomorphic_distinguishes_z4_klein():
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert table_isomorphisms([cyclic_group(4).table], [klein.table]) == []


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
        assert table_isomorphisms([G.table], [H.table]) == []
        assert table_isomorphisms([H.table], [G.table]) == []
    auts = automorphism_group(heis)
    assert len(auts) == 432  # 9 inner automorphisms times |GL(2, 3)| = 48
    assert all(oracles.is_automorphism(heis.table, p) for p in auts)


def test_is_isomorphic_z6_z2xz3():
    G = cyclic_group(6)
    H = direct_product(cyclic_group(2), cyclic_group(3))
    (f,) = table_isomorphisms([G.table], [H.table])
    for a in range(6):
        for b in range(6):
            assert f[G.table[a][b]] == H.table[f[a]][f[b]]


def test_byte_relabel_is_the_transposition_relabel():
    """_moved_to_zero(flat, e) is the table relabeled by the transposition
    (0 e), for every e, on every catalog group through order 15 and both
    tables of the order-64 products; it moves an identity at e to 0."""
    tables = [G.table for n in range(1, 16) for G in groups_of_order(n)]
    for _, B in _order_64_analyze_braces():
        if B.n == 64:
            tables += [B.add.table, B.mul.table]
    assert len(tables) == 28 + 8
    for table in tables:
        n = len(table)
        flat = groups._flat_table(table, "table")
        for e in range(n):
            sigma = list(range(n))
            sigma[0], sigma[e] = e, 0
            moved = oracles.relabel(table, sigma)
            assert groups._moved_to_zero(flat, e) == bytes(chain(*moved)), (n, e)
            assert groups._moved_to_zero(groups._flat_table(moved, "table"), e) == flat


def test_a_load_spans_each_table_once(tmp_path, monkeypatch):
    # with the identity off 0, Light's test runs on the relabeled table
    # with the span that becomes the group's gens
    B = all_skew_braces(8).entries[13]
    sigma = [3, 5, 0, 7, 1, 6, 2, 4]
    obj = {
        "order": 8,
        "add": [list(r) for r in oracles.relabel(B.add.table, sigma)],
        "mul": [list(r) for r in oracles.relabel(B.mul.table, sigma)],
    }
    path = tmp_path / "moved.json"
    path.write_text(canonical_dumps(obj), encoding="utf-8")
    spans = []

    def counting(*args, **kwargs):
        spans.append(args[0])
        return _spanning(*args, **kwargs)

    monkeypatch.setattr(groups, "_spanning", counting)
    loaded = load_brace(str(path))
    tables = [loaded.add.table, loaded.mul.table]
    assert [loaded.add.gens, loaded.mul.gens] == [_spanning(t)[0] for t in tables]
    assert [tuple(map(tuple, t)) for t in spans] == tables


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
            assert G.gens == _spanning(G.table)[0], path.name

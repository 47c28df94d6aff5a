import random

import pytest

from sbk.bitset import members, size
from sbk.braces import classify, from_group, make_skew_brace
from sbk.enumeration import (
    SUPPORTED_ORDERS,
    _brace_from_assignment,
    _orbit_representatives,
    _regular_assignments,
    all_skew_braces,
    are_isomorphic_braces,
    canonical_table,
    groups_of_order,
)
from sbk.errors import UnsupportedOrder
from sbk.groups import (
    _order_profile,
    automorphism_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    generated_subgroup,
    make_group,
    subgroups,
    table_isomorphisms,
)
from sbk.substructure import ker_lambda

import oracles
from test_golden import product_braces


@pytest.mark.parametrize(
    "n,count",
    [(1, 1), (2, 1), (3, 1), (4, 2), (5, 1), (6, 2), (8, 5), (9, 2), (10, 2), (12, 5), (15, 1)],
)
def test_groups_of_order_counts(n, count):
    assert len(groups_of_order(n)) == count


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_groups_of_order_complete_small(n):
    assert len(groups_of_order(n)) == oracles.count_groups_bruteforce(n)


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_groups_of_order_pairwise_non_isomorphic(n):
    groups = groups_of_order(n)
    for i, G in enumerate(groups):
        for H in groups[i + 1 :]:
            assert table_isomorphisms([G.table], [H.table]) == []


@pytest.mark.parametrize("n", SUPPORTED_ORDERS)
def test_groups_of_order_have_distinct_order_profiles(n):
    # the catalog sort names a multiplicative group's type by this profile
    profiles = [tuple(sorted(_order_profile([G.table], n))) for G in groups_of_order(n)]
    assert len(set(profiles)) == len(profiles)


def test_groups_of_order_cap():
    with pytest.raises(UnsupportedOrder):
        groups_of_order(16)


def regular_braces(G):
    """One brace per regular subgroup of Hol(G), in search order, from the
    oracle's full listing: the search itself keeps only some of them."""
    auts = automorphism_group(G)
    return [
        _brace_from_assignment(G, auts, assign)
        for assign in oracles.regular_assignments_both_orders(G.table, auts)
    ]


def test_regular_subgroups_of_prime_cyclic():
    for p in (3, 5, 7):
        G = cyclic_group(p)
        auts = automorphism_group(G)
        assignments = _regular_assignments(G, auts)
        # the unique regular subgroup is the translations
        assert assignments == [(auts.index(tuple(range(p))),) * p]
        assert regular_braces(G)[0].mul.table == G.table


def test_regular_subgroups_of_klein():
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    braces = regular_braces(klein)
    assert len(braces) == 4
    translations = sum(B.mul.table == klein.table for B in braces)
    c4 = cyclic_group(4).table
    cyclic4 = sum(table_isomorphisms([B.mul.table], [c4]) != [] for B in braces)
    assert translations == 1
    assert cyclic4 == 3


def test_translations_give_trivial_brace():
    G = dihedral_group(6)
    for B in regular_braces(G):
        if B.mul.table == G.table:
            assert classify(B).trivial
            break
    else:
        pytest.fail("translation subgroup not found")


def test_twisted_translations_give_almost_trivial_brace():
    G = dihedral_group(6)
    almost = from_group(G, "almost_trivial")
    assert any(B.mul.table == almost.mul.table for B in regular_braces(G))


def test_are_isomorphic_braces_reflexive():
    for B in all_skew_braces(6).entries:
        assert are_isomorphic_braces(B, B) == tuple(range(B.n))


def test_are_isomorphic_braces_distinguishes_additive_groups():
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    B1 = from_group(cyclic_group(4), "trivial")
    B2 = from_group(klein, "trivial")
    assert are_isomorphic_braces(B1, B2) is None


def test_trivial_vs_almost_trivial_on_sym3():
    G = dihedral_group(6)
    assert (
        are_isomorphic_braces(from_group(G, "trivial"), from_group(G, "almost_trivial"))
        is None
    )


def test_are_isomorphic_braces_witness_preserves_both_tables():
    # a seeded relabeling of every catalog brace through order 12 and of
    # every product brace of orders 16 to 64, loaded from its tables, is
    # found isomorphic by a map respecting both tables
    rng = random.Random(12)
    braces = [B for n in range(1, 13) for B in all_skew_braces(n).entries]
    braces += [B for _, B in product_braces()]
    for B in braces:
        n = B.n
        sigma = [0] + rng.sample(range(1, n), n - 1)
        B2 = make_skew_brace(
            oracles.relabel(B.add.table, sigma), oracles.relabel(B.mul.table, sigma)
        )
        f = are_isomorphic_braces(B, B2)
        assert f is not None
        for a in range(n):
            for b in range(n):
                assert f[B.add.table[a][b]] == B2.add.table[f[a]][f[b]]
                assert f[B.mul.table[a][b]] == B2.mul.table[f[a]][f[b]]


@pytest.mark.parametrize(
    "G",
    [
        direct_product(dihedral_group(8), cyclic_group(4)),
        direct_product(dihedral_group(8), dihedral_group(8)),
    ],
    ids=["D8xC4", "D8xD8"],
)
def test_are_isomorphic_braces_none_on_one_additive_group(G):
    # The trivial and almost trivial braces on a non-abelian group share
    # the additive group and the order profile, so the search runs. They
    # are not isomorphic: classify tells them apart, and ker lambda is all
    # of G in the one and the centre in the other.
    n = G.n
    T = from_group(G, "trivial")
    A = from_group(G, "almost_trivial")
    assert classify(T) != classify(A)
    assert size(ker_lambda(T)) == n > size(ker_lambda(A))
    sigma = [0] + random.Random(n).sample(range(1, n), n - 1)
    A2 = make_skew_brace(
        oracles.relabel(A.add.table, sigma), oracles.relabel(A.mul.table, sigma)
    )
    assert are_isomorphic_braces(T, A) is None
    assert are_isomorphic_braces(T, A2) is None
    assert are_isomorphic_braces(A2, T) is None


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 1), (4, 4), (5, 1), (6, 6)])
def test_catalog_counts_match_bruteforce(n, count):
    catalog = all_skew_braces(n)
    brute = oracles.skew_braces_bruteforce(n)
    assert catalog.count == count
    assert brute["total"] == count


@pytest.mark.parametrize("n", [4, 6])
def test_catalog_per_group_counts_match_bruteforce(n):
    catalog = all_skew_braces(n)
    brute = oracles.skew_braces_bruteforce(n)
    by_name = dict(catalog.per_group_counts())
    for G in groups_of_order(n):
        key = oracles.canonical_form(G.table)
        assert brute["per_additive_class"][key] == by_name[G.name]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_prime_order_catalog_is_single_brace(p):
    assert all_skew_braces(p).count == 1


@pytest.mark.parametrize("n", range(1, 16))
def test_catalog_entries_are_validated_braces(n):
    # the catalog builds its braces without checks; make_skew_brace checks
    # both group laws and the compatibility law on the stored tables
    for B in all_skew_braces(n).entries:
        rebuilt = make_skew_brace(
            [list(r) for r in B.add.table], [list(r) for r in B.mul.table]
        )
        assert rebuilt == B
        assert rebuilt.lam == B.lam


@pytest.mark.parametrize("n", range(1, 16))
def test_catalog_dedup_soundness(n):
    # the orbits are the isomorphism classes (Guarnieri and Vendramin,
    # Math. Comp. 86 (2017), section 4); an explicit search confirms it
    entries = all_skew_braces(n).entries
    for i, B1 in enumerate(entries):
        for B2 in entries[i + 1 :]:
            assert are_isomorphic_braces(B1, B2) is None


def test_catalog_contains_trivial_and_almost_trivial_for_every_group():
    for n in (4, 6, 8, 12):
        catalog = all_skew_braces(n)
        for G in groups_of_order(n):
            trivial = from_group(G, "trivial")
            almost = from_group(G, "almost_trivial")
            assert any(
                are_isomorphic_braces(trivial, B) is not None for B in catalog.entries
            )
            assert any(
                are_isomorphic_braces(almost, B) is not None for B in catalog.entries
            )


def test_regular_subgroup_count_at_least_class_count():
    for n in (4, 6):
        catalog = all_skew_braces(n)
        by_name = dict(catalog.per_group_counts())
        for G in groups_of_order(n):
            assert len(regular_braces(G)) >= by_name[G.name]


def test_catalog_is_deterministic():
    first = all_skew_braces(6)
    second = all_skew_braces(6)
    assert first is second  # cached
    all_skew_braces.cache_clear()
    rebuilt = all_skew_braces(6)
    assert [B.mul.table for B in rebuilt.entries] == [
        B.mul.table for B in first.entries
    ]
    assert rebuilt.provenance == first.provenance


def _canonical_both_ways(table):
    """canonical_table pruned by every automorphism of the table, checked
    against the unpruned search, which the identity alone gives."""
    n = len(table)
    full = canonical_table(table, automorphism_group(make_group(table)))
    assert full == canonical_table(table, [tuple(range(n))])
    return full


def test_canonical_table_is_relabeling_invariant():
    B = all_skew_braces(6).entries[3]
    table = B.mul.table
    sigma = (0, 3, 1, 5, 2, 4)
    inv = [sigma.index(i) for i in range(6)]
    relabeled = tuple(
        tuple(sigma[table[inv[i]][inv[j]]] for j in range(6)) for i in range(6)
    )
    assert _canonical_both_ways(table) == _canonical_both_ways(relabeled)


@pytest.mark.parametrize("n", range(1, 9))
def test_canonical_table_matches_bruteforce(n):
    rng = random.Random(n)
    for G in groups_of_order(n):
        tables = [G.table]
        for _ in range(3):
            sigma = [0] + rng.sample(range(1, n), n - 1)
            tables.append(oracles.relabel(G.table, sigma))
        for table in tables:
            assert _canonical_both_ways(table) == oracles.canonical_form(table)


GROUPS_TO_15 = [G for n in range(1, 16) for G in groups_of_order(n)]
C2xC2 = direct_product(cyclic_group(2), cyclic_group(2))
C4xC4 = direct_product(cyclic_group(4), cyclic_group(4))


# C2^4 is left out: the oracle's full listing does not finish.
@pytest.mark.parametrize(
    "G",
    GROUPS_TO_15
    + [
        C4xC4,
        dihedral_group(16),
        dicyclic_group(16),
        cyclic_group(18),
        direct_product(cyclic_group(3), cyclic_group(6)),
        dihedral_group(18),
        dihedral_group(20),
        dicyclic_group(20),
        direct_product(cyclic_group(5), cyclic_group(5)),
        dihedral_group(24),
        cyclic_group(27),
    ],
    ids=lambda G: f"{G.n}_{G.name}",
)
def test_regular_assignments_match_both_orders(G):
    # the search keeps an ordered subsequence of the full listing that
    # meets every Aut(G)-orbit
    auts = automorphism_group(G)
    found = _regular_assignments(G, auts)
    full = oracles.regular_assignments_both_orders(G.table, auts)
    rest = iter(full)
    assert all(assign in rest for assign in found)
    assert _orbit_representatives(found, auts) == _orbit_representatives(full, auts)


@pytest.mark.parametrize("n", range(1, 16))
def test_regular_assignments_meet_every_orbit_under_relabeling(n):
    rng = random.Random(n)
    for G in groups_of_order(n):
        sigma = [0] + rng.sample(range(1, n), n - 1)
        H = make_group(oracles.relabel(G.table, sigma))
        auts = automorphism_group(H)
        full = oracles.regular_assignments_both_orders(H.table, auts)
        assert _orbit_representatives(
            _regular_assignments(H, auts), auts
        ) == _orbit_representatives(full, auts)


def test_regular_assignments_found_through_15():
    # one branch per stabilizer class: the full listing has 498
    assert sum(
        len(_regular_assignments(G, automorphism_group(G))) for G in GROUPS_TO_15
    ) == 246


def _right_closure_outside(G, K, gamma):
    """The elements that right products by K and gamma reach from gamma
    without stepping into K, as a bitmask."""
    steps = members(K) + [gamma]
    reached = 1 << gamma
    frontier = [gamma]
    while frontier:
        row = G.table[frontier.pop()]
        for s in steps:
            c = row[s]
            if not (K | reached) >> c & 1:
                reached |= 1 << c
                frontier.append(c)
    return reached


@pytest.mark.parametrize(
    "G",
    GROUPS_TO_15 + [direct_product(C2xC2, C2xC2), C4xC4],
    ids=lambda G: f"{G.n}_{G.name}",
)
def test_one_product_order_reaches_the_join(G):
    # from gamma, right products by K and gamma that never step into K
    # reach all of <K, gamma> outside K
    for K in subgroups(G):
        for gamma in range(G.n):
            if K >> gamma & 1:
                continue
            join = generated_subgroup(G, members(K) + [gamma])
            assert _right_closure_outside(G, K, gamma) == join & ~K


@pytest.mark.parametrize("n", range(1, 16))
def test_orbit_representatives_match_bruteforce(n):
    for G in groups_of_order(n):
        auts = automorphism_group(G)
        assignments = _regular_assignments(G, auts)
        assert _orbit_representatives(
            assignments, auts
        ) == oracles.orbit_minima_bruteforce(assignments, auts)


@pytest.mark.parametrize("n", range(1, 16))
def test_orbit_count_matches_burnside(n):
    # number of orbits = mean number of assignments each automorphism fixes
    for G in groups_of_order(n):
        auts = automorphism_group(G)
        index = {p: i for i, p in enumerate(auts)}
        assignments = oracles.regular_assignments_both_orders(G.table, auts)
        fixed = sum(
            oracles.conjugate_assignment(a, f, auts, index) == a
            for f in auts
            for a in assignments
        )
        assert fixed % len(auts) == 0
        found = _regular_assignments(G, auts)
        assert fixed // len(auts) == len(_orbit_representatives(found, auts))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_catalog_blocks_ordered_by_multiplicative_type(n):
    catalog = all_skew_braces(n)
    for gi in range(len(catalog.group_names)):
        block = [
            oracles.canonical_form(B.mul.table)
            for B, g in zip(catalog.entries, catalog.provenance)
            if g == gi
        ]
        assert block == sorted(block)


@pytest.mark.parametrize("n", range(1, 16))
def test_catalog_lambda_maps_match_oracle(n):
    for B in all_skew_braces(n).entries:
        assert oracles.lambda_maps_problem(B) is None


def test_catalog_order_cap():
    assert all_skew_braces(15).count == 1
    for n in (0, 16):
        with pytest.raises(UnsupportedOrder, match=f"^order {n} is outside the supported range 1..15$"):
            all_skew_braces(n)

"""Property tests of the structure tests decided on generators.

subgroups joins by right cosets; subbrace_carriers, the ideals of
structure, center and brace_square decide their tests on generating sets;
assemble decides the compatibility law on generators of both groups. Each
is checked here against its definition, from raw tables or
tests/oracles.py, on a seeded relabeling of every catalog brace through
order 15 and of its opposite, and of the trivial and almost trivial braces
on the 14 groups of order 16. The law and the two-sided and bi-skew flags
are checked on every (add, mul) pair of group tables of the catalog braces
of one order, through order 8. What analyze reads without building the
opposite brace is checked against what it reads off it, whether the
centre of (B,*) is an ideal against the star oracle, and its bi-skew flag
against the full compatibility scan of the swapped operations.
"""

import random

import pytest

from sbk.bitset import full_mask, members
from sbk.braces import (
    SkewBrace,
    assemble,
    classify,
    from_group,
    is_two_sided,
    make_skew_brace,
    opposite,
)
from sbk.cli import _analysis_obj
from sbk.enumeration import all_skew_braces
from sbk.errors import LeftDistributivityFails
from sbk.groups import (
    FiniteGroup,
    _subgroup_lattice,
    center,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    make_group,
    subgroups,
    table_isomorphisms,
)
from sbk.substructure import _opposite_square, brace_square, structure, subbrace_carriers

import oracles
from test_golden import product_braces


def _semidirect(N: FiniteGroup, phi: list[int], k: int) -> FiniteGroup:
    """N x| C_k, the generator of C_k acting by the automorphism phi of N,
    whose k-th power is the identity: (a, i)(b, j) = (a phi^i(b), i + j),
    with (a, i) at index a k + i."""
    powers = [list(range(N.n))]
    for _ in range(k - 1):
        powers.append([phi[x] for x in powers[-1]])
    table = [
        [N.table[a][powers[i][b]] * k + (i + j) % k for b in range(N.n) for j in range(k)]
        for a in range(N.n)
        for i in range(k)
    ]
    return make_group(table)


def groups_of_order_16() -> list[FiniteGroup]:
    """The 14 groups of order 16."""
    c2, c4, c8 = cyclic_group(2), cyclic_group(4), cyclic_group(8)
    c4c2 = direct_product(c4, c2)  # (a, b) at index 2a + b
    return [
        cyclic_group(16),
        direct_product(c4, c4),
        direct_product(c8, c2),
        direct_product(c4c2, c2),
        direct_product(direct_product(c2, c2), direct_product(c2, c2)),
        dihedral_group(16),
        _semidirect(c8, [3 * x % 8 for x in range(8)], 2),  # semidihedral
        _semidirect(c8, [5 * x % 8 for x in range(8)], 2),  # modular
        dicyclic_group(16),
        _semidirect(c4, [3 * x % 4 for x in range(4)], 4),
        direct_product(dihedral_group(8), c2),
        direct_product(dicyclic_group(8), c2),
        # a -> ab, b -> b on C4 x C2
        _semidirect(c4c2, [2 * a + (a + b) % 2 for a in range(4) for b in range(2)], 2),
        # a -> a, b -> a^2 b on C4 x C2: the Pauli group
        _semidirect(c4c2, [2 * ((a + 2 * b) % 4) + b for a in range(4) for b in range(2)], 2),
    ]


def test_groups_of_order_16_are_pairwise_non_isomorphic():
    groups = groups_of_order_16()
    assert len(groups) == 14
    for i, G in enumerate(groups):
        assert G.n == 16
        for H in groups[i + 1 :]:
            assert table_isomorphisms([G.table], [H.table]) == []


def _relabeled(braces: list[SkewBrace], rng: random.Random) -> list[SkewBrace]:
    """The braces, of one order, with their elements relabeled by one
    seeded permutation fixing 0."""
    n = braces[0].n
    sigma = [0, *rng.sample(range(1, n), n - 1)]
    return [
        make_skew_brace(oracles.relabel(B.add.table, sigma), oracles.relabel(B.mul.table, sigma))
        for B in braces
    ]


def _structure_braces():
    """Every catalog brace through order 15 and its opposite, and the
    trivial and almost trivial braces on each group of order 16, the two
    of them together, since they share their additive group."""
    for n in range(1, 16):
        for B in all_skew_braces(n).entries:
            yield [B]
            yield [opposite(B)]
    for G in groups_of_order_16():
        yield [from_group(G, "trivial"), from_group(G, "almost_trivial")]


def _closed(table, mask: int) -> bool:
    ms = members(mask)
    return all(mask >> table[x][y] & 1 for x in ms for y in ms)


def _center_by_definition(table) -> int:
    n = len(table)
    return sum(1 << g for g in range(n) if all(table[g][h] == table[h][g] for h in range(n)))


def _check_structure(B: SkewBrace, rng: random.Random, subs_of: dict) -> None:
    n = B.n
    at, mt = B.add.table, B.mul.table
    if at not in subs_of:
        brute = oracles.subgroups_bruteforce(at, list(B.add.inv))
        subs_of[at] = sorted(brute, key=oracles.sort_key)
    subs = subs_of[at]

    assert subgroups(B.add) == subs
    for m, (gens, ms) in _subgroup_lattice(B.add).items():
        assert oracles.generated_subgroup_bruteforce(at, gens) == m
        assert ms == members(m)
    assert subbrace_carriers(B) == [m for m in subs if _closed(mt, m)]

    # subgroups and random subsets, empty and full among them
    masks = subs + [rng.getrandbits(n) for _ in range(8)] + [0, full_mask(n)]
    found = structure(B).ideals
    for m in masks:
        assert (m in found) == oracles.star_ideal_oracle(B, m)

    assert center(B.add) == _center_by_definition(at)
    assert center(B.mul) == _center_by_definition(mt)

    full = full_mask(n)
    assert brace_square(B) == oracles.star_span(B, full, full)


def test_structure_tests_match_their_definitions_on_relabelings():
    rng = random.Random("generators")
    subs_of: dict = {}
    for braces in _structure_braces():
        for B in _relabeled(braces, rng):
            _check_structure(B, rng, subs_of)


@pytest.mark.parametrize("n", range(1, 9))
def test_law_on_every_pair_of_catalog_group_tables(n):
    """assemble against the full scan on every (add, mul) pair of group
    tables found in the catalog braces of order n, each relabeled by a
    seeded permutation fixing 0 and by the cycle (1 2 ... n-1), the same
    two for every table, so the catalog's own pairs stay braces under
    each. The two-sided and bi-skew flags are read on every pair as well,
    brace or not: each is decided on the generators of the group that
    plays *, and taking the other group's generators instead gives a wrong
    answer on some of these pairs from order 4 on."""
    rng = random.Random(f"pairs:{n}")
    entries = all_skew_braces(n).entries
    tables = {t: None for B in entries for t in (B.add.table, B.mul.table)}
    sigma = [0, *rng.sample(range(1, n), n - 1)]
    cycle = [0, *range(2, n), 1][:n]
    relabeled = {}
    for labels in (sigma, cycle):
        relabeled.update((oracles.relabel(t, labels), None) for t in tables)
    groups = [make_group(t) for t in relabeled]
    braces = rejected = 0
    for A in groups:
        for M in groups:
            pair = SkewBrace(n=n, add=A, mul=M, lam=())
            mirrored = oracles.left_compatible(A.table, tuple(zip(*M.table)))
            assert is_two_sided(pair) == mirrored
            assert classify(pair).bi_skew == oracles.left_compatible(M.table, A.table)
            try:
                assemble(A, M)
                assert oracles.left_compatible(A.table, M.table)
                braces += 1
            except LeftDistributivityFails as exc:
                assert exc.triple == oracles.first_incompatible(A.table, M.table)
                rejected += 1
    assert braces >= len(entries)
    # every group table of order 3 or less with identity 0 is the same
    assert (rejected > 0) == (n > 3)


def _analysis_braces():
    """Every catalog brace through order 15, its opposite and a seeded
    relabeling of it that moves 0, and the nine products of orders 16 to
    64 of test_golden.PRODUCT_PAIRS."""
    rng = random.Random("analysis")
    for n in range(1, 16):
        for B in all_skew_braces(n).entries:
            sigma = rng.sample(range(n), n)
            yield B
            yield opposite(B)
            yield make_skew_brace(
                oracles.relabel(B.add.table, sigma), oracles.relabel(B.mul.table, sigma)
            )
    for _, B in product_braces():
        yield B


def test_analyze_reads_what_the_built_braces_give():
    subs_of: dict = {}
    for B in _analysis_braces():
        assert _opposite_square(B) == brace_square(opposite(B))
        obj = _analysis_obj(B)
        assert obj["centers"]["mul_is_ideal"] == oracles.star_ideal_oracle(B, center(B.mul))
        assert obj["opposite_square"] == brace_square(opposite(B))
        assert classify(B).bi_skew == oracles.left_compatible(B.mul.table, B.add.table)
        for G in (B.add, B.mul):
            assert center(G) == _center_by_definition(G.table)
        if B.n > 16:
            continue  # the oracle tries every subset of a size dividing n
        for G in (B.add, B.mul):
            if G.table not in subs_of:
                brute = oracles.subgroups_bruteforce(G.table, list(G.inv))
                subs_of[G.table] = sorted(brute, key=oracles.sort_key)
            assert subgroups(G) == subs_of[G.table]

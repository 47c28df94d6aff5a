import random
from itertools import product

import pytest

from sbk.bitset import full_mask, mask_of, members, size
from sbk.braces import classify, from_group, make_skew_brace, opposite, star
from sbk.enumeration import all_skew_braces
from sbk.errors import NotAnIdeal
from sbk.groups import (
    cyclic_group,
    dihedral_group,
    direct_product,
    generated_subgroup,
    subgroups,
)
from sbk.substructure import (
    _carrier_lattice,
    _ideals_among,
    brace_centers,
    brace_square,
    ideals,
    is_soluble_brace,
    ker_lambda,
    minimal_ideals,
    quotient,
    structure,
    subbrace_carriers,
)

import oracles
from test_generators import groups_of_order_16
from test_golden import product_braces


def almost_trivial_s3():
    return from_group(dihedral_group(6), "almost_trivial")


def test_subbraces_of_trivial_brace_are_subgroups():
    G = dihedral_group(6)
    B = from_group(G, "trivial")
    assert subbrace_carriers(B) == subgroups(G)


def test_prime_order_brace_has_two_subbraces():
    B = all_skew_braces(5).entries[0]
    assert subbrace_carriers(B) == [1, full_mask(5)]


def test_almost_trivial_s3_has_six_subbraces():
    assert len(subbrace_carriers(almost_trivial_s3())) == 6


def test_subbrace_carriers_match_double_closure():
    for n in range(1, 9):
        for B in all_skew_braces(n).entries:
            expected = sorted(
                set(oracles.subgroups_bruteforce(B.add.table, list(B.add.inv)))
                & set(oracles.subgroups_bruteforce(B.mul.table, list(B.mul.inv)))
            )
            assert sorted(subbrace_carriers(B)) == expected


def test_subbrace_carriers_equal_the_intersection_of_both_lattices():
    for n in range(1, 13):
        for B in all_skew_braces(n).entries:
            expected = sorted(set(subgroups(B.add)) & set(subgroups(B.mul)), key=oracles.sort_key)
            assert subbrace_carriers(B) == expected


def test_trivial_extremes_are_ideals():
    for B in all_skew_braces(6).entries:
        found = structure(B).ideals
        assert 1 in found
        assert full_mask(B.n) in found


def test_order3_subgroup_of_almost_trivial_s3_is_ideal():
    B = almost_trivial_s3()
    cyc3 = next(m for m in subbrace_carriers(B) if size(m) == 3)
    assert cyc3 in structure(B).ideals


def test_order2_subgroup_of_almost_trivial_s3_is_not_ideal():
    B = almost_trivial_s3()
    for m in subbrace_carriers(B):
        if size(m) == 2:
            assert m not in structure(B).ideals


def test_star_containment_alone_is_weaker_than_ideal():
    # in the trivial brace on a nonabelian group every star product is 0,
    # so star containment holds for every subgroup, yet non-normal
    # subgroups are not ideals; the oracle needs additive normality
    B = from_group(dihedral_group(6), "trivial")
    small = next(m for m in subbrace_carriers(B) if size(m) == 2)
    assert all(star(B, a, b) == 0 for a in range(6) for b in range(6))
    assert small not in structure(B).ideals
    assert not oracles.star_ideal_oracle(B, small)


def test_ideal_star_oracle_agrees_on_all_subsets():
    for n in range(1, 7):
        for B in all_skew_braces(n).entries:
            found = structure(B).ideals
            for bits in range(1 << (n - 1)):
                mask = (bits << 1) | 1
                assert (mask in found) == oracles.star_ideal_oracle(B, mask)


def test_ideals_of_trivial_z6():
    B = from_group(cyclic_group(6), "trivial")
    assert len(ideals(B)) == 4


def test_ideals_match_bruteforce():
    for n in (4, 6, 8):
        for B in all_skew_braces(n).entries[:6]:
            assert ideals(B) == sorted(
                oracles.ideals_bruteforce(B), key=lambda m: (size(m), members(m))
            )


def test_simple_brace_ideals_and_minimals():
    B = all_skew_braces(7).entries[0]
    assert ideals(B) == [1, full_mask(7)]
    assert minimal_ideals(B) == [full_mask(7)]


def test_trivial_z4_not_simple():
    B = from_group(cyclic_group(4), "trivial")
    assert len(ideals(B)) != 2
    assert mask_of([0, 2]) in ideals(B)


def test_order_one_brace_is_not_simple_but_soluble():
    B = all_skew_braces(1).entries[0]
    assert len(ideals(B)) != 2
    assert is_soluble_brace(B) == [1]


def test_quotient_by_zero_is_the_brace_itself():
    for B in all_skew_braces(6).entries:
        q = quotient(B, 1)
        assert q.brace.add.table == B.add.table
        assert q.brace.mul.table == B.mul.table


def test_quotient_by_everything_is_trivial():
    B = almost_trivial_s3()
    q = quotient(B, full_mask(6))
    assert q.brace.n == 1


def test_quotient_of_almost_trivial_s3_by_rotations():
    B = almost_trivial_s3()
    cyc3 = next(m for m in subbrace_carriers(B) if size(m) == 3)
    q = quotient(B, cyc3)
    assert q.brace.n == 2
    assert q.reps == (0, min(x for x in range(6) if not cyc3 >> x & 1))


def test_quotient_requires_ideal():
    B = almost_trivial_s3()
    small = next(m for m in subbrace_carriers(B) if size(m) == 2)
    with pytest.raises(NotAnIdeal):
        quotient(B, small)


def test_quotient_accepts_exactly_the_ideals():
    """quotient checks its mask without the lattice; it must accept a mask
    exactly when structure(B) lists it as an ideal: every additive
    subgroup, seeded masks that are not subgroups, and masks outside
    0..2^n - 1, on every catalog brace through order 8 and the products."""
    rng = random.Random("quotient-masks")
    cases = [B for n in range(1, 9) for B in all_skew_braces(n).entries]
    cases += [B for _, B in product_braces()]
    accepted = 0
    for B in cases:
        n = B.n
        ideal_set = structure(B).ideals
        subs = subgroups(B.add)
        others = [0, -1, -full_mask(n), 1 << n, full_mask(n + 1)]
        others += [rng.getrandbits(n) | rng.getrandbits(1) for _ in range(10)]
        others += [m ^ 1 << rng.randrange(1, n) for m in subs if n > 1]
        for m in subs + [m for m in others if m not in subs]:
            if m in ideal_set:
                q = quotient(B, m)
                assert q.brace.n * size(m) == n
                accepted += 1
            else:
                with pytest.raises(NotAnIdeal):
                    quotient(B, m)
        assert accepted and set(ideal_set) <= set(subs)


def test_quotient_respects_star():
    # the star of cosets is the coset of the star
    for B in all_skew_braces(6).entries:
        for I in ideals(B):
            q = quotient(B, I)
            for a in range(B.n):
                for b in range(B.n):
                    lhs = q.projection[star(B, a, b)]
                    rhs = star(q.brace, q.projection[a], q.projection[b])
                    assert lhs == rhs


def test_quotient_preserves_two_sided_and_bi_skew():
    for n in (6, 8):
        for B in all_skew_braces(n).entries:
            flags = classify(B)
            for I in ideals(B):
                qf = classify(quotient(B, I).brace)
                if flags.two_sided:
                    assert qf.two_sided
                if flags.bi_skew:
                    assert qf.bi_skew


def test_star_span_trivial_brace_is_zero():
    B = from_group(cyclic_group(6), "trivial")
    assert brace_square(B) == 1


def test_star_span_opposite_of_almost_trivial_is_zero():
    B = almost_trivial_s3()
    assert brace_square(opposite(B)) == 1


def test_square_is_smallest_ideal_with_trivial_quotient():
    for n in (4, 6, 8):
        for B in all_skew_braces(n).entries:
            sq = brace_square(B)
            assert sq in structure(B).ideals
            assert classify(quotient(B, sq).brace).trivial
            for I in ideals(B):
                if classify(quotient(B, I).brace).trivial:
                    assert sq & ~I == 0


def test_opposite_square_is_smallest_ideal_with_almost_trivial_quotient():
    for n in (4, 6):
        for B in all_skew_braces(n).entries:
            sq = brace_square(opposite(B))
            assert sq in structure(B).ideals
            assert classify(quotient(B, sq).brace).almost_trivial
            for I in ideals(B):
                if classify(quotient(B, I).brace).almost_trivial:
                    assert sq & ~I == 0


def test_core_intersection_star_square_is_ideal_two_sided():
    # for two-sided braces of order up to 12, the star span I*I of
    # I = (square) meet (opposite square) is an ideal
    for n in range(2, 13):
        for B in all_skew_braces(n).entries:
            if not classify(B).two_sided:
                continue
            I = brace_square(B) & brace_square(opposite(B))
            assert oracles.star_span(B, I, I) in structure(B).ideals


def test_ker_lambda_trivial_brace_is_everything():
    B = from_group(cyclic_group(6), "trivial")
    assert ker_lambda(B) == full_mask(6)


def test_ker_lambda_almost_trivial_s3_is_center():
    assert ker_lambda(almost_trivial_s3()) == 1


def test_opposite_square_inside_ker_lambda_bi_skew():
    for n in range(1, 9):
        for B in all_skew_braces(n).entries:
            if classify(B).bi_skew:
                assert brace_square(opposite(B)) & ~ker_lambda(B) == 0


def test_brace_centers_trivial_abelian():
    B = from_group(cyclic_group(6), "trivial")
    centers = brace_centers(B)
    assert centers.z_add == centers.z_mul == full_mask(6)
    assert centers.z_mul_is_ideal


def test_brace_centers_almost_trivial_s3():
    centers = brace_centers(almost_trivial_s3())
    assert centers.z_add == 1
    assert centers.z_mul == 1


def test_additive_center_is_ideal_for_two_sided():
    for n in range(2, 13):
        for B in all_skew_braces(n).entries:
            if classify(B).two_sided:
                s = structure(B)
                assert s.centers.z_add in s.ideals


def test_simple_two_sided_is_trivial_or_almost_trivial():
    for n in range(2, 13):
        for B in all_skew_braces(n).entries:
            flags = classify(B)
            if flags.two_sided and len(ideals(B)) == 2:
                assert flags.trivial or flags.almost_trivial


def test_simple_braces_soluble_exactly_when_abelian():
    # a simple brace has no proper nonzero ideal, so a solubility chain
    # exists exactly when the whole brace is already abelian
    for n in range(2, 9):
        for B in all_skew_braces(n).entries:
            if len(ideals(B)) != 2:
                continue
            chain = is_soluble_brace(B)
            if classify(B).abelian:
                assert chain == [1, full_mask(B.n)]
            else:
                assert chain is None


def test_soluble_abelian_brace_chain():
    B = from_group(cyclic_group(4), "trivial")
    assert is_soluble_brace(B) == [1, full_mask(4)]


def test_soluble_almost_trivial_s3_chain():
    B = almost_trivial_s3()
    chain = is_soluble_brace(B)
    cyc3 = next(m for m in subbrace_carriers(B) if size(m) == 3)
    assert chain == [1, cyc3, full_mask(6)]


def test_soluble_chain_quotients_are_abelian():
    for n in (4, 6, 8):
        for B in all_skew_braces(n).entries:
            chain = is_soluble_brace(B)
            if chain is None:
                continue
            assert chain[0] == 1 and chain[-1] == full_mask(B.n)
            at, mt, ainv = B.add.table, B.mul.table, B.add.inv
            for prev, cur in zip(chain, chain[1:]):
                assert prev & ~cur == 0
                for x in members(cur):
                    for y in members(cur):
                        assert prev >> at[ainv[at[x][y]]][mt[x][y]] & 1
                        assert prev >> at[ainv[at[y][x]]][at[x][y]] & 1


def test_solubility_matches_chain_search():
    for n in range(1, 9):
        for B in all_skew_braces(n).entries:
            assert (is_soluble_brace(B) is not None) == oracles.soluble_bruteforce(B)


def _chain_braces():
    """Every catalog brace through order 15, its opposite and a seeded
    relabeling of it; the trivial and almost trivial braces on the 14
    groups of order 16; the products of catalog braces of orders 16 to 64
    of the golden tests."""
    rng = random.Random("chains")
    for n in range(1, 16):
        for B in all_skew_braces(n).entries:
            sigma = [0, *rng.sample(range(1, n), n - 1)]
            yield B
            yield opposite(B)
            yield make_skew_brace(
                oracles.relabel(B.add.table, sigma), oracles.relabel(B.mul.table, sigma)
            )
    for G in groups_of_order_16():
        yield from_group(G, "trivial")
        yield from_group(G, "almost_trivial")
    for _, B in product_braces():
        yield B


def test_minimal_ideals_match_their_definition():
    for B in _chain_braces():
        ids = ideals(B)
        nonzero = [m for m in ids if m != 1]
        expected = [m for m in nonzero if not any(o != m and o & ~m == 0 for o in nonzero)]
        assert minimal_ideals(B) == expected


def test_soluble_chain_matches_the_chain_by_quotients():
    for B in _chain_braces():
        assert is_soluble_brace(B) == oracles.soluble_chain_by_quotients(B)


def test_minimal_ideals_of_soluble_braces_are_elementary_abelian():
    from sbk.groups import element_order, prime_divisors

    for n in range(2, 9):
        for B in all_skew_braces(n).entries:
            if is_soluble_brace(B) is None:
                continue
            for M in minimal_ideals(B):
                ms = members(M)
                assert oracles.operations_agree_on(B, M)
                assert all(B.add.table[x][y] == B.add.table[y][x] for x in ms for y in ms)
                ps = prime_divisors(size(M))
                assert len(ps) == 1
                q = ps[0]
                for x in members(M):
                    if x:
                        assert element_order(B.add, x) == q
                # equal group structures on the carrier
                for x in members(M):
                    for y in members(M):
                        assert B.mul.table[x][y] == B.add.table[x][y]


def test_fixed_point_generates_trivial_subbrace():
    # if lam_x fixes x, the additive cyclic subgroup of x is a subbrace on
    # which the two operations agree
    for n in range(1, 9):
        for B in all_skew_braces(n).entries:
            carriers = set(subbrace_carriers(B))
            for x in range(n):
                if B.lam[x][x] != x:
                    continue
                cyc = generated_subgroup(B.add, [x])
                assert cyc in carriers
                assert oracles.operations_agree_on(B, cyc)


def test_mult_centralizer_is_subbrace_two_sided():
    for n in range(2, 9):
        for B in all_skew_braces(n).entries:
            if not classify(B).two_sided:
                continue
            carriers = set(subbrace_carriers(B))
            for a in range(n):
                assert oracles.centralizer(B.mul.table, a) in carriers


def test_squares_centralize_each_other_two_sided():
    for n in range(2, 9):
        for B in all_skew_braces(n).entries:
            if not classify(B).two_sided:
                continue
            b2 = brace_square(B)
            bo2 = brace_square(opposite(B))
            at = B.add.table
            for x in members(b2):
                for y in members(bo2):
                    assert at[x][y] == at[y][x]


def test_two_sided_abelian_addition_star_is_ring_product():
    for n in range(2, 9):
        for B in all_skew_braces(n).entries:
            if not classify(B).two_sided:
                continue
            at = B.add.table
            if any(at[a][b] != at[b][a] for a in range(n) for b in range(n)):
                continue
            for a, b, c in product(range(n), repeat=3):
                assert star(B, at[a][b], c) == at[star(B, a, c)][star(B, b, c)]
                assert star(B, a, at[b][c]) == at[star(B, a, b)][star(B, a, c)]
                assert star(B, star(B, a, b), c) == star(B, a, star(B, b, c))


def test_ideals_of_opposite_coincide():
    for n in range(1, 9):
        for B in all_skew_braces(n).entries:
            assert ideals(B) == ideals(opposite(B))


def test_ideal_filter_on_carriers_matches_the_star_oracle():
    c2 = cyclic_group(2)
    c2_5 = c2
    for _ in range(4):
        c2_5 = direct_product(c2_5, c2)
    braces = [B for n in range(1, 13) for B in all_skew_braces(n).entries]
    braces.append(from_group(c2_5, "trivial"))
    for B in braces:
        carriers = _carrier_lattice(B)
        assert list(carriers) == subbrace_carriers(B)
        assert list(_ideals_among(B, carriers)) == [
            m for m in carriers if oracles.star_ideal_oracle(B, m)
        ]


@pytest.mark.parametrize("n", range(1, 13))
def test_quotients_pass_validation(n):
    # quotient builds its brace without checks: the quotient of a skew
    # brace by an ideal is one (Guarnieri and Vendramin, Math. Comp. 86
    # (2017), section 2); make_skew_brace checks it
    for B in all_skew_braces(n).entries:
        for I in ideals(B):
            Q = quotient(B, I).brace
            rebuilt = make_skew_brace(Q.add.table, Q.mul.table)
            assert rebuilt == Q
            assert rebuilt.lam == Q.lam
            assert oracles.lambda_maps_problem(Q) is None

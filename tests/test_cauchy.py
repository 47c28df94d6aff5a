import random

import pytest

from sbk.bitset import full_mask, mask_of, members, size
from sbk.braces import classify, from_group, make_skew_brace, opposite
from sbk.cauchy import (
    STRATEGY_BRUTE_FORCE,
    STRATEGY_FIXED_POINT,
    cauchy_report,
    find_subbrace_of_order,
    find_subbrace_with_strategy,
    survey_order,
)
from sbk.enumeration import all_skew_braces
from sbk.errors import NotPrime, PrimeDoesNotDivideOrder
from sbk.groups import (
    cyclic_group,
    dihedral_group,
    element_order,
    prime_divisors,
    sylow_p,
)
from sbk.substructure import is_soluble_brace, ker_lambda, subbrace_carriers

import oracles
from test_generators import groups_of_order_16


def test_trivial_z6_witness_for_3():
    B = from_group(cyclic_group(6), "trivial")
    assert find_subbrace_of_order(B, 3) == mask_of([0, 2, 4])


def test_requires_prime():
    B = from_group(cyclic_group(6), "trivial")
    with pytest.raises(NotPrime):
        find_subbrace_of_order(B, 6)


def test_requires_divisor():
    B = from_group(cyclic_group(6), "trivial")
    with pytest.raises(PrimeDoesNotDivideOrder):
        find_subbrace_of_order(B, 5)


def test_fast_path_fires_on_trivial_braces():
    B = from_group(cyclic_group(6), "trivial")
    witness, strategy = find_subbrace_with_strategy(B, 2)
    assert strategy == STRATEGY_FIXED_POINT
    assert size(witness) == 2


def test_fast_path_witnesses_are_trivial_subbraces():
    for n in range(2, 9):
        for B in all_skew_braces(n).entries:
            for p in prime_divisors(n):
                witness, strategy = find_subbrace_with_strategy(B, p)
                if strategy == STRATEGY_FIXED_POINT:
                    assert witness is not None
                    assert oracles.operations_agree_on(B, witness)


def test_witness_soundness():
    # each witness is a subbrace of order exactly p on which both group
    # structures coincide and are cyclic
    for n in range(2, 9):
        for B in all_skew_braces(n).entries:
            carriers = set(subbrace_carriers(B))
            for p in prime_divisors(n):
                witness = find_subbrace_of_order(B, p)
                if witness is None:
                    continue
                assert size(witness) == p
                assert witness in carriers
                ms = members(witness)
                for x in ms:
                    for y in ms:
                        assert B.mul.table[x][y] == B.add.table[x][y]
                assert any(element_order(B.add, x) == p for x in ms)


def test_witness_uses_smallest_generator():
    for n in (6, 8):
        for B in all_skew_braces(n).entries:
            for p in prime_divisors(n):
                witness = find_subbrace_of_order(B, p)
                if witness is None:
                    continue
                generator = min(x for x in members(witness) if x)
                earlier = [
                    x
                    for x in range(1, generator)
                    if element_order(B.add, x) == p
                ]
                from sbk.groups import generated_subgroup

                for x in earlier:
                    cyc = generated_subgroup(B.add, [x])
                    ms = members(cyc)
                    closed = all(
                        (cyc >> B.mul.table[u][v]) & 1 for u in ms for v in ms
                    )
                    assert not closed


def test_finder_matches_bruteforce():
    for n in range(2, 9):
        for B in all_skew_braces(n).entries:
            for p in prime_divisors(n):
                found = find_subbrace_of_order(B, p)
                brute = oracles.prime_subbraces_bruteforce(B, p)
                assert (found is not None) == (len(brute) > 0)
                if found is not None:
                    assert found in brute


def _lemma_braces():
    """Every catalog brace through order 15, its opposite, a seeded
    relabeling of each, and the trivial and almost trivial braces on the
    14 groups of order 16."""
    rng = random.Random("fixed point lemma")
    for n in range(1, 16):
        for B0 in all_skew_braces(n).entries:
            for B in (B0, opposite(B0)):
                sigma = rng.sample(range(n), n)
                yield B
                yield make_skew_brace(
                    oracles.relabel(B.add.table, sigma), oracles.relabel(B.mul.table, sigma)
                )
    for G in groups_of_order_16():
        yield from_group(G, "trivial")
        yield from_group(G, "almost_trivial")


def test_prime_order_cyclic_subgroup_is_a_subbrace_exactly_at_a_fixed_point():
    """For x of prime additive order p, <x> is closed under * exactly when
    lambda_x(x) = x, closure checked on every pair of members; the finder
    returns <x> for the least such x, and None when there is none."""
    for B in _lemma_braces():
        at, mt = B.add.table, B.mul.table
        for p in prime_divisors(B.n):
            first = None
            for x in range(1, B.n):
                cyc = oracles.generated_subgroup_bruteforce(at, [x])
                if size(cyc) != p:
                    continue
                ms = members(cyc)
                closed = all(cyc >> mt[u][v] & 1 for u in ms for v in ms)
                assert closed == (B.lam[x][x] == x), (B.n, p, x)
                if closed and first is None:
                    first = cyc
            strategy = STRATEGY_BRUTE_FORCE if first is None else STRATEGY_FIXED_POINT
            assert find_subbrace_with_strategy(B, p) == (first, strategy)


def test_report_on_prime_order():
    B = all_skew_braces(7).entries[0]
    report = cauchy_report(B)
    assert len(report.entries) == 1
    assert report.entries[0].witness == full_mask(7)
    assert report.all_primes_witnessed


def test_report_on_almost_trivial_s3():
    report = cauchy_report(from_group(dihedral_group(6), "almost_trivial"))
    assert [e.prime for e in report.entries] == [2, 3]
    assert report.all_primes_witnessed


def test_every_two_sided_or_bi_skew_brace_up_to_12_is_witnessed():
    for n in range(1, 13):
        for B in all_skew_braces(n).entries:
            flags = classify(B)
            if flags.two_sided or flags.bi_skew:
                assert cauchy_report(B).all_primes_witnessed


def test_nilpotent_additive_group_implies_witnesses():
    for n in range(1, 9):
        for B in all_skew_braces(n).entries:
            if oracles.sylow_count_nilpotency(B.add):
                assert cauchy_report(B).all_primes_witnessed


def test_soluble_with_nilpotent_multiplication_implies_witnesses():
    for n in range(1, 9):
        for B in all_skew_braces(n).entries:
            if is_soluble_brace(B) is not None and oracles.sylow_count_nilpotency(B.mul):
                assert cauchy_report(B).all_primes_witnessed


def _stable_sylow(B, p):
    """The first Sylow p-subgroup of (B,+) that every lambda map sends into
    itself, or None; every lambda map is tried on every member."""
    lam = oracles._lambda_table(B)
    for P in sylow_p(B.add, p):
        if all(P >> lam[a][x] & 1 for a in range(B.n) for x in members(P)):
            return P
    return None


def test_stable_sylow_on_trivial_braces():
    B = from_group(dihedral_group(6), "trivial")
    for p in (2, 3):
        P = _stable_sylow(B, p)
        assert P is not None
        assert P in sylow_p(B.add, p)


def test_unique_sylow_is_always_stable():
    for n in range(2, 9):
        for B in all_skew_braces(n).entries:
            for p in prime_divisors(n):
                if len(sylow_p(B.add, p)) == 1:
                    assert _stable_sylow(B, p) is not None


def test_stable_sylow_is_a_subbrace():
    for n in range(2, 9):
        for B in all_skew_braces(n).entries:
            carriers = set(subbrace_carriers(B))
            for p in prime_divisors(n):
                P = _stable_sylow(B, p)
                if P is not None:
                    assert P in carriers


def test_stable_sylow_exists_for_prime_index_kernel():
    # bi-skew braces whose lambda kernel has prime index p with p not
    # dividing the kernel order admit a stable Sylow p-subgroup; this is
    # the configuration the fixed-point counting argument covers
    hits = 0
    for n in range(2, 13):
        for B in all_skew_braces(n).entries:
            if not classify(B).bi_skew:
                continue
            k = size(ker_lambda(B))
            p = n // k
            if k < n and p in prime_divisors(n) and k % p != 0 and p * k == n:
                hits += 1
                assert _stable_sylow(B, p) is not None
    assert hits > 0


def test_stable_sylow_can_be_missing():
    # conjugation permutes the three involutions transitively in the
    # almost trivial brace on the dihedral group of order 6
    B = from_group(dihedral_group(6), "almost_trivial")
    assert _stable_sylow(B, 2) is None


def test_survey_small_orders_all_pass():
    rows = [r for n in range(1, 8) for r in survey_order(n)]
    assert len(rows) == sum(all_skew_braces(n).count for n in range(1, 8))
    assert all(r.all_primes_witnessed for r in rows)


def test_survey_rows_are_ordered():
    rows = [r for n in range(1, 7) for r in survey_order(n)]
    assert [(r.order, r.index) for r in rows] == sorted(
        (r.order, r.index) for r in rows
    )

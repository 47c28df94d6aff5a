"""Acceptance suite.

Each test prints one PASS/FAIL line and asserts zero failures, so the
verbose pytest output doubles as the acceptance report. All checks are
exhaustive over the generated catalogs at the stated order bounds and use
exact equality; there are no numeric tolerances anywhere.

The mirrored cancellation identity (-b)a = a - ba + a is an instance of
the mirrored compatibility law, which only two-sided braces satisfy.
test_identities_mirrored_negated_factor_all_braces tests it on every
brace of order at most 8 and asserts the counterexamples the catalog
holds: it fails on exactly five braces, at (order, index, a, b) = (6, 1,
1, 1), (8, 1, 1, 1), (8, 4, 1, 1), (8, 13, 2, 2) and (8, 16, 2, 2), and
none of them is two-sided. The order-6 one has cyclic addition and
dihedral multiplication. The variant restricted to two-sided braces
asserts no failure and lives directly below it.
"""

from itertools import product

import subprocess
import sys
from pathlib import Path

from sbk.bitset import size
from sbk.braces import classify, opposite, star
from sbk.cauchy import find_subbrace_of_order
from sbk.enumeration import all_skew_braces
from sbk.groups import prime_divisors
from sbk.groups import subgroups
from sbk.substructure import (
    brace_square,
    ideals,
    ker_lambda,
    quotient,
    structure,
    subbrace_carriers,
)
from sbk.ybe import check_solution, to_solution

import oracles

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _criterion(name: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {name}: {verdict}" + (f" {failures[:3]}" if failures else ""))
    assert not failures, f"{name}: {len(failures)} failures, first {failures[:3]}"


def _catalog_range(n_max):
    for n in range(1, n_max + 1):
        for idx, B in enumerate(all_skew_braces(n).entries):
            yield n, idx, B


# -- Prime witness harnesses -------------------------------------------------


def test_two_sided_braces_have_prime_witnesses_up_to_12():
    failures = []
    for n, idx, B in _catalog_range(12):
        if not classify(B).two_sided:
            continue
        carriers = set(subbrace_carriers(B))
        for p in prime_divisors(n):
            witness = find_subbrace_of_order(B, p)
            if witness is None or size(witness) != p or witness not in carriers:
                failures.append((n, idx, p))
    _criterion("two-sided prime witnesses up to order 12", failures)


def test_bi_skew_braces_have_prime_witnesses_up_to_12():
    failures = []
    for n, idx, B in _catalog_range(12):
        if not classify(B).bi_skew:
            continue
        carriers = set(subbrace_carriers(B))
        for p in prime_divisors(n):
            witness = find_subbrace_of_order(B, p)
            if witness is None or size(witness) != p or witness not in carriers:
                failures.append((n, idx, p))
    _criterion("bi-skew prime witnesses up to order 12", failures)


# -- Identity suite, order <= 8, exact equality -----------------------------


def test_identities_negated_right_factor_all_braces():
    # a(-b) = a - ab + a
    failures = []
    for n, idx, B in _catalog_range(8):
        at, mt, ainv = B.add.table, B.mul.table, B.add.inv
        for a, b in product(range(n), repeat=2):
            if mt[a][ainv[b]] != at[at[a][ainv[mt[a][b]]]][a]:
                failures.append((n, idx, a, b))
                break
    _criterion("negated right factor identity on all braces", failures)


# (order, index, a, b): the first pair at which (-b)a = a - ba + a fails
MIRRORED_COUNTEREXAMPLES = [(6, 1, 1, 1), (8, 1, 1, 1), (8, 4, 1, 1), (8, 13, 2, 2), (8, 16, 2, 2)]


def test_identities_mirrored_negated_factor_all_braces():
    # (-b)a = a - ba + a quantified over every brace; see module docstring
    first_failures = []
    two_sided = []
    for n, idx, B in _catalog_range(8):
        at, mt, ainv = B.add.table, B.mul.table, B.add.inv
        for a, b in product(range(n), repeat=2):
            if mt[ainv[b]][a] != at[at[a][ainv[mt[b][a]]]][a]:
                first_failures.append((n, idx, a, b))
                if classify(B).two_sided:
                    two_sided.append((n, idx))
                break
    assert first_failures == MIRRORED_COUNTEREXAMPLES
    _criterion("mirrored negated factor identity fails on no two-sided brace", two_sided)


def test_identities_mirrored_negated_factor_two_sided():
    failures = []
    for n, idx, B in _catalog_range(8):
        if not classify(B).two_sided:
            continue
        at, mt, ainv = B.add.table, B.mul.table, B.add.inv
        for a, b in product(range(n), repeat=2):
            if mt[ainv[b]][a] != at[at[a][ainv[mt[b][a]]]][a]:
                failures.append((n, idx, a, b))
    _criterion("mirrored negated factor identity on two-sided braces", failures)


def test_identities_star_over_sums_all_braces():
    # a*(b+c) = a*b + b + a*c - b
    failures = []
    for n, idx, B in _catalog_range(8):
        at, ainv = B.add.table, B.add.inv
        for a, b, c in product(range(n), repeat=3):
            lhs = star(B, a, at[b][c])
            rhs = at[at[at[star(B, a, b)][b]][star(B, a, c)]][ainv[b]]
            if lhs != rhs:
                failures.append((n, idx, a, b, c))
                break
    _criterion("star distributes over sums on all braces", failures)


def test_identities_star_of_negative_all_braces():
    # a*(-b) = -b - a*b + b
    failures = []
    for n, idx, B in _catalog_range(8):
        at, ainv = B.add.table, B.add.inv
        for a, b in product(range(n), repeat=2):
            lhs = star(B, a, ainv[b])
            rhs = at[at[ainv[b]][ainv[star(B, a, b)]]][b]
            if lhs != rhs:
                failures.append((n, idx, a, b))
                break
    _criterion("star of a negative on all braces", failures)


def test_identities_lambda_twists_star_all_braces():
    # lam_a(b*c) = (aba^-1) * lam_a(c)
    failures = []
    for n, idx, B in _catalog_range(8):
        mt, minv = B.mul.table, B.mul.inv
        for a, b, c in product(range(n), repeat=3):
            lhs = B.lam[a][star(B, b, c)]
            rhs = star(B, mt[mt[a][b]][minv[a]], B.lam[a][c])
            if lhs != rhs:
                failures.append((n, idx, a, b, c))
                break
    _criterion("lambda conjugates the star product on all braces", failures)


def test_identities_conjugation_additive_two_sided():
    # a(b+c)a^-1 = aba^-1 + aca^-1
    failures = []
    for n, idx, B in _catalog_range(8):
        if not classify(B).two_sided:
            continue
        at, mt, minv = B.add.table, B.mul.table, B.mul.inv
        for a, b, c in product(range(n), repeat=3):
            lhs = mt[mt[a][at[b][c]]][minv[a]]
            rhs = at[mt[mt[a][b]][minv[a]]][mt[mt[a][c]][minv[a]]]
            if lhs != rhs:
                failures.append((n, idx, a, b, c))
                break
    _criterion("conjugation distributes over sums on two-sided braces", failures)


def test_identities_product_of_sums_two_sided():
    # (a+b)(c+d) = ac + (b *op c) + a*d + bd = ac + a*d + (b *op c) + bd
    failures = []
    for n, idx, B in _catalog_range(8):
        if not classify(B).two_sided:
            continue
        Bo = opposite(B)
        at, mt = B.add.table, B.mul.table
        for a, b, c, d in product(range(n), repeat=4):
            lhs = mt[at[a][b]][at[c][d]]
            sop = star(Bo, b, c)
            sad = star(B, a, d)
            first = at[at[at[mt[a][c]][sop]][sad]][mt[b][d]]
            second = at[at[at[mt[a][c]][sad]][sop]][mt[b][d]]
            if lhs != first or lhs != second:
                failures.append((n, idx, a, b, c, d))
                break
    _criterion("product of sums expansions on two-sided braces", failures)


def test_identities_lambda_swap_bi_skew():
    # lam_{ba} = lam_{a+b}
    failures = []
    for n, idx, B in _catalog_range(8):
        if not classify(B).bi_skew:
            continue
        at, mt = B.add.table, B.mul.table
        for a, b in product(range(n), repeat=2):
            if B.lam[mt[b][a]] != B.lam[at[a][b]]:
                failures.append((n, idx, a, b))
    _criterion("lambda of swapped product equals lambda of sum on bi-skew braces", failures)


# -- Structure facts, order <= 8 ---------------------------------------------


def test_fixed_points_generate_trivial_subbraces():
    from sbk.groups import generated_subgroup

    failures = []
    for n, idx, B in _catalog_range(8):
        carriers = set(subbrace_carriers(B))
        for x in range(n):
            if B.lam[x][x] != x:
                continue
            cyc = generated_subgroup(B.add, [x])
            if cyc not in carriers or not oracles.operations_agree_on(B, cyc):
                failures.append((n, idx, x))
    _criterion("fixed points generate trivial subbraces", failures)


def test_mult_centralizers_are_subbraces_two_sided():
    failures = []
    for n, idx, B in _catalog_range(8):
        if not classify(B).two_sided:
            continue
        carriers = set(subbrace_carriers(B))
        for a in range(n):
            if oracles.centralizer(B.mul.table, a) not in carriers:
                failures.append((n, idx, a))
    _criterion("multiplicative centralizers are subbraces (two-sided)", failures)


def test_simple_two_sided_braces_are_trivial_or_almost_trivial():
    failures = []
    for n, idx, B in _catalog_range(8):
        flags = classify(B)
        if flags.two_sided and len(ideals(B)) == 2:
            if not (flags.trivial or flags.almost_trivial):
                failures.append((n, idx))
    _criterion("simple two-sided braces are trivial or almost trivial", failures)


def test_core_star_square_is_ideal_two_sided():
    failures = []
    for n, idx, B in _catalog_range(8):
        if not classify(B).two_sided:
            continue
        core = brace_square(B) & brace_square(opposite(B))
        if oracles.star_span(B, core, core) not in structure(B).ideals:
            failures.append((n, idx))
    _criterion("star square of the core intersection is an ideal (two-sided)", failures)


def test_lambda_kernel_facts_bi_skew():
    failures = []
    for n, idx, B in _catalog_range(8):
        if not classify(B).bi_skew:
            continue
        kernel = ker_lambda(B)
        if brace_square(opposite(B)) & ~kernel != 0:
            failures.append((n, idx, "containment"))
            continue
        if kernel not in structure(B).ideals:
            failures.append((n, idx, "ideal"))
            continue
        if not classify(quotient(B, kernel).brace).almost_trivial:
            failures.append((n, idx, "quotient"))
    _criterion(
        "opposite square inside lambda kernel, kernel ideal with almost trivial quotient (bi-skew)",
        failures,
    )


def test_simple_bi_skew_braces_are_trivial_or_almost_trivial():
    failures = []
    for n, idx, B in _catalog_range(8):
        flags = classify(B)
        if flags.bi_skew and len(ideals(B)) == 2:
            if not (flags.trivial or flags.almost_trivial):
                failures.append((n, idx))
    _criterion("simple bi-skew braces are trivial or almost trivial", failures)


# -- Enumeration oracle equivalence -----------------------------------------


def test_enumeration_counts_match_bruteforce_up_to_6():
    failures = []
    for n in range(1, 7):
        catalog = all_skew_braces(n)
        brute = oracles.skew_braces_bruteforce(n)
        if catalog.count != brute["total"]:
            failures.append((n, catalog.count, brute["total"]))
    for p in (2, 3, 5, 7, 11):
        if all_skew_braces(p).count != 1:
            failures.append((p, "prime count"))
    _criterion("catalog counts equal brute-force counts (orders 1..6, primes)", failures)


# -- Structural oracles ------------------------------------------------------


def test_structural_oracle_ideal_star_containment():
    failures = []
    for n in range(1, 7):
        for idx, B in enumerate(all_skew_braces(n).entries):
            found = structure(B).ideals
            for bits in range(1 << (n - 1)):
                mask = (bits << 1) | 1
                if (mask in found) != oracles.star_ideal_oracle(B, mask):
                    failures.append((n, idx, mask))
    _criterion("ideals equal the sets passing the star-containment test (orders <= 6)", failures)


def test_structural_oracle_subgroups():
    from sbk.enumeration import groups_of_order

    failures = []
    for n in range(1, 9):
        for G in groups_of_order(n):
            mine = sorted(subgroups(G))
            brute = sorted(oracles.subgroups_bruteforce(G.table, list(G.inv)))
            if mine != brute:
                failures.append((n, G.name))
    _criterion("subgroup lattice equals closure-stable subsets (orders <= 8)", failures)


def test_structural_oracle_cauchy_finder():
    failures = []
    for n, idx, B in _catalog_range(8):
        for p in prime_divisors(n):
            found = find_subbrace_of_order(B, p)
            brute = oracles.prime_subbraces_bruteforce(B, p)
            if (found is None) == bool(brute):
                failures.append((n, idx, p))
            if found is not None and found not in brute:
                failures.append((n, idx, p, "witness"))
    _criterion("prime witness finder equals brute-force subset search (orders <= 8)", failures)


# -- Yang-Baxter -------------------------------------------------------------


def test_ybe_catalog_up_to_8():
    failures = []
    for n, idx, B in _catalog_range(8):
        report = check_solution(to_solution(B))
        if not (report.braid_ok and report.nondegenerate):
            failures.append((n, idx))
    _criterion("Yang-Baxter maps verify on all braces up to order 8", failures)


# -- Determinism -------------------------------------------------------------


def test_determinism_enumerate_8(tmp_path):
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC

    def run(out):
        return subprocess.run(
            [sys.executable, "-m", "sbk", "enumerate", "8", "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )

    ra = run(tmp_path / "a")
    rb = run(tmp_path / "b")
    failures = []
    if ra.returncode or rb.returncode:
        failures.append(("exit", ra.returncode, rb.returncode))
    elif ra.stdout != rb.stdout:
        failures.append("stdout differs")
    else:
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
                failures.append(name)
    _criterion("repeated enumeration of order 8 is byte-identical", failures)

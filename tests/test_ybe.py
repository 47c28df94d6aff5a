import json
import random

import pytest

import oracles
from sbk.braces import from_group, opposite
from sbk.enumeration import all_skew_braces, are_isomorphic_braces
from sbk.groups import cyclic_group
from sbk.serialize import brace_from_obj, canonical_dumps, ybe_to_obj
from sbk.ybe import YBEMap, check_solution, to_solution

from test_braces import kernel_braces
from test_golden import product_braces


def _packed(pairs):
    """The YBEMap with r(x, y) = pairs[x][y], its pairs packed into cells."""
    return YBEMap(n=len(pairs), cells=bytes(c for row in pairs for pair in row for c in pair))


def test_trivial_abelian_brace_gives_the_flip():
    B = from_group(cyclic_group(5), "trivial")
    r = to_solution(B)
    for x in range(5):
        for y in range(5):
            assert r(x, y) == (y, x)


def test_order_one_brace():
    B = all_skew_braces(1).entries[0]
    r = to_solution(B)
    assert r(0, 0) == (0, 0)
    assert check_solution(r).valid


def test_catalog_solutions_up_to_6_verify():
    for n in range(1, 7):
        for B in all_skew_braces(n).entries:
            report = check_solution(to_solution(B))
            assert report.braid_ok and report.nondegenerate


@pytest.mark.parametrize("n", range(1, 16))
def test_catalog_solutions_verify_by_order(n):
    # to_solution trusts Guarnieri and Vendramin's Thm 3.1; check_solution
    # is the arbiter
    for B in all_skew_braces(n).entries:
        report = check_solution(to_solution(B))
        assert report.valid, (n, report)


@pytest.mark.parametrize("B", [pytest.param(B, id=name) for name, B in product_braces()])
def test_product_solutions_verify_orders_16_to_64(B):
    report = check_solution(to_solution(B))
    assert report.valid, report


def test_ybe_obj_reports_what_check_solution_finds():
    # ybe_to_obj writes both checks as true, because every map to_solution
    # returns is a non-degenerate solution (Thm 3.1); check_solution is
    # the reference
    for n in range(1, 9):
        for B in all_skew_braces(n).entries:
            r = to_solution(B)
            report = check_solution(r)
            obj = ybe_to_obj(r)
            assert (obj["braid_ok"], obj["nondegenerate"]) == (
                report.braid_ok,
                report.nondegenerate,
            )


def test_flip_map_is_valid():
    n = 4
    r = _packed([[(y, x) for y in range(n)] for x in range(n)])
    report = check_solution(r)
    assert report.valid


def test_constant_map_is_degenerate():
    n = 3
    r = _packed([[(0, 0) for _ in range(n)] for _ in range(n)])
    report = check_solution(r)
    assert report.braid_ok
    assert not report.nondegenerate


def test_identity_map_braid_holds_but_degenerate():
    n = 3
    r = _packed([[(x, y) for y in range(n)] for x in range(n)])
    report = check_solution(r)
    assert report.braid_ok
    assert not report.nondegenerate


def test_broken_map_reports_first_violation():
    # tamper with the flip on 3 points
    pairs = [[(y, x) for y in range(3)] for x in range(3)]
    pairs[1][2] = (0, 0)
    pairs[2][1] = (1, 1)
    r = _packed(pairs)
    report = check_solution(r)
    assert not report.valid


def test_isomorphic_braces_give_conjugate_solutions():
    entries = all_skew_braces(6).entries
    for B in entries:
        # relabel by a bijection fixing 0 and compare the two solutions
        sigma = (0, 2, 3, 1, 5, 4)
        inv = [sigma.index(i) for i in range(6)]
        add = [
            [sigma[B.add.table[inv[i]][inv[j]]] for j in range(6)] for i in range(6)
        ]
        mul = [
            [sigma[B.mul.table[inv[i]][inv[j]]] for j in range(6)] for i in range(6)
        ]
        from sbk.braces import make_skew_brace

        B2 = make_skew_brace(add, mul)
        f = are_isomorphic_braces(B, B2)
        assert f is not None
        r1 = to_solution(B)
        r2 = to_solution(B2)
        for x in range(6):
            for y in range(6):
                u, v = r1(x, y)
                assert r2(f[x], f[y]) == (f[u], f[v])


def _definition_braces():
    """kernel_braces, then the opposite of each product of orders 16 to 64
    and a seeded relabeling of it, loaded with its identity off index 0."""
    yield from kernel_braces()
    rng = random.Random("opposites")
    for name, B in product_braces():
        B = opposite(B)
        yield f"{name} opposite", B
        labels = list(range(B.n))
        rng.shuffle(labels)
        if labels[0] == 0:
            k = rng.randrange(1, B.n)
            labels[0], labels[k] = labels[k], labels[0]
        moved = {
            "order": B.n,
            "add": [list(r) for r in oracles.relabel(B.add.table, labels)],
            "mul": [list(r) for r in oracles.relabel(B.mul.table, labels)],
        }
        yield f"{name} opposite relabeled", brace_from_obj(moved)


def test_solution_matches_the_definition():
    # r(x, y) = (u, u'xy) with u = lam_x(y) = -x + xy and u' its inverse
    # under the multiplication, each found from the tables alone
    for name, B in _definition_braces():
        n = B.n
        at = B.add.table
        mt = B.mul.table
        r = to_solution(B)
        for x in range(n):
            minus_x = at[x].index(0)
            for y in range(n):
                u = at[minus_x][mt[x][y]]
                u_inv = mt[u].index(0)
                assert r(x, y) == (u, mt[mt[u_inv][x]][y]), (name, x, y)


def test_written_map_is_the_json_of_its_pairs():
    # the writer fills one block from the flat cells; json.dumps writes the
    # pairs read through r(x, y)
    catalog = [B for n in range(1, 16) for B in all_skew_braces(n).entries]
    for B in catalog + [B for _, B in product_braces()]:
        r = to_solution(B)
        nested = [[list(r(x, y)) for y in range(B.n)] for x in range(B.n)]
        obj = {**ybe_to_obj(r), "r": nested}
        assert canonical_dumps(ybe_to_obj(r)) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_maps_are_built_up_to_order_256():
    # one byte per entry: the flip of the trivial brace on C256 still fits
    r = to_solution(from_group(cyclic_group(256), "trivial"))
    assert (r(255, 1), r(3, 200)) == ((1, 255), (200, 3))
    with pytest.raises(ValueError, match="256"):
        to_solution(from_group(cyclic_group(257), "trivial"))

import pytest

from sbk.braces import from_group
from sbk.enumeration import all_skew_braces, are_isomorphic_braces
from sbk.groups import cyclic_group
from sbk.serialize import ybe_to_obj
from sbk.ybe import YBEMap, check_solution, to_solution

from test_golden import product_braces


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
    r = YBEMap(n=n, pairs=tuple(tuple((y, x) for y in range(n)) for x in range(n)))
    report = check_solution(r)
    assert report.valid


def test_constant_map_is_degenerate():
    n = 3
    r = YBEMap(n=n, pairs=tuple(tuple((0, 0) for _ in range(n)) for _ in range(n)))
    report = check_solution(r)
    assert report.braid_ok
    assert not report.nondegenerate


def test_identity_map_braid_holds_but_degenerate():
    n = 3
    r = YBEMap(n=n, pairs=tuple(tuple((x, y) for y in range(n)) for x in range(n)))
    report = check_solution(r)
    assert report.braid_ok
    assert not report.nondegenerate


def test_broken_map_reports_first_violation():
    # tamper with the flip on 3 points
    pairs = [[(y, x) for y in range(3)] for x in range(3)]
    pairs[1][2] = (0, 0)
    pairs[2][1] = (1, 1)
    r = YBEMap(n=3, pairs=tuple(tuple(row) for row in pairs))
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

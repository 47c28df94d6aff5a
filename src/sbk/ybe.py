"""Set-theoretic Yang-Baxter solutions attached to skew braces.

The exported map is r(x, y) = (u, u' x y) with u = lam[x](y) and u' its
multiplicative inverse. For every skew brace it is a non-degenerate
solution of the Yang-Baxter equation (Guarnieri and Vendramin, Math.
Comp. 86 (2017), Thm 3.1), and every brace is validated when it is built,
so to_solution checks nothing. check_solution, the braid relation on every
triple and bijectivity in both moving slots, is the reference the tests
hold it to.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .braces import SkewBrace


class YBEMap(NamedTuple):
    n: int
    pairs: tuple[tuple[tuple[int, int], ...], ...]

    def __call__(self, x: int, y: int) -> tuple[int, int]:
        return self.pairs[x][y]


class SolutionReport(NamedTuple):
    braid_ok: bool
    nondegenerate: bool
    braid_violation: Optional[tuple[int, int, int]]
    degenerate_slot: Optional[str]

    @property
    def valid(self) -> bool:
        return self.braid_ok and self.nondegenerate


def to_solution(B: SkewBrace) -> YBEMap:
    """Yang-Baxter map of the brace, a non-degenerate solution by Thm 3.1
    of Guarnieri and Vendramin; nothing is checked."""
    mt = B.mul.table
    minv = B.mul.inv
    pairs = tuple(
        tuple((u, mt[mt[minv[u]][x]][y]) for y, u in enumerate(lam_x))
        for x, lam_x in enumerate(B.lam)
    )
    return YBEMap(n=B.n, pairs=pairs)


def _first_braid_violation(r: YBEMap) -> Optional[tuple[int, int, int]]:
    n = r.n
    p = r.pairs
    for x in range(n):
        for y in range(n):
            a, b = p[x][y]
            for z in range(n):
                c, d = p[b][z]
                e, f = p[a][c]
                s, t = p[y][z]
                u, v = p[x][s]
                w, q = p[v][t]
                if (e, f, d) != (u, w, q):
                    return (x, y, z)
    return None


def _degeneracy(r: YBEMap) -> Optional[str]:
    n = r.n
    for x in range(n):
        if len({r.pairs[x][y][0] for y in range(n)}) != n:
            return f"left component not bijective at x = {x}"
    for y in range(n):
        if len({r.pairs[x][y][1] for x in range(n)}) != n:
            return f"right component not bijective at y = {y}"
    return None


def check_solution(r: YBEMap) -> SolutionReport:
    """Braid relation on all triples plus the two bijectivity checks."""
    violation = _first_braid_violation(r)
    degenerate = _degeneracy(r)
    return SolutionReport(
        braid_ok=violation is None,
        nondegenerate=degenerate is None,
        braid_violation=violation,
        degenerate_slot=degenerate,
    )

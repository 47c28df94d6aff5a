"""Set-theoretic Yang-Baxter solutions attached to skew braces.

The exported map is r(x, y) = (u, u' x y) with u = lam[x](y) and u' its
multiplicative inverse, kept flat: bytes u and u' x y at cells 2(xn + y)
and 2(xn + y) + 1, so up to order 256, past every brace file
(MAX_GROUP_ORDER = 64). For every skew brace it is a non-degenerate
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
    cells: bytes  # u at 2(xn + y), v at 2(xn + y) + 1

    def __call__(self, x: int, y: int) -> tuple[int, int]:
        i = 2 * (x * self.n + y)
        return self.cells[i], self.cells[i + 1]


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
    of Guarnieri and Vendramin; nothing is checked. O(n) byte operations,
    each on a whole row or column, and no work per pair.

    u, the n x n table of lam[x](y), is the lambda rows joined. With col_j
    column j of (B,*) padded to a 256-byte translate table, col_j[a] = a*j,
    minv.translate(col_x) sends a to a'*x, so it takes row x of u to row x
    of c = u'*x. Column y of c, c[y::n], translated by col_y is column y of
    v = c*y, which goes straight to the odd cells 2(xn + y) + 1; u fills
    the even ones. ValueError past order 256, one byte per entry.
    """
    n = B.n
    if n > 256:
        raise ValueError(f"a Yang-Baxter map is built up to order 256, not {n}")
    pad = bytes(256 - n)
    mul = b"".join(map(bytes, B.mul.table))
    cols = [mul[j::n] + pad for j in range(n)]
    minv = bytes(B.mul.inv) + pad
    u = b"".join(map(bytes, B.lam))
    c = b"".join([u[x * n : x * n + n].translate(minv.translate(cols[x])) for x in range(n)])
    cells = bytearray(2 * n * n)
    cells[::2] = u
    for y in range(n):
        cells[2 * y + 1 :: 2 * n] = c[y::n].translate(cols[y])
    return YBEMap(n, bytes(cells))


def _first_braid_violation(r: YBEMap) -> Optional[tuple[int, int, int]]:
    n = r.n
    p = [[r(x, y) for y in range(n)] for x in range(n)]
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
        if len({r(x, y)[0] for y in range(n)}) != n:
            return f"left component not bijective at x = {x}"
    for y in range(n):
        if len({r(x, y)[1] for x in range(n)}) != n:
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

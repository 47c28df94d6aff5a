"""Skew brace algebra on raw Cayley tables, written apart from sbk.

The benchmark builds its inputs and checks sbk's outputs with these
functions only; nothing here imports sbk. A table is a list of rows with
``t[i][j] = i o j`` on the indices ``0..n-1``. A brace is a pair
``(add, mul)`` of such tables. Element subsets are integer bitmasks, the
format sbk prints them in.
"""

from __future__ import annotations

import itertools


def mask(elems) -> int:
    m = 0
    for x in elems:
        m |= 1 << x
    return m


def elems(m: int) -> list[int]:
    return [i for i in range(m.bit_length()) if (m >> i) & 1]


# --------------------------------------------------------------------------
# Groups
# --------------------------------------------------------------------------


def identity_of(t) -> int | None:
    n = len(t)
    for e in range(n):
        if all(t[e][j] == j for j in range(n)) and all(t[i][e] == i for i in range(n)):
            return e
    return None


def bad_lines(t) -> tuple[set[int], set[int]]:
    """Rows and columns of t that are not permutations of 0..n-1."""
    n = len(t)
    full = set(range(n))
    rows = {i for i in range(n) if set(t[i]) != full}
    cols = {j for j in range(n) if {t[i][j] for i in range(n)} != full}
    return rows, cols


def assoc_fails(t, i: int, j: int, k: int) -> bool:
    return t[t[i][j]][k] != t[i][t[j][k]]


def is_group(t) -> bool:
    n = len(t)
    if identity_of(t) is None or bad_lines(t) != (set(), set()):
        return False
    return not any(
        assoc_fails(t, i, j, k) for i in range(n) for j in range(n) for k in range(n)
    )


def inverses(t) -> list[int]:
    """Inverse of every element of a group table."""
    e = identity_of(t)
    return [t[a].index(e) for a in range(len(t))]


def element_order(t, x: int) -> int:
    e = identity_of(t)
    k, y = 1, x
    while y != e:
        y = t[y][x]
        k += 1
    return k


def closure(tables, gens, e: int = 0) -> int:
    """Smallest subset containing e and gens that is closed under every
    table; in a finite group that is the generated subgroup."""
    seen = {e, *gens}
    todo = list(seen)
    while todo:
        a = todo.pop()
        for t in tables:
            for b in list(seen):
                for c in (t[a][b], t[b][a]):
                    if c not in seen:
                        seen.add(c)
                        todo.append(c)
    return mask(seen)


def is_closed(tables, m: int) -> bool:
    ms = elems(m)
    return all((m >> t[a][b]) & 1 for t in tables for a in ms for b in ms)


def center(t) -> int:
    n = len(t)
    return mask(a for a in range(n) if all(t[a][b] == t[b][a] for b in range(n)))


def is_normal(t, m: int) -> bool:
    inv = inverses(t)
    return all(
        (m >> t[t[g][s]][inv[g]]) & 1 for g in range(len(t)) for s in elems(m)
    )


# --------------------------------------------------------------------------
# Braces
# --------------------------------------------------------------------------


def compat_fails(add, mul, neg, a: int, b: int, c: int) -> bool:
    """Whether a(b+c) = ab - a + ac fails; neg holds additive inverses."""
    return mul[a][add[b][c]] != add[add[mul[a][b]][neg[a]]][mul[a][c]]


def is_brace(add, mul) -> bool:
    if len(add) != len(mul) or not (is_group(add) and is_group(mul)):
        return False
    if identity_of(add) != identity_of(mul):
        return False
    n = len(add)
    neg = inverses(add)
    return not any(
        compat_fails(add, mul, neg, a, b, c)
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def relabel(t, sigma) -> list[list[int]]:
    """The table of the same operation after renaming x to sigma[x]."""
    n = len(t)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[sigma[i]][sigma[j]] = sigma[t[i][j]]
    return out


def normalize(add, mul):
    """Move the shared identity to index 0 by swapping it with 0, the
    labeling sbk documents for its reports."""
    e = identity_of(add)
    if e in (0, None):
        return add, mul
    sigma = list(range(len(add)))
    sigma[0], sigma[e] = e, 0
    return relabel(add, sigma), relabel(mul, sigma)


def direct_product(b1, b2):
    (a1, m1), (a2, m2) = b1, b2
    n2 = len(a2)
    n = len(a1) * n2
    out = []
    for t1, t2 in ((a1, a2), (m1, m2)):
        t = [[0] * n for _ in range(n)]
        for x in range(n):
            x1, x2 = divmod(x, n2)
            row1, row2 = t1[x1], t2[x2]
            for y in range(n):
                y1, y2 = divmod(y, n2)
                t[x][y] = row1[y1] * n2 + row2[y2]
        out.append(t)
    return out[0], out[1]


def lambdas(add, mul) -> list[list[int]]:
    """lam[a][b] = -a + ab."""
    neg = inverses(add)
    n = len(add)
    return [[add[neg[a]][mul[a][b]] for b in range(n)] for a in range(n)]


def flags(add, mul) -> dict[str, bool]:
    n = len(add)
    r = range(n)
    trivial = add == mul
    neg = inverses(add)
    minv = inverses(mul)
    # two-sided: the mirrored law (b + c)a = ba - a + ca
    two_sided = all(
        mul[add[b][c]][a] == add[add[mul[b][a]][neg[a]]][mul[c][a]]
        for a in r
        for b in r
        for c in r
    )
    # bi-skew: the law with the operations swapped, a + bc = (a + b) a' (a + c)
    bi_skew = all(
        add[a][mul[b][c]] == mul[mul[add[a][b]][minv[a]]][add[a][c]]
        for a in r
        for b in r
        for c in r
    )
    return {
        "trivial": trivial,
        "almost_trivial": all(mul[a][b] == add[b][a] for a in r for b in r),
        "abelian": trivial and all(add[a][b] == add[b][a] for a in r for b in r),
        "two_sided": two_sided,
        "bi_skew": bi_skew,
    }


def is_ideal(add, mul, m: int, lam=None) -> bool:
    """A subbrace that every lambda map keeps and both groups normalize."""
    if not m & 1 or not is_closed((add, mul), m):
        return False
    lam = lam or lambdas(add, mul)
    ms = elems(m)
    if not all((m >> lam[a][s]) & 1 for a in range(len(add)) for s in ms):
        return False
    return is_normal(add, m) and is_normal(mul, m)


def subbraces_bruteforce(add, mul) -> list[int]:
    """Every subset containing 0 closed under both operations, by trying
    every subset whose size divides n (Lagrange)."""
    n = len(add)
    out = []
    for d in range(1, n + 1):
        if n % d:
            continue
        for rest in itertools.combinations(range(1, n), d - 1):
            m = mask((0, *rest))
            if is_closed((add, mul), m):
                out.append(m)
    return out


def is_abelian_step(add, mul, lower: int, upper: int) -> bool:
    """Whether upper/lower is an abelian brace: for x, y in upper both
    -(x + y) + xy and -(y + x) + (x + y) lie in lower."""
    neg = inverses(add)
    us = elems(upper)
    for x in us:
        for y in us:
            s = add[x][y]
            if not (lower >> add[neg[s]][mul[x][y]]) & 1:
                return False
            if not (lower >> add[neg[add[y][x]]][s]) & 1:
                return False
    return True


def star_square(add, mul, opposite: bool = False) -> int:
    """Additive subgroup generated by the star products -a + ab - b, or
    by -b + ab - a for the opposite brace, where a + b is read as b + a."""
    neg = inverses(add)
    n = len(add)
    if opposite:
        gens = {add[add[neg[b]][mul[a][b]]][neg[a]] for a in range(n) for b in range(n)}
    else:
        gens = {add[add[neg[a]][mul[a][b]]][neg[b]] for a in range(n) for b in range(n)}
    return closure((add,), gens)


# --------------------------------------------------------------------------
# Isomorphism
# --------------------------------------------------------------------------


def _cycle_type(p) -> tuple[int, ...]:
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        k, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            k += 1
        if k:
            out.append(k)
    return tuple(sorted(out))


def element_invariants(add, mul) -> list[tuple]:
    """Per element: additive order, multiplicative order, cycle type of
    its lambda map, and membership in both centers."""
    lam = lambdas(add, mul)
    za, zm = center(add), center(mul)
    return [
        (
            element_order(add, x),
            element_order(mul, x),
            _cycle_type(lam[x]),
            (za >> x) & 1,
            (zm >> x) & 1,
        )
        for x in range(len(add))
    ]


def brace_isomorphism(b1, b2) -> list[int] | None:
    """A bijection f with f(x + y) = f(x) + f(y) and f(xy) = f(x)f(y), or
    None. Identities must sit at 0. Generators of b1 are mapped in turn
    onto elements of b2 with equal invariants, and each partial choice is
    extended to everything it determines before the next one."""
    (a1, m1), (a2, m2) = b1, b2
    n = len(a1)
    if len(a2) != n:
        return None
    inv1, inv2 = element_invariants(a1, m1), element_invariants(a2, m2)
    if sorted(inv1) != sorted(inv2):
        return None
    pairs = ((a1, a2), (m1, m2))
    gens: list[int] = []
    reached = 1
    while reached != (1 << n) - 1:
        x = next(i for i in range(n) if not (reached >> i) & 1)
        gens.append(x)
        reached = closure((a1, m1), gens)

    def extend(f: list[int], used: int, x: int, y: int):
        f = f.copy()
        f[x] = y
        used |= 1 << y
        known = [i for i in range(n) if f[i] >= 0]
        todo = [x]
        while todo:
            u = todo.pop()
            for v in list(known):
                for s, d in pairs:
                    for src, dst in ((s[u][v], d[f[u]][f[v]]), (s[v][u], d[f[v]][f[u]])):
                        if f[src] >= 0:
                            if f[src] != dst:
                                return None
                        elif (used >> dst) & 1 or inv1[src] != inv2[dst]:
                            return None
                        else:
                            f[src] = dst
                            used |= 1 << dst
                            known.append(src)
                            todo.append(src)
        return f, used

    def search(level: int, f: list[int], used: int):
        if level == len(gens):
            return f
        g = gens[level]
        if f[g] >= 0:
            return search(level + 1, f, used)
        for y in range(n):
            if (used >> y) & 1 or inv2[y] != inv1[g]:
                continue
            step = extend(f, used, g, y)
            if step is not None:
                found = search(level + 1, *step)
                if found is not None:
                    return found
        return None

    f0 = [-1] * n
    f0[0] = 0
    return search(0, f0, 1)

"""Independent brute-force reference implementations.

Everything here works directly on raw Cayley tables so that the checks
stay independent of the library's own search and closure code paths.
The one exception is full_tree_parse, the reference reading of a
command line: argparse's parser of every command.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def _neg(add: list[list[int]], a: int) -> int:
    return add[a].index(0)


def _associative(table, n) -> bool:
    for i in range(n):
        for j in range(n):
            tij = table[i][j]
            for k in range(n):
                if table[tij][k] != table[i][table[j][k]]:
                    return False
    return True


@lru_cache(maxsize=None)
def group_tables_with_identity(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every group Cayley table on 0..n-1 whose identity is index 0."""
    table: list[list[int]] = [[-1] * n for _ in range(n)]
    table[0] = list(range(n))
    for i in range(n):
        table[i][0] = i
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    out: list[tuple[tuple[int, ...], ...]] = []

    def fill(k: int) -> None:
        if k == len(cells):
            if _associative(table, n):
                out.append(tuple(tuple(row) for row in table))
            return
        i, j = cells[k]
        used = {table[i][x] for x in range(n)} | {table[x][j] for x in range(n)}
        for v in range(n):
            if v in used:
                continue
            table[i][j] = v
            fill(k + 1)
            table[i][j] = -1

    fill(0)
    return tuple(out)


def relabel(table, sigma) -> tuple[tuple[int, ...], ...]:
    n = len(table)
    inv = [0] * n
    for i, s in enumerate(sigma):
        inv[s] = i
    return tuple(
        tuple(sigma[table[inv[i]][inv[j]]] for j in range(n)) for i in range(n)
    )


def canonical_form(table) -> tuple[tuple[int, ...], ...]:
    """Least relabeling of a single table over permutations fixing 0."""
    n = len(table)
    return min(
        relabel(table, (0,) + tail) for tail in itertools.permutations(range(1, n))
    )


def canonical_pair(add, mul):
    """Least simultaneous relabeling of a table pair over permutations
    fixing 0; the dedup key for brute-force brace enumeration."""
    n = len(add)
    return min(
        (relabel(add, (0,) + tail), relabel(mul, (0,) + tail))
        for tail in itertools.permutations(range(1, n))
    )


def count_groups_bruteforce(n: int) -> int:
    return len({canonical_form(t) for t in group_tables_with_identity(n)})


def left_compatible(add, mul) -> bool:
    n = len(add)
    neg = [_neg(add, a) for a in range(n)]
    for a in range(1, n):
        na = neg[a]
        row = mul[a]
        for b in range(n):
            prefix = add[row[b]][na]
            for c in range(n):
                if row[add[b][c]] != add[prefix][row[c]]:
                    return False
    return True


def find_identity_by_definition(table):
    """The first e, in index order, with e*x = x = x*e for every x; None
    when the square table has no two-sided identity."""
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    return None


def first_nonassociative(table):
    """The first triple (i, j, k), in lexicographic order, with
    (ij)k != i(jk); None for an associative table."""
    n = len(table)
    for i, j, k in itertools.product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return (i, j, k)
    return None


def first_incompatible(add, mul):
    """The first triple (a, b, c), in lexicographic order, with
    a*(b+c) != a*b - a + a*c; None when the law holds on every triple.
    Unlike left_compatible it also scans a = 0, and mul may be any table."""
    n = len(add)
    neg = [_neg(add, a) for a in range(n)]
    for a, b, c in itertools.product(range(n), repeat=3):
        if mul[a][add[b][c]] != add[add[mul[a][b]][neg[a]]][mul[a][c]]:
            return (a, b, c)
    return None


def associativity_failure_by_lists(rows, is_):
    """The first triple (i, j, k) with i in is_ and (ij)k != i(jk), in the
    order of i in is_, then j, then k; None when there is none. A list
    comprehension loop over each row i, the reference for the byte-string
    form groups._associativity_failure."""
    n = len(rows)
    for i in is_:
        row_i = rows[i]
        for j in range(n):
            left = list(rows[row_i[j]])  # (ij)k for every k
            right = [row_i[x] for x in rows[j]]  # i(jk) for every k
            if left != right:
                return (i, j, next(k for k in range(n) if left[k] != right[k]))
    return None


def law_failure_by_lists(add, mul, as_, cs):
    """The first triple (a, b, c) with a in as_, c in cs and a*(b+c) !=
    a*b - a + a*c, in the order of a in as_, then b, then c; None when
    there is none. The list comprehension loop braces._law_failure was
    written from, kept as the reference for its itemgetter form; mul may
    be any table."""
    n = len(add)
    plus = list(zip(*add))  # plus[c][b] = b + c
    for a in as_:
        mrow = mul[a]
        ab_minus_a = [plus[_neg(add, a)][x] for x in mrow]
        first = None
        for c in cs:
            left = [mrow[x] for x in plus[c]]  # a * (b + c) for every b
            right = [plus[mrow[c]][x] for x in ab_minus_a]  # (a*b - a) + a*c
            if left != right:
                b = next(b for b in range(n) if left[b] != right[b])
                if first is None or (b, c) < first:
                    first = (b, c)
        if first is not None:
            return (a, *first)
    return None


def first_group_failure(table):
    """How a square table fails to be a group, in the order a full check
    meets it: ("identity",) without a two-sided identity, ("row", i) or
    ("column", j) for the first row, then column, that is not a
    permutation, then ("associativity", (i, j, k)) for the first
    non-associative triple; None for a group."""
    n = len(table)
    if not any(
        all(table[e][x] == x and table[x][e] == x for x in range(n)) for e in range(n)
    ):
        return ("identity",)
    for i, row in enumerate(table):
        if sorted(row) != list(range(n)):
            return ("row", i)
    for j in range(n):
        if sorted(table[i][j] for i in range(n)) != list(range(n)):
            return ("column", j)
    triple = first_nonassociative(table)
    return None if triple is None else ("associativity", triple)


def changed_cell(rng, table, first: int = 0):
    """A copy of the table with one cell (i, j), both at least first, set
    to another value; None when there is no such cell. Every such copy
    breaks the Latin property."""
    n = len(table)
    if n < 2 or first >= n:
        return None
    out = [list(row) for row in table]
    i, j = rng.randrange(first, n), rng.randrange(first, n)
    out[i][j] = rng.choice([v for v in range(n) if v != table[i][j]])
    return out


def intercalate_swap(rng, table, first: int = 0):
    """A copy of a Latin square with one Latin-preserving 2x2 swap among
    rows and columns at least first: cells (i, j), (i, l), (k, j), (k, l)
    with t[i][j] = t[k][l] and t[i][l] = t[k][j] exchange along each row,
    so every row and column stays a permutation. None when 20 n^2 random
    tries find no such swap."""
    n = len(table)
    if n - first < 2:
        return None
    for _ in range(20 * n * n):
        i, k = rng.sample(range(first, n), 2)
        j = rng.randrange(first, n)
        l = list(table[i]).index(table[k][j])
        if l >= first and l != j and table[k][l] == table[i][j]:
            out = [list(row) for row in table]
            out[i][j], out[i][l] = table[i][l], table[i][j]
            out[k][j], out[k][l] = table[k][l], table[k][j]
            return out
    return None


def skew_braces_bruteforce(n: int) -> dict:
    """Counts of braces of order n from exhaustive table-pair search,
    deduplicated by exhaustive relabeling: total plus a count per
    additive-group canonical form."""
    tables = group_tables_with_identity(n)
    seen: set = set()
    per_class: dict = {}
    for add in tables:
        for mul in tables:
            if not left_compatible(add, mul):
                continue
            key = canonical_pair(add, mul)
            if key in seen:
                continue
            seen.add(key)
            add_key = canonical_form(add)
            per_class[add_key] = per_class.get(add_key, 0) + 1
    return {"total": len(seen), "per_additive_class": per_class}


def subgroups_bruteforce(table, inv) -> list[int]:
    """Masks of closure-stable subsets containing 0, in increasing order,
    among the subsets whose size divides n (Lagrange)."""
    n = len(table)
    out = []
    for k in range(1, n + 1):
        if n % k:
            continue
        for rest in itertools.combinations(range(1, n), k - 1):
            ms = (0, *rest)
            mask = sum([1 << i for i in ms])
            ok = all((mask >> inv[a]) & 1 for a in ms) and all(
                (mask >> table[a][b]) & 1 for a in ms for b in ms
            )
            if ok:
                out.append(mask)
    return sorted(out)


def centralizer(table, x: int) -> int:
    """The bitmask of the g with gx = xg."""
    return sum(1 << g for g in range(len(table)) if table[g][x] == table[x][g])


def sort_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Deterministic ordering of bitmasks: by size, then by the member
    sequence."""
    ms = [i for i in range(mask.bit_length()) if mask >> i & 1]
    return (len(ms), tuple(ms))


def generated_subgroup_bruteforce(table, gens) -> int:
    """Mask of the smallest subset holding 0 and gens that is closed under
    all products, grown by whole passes over pairs."""
    seen = {0, *gens}
    while True:
        grown = seen | {table[a][b] for a in seen for b in seen}
        if grown == seen:
            return sum(1 << i for i in seen)
        seen = grown


def spanning_by_double_walk(table, among=None) -> tuple[int, ...]:
    """groups._spanning as it was first written: the greedy steps from
    the identity 0, each new step walking every reached element again
    with every step."""
    steps: list[int] = []
    seen = 1
    reached = [0]
    for x in range(len(table)) if among is None else among:
        if seen >> x & 1:
            continue
        steps.append(x)
        frontier = reached.copy()
        while frontier:
            row = table[frontier.pop()]
            for g in steps:
                c = row[g]
                if not seen >> c & 1:
                    seen |= 1 << c
                    reached.append(c)
                    frontier.append(c)
    return tuple(steps)


def prime_subbraces_bruteforce(B, p: int) -> list[int]:
    """Masks of p-element subsets that are subgroups of both operations."""
    n = B.n
    at = B.add.table
    mt = B.mul.table
    out = []
    for rest in itertools.combinations(range(1, n), p - 1):
        ms = (0,) + rest
        mask = 0
        for i in ms:
            mask |= 1 << i
        ok = all(
            (mask >> at[a][b]) & 1 and (mask >> mt[a][b]) & 1
            for a in ms
            for b in ms
        )
        if ok:
            out.append(mask)
    return out


def _lambda_table(B) -> list[list[int]]:
    n = B.n
    at = B.add.table
    mt = B.mul.table
    neg = [at[a].index(0) for a in range(n)]
    return [[at[neg[a]][mt[a][b]] for b in range(n)] for a in range(n)]


def lambda_maps_problem(B):
    """Check the brace's lambda cache against the definition lam[a](b) =
    -a + a*b, each lam[a] against being an automorphism of (B, +), and
    a -> lam[a] against being a homomorphism from (B, *). Returns the
    first failure found, or None."""
    n = B.n
    at = B.add.table
    mt = B.mul.table
    lam = _lambda_table(B)
    if [list(p) for p in B.lam] != lam:
        return "cached lambda maps differ from -a + a*b"
    for a in range(n):
        p = lam[a]
        if sorted(p) != list(range(n)):
            return f"lambda[{a}] is not a permutation"
        for b in range(n):
            for c in range(n):
                if p[at[b][c]] != at[p[b]][p[c]]:
                    return f"lambda[{a}] is not additive at ({b}, {c})"
    for a in range(n):
        for b in range(n):
            if lam[mt[a][b]] != [lam[a][lam[b][c]] for c in range(n)]:
                return f"lambda is not multiplicative at ({a}, {b})"
    return None


def _star_table(B) -> list[list[int]]:
    n = B.n
    at = B.add.table
    lam = _lambda_table(B)
    neg = [at[a].index(0) for a in range(n)]
    return [[at[lam[a][b]][neg[b]] for b in range(n)] for a in range(n)]


def star_span(B, x_mask: int, y_mask: int) -> int:
    """Mask of the additive subgroup generated by the star products x*y
    with x in X and y in Y."""
    star = _star_table(B)
    xs = [x for x in range(B.n) if x_mask >> x & 1]
    ys = [y for y in range(B.n) if y_mask >> y & 1]
    return generated_subgroup_bruteforce(B.add.table, {star[x][y] for x in xs for y in ys})


def operations_agree_on(B, mask: int) -> bool:
    """Whether x*y = x + y for all x and y in the set."""
    ms = [x for x in range(B.n) if mask >> x & 1]
    return all(B.mul.table[x][y] == B.add.table[x][y] for x in ms for y in ms)


def star_ideal_oracle(B, mask: int) -> bool:
    """Ideal test by star containment: an additive normal subgroup I with
    B*I and I*B inside I. Equivalent to the definitional test; proved by
    unwinding lambda invariance and both normality conditions from the
    containments."""
    n = B.n
    if not mask & 1:
        return False
    at = B.add.table
    neg = [at[a].index(0) for a in range(n)]
    ms = [i for i in range(n) if (mask >> i) & 1]
    if not all((mask >> neg[a]) & 1 for a in ms):
        return False
    if not all((mask >> at[a][b]) & 1 for a in ms for b in ms):
        return False
    for g in range(n):
        for s in ms:
            if not (mask >> at[at[g][s]][neg[g]]) & 1:
                return False
    star = _star_table(B)
    for a in range(n):
        for s in ms:
            if not (mask >> star[a][s]) & 1:
                return False
            if not (mask >> star[s][a]) & 1:
                return False
    return True


def ideals_bruteforce(B) -> list[int]:
    """Definitional ideal scan over all subsets, from raw tables."""
    n = B.n
    at = B.add.table
    mt = B.mul.table
    lam = _lambda_table(B)
    aneg = [at[a].index(0) for a in range(n)]
    mneg = [mt[a].index(0) for a in range(n)]
    out = []
    for bits in range(1 << (n - 1)):
        mask = (bits << 1) | 1
        ms = [i for i in range(n) if (mask >> i) & 1]
        if not all((mask >> aneg[a]) & 1 and (mask >> mneg[a]) & 1 for a in ms):
            continue
        if not all(
            (mask >> at[a][b]) & 1 and (mask >> mt[a][b]) & 1
            for a in ms
            for b in ms
        ):
            continue
        lam_ok = all(
            sum(1 << lam[g][s] for s in ms) == mask for g in range(n)
        )
        if not lam_ok:
            continue
        normal = all(
            (mask >> at[at[g][s]][aneg[g]]) & 1
            and (mask >> mt[mt[g][s]][mneg[g]]) & 1
            for g in range(n)
            for s in ms
        )
        if normal:
            out.append(mask)
    return out


def soluble_bruteforce(B) -> bool:
    """Reachability search for an ideal chain with abelian brace
    quotients, using only raw tables and the brute-force ideal list."""
    n = B.n
    at = B.add.table
    mt = B.mul.table
    neg = [at[a].index(0) for a in range(n)]
    ids = ideals_bruteforce(B)
    full = (1 << n) - 1

    def abelian_quotient(j_mask: int, i_mask: int) -> bool:
        ms = [x for x in range(n) if (j_mask >> x) & 1]
        for x in ms:
            for y in ms:
                if not (i_mask >> at[neg[at[x][y]]][mt[x][y]]) & 1:
                    return False
                if not (i_mask >> at[neg[at[y][x]]][at[x][y]]) & 1:
                    return False
        return True

    frontier = {1}
    seen = {1}
    while frontier:
        nxt = set()
        for cur in frontier:
            if cur == full:
                return True
            for j in ids:
                if j != cur and cur & ~j == 0 and j not in seen:
                    if abelian_quotient(j, cur):
                        nxt.add(j)
                        seen.add(j)
        frontier = nxt
    return full == 1


def soluble_chain_by_quotients(B):
    """The solubility chain of is_soluble_brace, found by recursion
    through quotient braces: an abelian brace is its own chain; otherwise
    take the first nonzero ideal that is an abelian brace, minimal ideals
    first and then the rest in list order, and lift the chain of the
    quotient by it. The ideals and quotients come from the library (both
    are checked against brute force elsewhere); the ordering and the
    abelian tests are made here on raw tables."""
    from sbk.substructure import ideals, quotient

    n = B.n
    at = B.add.table
    mt = B.mul.table
    full = (1 << n) - 1

    def abelian(mask: int) -> bool:
        ms = [x for x in range(n) if (mask >> x) & 1]
        return all(mt[x][y] == at[x][y] == at[y][x] for x in ms for y in ms)

    if n == 1:
        return [1]
    if abelian(full):
        return [1, full]
    nonzero = [m for m in ideals(B) if m != 1]
    minimal = [m for m in nonzero if not any(o != m and o & ~m == 0 for o in nonzero)]
    ordered = minimal + [m for m in nonzero if m not in minimal]
    cand = next((m for m in ordered if abelian(m)), None)
    if cand is None:
        return None
    q = quotient(B, cand)
    rest = soluble_chain_by_quotients(q.brace)
    if rest is None:
        return None
    chain = [1, cand]
    for coset_mask in rest:
        lifted = sum(1 << x for x in range(n) if (coset_mask >> q.projection[x]) & 1)
        if lifted != cand:
            chain.append(lifted)
    return chain


def isomorphisms_bruteforce(src_tables, dst_tables) -> list[tuple[int, ...]]:
    """Every bijection fixing 0 that carries each source table onto the
    destination table beside it, checked on every product, sorted."""
    n = len(src_tables[0])
    out = []
    for tail in itertools.permutations(range(1, n)):
        p = (0,) + tail
        if all(
            p[s[a][b]] == d[p[a]][p[b]]
            for s, d in zip(src_tables, dst_tables)
            for a in range(n)
            for b in range(n)
        ):
            out.append(p)
    return out


def automorphisms_bruteforce(G) -> list[tuple[int, ...]]:
    return isomorphisms_bruteforce([G.table], [G.table])


def conjugate_assignment(assign, f, auts, index) -> tuple[int, ...]:
    """f . assign: shift f(a) gets f o alpha_a o f^-1, composed directly;
    index maps each automorphism to its position in auts."""
    n = len(f)
    f_inv = [0] * n
    for x, y in enumerate(f):
        f_inv[y] = x
    out = [0] * len(assign)
    for a, alpha in enumerate(assign):
        p = auts[alpha]
        out[f[a]] = index[tuple(f[p[f_inv[y]]] for y in range(n))]
    return tuple(out)


def orbit_minima_bruteforce(assignments, auts) -> list[tuple[int, ...]]:
    """The least conjugate of each assignment over all of Aut(G), sorted
    and without repeats."""
    index = {p: i for i, p in enumerate(auts)}
    return sorted(
        {
            min(conjugate_assignment(a, f, auts, index) for f in auts)
            for a in assignments
        }
    )


def regular_assignments_both_orders(table, auts) -> list[tuple[int, ...]]:
    """Every map shift -> automorphism index whose graph is a regular
    subgroup of Hol(G), in lexicographic search order, for G given by its
    table. Each product of the popped pair a and an assigned pair b is
    propagated in both orders, a * b and b * a, and every candidate is
    branched on: the full listing, kept as the reference for
    enumeration._regular_assignments, which lists a subsequence of it that
    meets every Aut(G)-orbit. Products are composed directly."""
    n = len(table)
    index = {p: i for i, p in enumerate(auts)}
    products: dict[tuple[int, int], int] = {}

    def compose(i: int, j: int) -> int:
        if (i, j) not in products:
            p = auts[i]
            products[i, j] = index[tuple(p[x] for x in auts[j])]
        return products[i, j]

    id_idx = index[tuple(range(n))]
    candidates = [{id_idx}] + [
        {i for i, p in enumerate(auts) if all(table[a][p[x]] != x for x in range(n))}
        for a in range(1, n)
    ]
    results: list[tuple[int, ...]] = []

    def propagate(assign: list[int], queue: list[int]) -> bool:
        while queue:
            a = queue.pop()
            pa = auts[assign[a]]
            for b in [x for x in range(n) if assign[x] >= 0]:
                c = table[a][pa[b]]
                req = compose(assign[a], assign[b])
                cur = assign[c]
                if cur >= 0:
                    if cur != req:
                        return False
                elif req not in candidates[c]:
                    return False
                else:
                    assign[c] = req
                    queue.append(c)
                if b == a:
                    continue
                pb = auts[assign[b]]
                c2 = table[b][pb[a]]
                req2 = compose(assign[b], assign[a])
                cur2 = assign[c2]
                if cur2 >= 0:
                    if cur2 != req2:
                        return False
                elif req2 not in candidates[c2]:
                    return False
                else:
                    assign[c2] = req2
                    queue.append(c2)
        return True

    def backtrack(assign: list[int]) -> None:
        if -1 not in assign:
            results.append(tuple(assign))
            return
        a = assign.index(-1)
        for phi in sorted(candidates[a]):
            trial = assign.copy()
            trial[a] = phi
            if propagate(trial, [a]):
                backtrack(trial)

    init = [-1] * n
    init[0] = id_idx
    if propagate(init, [0]):
        backtrack(init)
    return results


def is_automorphism(table, perm) -> bool:
    """Whether perm is a bijection of the table's elements with
    perm(ab) = perm(a)perm(b) for all a and b."""
    n = len(table)
    return sorted(perm) == list(range(n)) and all(
        perm[table[a][b]] == table[perm[a]][perm[b]] for a in range(n) for b in range(n)
    )


def sylow_count_nilpotency(G) -> bool:
    """Nilpotency by the unique-Sylow criterion, for cross-checking the
    central series computation."""
    n = G.n
    subs = subgroups_bruteforce(G.table, list(G.inv))
    m = n
    primes = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        primes.append(m)
    for p in primes:
        q = 1
        while n % (q * p) == 0:
            q *= p
        count = sum(1 for s in subs if bin(s).count("1") == q)
        if count != 1:
            return False
    return True


def full_tree_parse(argv: list[str], parser=None):
    """The command and arguments that the parser of every command,
    sbk.cli.build_parser(), reads from argv, as sbk once read every line.
    A parser already built that way may be passed in and read again:
    parse_args keeps nothing from one line to the next."""
    from sbk import cli

    parsed = (parser or cli.build_parser()).parse_args(argv)
    return parsed.command, parsed

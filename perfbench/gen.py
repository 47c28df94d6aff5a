"""Seeded inputs for the three workloads.

sbk sees only the files written here. The seed picks labelings,
corruptions and the order of the catalog sweep; the isomorphism classes in
each pass are fixed, so every seed asks sbk for the same work up to
labeling. Base braces come from
``corpus.json``; order-16 groups are built here from their presentations.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import algebra as A

HERE = Path(__file__).resolve().parent

# Published numbers of skew braces of orders 1..15 (Guarnieri & Vendramin,
# Math. Comp. 86 (2017)); the catalog workload sweeps exactly these orders.
CATALOG_COUNTS = (1, 1, 1, 4, 1, 6, 1, 47, 4, 6, 1, 38, 1, 6, 1)
# Numbers of groups of orders 1..15, one additive group per manifest row.
GROUP_COUNTS = (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1)
CATALOG_MAX_ORDER = len(CATALOG_COUNTS)


def load_corpus() -> dict[str, tuple[list[list[int]], list[list[int]]]]:
    """Catalog braces by "order.index", each checked to be a brace with
    its identity at 0."""
    raw = json.loads((HERE / "corpus.json").read_text(encoding="utf-8"))
    corpus = {key: (b["add"], b["mul"]) for key, b in raw.items()}
    for key, brace in corpus.items():
        if not (A.is_brace(*brace) and A.identity_of(brace[0]) == 0):
            raise ValueError(f"corpus entry {key} is not a brace with identity 0")
    return corpus


# --------------------------------------------------------------------------
# Groups of order 16, as tables with identity 0
# --------------------------------------------------------------------------


def cyclic(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _product_table(t1, t2):
    add, _ = A.direct_product((t1, t1), (t2, t2))
    return add


def semidirect(t, phi, k: int):
    """N x| C_k with the generator of C_k acting by the automorphism phi of
    N (a permutation of N's indices with phi^k = 1). (x, i)(y, j) =
    (x phi^i(y), i + j); the pair (x, i) has index i * |N| + x."""
    m = len(t)
    powers = [list(range(m))]
    for _ in range(1, k):
        powers.append([phi[y] for y in powers[-1]])
    n = m * k
    out = [[0] * n for _ in range(n)]
    for i in range(k):
        for x in range(m):
            for j in range(k):
                for y in range(m):
                    out[i * m + x][j * m + y] = ((i + j) % k) * m + t[x][powers[i][y]]
    return out


def dicyclic16():
    """<a, b | a^8 = 1, b^2 = a^4, b a b^-1 = a^-1>: a^i is i, b a^i is 8 + i."""
    out = [[0] * 16 for _ in range(16)]
    for i in range(8):
        for j in range(8):
            out[i][j] = (i + j) % 8
            out[i][8 + j] = 8 + (j - i) % 8
            out[8 + i][j] = 8 + (i + j) % 8
            out[8 + i][8 + j] = (j - i + 4) % 8
    return out


def groups_of_order_16() -> dict[str, list[list[int]]]:
    c2, c4, c8 = cyclic(2), cyclic(4), cyclic(8)
    c4c2 = _product_table(c4, c2)  # (a, b) has index 2a + b
    d8 = semidirect(c4, [(-x) % 4 for x in range(4)], 2)
    q8 = [[0] * 8 for _ in range(8)]
    for i in range(4):
        for j in range(4):
            q8[i][j] = (i + j) % 4
            q8[i][4 + j] = 4 + (j - i) % 4
            q8[4 + i][j] = 4 + (i + j) % 4
            q8[4 + i][4 + j] = (j - i + 2) % 4
    return {
        "C16": cyclic(16),
        "C4xC4": _product_table(c4, c4),
        "C8xC2": _product_table(c8, c2),
        "C4xC2xC2": _product_table(c4c2, c2),
        "C2^4": _product_table(_product_table(c2, c2), _product_table(c2, c2)),
        "D16": semidirect(c8, [(-x) % 8 for x in range(8)], 2),
        "SD16": semidirect(c8, [(3 * x) % 8 for x in range(8)], 2),
        "M16": semidirect(c8, [(5 * x) % 8 for x in range(8)], 2),
        "Q16": dicyclic16(),
        "C4:C4": semidirect(c4, [(3 * x) % 4 for x in range(4)], 4),
        "D8xC2": _product_table(d8, c2),
        "Q8xC2": _product_table(q8, c2),
        # (C4 x C2) x| C2 acting by a -> ab, b -> b; SmallGroup(16, 3)
        "C2^2:C4": semidirect(c4c2, [2 * a + (a + b) % 2 for a in range(4) for b in range(2)], 2),
        # (C4 x C2) x| C2 acting by a -> a, b -> a^2 b; the Pauli group C4 o D8
        "C4oD8": semidirect(c4c2, [2 * ((a + 2 * b) % 4) + b for a in range(4) for b in range(2)], 2),
    }


# --------------------------------------------------------------------------
# Relabelings and corruptions
# --------------------------------------------------------------------------


def random_labels(rng: random.Random, n: int, identity_at_zero: bool) -> list[int]:
    """A permutation sigma; relabeling by it moves the identity 0 to
    sigma[0], which is 0 exactly when identity_at_zero is set."""
    sigma = list(range(n))
    rng.shuffle(sigma)
    if n > 1 and (sigma[0] == 0) != identity_at_zero:
        k = sigma.index(0) if identity_at_zero else rng.randrange(1, n)
        sigma[0], sigma[k] = sigma[k], sigma[0]
    return sigma


def relabeled(brace, sigma):
    return A.relabel(brace[0], sigma), A.relabel(brace[1], sigma)


def swap_2x2(t, i: int, j: int, k: int, l: int):
    """Exchange t[i][j] with t[i][l] and t[k][j] with t[k][l]; every row and
    column stays a permutation when t[i][j] = t[k][l] and t[i][l] = t[k][j]."""
    if not (t[i][j] == t[k][l] and t[i][l] == t[k][j] and i != k and j != l):
        raise ValueError("cells do not form a Latin-preserving 2x2 swap")
    out = [row.copy() for row in t]
    out[i][j], out[i][l] = t[i][l], t[i][j]
    out[k][j], out[k][l] = t[k][l], t[k][j]
    return out


def random_swap(rng: random.Random, t):
    n = len(t)
    for _ in range(100_000):
        i, k = rng.sample(range(n), 2)
        j = rng.randrange(n)
        l = t[i].index(t[k][j])
        if l != j and t[k][l] == t[i][j]:
            return swap_2x2(t, i, j, k, l)
    raise ValueError("the table has no Latin-preserving 2x2 swap")


def corrupted(rng: random.Random, brace, kind: str, which: int):
    """A copy of the brace that is no longer a brace: one 2x2 swap or one
    changed cell in table `which` (0 additive, 1 multiplicative)."""
    while True:
        tables = [brace[0], brace[1]]
        t = tables[which]
        if kind == "swap":
            tables[which] = random_swap(rng, t)
        else:
            n = len(t)
            i, j = rng.randrange(n), rng.randrange(n)
            tables[which] = [row.copy() for row in t]
            tables[which][i][j] = rng.choice([v for v in range(n) if v != t[i][j]])
        if not A.is_brace(*tables):
            return tables[0], tables[1]


def write_brace(path: Path, brace) -> str:
    add, mul = brace
    path.write_text(json.dumps({"order": len(add), "add": add, "mul": mul}), encoding="utf-8")
    return str(path)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

# Catalog classes analyzed in the structure workload, by "order.index" in
# corpus.json: every additive group of orders 8 to 14 and, with the trivial
# braces on abelian groups of order 16 below, every flag pattern.
STRUCTURE_CLASSES = (
    "8.0", "8.4", "8.10", "8.13", "8.16", "8.23", "8.25", "8.31", "8.32", "8.36",
    "8.39", "8.44", "9.1", "9.3", "10.1", "10.4", "12.3", "12.4", "12.9", "12.14",
    "12.19", "12.21", "12.24", "12.26", "12.33", "12.36", "12.37", "14.1", "14.4",
)
# Classes given a second, independently relabeled copy, so that the checker
# can compare the reports of two labelings of one brace.
STRUCTURE_TWICE = ("8.13", "8.32", "12.19", "12.21", "12.36", "14.4")
# Trivial ("t") and almost trivial ("a") braces on groups of order 16.
STRUCTURE_GROUP16 = (
    ("C2^4", "t"), ("C4xC4", "t"), ("M16", "t"), ("C4:C4", "t"), ("C4oD8", "t"),
    ("D16", "a"), ("SD16", "a"), ("Q16", "a"), ("D8xC2", "a"), ("C2^2:C4", "a"),
)
# Direct products of catalog braces.
STRUCTURE_PRODUCTS = (("8.13", "2.0"), ("8.44", "2.0"), ("12.21", "2.0"), ("6.3", "4.0"), ("8.0", "4.1"))

# Direct products checked by verify, cauchy and ybe, one file per command.
VALIDATE_PRODUCTS = (
    ("8.16", "2.0"), ("4.0", "4.3"), ("12.36", "2.0"), ("6.3", "4.3"), ("8.36", "4.0"),
    ("12.24", "4.3"), ("14.4", "4.1"), ("15.0", "4.0"), ("8.25", "8.44"),
)
VALIDATE_COMMANDS = ("verify", "cauchy", "ybe")
# Corrupted copies: (product index, corruption, table) with the identity at 0.
VALIDATE_CORRUPT = (
    (0, "swap", 0), (1, "cell", 1), (2, "swap", 1), (3, "cell", 0), (4, "swap", 0),
    (5, "swap", 1), (6, "cell", 1), (7, "swap", 0), (8, "swap", 1), (8, "cell", 0),
    (4, "swap", 1), (2, "cell", 0),
)
# Inputs that show a known fault, the same for every seed: sbk moves the
# identity to 0 before validating, so its error names a triple in the
# moved labels, one that holds in the file as written. The product of
# catalog brace 8.13 or 8.32 with C2, relabeled by FAULT_LABELS (identity
# at 5), then one 2x2 swap (i, j, k, l) in table `which`.
FAULT_LABELS = (5, 9, 6, 8, 10, 0, 11, 12, 13, 3, 2, 1, 7, 4, 14, 15)
FAULT_INPUTS = (("8.13", 1, (1, 7, 3, 14), "verify"), ("8.32", 0, (1, 14, 2, 15), "cauchy"))


def catalog_ops(rng: random.Random, in_dir: Path) -> list[dict]:
    """One op: a cold sweep of `enumerate n --out DIR` over n = 1..15, in a
    seeded order."""
    orders = list(range(1, CATALOG_MAX_ORDER + 1))
    rng.shuffle(orders)
    argvs = [["enumerate", str(n), "--out", f"{{out}}/n{n:02d}"] for n in orders]
    return [{"id": "sweep", "cmd": "enumerate", "argvs": argvs, "orders": orders}]


def structure_ops(rng: random.Random, in_dir: Path) -> list[dict]:
    corpus = load_corpus()
    groups = groups_of_order_16()
    bases: list[tuple[str, tuple]] = []
    for key in STRUCTURE_CLASSES:
        bases += [(key, corpus[key])] * (2 if key in STRUCTURE_TWICE else 1)
    for name, mode in STRUCTURE_GROUP16:
        t = groups[name]
        mul = t if mode == "t" else [[t[b][a] for b in range(16)] for a in range(16)]
        bases.append((f"{mode}:{name}", (t, mul)))
    for k1, k2 in STRUCTURE_PRODUCTS:
        bases.append((f"{k1}x{k2}", A.direct_product(corpus[k1], corpus[k2])))
    ops = []
    for i, (label, brace) in enumerate(bases):
        sigma = random_labels(rng, len(brace[0]), identity_at_zero=i % 2 == 0)
        path = write_brace(in_dir / f"s{i:02d}.json", relabeled(brace, sigma))
        ops.append(
            {"id": f"s{i:02d}", "cmd": "analyze", "argvs": [["analyze", "--json", path]],
             "file": path, "label": label}
        )
    return ops


def validate_ops(rng: random.Random, in_dir: Path) -> list[dict]:
    corpus = load_corpus()
    products = [A.direct_product(corpus[k1], corpus[k2]) for k1, k2 in VALIDATE_PRODUCTS]
    files: list[tuple[str, tuple, str]] = []
    for i, brace in enumerate(products):
        for c, cmd in enumerate(VALIDATE_COMMANDS):
            sigma = random_labels(rng, len(brace[0]), identity_at_zero=(i + c) % 2 == 0)
            files.append((cmd, relabeled(brace, sigma), "accept"))
    for c, (i, kind, which) in enumerate(VALIDATE_CORRUPT):
        sigma = random_labels(rng, len(products[i][0]), identity_at_zero=True)
        bad = corrupted(rng, relabeled(products[i], sigma), kind, which)
        files.append((VALIDATE_COMMANDS[c % 3], bad, "reject"))
    for key, which, cells, cmd in FAULT_INPUTS:
        brace = list(relabeled(A.direct_product(corpus[key], corpus["2.0"]), FAULT_LABELS))
        brace[which] = swap_2x2(brace[which], *cells)
        files.append((cmd, tuple(brace), "reject"))
    ops = []
    for i, (cmd, brace, expect) in enumerate(files):
        path = write_brace(in_dir / f"v{i:02d}.json", brace)
        ops.append(
            {"id": f"v{i:02d}", "cmd": cmd, "argvs": [[cmd, "--json", path]],
             "file": path, "expect": expect}
        )
    return ops


WORKLOADS = {"catalog": catalog_ops, "structure": structure_ops, "validate": validate_ops}


def make_ops(workload: str, seed: int, in_dir: Path) -> list[dict]:
    """The op list of one pass; every pass of a run repeats it."""
    in_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), in_dir)

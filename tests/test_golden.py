"""Golden digests of the command line's outputs.

Each test but one runs a fixed set of commands through `sbk.cli.main`
and pins the sha256 digest of everything they print and write: exit codes,
stdout, stderr, and every file `enumerate --out` leaves behind. The
isomorphism test pins the raw result lists of the isomorphism search. A refactor that
claims to change no output must leave every digest as it is; when
a change means to alter an output, its digest is updated together with a
note in CHANGES.md saying why.
"""

import hashlib
import json
import random

from sbk.braces import SkewBrace, assemble, from_group
from sbk.cli import main
from sbk.enumeration import all_skew_braces, groups_of_order
from sbk.groups import (
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    table_isomorphisms,
)
from sbk.serialize import brace_to_obj, canonical_dumps

import oracles

CATALOG_DIGEST = "83fbb63dcfb4632fc196f99db1d3385536564d7bfbb84581019bc0c16a360a7f"
SURVEY_DIGEST = "eef066c320389225a212fd0f537cd357b7741292b2e0f66fc4244a23bf5d4da8"
FILE_COMMANDS_DIGEST = "9f959f945bf974c197d917373d2b9a27ba0086250066c8be497fde0fdf91dc89"
FILE_COMMANDS_TEXT_DIGEST = "2dc0ba93ad44b612d35da79d8255a5fbd67e37220e823c97121bf377d741cfc0"
LARGE_ANALYZE_DIGEST = "b7c5ec795df3faec050f2cbc2fafcea8ce41a1e5436c8dfe0cd68c3e95e9b86b"
ISOMORPHISM_DIGEST = "520ae921df12e099ddc00b5dbffaaf1a730dfbed8a6ddbfab4df6f292e5bc898"
ERROR_LINES_DIGEST = "fd0717f4098b0a80fc74503a2c295e2120d3af47f90e2d7254e4408d2ab7d546"
LARGE_FILE_COMMANDS_DIGEST = "1dd47e03f62c4943f93bdc7e4257ee6153ad2dff763901e8b4b202d4f50c04cb"
ORDER_64_ANALYZE_DIGEST = "e4d0df49089c3a35183c0fd9e81694937c8652edfcdf90ca5a22c869599b71d0"
CATALOG_ANALYZE_DIGEST = "36e60b0c727e497575335be5af2213c2af898a28e262a8b350a0decdabac5542"

FILE_COMMANDS = ("verify", "analyze", "cauchy", "ybe")


def _run(h, capsys, argv: list[str]) -> None:
    """Feed one command's name, exit code, stdout and stderr into h."""
    code = main(argv)
    out, err = capsys.readouterr()
    h.update(f"{argv[0]} exit {code}\n".encode())
    h.update(out.encode())
    h.update(b"--stderr--\n")
    h.update(err.encode())


def test_enumerate_out_digest_through_15(tmp_path, capsys):
    h = hashlib.sha256()
    for n in range(1, 16):
        out = tmp_path / f"n{n:02d}"
        _run(h, capsys, ["enumerate", str(n), "--out", str(out)])
        for path in sorted(out.iterdir()):
            h.update(f"{path.name}\n".encode())
            h.update(path.read_bytes())
    assert h.hexdigest() == CATALOG_DIGEST


def test_survey_15_digest(capsys):
    h = hashlib.sha256()
    _run(h, capsys, ["survey", "15", "--json", "--workers", "1"])
    assert h.hexdigest() == SURVEY_DIGEST


def _file_commands_digest(tmp_path, capsys, braces, commands, flags: list[str]) -> str:
    """Digest of the commands on every (name, brace) pair, each brace
    written to a file first."""
    h = hashlib.sha256()
    for name, B in braces:
        path = tmp_path / f"{name}.json"
        path.write_text(canonical_dumps(brace_to_obj(B)), encoding="utf-8")
        for cmd in commands:
            h.update(f"{path.name} ".encode())
            _run(h, capsys, [cmd, str(path), *flags])
    return h.hexdigest()


def _catalog_through(n_max: int):
    for n in range(1, n_max + 1):
        for i, B in enumerate(all_skew_braces(n).entries):
            yield f"brace_{n:02d}_{i:03d}", B


def _large_braces():
    """Braces of orders 16 to 32, beyond the catalog: the trivial and
    almost trivial braces on three nonabelian groups of order 16, the
    trivial brace on C2^5, and two direct products of catalog braces."""
    c2 = cyclic_group(2)
    for G in (direct_product(dihedral_group(8), c2), dihedral_group(16), dicyclic_group(16)):
        for mode in ("trivial", "almost_trivial"):
            yield f"{G.name}_{mode}", from_group(G, mode)
    c2_5 = c2
    for _ in range(4):
        c2_5 = direct_product(c2_5, c2)
    yield "C2^5_trivial", from_group(c2_5, "trivial")
    for (n1, i1), (n2, i2) in (((6, 3), (4, 3)), ((8, 25), (4, 0))):
        B1 = all_skew_braces(n1).entries[i1]
        B2 = all_skew_braces(n2).entries[i2]
        B = assemble(direct_product(B1.add, B2.add), direct_product(B1.mul, B2.mul))
        yield f"brace_{n1}_{i1}x{n2}_{i2}", B


def test_file_commands_digest_through_12(tmp_path, capsys):
    digest = _file_commands_digest(tmp_path, capsys, _catalog_through(12), FILE_COMMANDS, ["--json"])
    assert digest == FILE_COMMANDS_DIGEST


def test_file_commands_text_digest_through_8(tmp_path, capsys):
    digest = _file_commands_digest(tmp_path, capsys, _catalog_through(8), FILE_COMMANDS, [])
    assert digest == FILE_COMMANDS_TEXT_DIGEST


def test_analyze_digest_orders_16_to_32(tmp_path, capsys):
    digest = _file_commands_digest(tmp_path, capsys, _large_braces(), ("analyze",), ["--json"])
    assert digest == LARGE_ANALYZE_DIGEST


def _isomorphism_inputs():
    """Table lists for the isomorphism search: every group of order at
    most 15 with two seeded relabelings fixing 0, the catalog braces of
    orders 6, 8 and 12 as (add, mul) pairs, and C2^4 (20160 maps)."""
    rng = random.Random(15)
    for n in range(1, 16):
        tables = []
        for G in groups_of_order(n):
            tables.append(G.table)
            for _ in range(2):
                sigma = (0, *rng.sample(range(1, n), n - 1))
                tables.append(oracles.relabel(G.table, sigma))
        yield [[t] for t in tables]
    for n in (6, 8, 12):
        yield [[B.add.table, B.mul.table] for B in all_skew_braces(n).entries]
    c2 = cyclic_group(2)
    yield [[direct_product(direct_product(c2, c2), direct_product(c2, c2)).table]]


def test_isomorphism_search_digest():
    # the raw result lists, in the order the search finds them
    h = hashlib.sha256()
    for structures in _isomorphism_inputs():
        for src in structures:
            for dst in structures:
                h.update(repr(table_isomorphisms(src, dst, find_all=True)).encode())
                h.update(repr(table_isomorphisms(src, dst)).encode())
    assert h.hexdigest() == ISOMORPHISM_DIGEST


def _product(B1: SkewBrace, B2: SkewBrace) -> SkewBrace:
    return assemble(direct_product(B1.add, B2.add), direct_product(B1.mul, B2.mul))


def _error_line_braces():
    """Braces of orders 8 to 64: two catalog braces, an almost trivial
    brace of order 16, four products of catalog braces and the trivial
    brace on C2^6, whose additive group needs six generators."""
    cat = lambda n, i: all_skew_braces(n).entries[i]  # noqa: E731
    c2 = cyclic_group(2)
    c2_6 = c2
    for _ in range(5):
        c2_6 = direct_product(c2_6, c2)
    yield cat(8, 25)
    yield cat(12, 7)
    yield from_group(dihedral_group(16), "almost_trivial")
    yield _product(cat(6, 3), cat(4, 3))
    yield _product(cat(8, 25), cat(4, 0))
    yield _product(cat(12, 5), cat(4, 1))
    yield _product(cat(8, 25), cat(8, 3))
    yield from_group(c2_6, "trivial")


def _broken_group(rng, table):
    """A loop that is not a group: a Latin-preserving 2x2 swap away from
    row and column 0, so the identity stays, that breaks associativity."""
    while True:
        loop = oracles.intercalate_swap(rng, table, first=1)
        if oracles.first_nonassociative(loop) is not None:
            return loop


def _incompatible_mul(rng, add, mul):
    """The multiplication relabeled by a permutation fixing 0 until the
    pair breaks the compatibility law; both tables stay groups."""
    n = len(add)
    while True:
        sigma = (0, *rng.sample(range(1, n), n - 1))
        other = oracles.relabel(mul, sigma)
        if oracles.first_incompatible(add, other) is not None:
            return other


def _corrupted_brace_files(tmp_path):
    """Seeded files that are not braces, four per brace: one changed cell
    (in the additive table for even-numbered braces, in the multiplicative
    one for odd), a non-associative loop in place of each table, and an
    incompatible multiplication over the valid additive group. Each file
    is then relabeled at random, with the identity off index 0 in every
    other file."""
    rng = random.Random(64)
    count = 0
    for index, B in enumerate(_error_line_braces()):
        n = B.n
        add, mul = B.add.table, B.mul.table
        variants = [
            (oracles.changed_cell(rng, add), mul) if index % 2 == 0
            else (add, oracles.changed_cell(rng, mul)),
            (_broken_group(rng, add), mul),
            (add, _broken_group(rng, mul)),
            (add, _incompatible_mul(rng, add, mul)),
        ]
        for kind, (a, m) in enumerate(variants):
            labels = list(range(n))
            rng.shuffle(labels)
            if (labels[0] == 0) != (count % 2 == 0):
                k = labels.index(0) if count % 2 == 0 else rng.randrange(1, n)
                labels[0], labels[k] = labels[k], labels[0]
            path = tmp_path / f"bad_{n:02d}_{index}_{kind}.json"
            obj = {
                "order": n,
                "add": [list(r) for r in oracles.relabel(a, labels)],
                "mul": [list(r) for r in oracles.relabel(m, labels)],
            }
            path.write_text(json.dumps(obj), encoding="utf-8")
            count += 1
            yield path


def test_error_lines_digest_orders_8_to_64(tmp_path, capsys):
    # pins the first violation each rejection names, in the file's labels
    h = hashlib.sha256()
    for path in _corrupted_brace_files(tmp_path):
        for cmd in ("verify", "ybe"):
            code = main([cmd, str(path), "--json"])
            _, err = capsys.readouterr()
            assert code == 1
            h.update(f"{path.name} {cmd} exit {code}\n".encode())
            for line in err.splitlines():
                if line.startswith("error:"):
                    h.update(f"{line}\n".encode())
    assert h.hexdigest() == ERROR_LINES_DIGEST


# Direct products of catalog braces of orders 16 to 64, as (order.index,
# order.index) pairs of catalog entries; the same nine pairs as the
# benchmark's validate workload.
PRODUCT_PAIRS = (
    ("8.16", "2.0"), ("4.0", "4.3"), ("12.36", "2.0"), ("6.3", "4.3"), ("8.36", "4.0"),
    ("12.24", "4.3"), ("14.4", "4.1"), ("15.0", "4.0"), ("8.25", "8.44"),
)


def _catalog_entry(key: str) -> SkewBrace:
    n, i = map(int, key.split("."))
    return all_skew_braces(n).entries[i]


def product_braces():
    """The products of PRODUCT_PAIRS, named by their factors."""
    for k1, k2 in PRODUCT_PAIRS:
        yield f"{k1}x{k2}", _product(_catalog_entry(k1), _catalog_entry(k2))


def _large_brace_files(tmp_path):
    """Each product as written, then a seeded relabeling of it with the
    identity off index 0."""
    rng = random.Random(16)
    for name, B in product_braces():
        n = B.n
        obj = brace_to_obj(B)
        labels = list(range(n))
        rng.shuffle(labels)
        if labels[0] == 0:
            k = rng.randrange(1, n)
            labels[0], labels[k] = labels[k], labels[0]
        moved = {
            "order": n,
            "add": [list(r) for r in oracles.relabel(obj["add"], labels)],
            "mul": [list(r) for r in oracles.relabel(obj["mul"], labels)],
        }
        for suffix, o in (("", obj), ("_relabeled", moved)):
            path = tmp_path / f"{name}{suffix}.json"
            path.write_text(canonical_dumps(o), encoding="utf-8")
            yield path


def test_file_commands_digest_orders_16_to_64(tmp_path, capsys):
    h = hashlib.sha256()
    for path in _large_brace_files(tmp_path):
        for cmd in ("verify", "cauchy", "ybe"):
            h.update(f"{path.name} ".encode())
            _run(h, capsys, [cmd, str(path), "--json"])
    assert h.hexdigest() == LARGE_FILE_COMMANDS_DIGEST


def _order_64_analyze_braces():
    """Braces of orders 48 to 64 for analyze: the trivial and almost
    trivial braces on C2^6 (2825 subgroups), the almost trivial brace on
    D8 x D8, and the products of PRODUCT_PAIRS of order 48 and up."""
    c2 = cyclic_group(2)
    c2_6 = c2
    for _ in range(5):
        c2_6 = direct_product(c2_6, c2)
    for mode in ("trivial", "almost_trivial"):
        yield f"C2^6_{mode}", from_group(c2_6, mode)
    yield "D8xD8_almost_trivial", from_group(
        direct_product(dihedral_group(8), dihedral_group(8)), "almost_trivial"
    )
    for name, B in product_braces():
        if B.n >= 48:
            yield name, B


def test_analyze_digest_orders_48_to_64(tmp_path, capsys):
    braces = _order_64_analyze_braces()
    digest = _file_commands_digest(tmp_path, capsys, braces, ("analyze",), ["--json"])
    assert digest == ORDER_64_ANALYZE_DIGEST


def _catalog_analyze_files(tmp_path):
    """Each catalog brace of orders 9 to 15 as written, then a seeded
    relabeling of it, with the identity moved off index 0 in every other
    relabeled file."""
    rng = random.Random(915)
    count = 0
    for n in range(9, 16):
        for i, B in enumerate(all_skew_braces(n).entries):
            obj = brace_to_obj(B)
            labels = list(range(n))
            rng.shuffle(labels)
            if (labels[0] == 0) != (count % 2 == 0):
                k = labels.index(0) if count % 2 == 0 else rng.randrange(1, n)
                labels[0], labels[k] = labels[k], labels[0]
            count += 1
            moved = {
                "order": n,
                "add": [list(r) for r in oracles.relabel(obj["add"], labels)],
                "mul": [list(r) for r in oracles.relabel(obj["mul"], labels)],
            }
            for suffix, o in (("", obj), ("_relabeled", moved)):
                path = tmp_path / f"brace_{n:02d}_{i:03d}{suffix}.json"
                path.write_text(canonical_dumps(o), encoding="utf-8")
                yield path


def test_analyze_digest_catalog_orders_9_to_15(tmp_path, capsys):
    # the orders where solubility chains are deepest, in both output forms
    h = hashlib.sha256()
    for path in _catalog_analyze_files(tmp_path):
        for flags in (["--json"], []):
            h.update(f"{path.name} ".encode())
            _run(h, capsys, ["analyze", str(path), *flags])
    assert h.hexdigest() == CATALOG_ANALYZE_DIGEST

import json
import random
from enum import IntEnum

import pytest

from sbk import cauchy, cli, serialize
from sbk.braces import classify, from_group, make_skew_brace
from sbk.cauchy import cauchy_report
from sbk.enumeration import all_skew_braces, are_isomorphic_braces, groups_of_order
from sbk.errors import BadInput, IdentityMismatch, SkewBraceKitError
from sbk.groups import cyclic_group, make_group
from sbk.serialize import (
    brace_from_obj,
    brace_to_obj,
    canonical_dumps,
    load_brace,
    ybe_to_obj,
)
from sbk.ybe import YBEMap, to_solution

import oracles
from test_golden import product_braces


def test_brace_round_trip():
    for B in all_skew_braces(6).entries:
        obj = brace_to_obj(B)
        back = brace_from_obj(json.loads(canonical_dumps(obj)))
        assert back.add.table == B.add.table
        assert back.mul.table == B.mul.table


def test_brace_loader_rejects_identity_mismatch():
    z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    shifted = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]  # identity at index 1
    with pytest.raises(IdentityMismatch):
        brace_from_obj({"order": 3, "add": z3, "mul": shifted})


def test_brace_loader_normalizes_shared_identity(tmp_path):
    B = from_group(cyclic_group(4), "trivial")
    sigma = [2, 1, 0, 3]  # move identity to index 2 in both tables
    add = [
        [sigma[B.add.table[sigma[i]][sigma[j]]] for j in range(4)] for i in range(4)
    ]
    path = tmp_path / "brace.json"
    path.write_text(
        canonical_dumps({"order": 4, "add": add, "mul": add}), encoding="utf-8"
    )
    loaded = load_brace(str(path))
    assert loaded.add.table[0] == (0, 1, 2, 3)
    assert classify(loaded).trivial


@pytest.mark.parametrize("n", range(1, 16))
def test_relabeled_catalog_brace_loads_as_the_same_brace(n):
    # each catalog brace under a seeded relabeling that moves the identity
    # off index 0, loaded back as a JSON object
    rng = random.Random(n)
    for B in all_skew_braces(n).entries:
        labels = list(range(n))
        rng.shuffle(labels)
        if n > 1 and labels[0] == 0:
            k = rng.randrange(1, n)
            labels[0], labels[k] = labels[k], labels[0]
        B2 = brace_from_obj(
            {
                "order": n,
                "add": [list(r) for r in oracles.relabel(B.add.table, labels)],
                "mul": [list(r) for r in oracles.relabel(B.mul.table, labels)],
            }
        )
        assert classify(B2) == classify(B)
        f = are_isomorphic_braces(B, B2)
        assert f is not None and sorted(f) == list(range(n))
        for a in range(n):
            for b in range(n):
                assert f[B.add.table[a][b]] == B2.add.table[f[a]][f[b]]
                assert f[B.mul.table[a][b]] == B2.mul.table[f[a]][f[b]]
        assert cauchy_report(B2).all_primes_witnessed == cauchy_report(B).all_primes_witnessed


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {"order": 0, "add": [], "mul": []},
        {"order": "2", "add": [[0, 1], [1, 0]], "mul": [[0, 1], [1, 0]]},
        {"order": 2, "add": [[0, 1]], "mul": [[0, 1], [1, 0]]},
        {"order": 2, "add": [[0, 1], [1, 5]], "mul": [[0, 1], [1, 0]]},
        {"order": 2, "add": [[0, True], [1, 0]], "mul": [[0, 1], [1, 0]]},
    ],
)
def test_bad_payloads_raise(payload):
    with pytest.raises(BadInput):
        brace_from_obj(payload)


Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def _with_cell(row: int, col: int, value) -> list:
    table = [list(r) for r in Z3]
    table[row][col] = value
    return table


def _with_row(row: int, value) -> list:
    table = [list(r) for r in Z3]
    table[row] = value
    return table


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"order": 3, "add": _with_cell(1, 2, 1.0), "mul": Z3}, "entry 1.0 in row 1 of 'add' out of range"),
        ({"order": 3, "add": _with_cell(0, 1, True), "mul": Z3}, "entry True in row 0 of 'add' out of range"),
        ({"order": 3, "add": Z3, "mul": _with_cell(2, 0, "1")}, "entry '1' in row 2 of 'mul' out of range"),
        ({"order": 3, "add": Z3, "mul": _with_cell(1, 1, None)}, "entry None in row 1 of 'mul' out of range"),
        ({"order": 3, "add": _with_cell(2, 2, -1), "mul": Z3}, "entry -1 in row 2 of 'add' out of range"),
        ({"order": 3, "add": Z3, "mul": _with_cell(0, 2, 3)}, "entry 3 in row 0 of 'mul' out of range"),
        ({"order": 3, "add": _with_row(1, [1, 2]), "mul": Z3}, "row 1 of 'add' must have length 3"),
        ({"order": 3, "add": Z3, "mul": _with_row(2, "201")}, "row 2 of 'mul' must have length 3"),
        ({"order": 3, "add": Z3}, "field 'mul' must be a 3x3 array"),
        ([Z3, Z3], 'top-level JSON value must be an object'),
        ({"order": True, "add": [[0]], "mul": [[0]]}, "field 'order' must be a positive integer"),
    ],
    ids=[
        "float", "true", "string", "null", "negative", "order",
        "short_row", "row_not_list", "missing_mul", "top_level_list", "order_true",
    ],
)
def test_bad_payload_messages(payload, message):
    with pytest.raises(BadInput) as info:
        brace_from_obj(payload)
    assert str(info.value) == message


def test_missing_file_raises(tmp_path):
    with pytest.raises(BadInput):
        load_brace(str(tmp_path / "missing.json"))


def test_canonical_dumps_is_stable():
    obj = {"b": 1, "a": [3, 2, 1]}
    assert canonical_dumps(obj) == canonical_dumps(dict(reversed(obj.items())))
    assert canonical_dumps(obj).endswith("\n")


def _reference(obj) -> str:
    """json.dumps of obj, a Yang-Baxter map under "r" written as the nested
    lists of its pairs r(x, y)."""
    if isinstance(obj, dict) and isinstance(obj.get("r"), YBEMap):
        r = obj["r"]
        obj = {**obj, "r": [[list(r(x, y)) for y in range(r.n)] for x in range(r.n)]}
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.fixture
def written(monkeypatch):
    """Every object the command line passes to canonical_dumps, each held
    to json.dumps as it is written."""
    objs = []
    writer = serialize.canonical_dumps

    def checked(obj):
        text = writer(obj)
        assert text == _reference(obj)
        objs.append(obj)
        return text

    monkeypatch.setattr(serialize, "canonical_dumps", checked)
    return objs


def test_writer_matches_json_on_every_json_command_through_8(tmp_path, written, capsys):
    for n in range(1, 9):
        out = tmp_path / f"n{n}"
        assert cli.main(["enumerate", str(n), "--out", str(out)]) == 0
        for path in sorted(out.glob("brace_*.json")):
            for cmd in ("verify", "analyze", "cauchy", "ybe"):
                assert cli.main([cmd, str(path), "--json"]) == 0
    assert cli.main(["survey", "8", "--json", "--workers", "1"]) == 0
    assert cli.main(["harness", "8", "--json", "--workers", "1"]) == 0
    capsys.readouterr()
    braces = sum(len(all_skew_braces(n).entries) for n in range(1, 9))
    # per order a manifest and its brace files; four reports per brace;
    # the survey and the harness report
    assert len(written) == 8 + braces + 4 * braces + 2
    assert written[-1]["failures"] == []


def test_writer_matches_json_on_harness_failures(written, monkeypatch, capsys):
    # a search that never finds a witness, so every brace in scope fails
    monkeypatch.setattr(
        cauchy, "find_subbrace_with_strategy", lambda B, p: (None, cauchy.STRATEGY_BRUTE_FORCE)
    )
    assert cli.main(["harness", "6", "--json", "--workers", "1"]) == 2
    printed = json.loads(capsys.readouterr().out)
    assert printed == written[-1]
    assert len(printed["failures"]) > 0


def test_writer_matches_json_on_group_and_large_brace_files():
    for n in range(1, 9):
        for G in groups_of_order(n):
            obj = {"order": G.n, "table": [list(row) for row in G.table]}
            assert canonical_dumps(obj) == _reference(obj)
    for _, B in product_braces():
        for obj in (brace_to_obj(B), ybe_to_obj(to_solution(B))):
            assert canonical_dumps(obj) == _reference(obj)


# quotes, backslash, control characters, DEL, non-ASCII, an astral
# character and a lone surrogate
_CHARS = 'az Z09"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u00ff\u6f22\U0001f600\ud800'


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _random_cell(rng: random.Random) -> int:
    return rng.choice([0, 1, -1, 2**70, -(2**70), 2**63, rng.randint(-99, 99)])


def _random_pair(rng: random.Random) -> list[int]:
    return [_random_cell(rng), _random_cell(rng)]


def _random_table(rng: random.Random):
    """Rows for the writer's format-string path, from 1x1 up, and the near
    misses that must keep the general path: a bool in one row, an empty
    row, ragged rows. Rows may be lists or tuples, mixed; some tables are
    maps three levels deep, rows of [u, v] pairs."""
    height = rng.choice([1, 1, 2, 3, 5])
    width = rng.choice([1, 1, 2, 3, 6])
    shape = rng.randrange(6)
    cell = _random_pair if shape == 0 else _random_cell
    table = [[cell(rng) for _ in range(width)] for _ in range(height)]
    k = rng.randrange(height)
    if shape == 1:
        table[k][rng.randrange(width)] = rng.choice([True, False])
    elif shape == 2:
        table[k] = []
    elif shape == 3:
        table.append([_random_cell(rng) for _ in range(width + 1)])
    if rng.randrange(2):
        table = [tuple(row) if rng.randrange(2) else row for row in table]
    return tuple(table) if rng.randrange(3) == 0 else table


def _random_value(rng: random.Random, depth: int = 0):
    """A seeded random JSON value: big and negative ints, bools mixed into
    int lists, None, floats, strings, tables of int rows, and nested lists,
    tuples and dicts with string keys, empty ones included."""
    kind = rng.randrange(11 if depth < 4 else 6)
    if kind == 0:
        return rng.choice([0, 1, -1, 2**63, 2**64 + 1, -(2**70), rng.randint(-9, 9)])
    if kind == 1:
        return rng.choice([True, False, None, 0.5, -1e300, 1.0])
    if kind == 2:
        return _random_text(rng)
    if kind == 3:
        return [rng.randint(-(2**66), 2**66) for _ in range(rng.randrange(5))]
    if kind == 4:
        return [rng.choice([0, 1, True, False, -7]) for _ in range(rng.randrange(1, 5))]
    if kind == 5:
        return _random_table(rng)
    items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind in (6, 7):
        return items
    if kind == 8:
        return tuple(items)
    return {_random_text(rng): v for v in items}


class _Level(IntEnum):
    HIGH = 7


@pytest.mark.parametrize(
    "obj",
    [
        [], {}, (), [[]], {"a": {}}, [1, True, 0], (3, -4), None, True, 2**64 + 1,
        "\u00e9\"\\\n",
        # an int subclass and the floats json writes its own way
        _Level.HIGH, [_Level.HIGH, 1], float("nan"), float("inf"), -0.0, 1e16,
        # a lone surrogate, escaped as json escapes it
        "\ud800",
        {"t": True, "n": None, "s": "\u00e9\u4e2d\U0001f600"},
        # keys that are not str follow json's key rules
        {1: "a", 2: [3, {"x": None}]}, {"a": {2.5: True, 3: [False]}},
    ],
    ids=repr,
)
def test_writer_matches_json_on_edge_cases(obj):
    assert canonical_dumps(obj) == _reference(obj)


def test_writer_matches_json_on_random_nested_objects():
    rng = random.Random("canonical_dumps")
    for _ in range(500):
        obj = _random_value(rng)
        assert canonical_dumps(obj) == _reference(obj)


def _cyclic_rows(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _with_entry(table, row: int, col: int, value) -> list:
    table = [list(r) for r in table]
    table[row][col] = value
    return table


def _entry_check_cases():
    """(name, add, mul): tables that the entry check refuses, one fault
    each, and tables past the order cap with and without a bad entry."""
    c4, c65, c300 = _cyclic_rows(4), _cyclic_rows(65), _cyclic_rows(300)
    moved = oracles.relabel(c300, [1, 0, *range(2, 300)])  # identity at 1
    yield "true", _with_entry(c4, 1, 2, True), c4
    yield "false", c4, _with_entry(c4, 3, 0, False)
    yield "float", _with_entry(c4, 2, 1, 3.0), c4
    yield "negative", c4, _with_entry(c4, 0, 3, -1)
    yield "entry_n", _with_entry(c4, 3, 3, 4), c4
    yield "entry_256", c4, _with_entry(c4, 1, 0, 256)
    yield "short_row", [c4[0], c4[1], c4[2][:3], c4[3]], c4
    yield "order_65_bad_entry", _with_entry(c65, 64, 64, 65), c65
    yield "order_65", c65, c65
    yield "order_300_bad_entry", c300, _with_entry(c300, 299, 0, 300)
    yield "order_300", c300, c300
    yield "order_300_identities", c300, [list(r) for r in moved]


# The error line of `verify --json` on each file, then the error make_group
# raises on each table, None for a group: the entry check names the same
# first fault, byte for byte, however it tests the entries.
ENTRY_CHECK_ERRORS = {
    "true": (
        "error: entry True in row 1 of 'add' out of range\n",
        "BadInput: entry True in row 1 of 'table' out of range",
        None,
    ),
    "false": (
        "error: entry False in row 3 of 'mul' out of range\n",
        None,
        "BadInput: entry False in row 3 of 'table' out of range",
    ),
    "float": (
        "error: entry 3.0 in row 2 of 'add' out of range\n",
        "BadInput: entry 3.0 in row 2 of 'table' out of range",
        None,
    ),
    "negative": (
        "error: entry -1 in row 0 of 'mul' out of range\n",
        None,
        "BadInput: entry -1 in row 0 of 'table' out of range",
    ),
    "entry_n": (
        "error: entry 4 in row 3 of 'add' out of range\n",
        "BadInput: entry 4 in row 3 of 'table' out of range",
        None,
    ),
    "entry_256": (
        "error: entry 256 in row 1 of 'mul' out of range\n",
        None,
        "BadInput: entry 256 in row 1 of 'table' out of range",
    ),
    "short_row": (
        "error: row 2 of 'add' must have length 4\n",
        "BadInput: row 2 of 'table' must have length 4",
        None,
    ),
    "order_65_bad_entry": (
        "error: entry 65 in row 64 of 'add' out of range\n",
        "BadInput: entry 65 in row 64 of 'table' out of range",
        "GroupTooLarge: group order 65 exceeds the supported cap 64",
    ),
    "order_65": (
        "error: group order 65 exceeds the supported cap 64\n",
        "GroupTooLarge: group order 65 exceeds the supported cap 64",
        "GroupTooLarge: group order 65 exceeds the supported cap 64",
    ),
    "order_300_bad_entry": (
        "error: entry 300 in row 299 of 'mul' out of range\n",
        "GroupTooLarge: group order 300 exceeds the supported cap 64",
        "BadInput: entry 300 in row 299 of 'table' out of range",
    ),
    "order_300": (
        "error: group order 300 exceeds the supported cap 64\n",
        "GroupTooLarge: group order 300 exceeds the supported cap 64",
        "GroupTooLarge: group order 300 exceeds the supported cap 64",
    ),
    "order_300_identities": (
        "error: additive identity 0 differs from multiplicative identity 1\n",
        "GroupTooLarge: group order 300 exceeds the supported cap 64",
        "GroupTooLarge: group order 300 exceeds the supported cap 64",
    ),
}


def _make_group_error(table):
    try:
        make_group(table)
    except SkewBraceKitError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def test_entry_check_errors_are_pinned(tmp_path, capsys):
    got = {}
    for name, add, mul in _entry_check_cases():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"order": len(add), "add": add, "mul": mul}), encoding="utf-8")
        code = cli.main(["verify", str(path), "--json"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        got[name] = (err, _make_group_error(add), _make_group_error(mul))
    assert got == ENTRY_CHECK_ERRORS


# Every kind of JSON value a cell can hold: the bools, floats json reads
# its own way, -0 (the int 0), a str, null, a list, an object, ints out of
# range and one in range. n stands for the order.
_CELL_TOKENS = (
    "true", "false", "1.0", "1e0", "-0", '"1"', "null", "[1]", "{}", "-1", "n", "256",
    "NaN", "Infinity", "1E400", "0",
)
# no extra key, and true or false spelled in a string and in a key
_EXTRA_KEYS = ("", '"note": "true", ', '"false": 1, ')


def _token_file_texts():
    """An order-16 product brace file per cell token and extra key: the
    token in place of a cell of the mul table that holds 1."""
    B = next(B for _, B in product_braces() if B.n == 16)
    r, c = next((r, c) for r in range(1, 16) for c in range(16) if B.mul.table[r][c] == 1)
    obj = brace_to_obj(B)
    obj["mul"][r][c] = "@cell"
    text = json.dumps(obj, sort_keys=True)
    for token in _CELL_TOKENS:
        cell = "16" if token == "n" else token
        for extra in _EXTRA_KEYS:
            yield token, extra, "{" + extra + text[1:].replace('"@cell"', cell)


def test_loader_reads_every_cell_token_as_the_full_type_count_does(tmp_path, capsys):
    # load_brace counts int types only when true or false is in the text;
    # every file must give the line brace_from_obj gives through the count
    path = tmp_path / "brace.json"
    by_token = {}
    for token, extra, text in _token_file_texts():
        path.write_text(text, encoding="utf-8")
        code = cli.main(["verify", str(path), "--json"])
        got = (code, *capsys.readouterr())
        try:
            brace_from_obj(json.loads(text))
        except SkewBraceKitError as exc:
            expected = (1, "", f"error: {exc}\n")
        else:
            expected = (0,)
        assert got[: len(expected)] == expected, (token, extra)
        by_token.setdefault(token, []).append(got)
    assert by_token["-0"] == by_token["0"]
    assert all("entry True in row" in got[2] for got in by_token["true"])
    assert all("entry False in row" in got[2] for got in by_token["false"])


class _Cell(IntEnum):
    TWO = 2


class _Index(int):
    pass


_API_CELLS = (
    # (row, col, value, message): value in place of the Z3 entry it equals
    (0, 1, True, "entry True in row 0 of {key!r} out of range"),
    (0, 0, False, "entry False in row 0 of {key!r} out of range"),
    (0, 2, _Cell.TWO, "entry <_Cell.TWO: 2> in row 0 of {key!r} out of range"),
    (1, 1, _Index(2), "entry 2 in row 1 of {key!r} out of range"),
)


@pytest.mark.parametrize(
    "row, col, value, message", _API_CELLS, ids=["true", "false", "intenum", "int_subclass"]
)
def test_python_api_refuses_int_subclasses(row, col, value, message):
    assert value == Z3[row][col]
    table = _with_cell(row, col, value)
    calls = (
        ("table", lambda: make_group(table)),
        ("add", lambda: make_skew_brace(table, Z3)),
        ("mul", lambda: make_skew_brace(Z3, table)),
        ("add", lambda: brace_from_obj({"order": 3, "add": table, "mul": Z3})),
        ("mul", lambda: brace_from_obj({"order": 3, "add": Z3, "mul": table})),
    )
    for key, call in calls:
        with pytest.raises(BadInput) as info:
            call()
        assert str(info.value) == message.format(key=key)

import json

import pytest

from sbk.braces import classify, from_group
from sbk.enumeration import all_skew_braces
from sbk.errors import BadInput, IdentityMismatch
from sbk.groups import cyclic_group, dihedral_group
from sbk.serialize import (
    brace_from_obj,
    brace_to_obj,
    canonical_dumps,
    group_from_obj,
    group_to_obj,
    load_brace,
)


def test_group_round_trip():
    G = dihedral_group(6)
    obj = group_to_obj(G)
    back = group_from_obj(obj)
    assert back.table == G.table


def test_group_identity_normalized_on_load():
    # Z3 with identity at index 1
    table = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
    G = group_from_obj({"order": 3, "table": table})
    assert G.table[0] == (0, 1, 2)


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

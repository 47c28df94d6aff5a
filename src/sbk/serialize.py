"""JSON formats for braces and reports.

Brace files:  {"order": n, "add": [[...]], "mul": [[...]]}

Tables are 0-based and row-major with table[i][j] = i o j; the identity
may sit at any index on input and is normalized to index 0 on load. All
emitted JSON is canonical (sorted keys, two-space indent, trailing
newline) so identical inputs produce byte-identical files.

canonical_dumps writes that form itself, byte for byte what
json.dumps(obj, sort_keys=True, indent=2) writes: with indent set, the
json module drops its C encoder for a pure-Python one, which was the
largest single cost of writing a brace or a Yang-Baxter map. Nearly all
of every output is blocks of ints: a list of plain ints, or a list of
non-empty rows, all of one length, that are blocks in turn. A block is
written by one %d format string built for its shape, filled from its
flattened ints in one call: a brace file's table, or a whole Yang-Baxter
map, whose entries are [u, v] pairs. Plain means of type int exactly,
so a bool, which prints as true, never meets %d. Keys, every other
scalar, ragged rows and empty rows keep the general path. There a str,
key or value, goes through json.encoder.encode_basestring_ascii, the C
function json.dumps itself calls for one; true, false and null are
written as they are, and an int of type int exactly by int.__repr__, as
json does. Floats, int subclasses and every other scalar still go
through json.dumps, and so does a dict with a key that is not a str.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

from .bitset import members
from .braces import SkewBrace, _skew_brace_of_flat
from .cauchy import CauchyReport, SurveyRow
from .errors import BadInput
from .groups import _flat_table
from .ybe import YBEMap


_INT = frozenset({int})
_ROW = frozenset({list, tuple})


def canonical_dumps(obj: Any) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) plus a newline, byte for
    byte, for an object of dicts with str keys, lists, tuples and scalars.
    Written here because json encodes in Python, not C, once indent is
    set."""
    return _dumps(obj, "\n") + "\n"


def _dumps(obj: Any, nl: str) -> str:
    """obj as json.dumps(indent=2) writes it, nl being a newline and the
    indent of the line obj starts on, where its closing bracket goes."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        block = _int_block(obj, nl)
        if block is not None:
            return block
        inner = nl + "  "
        items = [_dumps(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj)
        try:
            names = list(map(encode_basestring_ascii, keys))
        except TypeError:  # a key that is not a str: json's own key rules
            return json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl)
        inner = nl + "  "
        items = [name + ": " + _dumps(obj[k], inner) for name, k in zip(names, keys)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj.__class__ is int:
        return int.__repr__(obj)
    return json.dumps(obj)


def _int_block(obj: Any, nl: str) -> Optional[str]:
    """obj as _dumps writes it when it is a block of plain ints: a list of
    plain ints, or of rows of one non-zero length that are blocks in turn;
    None otherwise. One %d format string, built for the shape, is filled
    from the flattened ints."""
    widths = [len(obj)]
    cells = obj
    while True:
        types = set(map(type, cells))
        if types == _INT:  # not bool, which prints as true
            break
        if not types <= _ROW:
            return None
        width = len(cells[0])
        if not width or set(map(len, cells)) != {width}:
            return None
        widths.append(width)
        cells = tuple(chain.from_iterable(cells))
    block = "%d"
    for depth in reversed(range(len(widths))):
        inner = nl + "  " * (depth + 1)
        block = "[" + inner + ("," + inner).join([block] * widths[depth]) + inner[:-2] + "]"
    return block % tuple(cells)


def _require_field(obj: Any, key: str, n: int) -> list:
    table = obj.get(key)
    if not isinstance(table, list) or len(table) != n:
        raise BadInput(f"field {key!r} must be a {n}x{n} array")
    return table


def _require_order(obj: Any) -> int:
    if not isinstance(obj, dict):
        raise BadInput("top-level JSON value must be an object")
    n = obj.get("order")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BadInput("field 'order' must be a positive integer")
    return n


def brace_from_obj(obj: Any) -> SkewBrace:
    """The brace of a JSON object. Each table is checked once: its field
    here, then its rows and entries by _flat_table, which flattens it to
    the byte string every later test reads, the additive table in full
    before the multiplicative one."""
    n = _require_order(obj)
    add = _flat_table(_require_field(obj, "add", n), "add")
    mul = _flat_table(_require_field(obj, "mul", n), "mul")
    return _skew_brace_of_flat(add, mul)


def brace_to_obj(B: SkewBrace) -> dict[str, Any]:
    return {
        "order": B.n,
        "add": [list(row) for row in B.add.table],
        "mul": [list(row) for row in B.mul.table],
    }


def load_brace(path: str) -> SkewBrace:
    return brace_from_obj(_load_json(path))


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON and bytes that are not UTF-8
        raise BadInput(f"cannot read JSON from {path}: {exc}") from exc


def cauchy_report_to_obj(report: CauchyReport) -> dict[str, Any]:
    return {
        "order": report.order,
        "all_primes_witnessed": report.all_primes_witnessed,
        "primes": [
            {
                "p": e.prime,
                "witness": members(e.witness) if e.witness is not None else None,
                "strategy": e.strategy,
            }
            for e in report.entries
        ],
    }


def survey_rows_to_obj(rows: list[SurveyRow]) -> list[dict[str, Any]]:
    return [
        {
            "order": row.order,
            "iso_index": row.index,
            "flags": row.flags.as_dict(),
            "all_primes_witnessed": row.all_primes_witnessed,
        }
        for row in rows
    ]


def ybe_to_obj(r: YBEMap) -> dict[str, Any]:
    """The map and its checks; every map to_solution returns satisfies the
    braid relation and is non-degenerate (Guarnieri and Vendramin, Thm
    3.1), so both are true. The pairs go to the writer as they are: tuples
    are written as lists."""
    return {
        "order": r.n,
        "r": r.pairs,
        "braid_ok": True,
        "nondegenerate": True,
    }

"""JSON formats for groups, braces and reports.

Group files:  {"order": n, "table": [[...]]}
Brace files:  {"order": n, "add": [[...]], "mul": [[...]]}

Tables are 0-based and row-major with table[i][j] = i o j; the identity
may sit at any index on input and is normalized to index 0 on load. All
emitted JSON is canonical (sorted keys, two-space indent, trailing
newline) so identical inputs produce byte-identical files.

canonical_dumps writes that form itself, byte for byte what
json.dumps(obj, sort_keys=True, indent=2) writes: with indent set, the
json module drops its C encoder for a pure-Python one, which was the
largest single cost of writing a brace or a Yang-Baxter map. Nearly all
of every output is ints, written in two shapes. A list of plain ints is
joined with str. A list of non-empty rows of plain ints, all of one
length, is written by one %d format string built for that shape, filled
from the flattened rows in one call: a brace file's table, or one row of
a Yang-Baxter map, whose entries are [u, v] pairs. Plain means of type
int exactly, so a bool, which prints as true, never meets %d. Keys,
every other scalar, ragged rows and empty rows keep the general path,
and scalars still go through json.dumps.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any, Optional

from .bitset import members
from .braces import SkewBrace, _skew_brace_of_rows
from .cauchy import CauchyReport, SurveyRow
from .errors import BadInput
from .groups import FiniteGroup, _square_rows, make_group
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
        inner = nl + "  "
        types = set(map(type, obj))
        if types == _INT:  # not bool, which prints as true
            items = map(str, obj)
        else:
            table = _table(obj, inner) if types <= _ROW else None
            if table is not None:
                return "[" + inner + table + nl + "]"
            items = [_dumps(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        items = [json.dumps(k) + ": " + _dumps(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    return json.dumps(obj)


def _table(rows: Any, inner: str) -> Optional[str]:
    """The rows between the brackets of their list, one per line at the
    indent of inner, when they are non-empty rows of plain ints, all of one
    length; None otherwise. One %d format string, built for the shape, is
    filled from the flattened rows."""
    width = len(rows[0])
    # the first cell turns away a map's list of rows of pairs unflattened
    if not width or type(rows[0][0]) is not int or set(map(len, rows)) != {width}:
        return None
    cells = tuple(chain.from_iterable(rows))
    if set(map(type, cells)) != _INT:
        return None
    cell = inner + "  "
    row = "[" + cell + ("," + cell).join(["%d"] * width) + inner + "]"
    return ("," + inner).join([row] * len(rows)) % cells


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


def group_from_obj(obj: Any, name: str = "") -> FiniteGroup:
    n = _require_order(obj)
    # make_group checks the rows and entries, calling the table 'table'
    return make_group(_require_field(obj, "table", n), name=name)


def group_to_obj(G: FiniteGroup) -> dict[str, Any]:
    return {"order": G.n, "table": [list(row) for row in G.table]}


def brace_from_obj(obj: Any) -> SkewBrace:
    """The brace of a JSON object. Each table is checked once: its field
    here, then its rows and entries by _square_rows, the additive table
    in full before the multiplicative one."""
    n = _require_order(obj)
    add = _square_rows(_require_field(obj, "add", n), "add")
    mul = _square_rows(_require_field(obj, "mul", n), "mul")
    return _skew_brace_of_rows(add, mul)


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

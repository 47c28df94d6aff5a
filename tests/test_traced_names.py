"""Every function the benchmark's layer tracer wraps is still in sbk.

perfbench/layertrace.py replaces each (module, name) of its LAYERS by a
wrapper that counts calls and times them, and it leaves out the metrics
of a name it cannot find: a deleted or renamed traced function would
thin out the per-layer report of every traced run without an error. The
tracer is read here from its file; nothing is written beside it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import sbk
from sbk import enumeration, serialize
from sbk.braces import from_group
from sbk.groups import automorphism_group
from sbk.ybe import to_solution

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"

# public names no module, __all__ or the tracer names
CALLERLESS_API = {
    "brace_from_obj",  # serialize's API for brace objects already decoded from JSON
}

# traced names that no sbk module uses and __all__ does not export, each
# kept only for the tracer, with the ROADMAP item that deletes it; the
# tracer's retargeting (item 1a) deletes this mapping with the names
TRACED_ONLY = {
    "subbrace_carriers": 15,  # analyze reads structure(B).subbraces
    "canonical_table": 19,  # the catalog sorts by _TYPE_RANKING
}


def _layertrace():
    """perfbench/layertrace.py as a module, compiled from its text so that
    no bytecode file is written."""
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    exec(compile(LAYERTRACE.read_text(encoding="utf-8"), str(LAYERTRACE), "exec"), vars(module))
    return module


def test_every_traced_name_is_callable():
    layers = _layertrace().LAYERS
    missing = [
        f"{module}.{name}"
        for module, names in layers.values()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_the_measured_results_have_the_traced_shapes():
    """The tracer counts len() of what _regular_assignments and
    _orbit_representatives return, and the UTF-8 bytes of what
    canonical_dumps returns."""
    for G in enumeration.groups_of_order(4):
        auts = automorphism_group(G)
        found = enumeration._regular_assignments(G, auts)
        kept = enumeration._orbit_representatives(found, auts)
        assert isinstance(found, list) and isinstance(kept, list)
        assert 0 < len(kept) <= len(found)
        B = from_group(G, "trivial")
        text = serialize.canonical_dumps(serialize.brace_to_obj(B))
        assert isinstance(text, str) and text.encode("utf-8")
        text = serialize.canonical_dumps(serialize.ybe_to_obj(to_solution(B)))
        assert isinstance(text, str) and text.encode("utf-8")


def _sbk_names():
    """(used, defined): every name sbk's modules read, and the (module,
    name) of each function and class they define at module level."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    used = set()
    defined = []
    for path in sorted(Path(sbk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        defined += [(path.stem, node.name) for node in tree.body if isinstance(node, defs)]
    return used, defined


def _traced_names():
    return {name for _, names in _layertrace().LAYERS.values() for name in names}


def test_every_module_level_name_has_a_caller():
    """Each function and class defined at module level in sbk is used
    somewhere in sbk, exported by __all__, traced, or on CALLERLESS_API."""
    used, defined = _sbk_names()
    kept = used | set(sbk.__all__) | _traced_names() | CALLERLESS_API
    assert [f"{module}.{name}" for module, name in defined if name not in kept] == []


def test_traced_only_names_are_listed():
    """A traced name that sbk neither uses nor exports is on TRACED_ONLY,
    and every name there is such a name."""
    used, _ = _sbk_names()
    assert _traced_names() - used - set(sbk.__all__) == set(TRACED_ONLY)


def test_every_exported_name_resolves():
    """A name deleted from sbk but left in __all__ breaks `from sbk import *`."""
    assert [name for name in sbk.__all__ if not hasattr(sbk, name)] == []

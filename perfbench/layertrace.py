"""Per-layer call counts and self times for a traced pass.

Each traced function is replaced, in every ``sbk`` module that binds it,
by a wrapper that counts calls and times them. Self time is a call's
duration minus the time spent in nested traced calls. A function that a
later version of sbk no longer defines is reported as absent.
"""

from __future__ import annotations

import sys
import time

LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "enumeration": (
        "sbk.enumeration",
        (
            "all_skew_braces",
            "_regular_assignments",
            "_orbit_representatives",
            "are_isomorphic_braces",
            "canonical_table",
        ),
    ),
    "groups": (
        "sbk.groups",
        (
            "automorphism_group",
            "table_isomorphisms",
            "subgroups",
            "generated_subgroup",
            "make_group",
        ),
    ),
    "braces": ("sbk.braces", ("assemble", "classify")),
    "substructure": (
        "sbk.substructure",
        (
            "subbrace_carriers",
            "ideals",
            "minimal_ideals",
            "quotient",
            "is_soluble_brace",
            "brace_centers",
        ),
    ),
    # cauchy_report calls find_subbrace_with_strategy directly; only the
    # harness command goes through find_subbrace_of_order.
    "cauchy": (
        "sbk.cauchy",
        ("cauchy_report", "find_subbrace_of_order", "find_subbrace_with_strategy"),
    ),
    "ybe": ("sbk.ybe", ("to_solution", "check_solution")),
    "serialize": ("sbk.serialize", ("load_brace", "canonical_dumps")),
}

COMMANDS = ("verify", "analyze", "cauchy", "enumerate", "ybe")

# Result sizes recorded as extra counters: (layer, function) -> metric suffix.
RESULT_COUNTS = {
    ("enumeration", "_regular_assignments"): "found",
    ("enumeration", "_orbit_representatives"): "kept",
}


def metric_names() -> list[str]:
    names = []
    for layer, (_, funcs) in LAYERS.items():
        for f in funcs:
            names += [f"{layer}.{f}.calls", f"{layer}.{f}.self_ms"]
            if f == "all_skew_braces":
                names.append(f"{layer}.{f}.ms")
            if (layer, f) in RESULT_COUNTS:
                names.append(f"{layer}.{f}.{RESULT_COUNTS[layer, f]}")
    names += ["enumeration.orbit_yield", "serialize.bytes_out"]
    names += [f"cli.{c}.ms" for c in COMMANDS]
    names.append("trace.overhead_ms")
    return names


def unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name == "enumeration.orbit_yield":
        return "ratio"
    if name == "serialize.bytes_out":
        return "bytes"
    return "count"


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.extra: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "sbk"]
        for layer, (modname, funcs) in LAYERS.items():
            home = sys.modules.get(modname)
            for fname in funcs:
                orig = getattr(home, fname, None) if home else None
                key = f"{layer}.{fname}"
                if not callable(orig):
                    self.absent.append(key)
                    continue
                self.calls[key] = 0
                self.self_s[key] = 0.0
                self.incl_s[key] = 0.0
                wrapped = self._wrap(key, orig, RESULT_COUNTS.get((layer, fname)))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)

    def _wrap(self, key, orig, count_suffix):
        stack = self._stack
        clock = time.perf_counter
        counts_result = count_suffix is not None
        sizes_output = key == "serialize.canonical_dumps"
        if counts_result:
            self.extra[f"{key}.{count_suffix}"] = 0
        if sizes_output:
            self.extra["serialize.bytes_out"] = 0

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = stack.pop()
                self.calls[key] += 1
                self.self_s[key] += dt - nested
                self.incl_s[key] += dt
                if stack:
                    stack[-1] += dt
            if counts_result:
                self.extra[f"{key}.{count_suffix}"] += len(result)
            if sizes_output:
                self.extra["serialize.bytes_out"] += len(result.encode("utf-8"))
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for key, n in self.calls.items():
            out[f"{key}.calls"] = n
            out[f"{key}.self_ms"] = self.self_s[key] * 1e3
        if "enumeration.all_skew_braces" in self.incl_s:
            out["enumeration.all_skew_braces.ms"] = self.incl_s["enumeration.all_skew_braces"] * 1e3
        out.update(self.extra)
        found = self.extra.get("enumeration._regular_assignments.found")
        kept = self.extra.get("enumeration._orbit_representatives.kept")
        if found is not None and kept is not None:
            out["enumeration.orbit_yield"] = kept / found if found else 0.0
        return out

"""Checks of sbk's outputs, made without sbk.

``check_pass`` reads the records a worker wrote for one pass and returns
the problems it found and the ops that failed. A problem makes the run
incorrect. An op fails, without making the run incorrect, when sbk rejects
a file with an error whose named violation does not hold in the file as
written; that is the known fault the validate workload keeps.
"""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path

import algebra as A
from gen import CATALOG_COUNTS, GROUP_COUNTS

FLAG_KEYS = ("trivial", "almost_trivial", "abelian", "two_sided", "bi_skew")
ANALYZE_KEYS = {
    "order", "flags", "subbraces", "ideals", "minimal_ideals", "centers", "square",
    "opposite_square", "ker_lambda", "simple", "soluble", "solubility_chain",
}
# Complete subbrace lists are recomputed by brute force up to this order.
BRUTE_FORCE_MAX_ORDER = 14


def load_file(path: str):
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    return obj["add"], obj["mul"]


def _sort_key(m: int):
    ms = A.elems(m)
    return len(ms), ms


def _primes(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


class Checker:
    def __init__(self) -> None:
        self.problems: list[str] = []
        self.failed: set[str] = set()

    def expect(self, ok: bool, op_id: str, what: str) -> bool:
        if not ok:
            self.problems.append(f"{op_id}: {what}")
        return ok

    def clean_exit(self, op_id: str, call: dict) -> bool:
        return (
            self.expect(call["exc"] is None, op_id, f"raised\n{call['exc']}")
            and self.expect(call["rc"] == 0, op_id, f"exit code {call['rc']}")
            and self.expect(call["stderr"] == "", op_id, f"stderr {call['stderr']!r}")
        )

    def report(self, op_id: str, call: dict) -> dict | None:
        """The JSON report of a call that should have succeeded."""
        if not self.clean_exit(op_id, call):
            return None
        try:
            rep = json.loads(call["stdout"])
        except ValueError:
            rep = None
        self.expect(isinstance(rep, dict), op_id, "stdout is not a JSON object")
        return rep if isinstance(rep, dict) else None

    # ---------------------------------------------------------------- catalog

    def catalog(self, op: dict, calls: list[dict], out_dir: Path) -> None:
        for n, call in zip(op["orders"], calls):
            op_id = f"{op['id']}/n{n:02d}"
            if not self.clean_exit(op_id, call):
                continue
            self._catalog_order(op_id, n, call["stdout"], out_dir / f"n{n:02d}")

    def _catalog_order(self, op_id: str, n: int, stdout: str, d: Path) -> None:
        text = (d / "manifest.json").read_text(encoding="utf-8")
        self.expect(stdout == text, op_id, "stdout differs from manifest.json")
        man = json.loads(text)
        count = CATALOG_COUNTS[n - 1]
        ok = self.expect(man["order"] == n, op_id, "manifest order")
        ok &= self.expect(man["count"] == man["total_classes"] == count, op_id,
                          f"class count {man['count']}/{man['total_classes']}, expected {count}")
        ok &= self.expect(len(man["entries"]) == count, op_id, "manifest entry count")
        names = sorted(p.name for p in d.iterdir())
        ok &= self.expect(names == sorted(man["entries"] + ["manifest.json"]), op_id,
                          "files differ from manifest entries")
        per_group = [g["count"] for g in man["per_additive_group"]]
        ok &= self.expect(len(per_group) == GROUP_COUNTS[n - 1] and sum(per_group) == count
                          and min(per_group) >= 1, op_id, f"per-group counts {per_group}")
        if not ok:
            return
        braces = []
        for name in man["entries"]:
            obj = json.loads((d / name).read_text(encoding="utf-8"))
            b = (obj["add"], obj["mul"])
            if not self.expect(obj["order"] == n and A.is_brace(*b) and A.identity_of(b[0]) == 0,
                               op_id, f"{name} is not a brace of order {n} with identity 0"):
                return
            braces.append(b)
        census = {k: 0 for k in FLAG_KEYS}
        for b in braces:
            for k, v in A.flags(*b).items():
                census[k] += v
        self.expect(man["flag_census"] == census, op_id,
                    f"flag census {man['flag_census']}, recomputed {census}")
        # Entries come in blocks, one per additive group in manifest order:
        # equal additive groups inside a block, distinct ones across blocks,
        # and no two isomorphic braces inside a block.
        ends = list(itertools.accumulate(per_group, initial=0))
        blocks = [range(lo, hi) for lo, hi in zip(ends, ends[1:])]
        group = [(b[0], b[0]) for b in braces]
        entries = man["entries"]
        for bi, block in enumerate(blocks):
            first = block[0]
            self.expect(all(A.brace_isomorphism(group[first], group[i]) for i in block[1:]),
                        op_id, f"additive groups differ inside block {bi}")
            for bj in range(bi):
                self.expect(A.brace_isomorphism(group[blocks[bj][0]], group[first]) is None,
                            op_id, f"blocks {bj} and {bi} have isomorphic additive groups")
            for i in block:
                for j in range(first, i):
                    self.expect(A.brace_isomorphism(braces[j], braces[i]) is None, op_id,
                                f"{entries[j]} and {entries[i]} are isomorphic")

    # -------------------------------------------------------------- structure

    def analyze(self, op: dict, call: dict) -> dict | None:
        """Check one analyze report; returns its labeling-free summary."""
        op_id = op["id"]
        rep = self.report(op_id, call)
        if rep is None or not self.expect(set(rep) == ANALYZE_KEYS, op_id, f"keys {sorted(rep)}"):
            return None
        add, mul = A.normalize(*load_file(op["file"]))
        n = len(add)
        full = (1 << n) - 1
        lam = A.lambdas(add, mul)
        e = self.expect
        e(rep["order"] == n, op_id, "order")
        e(rep["flags"] == A.flags(add, mul), op_id, "flags")
        subs, ideals, minimal = rep["subbraces"], rep["ideals"], rep["minimal_ideals"]
        e(subs == sorted(set(subs), key=_sort_key), op_id, "subbraces not sorted and distinct")
        e(all(m & 1 and A.is_closed((add, mul), m) for m in subs), op_id, "a listed subbrace is not closed")
        if n <= BRUTE_FORCE_MAX_ORDER:
            e(set(subs) == set(A.subbraces_bruteforce(add, mul)), op_id, "subbrace list incomplete")
        e(ideals == [m for m in subs if A.is_ideal(add, mul, m, lam)], op_id,
          "ideals differ from the subbraces that are ideals")
        nonzero = [m for m in ideals if m != 1]
        e(minimal == [m for m in nonzero if not any(o != m and o & ~m == 0 for o in nonzero)],
          op_id, "minimal ideals")
        zadd, zmul = A.center(add), A.center(mul)
        e(rep["centers"] == {"add": zadd, "mul": zmul, "mul_is_ideal": A.is_ideal(add, mul, zmul, lam)},
          op_id, "centers")
        e(rep["square"] == A.star_square(add, mul), op_id, "star square")
        e(rep["opposite_square"] == A.star_square(add, mul, opposite=True), op_id, "opposite square")
        ident = list(range(n))
        e(rep["ker_lambda"] == A.mask(a for a in range(n) if lam[a] == ident), op_id, "lambda kernel")
        e(rep["simple"] == (len(ideals) == 2), op_id, "simple")
        chain = rep["solubility_chain"]
        e(rep["soluble"] == (chain is not None), op_id, "soluble flag and chain disagree")
        if chain is not None:
            e(chain[:1] == [1] and chain[-1:] == [full], op_id, "chain ends")
            e(all(A.is_ideal(add, mul, m, lam) for m in chain), op_id, "chain step not an ideal")
            e(all(lo & ~hi == 0 and lo != hi and A.is_abelian_step(add, mul, lo, hi)
                  for lo, hi in zip(chain, chain[1:])), op_id, "chain step not abelian")
        e(rep["soluble"] == self._soluble(add, mul, ideals, full), op_id, "solubility")
        return {
            "order": n,
            "flags": rep["flags"],
            **{k: sorted(m.bit_count() for m in rep[k]) for k in ("subbraces", "ideals", "minimal_ideals")},
            **{k: rep[k].bit_count() for k in ("square", "opposite_square", "ker_lambda")},
            "centers": [zadd.bit_count(), zmul.bit_count(), rep["centers"]["mul_is_ideal"]],
            "simple": rep["simple"],
            "soluble": rep["soluble"],
        }

    @staticmethod
    def _soluble(add, mul, ideals, full) -> bool:
        """Whether some chain of the given ideals climbs from 0 to the
        whole brace by abelian steps."""
        reached, todo = {1}, [1]
        while todo:
            lo = todo.pop()
            for hi in ideals:
                if hi not in reached and lo & ~hi == 0 and A.is_abelian_step(add, mul, lo, hi):
                    reached.add(hi)
                    todo.append(hi)
        return full in reached

    # --------------------------------------------------------------- validate

    def accepted(self, op: dict, call: dict) -> None:
        op_id = op["id"]
        rep = self.report(op_id, call)
        if rep is None:
            return
        add, mul = A.normalize(*load_file(op["file"]))
        n = len(add)
        self.expect(rep["order"] == n, op_id, "order")
        if op["cmd"] == "verify":
            self.expect(rep == {"order": n, "flags": A.flags(add, mul)}, op_id, "verify flags")
        elif op["cmd"] == "cauchy":
            self._cauchy(op_id, rep, add, mul)
        else:
            self._ybe(op_id, rep, add, mul)

    def _cauchy(self, op_id: str, rep: dict, add, mul) -> None:
        e = self.expect
        lam = A.lambdas(add, mul)
        primes = [row["p"] for row in rep["primes"]]
        e(primes == _primes(len(add)), op_id, f"primes {primes}")
        for row in rep["primes"]:
            p, w = row["p"], row["witness"]
            if w is None:
                exists = any(
                    A.element_order(add, x) == p and A.is_closed((mul,), A.closure((add,), [x]))
                    for x in range(len(add))
                )
                e(not exists, op_id, f"p={p}: no witness reported but one exists")
                continue
            m = A.mask(w)
            e(w == sorted(set(w)) and len(w) == p and m & 1 and A.is_closed((add, mul), m),
              op_id, f"p={p}: witness {w} is not a subbrace of order p")
            e(row["strategy"] in ("lambda_fixed_point", "brute_force"), op_id, "strategy")
            if row["strategy"] == "lambda_fixed_point":
                e(any(lam[x][x] == x for x in w if x), op_id, f"p={p}: no lambda fixed point")
        e(rep["all_primes_witnessed"] == all(r["witness"] is not None for r in rep["primes"]),
          op_id, "all_primes_witnessed")

    def _ybe(self, op_id: str, rep: dict, add, mul) -> None:
        n = len(add)
        lam = A.lambdas(add, mul)
        minv = A.inverses(mul)
        r = [[(lam[x][y], mul[mul[minv[lam[x][y]]][x]][y]) for y in range(n)] for x in range(n)]
        e = self.expect
        e(rep["r"] == [[list(p) for p in row] for row in r], op_id, "r(x, y) differs from the brace's map")
        braid = True
        for x in range(n):
            for y in range(n):
                a, b = r[x][y]
                for z in range(n):
                    # (r x 1)(1 x r)(r x 1) and (1 x r)(r x 1)(1 x r) on (x, y, z)
                    c, d = r[b][z]
                    left = (*r[a][c], d)
                    s, t = r[y][z]
                    u, v = r[x][s]
                    right = (u, *r[v][t])
                    if left != right:
                        braid = False
                        break
                if not braid:
                    break
            if not braid:
                break
        e(rep["braid_ok"] is braid is True, op_id, "braid relation")
        nondeg = all(len({r[x][y][0] for y in range(n)}) == n for x in range(n)) and all(
            len({r[x][y][1] for x in range(n)}) == n for y in range(n)
        )
        e(rep["nondegenerate"] is nondeg is True, op_id, "non-degeneracy")

    def rejected(self, op: dict, call: dict) -> None:
        op_id = op["id"]
        lines = call["stderr"].splitlines()
        if not (
            self.expect(call["exc"] is None, op_id, f"raised\n{call['exc']}")
            and self.expect(call["rc"] == 1, op_id, f"exit code {call['rc']} on a bad file")
            and self.expect(call["stdout"] == "", op_id, "stdout on a bad file")
            and self.expect(len(lines) == 1 and lines[0].startswith("error: "), op_id,
                            f"stderr {call['stderr']!r}")
        ):
            return
        if not violation_holds(lines[0][len("error: "):], *load_file(op["file"])):
            self.failed.add(op_id)


def violation_holds(msg: str, add, mul) -> bool:
    """Whether the violation an sbk error message names is real in the
    tables as given."""
    tables = (add, mul)
    if m := re.fullmatch(r"associativity fails at triple \((\d+), (\d+), (\d+)\)", msg):
        i, j, k = map(int, m.groups())
        return any(A.assoc_fails(t, i, j, k) for t in tables)
    if m := re.fullmatch(r"compatibility law .* fails at \((\d+), (\d+), (\d+)\)", msg):
        if not (A.is_group(add) and A.is_group(mul)):
            return False
        return A.compat_fails(add, mul, A.inverses(add), *map(int, m.groups()))
    if m := re.fullmatch(r"(row|column) (\d+) is not a permutation of 0\.\.n-1", msg):
        side, idx = (0 if m[1] == "row" else 1), int(m[2])
        return any(idx in A.bad_lines(t)[side] for t in tables)
    if msg == "table has no two-sided identity element":
        return any(A.identity_of(t) is None for t in tables)
    if m := re.fullmatch(r"additive identity (\d+) differs from multiplicative identity (\d+)", msg):
        return (A.identity_of(add), A.identity_of(mul)) == (int(m[1]), int(m[2])) and m[1] != m[2]
    if m := re.fullmatch(r"element (\d+) has no two-sided inverse", msg):
        x = int(m[1])
        return any(
            (e := A.identity_of(t)) is not None
            and not any(t[x][y] == e == t[y][x] for y in range(len(t)))
            for t in tables
        )
    return False


def check_pass(workload: str, ops: list[dict], out_dir: Path) -> tuple[list[str], set[str]]:
    """Check every op of one pass in full; returns (problems, failed op ids)."""
    c = Checker()
    summaries: dict[str, list[dict]] = {}
    for op in ops:
        calls = json.loads((out_dir / f"{op['id']}.json").read_text(encoding="utf-8"))["calls"]
        if workload == "catalog":
            c.catalog(op, calls, out_dir / op["id"])
        elif workload == "structure":
            s = c.analyze(op, calls[0])
            if s is not None:
                summaries.setdefault(op["label"], []).append(s)
        elif op["expect"] == "accept":
            c.accepted(op, calls[0])
        else:
            c.rejected(op, calls[0])
    for label, group in summaries.items():
        c.expect(all(s == group[0] for s in group), label, "relabeled copies differ in invariants")
    return c.problems, c.failed

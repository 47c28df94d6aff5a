"""Fast tests of the benchmark itself.

    python3 -m unittest discover -s perfbench

One short pass per workload, one traced pass, and checks that the output
checker catches planted wrong outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import tempfile
import unittest
from pathlib import Path

import algebra as A
import check
import gen
import layertrace
import run

ROOT = Path(__file__).resolve().parent.parent


def scratch(test: unittest.TestCase) -> Path:
    """A fresh directory inside the checkout, removed after the test."""
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    d = Path(tempfile.mkdtemp(dir=base))
    test.addCleanup(shutil.rmtree, d, ignore_errors=True)
    return d


def bench(*args: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


class ShortPasses(unittest.TestCase):
    def one_pass(self, workload: str, failed_per_pass: int) -> None:
        res = bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "0")
        ops = gen.make_ops(workload, 7, scratch(self))
        self.assertTrue(res["correct"])
        self.assertEqual(res["attempted"], len(ops))
        self.assertEqual(res["failed"], failed_per_pass)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for m in spec["end_to_end"]:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
            self.assertGreater(res["metrics"][m["name"]]["value"], 0)

    def test_catalog(self):
        self.one_pass("catalog", 0)

    def test_structure(self):
        self.one_pass("structure", 0)

    def test_validate_keeps_the_relabeled_error_fault(self):
        self.one_pass("validate", len(gen.FAULT_INPUTS))

    def test_traced_pass_reports_every_layer_metric_and_repeats_counts(self):
        runs = [
            bench("--workload", "validate", "--seed", "3", "--seconds", "0", "--trace", "1")
            for _ in range(2)
        ]
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(names, layertrace.metric_names())
        for res in runs:
            self.assertTrue(res["correct"])
            self.assertEqual(sorted(res["metrics"]), sorted(names))
        counts = [
            {k: v["value"] for k, v in res["metrics"].items() if layertrace.unit(k) == "count"}
            for res in runs
        ]
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["ybe.check_solution.calls"], 2 * len(gen.VALIDATE_PRODUCTS))


class Inputs(unittest.TestCase):
    def test_same_seed_same_files_and_corruptions_are_not_braces(self):
        d1, d2 = scratch(self), scratch(self)
        ops1 = gen.make_ops("validate", 11, d1)
        ops2 = gen.make_ops("validate", 11, d2)
        for a, b in zip(ops1, ops2):
            self.assertEqual(Path(a["file"]).read_bytes(), Path(b["file"]).read_bytes())
            brace = check.load_file(a["file"])
            self.assertEqual(A.is_brace(*brace), a["expect"] == "accept", a["id"])

    def test_order_16_groups_are_pairwise_distinct(self):
        groups = list(gen.groups_of_order_16().values())
        self.assertEqual(len(groups), 14)
        for i, g in enumerate(groups):
            self.assertTrue(A.is_group(g))
            for h in groups[:i]:
                self.assertIsNone(A.brace_isomorphism((g, g), (h, h)))


class PlantedErrors(unittest.TestCase):
    """Take real sbk outputs, plant one wrong value, and expect the checker
    to object."""

    def setUp(self):
        self.dir = scratch(self)

    def sbk_pass(self, workload: str, ops: list[dict]) -> Path:
        out = self.dir / "pass"
        run.run_pass(ops, out, False, run.child_env(workload))
        problems, failed = check.check_pass(workload, ops, out)
        self.assertEqual((problems, failed), ([], set()))
        return out

    def plant(self, out: Path, op_id: str, edit) -> None:
        path = out / f"{op_id}.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        edit(record["calls"])
        path.write_text(json.dumps(record), encoding="utf-8")

    def file_op(self, cmd: str, brace, op_id: str = "x", expect: str = "accept") -> dict:
        path = gen.write_brace(self.dir / f"{op_id}.json", brace)
        return {"id": op_id, "cmd": cmd, "argvs": [[cmd, "--json", path]], "file": path,
                "expect": expect, "label": op_id}

    def test_wrong_class_count(self):
        ops = [{"id": "sweep", "cmd": "enumerate", "orders": [4],
                "argvs": [["enumerate", "4", "--out", "{out}/n04"]]}]
        out = self.sbk_pass("catalog", ops)
        d = out / "sweep" / "n04"
        man = json.loads((d / "manifest.json").read_text(encoding="utf-8"))
        # Drop the last class everywhere, so that only the count is wrong.
        last = man["entries"].pop()
        flags = A.flags(*check.load_file(str(d / last)))
        (d / last).unlink()
        man["count"] -= 1
        man["total_classes"] -= 1
        man["per_additive_group"][-1]["count"] -= 1
        for k, v in flags.items():
            man["flag_census"][k] -= v
        text = json.dumps(man, sort_keys=True, indent=2) + "\n"
        (d / "manifest.json").write_text(text, encoding="utf-8")
        self.plant(out, "sweep", lambda calls: calls[0].update(stdout=text))
        problems, _ = check.check_pass("catalog", ops, out)
        self.assertTrue(any("class count 3/3, expected 4" in p for p in problems), problems)

    def test_isomorphic_classes_in_one_order(self):
        ops = [{"id": "sweep", "cmd": "enumerate", "orders": [8],
                "argvs": [["enumerate", "8", "--out", "{out}/n08"]]}]
        out = self.sbk_pass("catalog", ops)
        d = out / "sweep" / "n08"
        man = json.loads((d / "manifest.json").read_text(encoding="utf-8"))
        # Replace entry 6 by a relabeled copy of entry 5: same additive
        # group, same flags, so only the isomorphism search can tell.
        source, target = (d / man["entries"][i] for i in (5, 6))
        sigma = [0, *random.Random(1).sample(range(1, 8), 7)]
        copy = gen.relabeled(check.load_file(str(source)), sigma)
        self.assertEqual(A.flags(*copy), A.flags(*check.load_file(str(target))))
        gen.write_brace(target, copy)
        problems, _ = check.check_pass("catalog", ops, out)
        want = f"{man['entries'][5]} and {man['entries'][6]} are isomorphic"
        self.assertTrue(any(want in p for p in problems), problems)

    def test_non_ideal_listed_as_ideal(self):
        corpus = gen.load_corpus()
        ops = [self.file_op("analyze", corpus["8.13"])]
        out = self.sbk_pass("structure", ops)
        rep = json.loads(json.loads((out / "x.json").read_text())["calls"][0]["stdout"])
        add, mul = corpus["8.13"]
        extra = next(m for m in rep["subbraces"] if not A.is_ideal(add, mul, m))

        def edit(calls):
            rep["ideals"] = sorted(rep["ideals"] + [extra], key=check._sort_key)
            calls[0]["stdout"] = json.dumps(rep)

        self.plant(out, "x", edit)
        problems, _ = check.check_pass("structure", ops, out)
        self.assertTrue(any("ideals differ" in p for p in problems), problems)

    def test_wrong_braid_map_entry(self):
        corpus = gen.load_corpus()
        ops = [self.file_op("ybe", A.direct_product(corpus["8.36"], corpus["2.0"]))]
        out = self.sbk_pass("validate", ops)

        def edit(calls):
            rep = json.loads(calls[0]["stdout"])
            u, v = rep["r"][3][5]
            rep["r"][3][5] = [u, (v + 1) % rep["order"]]
            calls[0]["stdout"] = json.dumps(rep)

        self.plant(out, "x", edit)
        problems, _ = check.check_pass("validate", ops, out)
        self.assertTrue(any("r(x, y) differs" in p for p in problems), problems)

    def test_error_naming_a_triple_that_holds_fails_the_op(self):
        corpus = gen.load_corpus()
        # A swap that keeps the identity, so that associativity is what fails.
        for k in range(100):
            bad = gen.corrupted(random.Random(k), corpus["8.36"], "swap", 0)
            if A.identity_of(bad[0]) == 0:
                break
        ops = [self.file_op("verify", bad, expect="reject")]
        out = self.sbk_pass("validate", ops)
        msg = json.loads((out / "x.json").read_text())["calls"][0]["stderr"]
        self.assertRegex(msg, r"^error: associativity fails at triple")
        add, mul = bad
        holds = next(
            (i, j, k)
            for i in range(8) for j in range(8) for k in range(8)
            if not (A.assoc_fails(add, i, j, k) or A.assoc_fails(mul, i, j, k))
        )
        self.plant(out, "x", lambda calls: calls[0].update(
            stderr=f"error: associativity fails at triple {holds}\n"))
        problems, failed = check.check_pass("validate", ops, out)
        self.assertEqual((problems, failed), ([], {"x"}))


if __name__ == "__main__":
    unittest.main()

"""Command line front end.

Commands: verify, analyze, cauchy, enumerate, survey, ybe, harness.
Exit codes: 0 success, 1 invalid input (a bad flag too) or failed
validation, 2 a prime witness is missing for a brace in one of the
structured classes the harness command checks (which would signal a bug).

Identical invocations produce byte-identical reports: workers only spread
independent per-order jobs and results are re-sorted before printing. The
process pool is imported only when one is started, so a command that
reads one file never loads multiprocessing.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from pathlib import Path
from typing import Any, NoReturn, Optional

from . import serialize
from .bitset import members
from .braces import BraceFlags, classify, opposite
from .cauchy import cauchy_report, survey_order
from .enumeration import SUPPORTED_ORDERS, all_skew_braces
from .errors import BadInput, SkewBraceKitError, UnsupportedOrder
from .groups import prime_divisors
from .substructure import (
    _ideals_among,
    _minimal,
    _soluble_chain,
    brace_centers,
    brace_square,
    ker_lambda,
    subbrace_carriers,
)
from .ybe import to_solution

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_HARNESS_VIOLATION = 2


def _default_workers() -> int:
    return max(1, os.cpu_count() or 1)


class _Parser(argparse.ArgumentParser):
    """Raises BadInput on a usage error, so it ends in one error line and
    exit 1 like any bad input: argparse's own exit 2 is the harness
    violation code. Subparsers are built from the same class."""

    def error(self, message: str) -> NoReturn:
        raise BadInput(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sbk", description="Finite skew brace toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="Validate a brace file and print its flags.")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("analyze", help="Full structure report for a brace file.")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cauchy", help="Prime-order subbrace witnesses for a brace file.")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("enumerate", help="Enumerate all braces of one order.")
    p.add_argument("order", type=int)
    p.add_argument("--two-sided", action="store_true", dest="two_sided")
    p.add_argument("--bi-skew", action="store_true", dest="bi_skew")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("survey", help="Cauchy survey over all orders up to a bound.")
    p.add_argument("n_max", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--workers", type=int, default=_default_workers())

    p = sub.add_parser("ybe", help="Yang-Baxter solution of a brace file.")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "harness",
        help="Check prime witnesses for the structured classes up to a bound.",
    )
    p.add_argument("n_max", type=int)
    p.add_argument("--two-sided", action="store_true", dest="two_sided")
    p.add_argument("--bi-skew", action="store_true", dest="bi_skew")
    p.add_argument("--json", action="store_true")
    p.add_argument("--workers", type=int, default=_default_workers())

    return parser


def _print(text: str) -> None:
    sys.stdout.write(text)


def _flags_lines(flags: dict[str, bool]) -> list[str]:
    return [f"  {k}: {'yes' if v else 'no'}" for k, v in flags.items()]


def cmd_verify(args: argparse.Namespace) -> int:
    B = serialize.load_brace(args.path)
    flags = classify(B).as_dict()
    if args.json:
        _print(serialize.canonical_dumps({"order": B.n, "flags": flags}))
    else:
        _print(f"valid skew brace of order {B.n}\n")
        _print("\n".join(_flags_lines(flags)) + "\n")
    return EXIT_OK


def _analysis_obj(B) -> dict[str, Any]:
    # one lattice per brace: the ideals, minimal ideals, simplicity and the
    # solubility chain are all read from the same carriers
    flags = classify(B)
    centers = brace_centers(B)
    carriers = subbrace_carriers(B)
    ideal_list = _ideals_among(B, carriers)
    chain = _soluble_chain(B, ideal_list)
    bopp = opposite(B)
    return {
        "order": B.n,
        "flags": flags.as_dict(),
        "subbraces": carriers,
        "ideals": ideal_list,
        "minimal_ideals": _minimal(ideal_list),
        "centers": {
            "add": centers.z_add,
            "mul": centers.z_mul,
            "mul_is_ideal": centers.z_mul_is_ideal,
        },
        "square": brace_square(B),
        "opposite_square": brace_square(bopp),
        "ker_lambda": ker_lambda(B),
        "simple": len(ideal_list) == 2,
        "soluble": chain is not None,
        "solubility_chain": chain,
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    B = serialize.load_brace(args.path)
    obj = _analysis_obj(B)
    if args.json:
        _print(serialize.canonical_dumps(obj))
        return EXIT_OK
    _print(f"skew brace of order {B.n}\n")
    _print("\n".join(_flags_lines(obj["flags"])) + "\n")
    _print(f"subbraces: {[members(m) for m in obj['subbraces']]}\n")
    _print(f"ideals: {[members(m) for m in obj['ideals']]}\n")
    _print(f"minimal ideals: {[members(m) for m in obj['minimal_ideals']]}\n")
    _print(
        f"centers: add={members(obj['centers']['add'])} "
        f"mul={members(obj['centers']['mul'])} "
        f"mul_is_ideal={obj['centers']['mul_is_ideal']}\n"
    )
    _print(f"star square: {members(obj['square'])}\n")
    _print(f"opposite star square: {members(obj['opposite_square'])}\n")
    _print(f"lambda kernel: {members(obj['ker_lambda'])}\n")
    _print(f"simple: {obj['simple']}\n")
    if obj["solubility_chain"] is None:
        _print("soluble: no\n")
    else:
        _print(
            "soluble: yes, chain "
            + " <= ".join(str(members(m)) for m in obj["solubility_chain"])
            + "\n"
        )
    return EXIT_OK


def cmd_cauchy(args: argparse.Namespace) -> int:
    B = serialize.load_brace(args.path)
    report = cauchy_report(B)
    if args.json:
        _print(serialize.canonical_dumps(serialize.cauchy_report_to_obj(report)))
        return EXIT_OK
    _print(f"order {B.n}, prime divisors {prime_divisors(B.n)}\n")
    for e in report.entries:
        if e.witness is None:
            _print(f"  p={e.prime}: NO WITNESS\n")
        else:
            _print(
                f"  p={e.prime}: subbrace {members(e.witness)} ({e.strategy})\n"
            )
    _print(
        "all primes witnessed\n"
        if report.all_primes_witnessed
        else "MISSING WITNESS\n"
    )
    return EXIT_OK


def _manifest(catalog, selected: list[int], flag_census: dict[str, int]) -> dict[str, Any]:
    per_group = catalog.per_group_counts()
    return {
        "order": catalog.order,
        "count": len(selected),
        "total_classes": catalog.count,
        "per_additive_group": [
            {"name": name, "count": count} for name, count in per_group
        ],
        "flag_census": flag_census,
        "entries": [f"brace_{catalog.order:02d}_{i:03d}.json" for i in selected],
    }


def cmd_enumerate(args: argparse.Namespace) -> int:
    catalog = all_skew_braces(args.order)
    selected = []
    census = dict.fromkeys(BraceFlags._fields, 0)
    for i, B in enumerate(catalog.entries):
        flags = classify(B)
        keep = True
        if args.two_sided and not flags.two_sided:
            keep = False
        if args.bi_skew and not flags.bi_skew:
            keep = False
        if not keep:
            continue
        selected.append(i)
        for key, value in flags.as_dict().items():
            census[key] += int(value)
    manifest = _manifest(catalog, selected, census)
    text = serialize.canonical_dumps(manifest)
    if args.out:
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
            for i in selected:
                payload = serialize.canonical_dumps(
                    serialize.brace_to_obj(catalog.entries[i])
                )
                (out / f"brace_{catalog.order:02d}_{i:03d}.json").write_text(
                    payload, encoding="utf-8"
                )
            (out / "manifest.json").write_text(text, encoding="utf-8")
        except OSError as exc:
            raise BadInput(f"cannot write to {out}: {exc}") from exc
    _print(text)
    return EXIT_OK


def _survey_order(n: int) -> list[dict[str, Any]]:
    return serialize.survey_rows_to_obj(survey_order(n))


def _run_per_order(n_max: int, workers: int, job) -> list[Any]:
    if workers < 1:
        raise BadInput(f"--workers must be at least 1, got {workers}")
    if n_max > SUPPORTED_ORDERS[-1]:
        raise UnsupportedOrder(n_max, SUPPORTED_ORDERS[-1])
    orders = list(range(1, n_max + 1))
    # the pool starts all its processes at once, so no more than there are jobs
    workers = min(workers, len(orders))
    if workers <= 1:
        return [job(n) for n in orders]
    from concurrent.futures import ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(job, orders))
    except OSError:  # pragma: no cover - platforms that cannot start processes
        return [job(n) for n in orders]


def cmd_survey(args: argparse.Namespace) -> int:
    per_order = _run_per_order(args.n_max, args.workers, _survey_order)
    rows = [row for chunk in per_order for row in chunk]
    if args.json:
        _print(serialize.canonical_dumps(rows))
        return EXIT_OK
    _print("order  index  trivial  almost  abelian  two-sided  bi-skew  witnessed\n")
    for r in rows:
        f = r["flags"]
        _print(
            f"{r['order']:>5}  {r['iso_index']:>5}  "
            f"{str(f['trivial']):<7}  {str(f['almost_trivial']):<6}  "
            f"{str(f['abelian']):<7}  {str(f['two_sided']):<9}  "
            f"{str(f['bi_skew']):<7}  {r['all_primes_witnessed']}\n"
        )
    failures = [r for r in rows if not r["all_primes_witnessed"]]
    _print(
        f"{len(rows)} braces surveyed, {len(failures)} without a full witness set\n"
    )
    return EXIT_OK


def cmd_ybe(args: argparse.Namespace) -> int:
    B = serialize.load_brace(args.path)
    r = to_solution(B)
    if args.json:
        _print(serialize.canonical_dumps(serialize.ybe_to_obj(r)))
    else:
        _print(f"order {B.n}: braid relation holds, non-degenerate\n")
    return EXIT_OK


def _harness_order(n: int, two_sided: bool, bi_skew: bool) -> dict[str, Any]:
    catalog = all_skew_braces(n)
    checked = 0
    failures = []
    for idx, B in enumerate(catalog.entries):
        flags = classify(B)
        in_scope = (two_sided and flags.two_sided) or (bi_skew and flags.bi_skew)
        if not in_scope:
            continue
        checked += 1
        for e in cauchy_report(B).entries:
            if e.witness is None:
                failures.append({"order": n, "iso_index": idx, "prime": e.prime})
    return {"order": n, "checked": checked, "failures": failures}


def cmd_harness(args: argparse.Namespace) -> int:
    two_sided = args.two_sided or not (args.two_sided or args.bi_skew)
    bi_skew = args.bi_skew or not (args.two_sided or args.bi_skew)
    job = partial(_harness_order, two_sided=two_sided, bi_skew=bi_skew)
    results = _run_per_order(args.n_max, args.workers, job)
    failures = [f for r in results for f in r["failures"]]
    obj = {
        "scope": {
            "two_sided": two_sided,
            "bi_skew": bi_skew,
            "n_max": args.n_max,
        },
        "checked": sum(r["checked"] for r in results),
        "failures": failures,
    }
    if args.json:
        _print(serialize.canonical_dumps(obj))
    else:
        for r in results:
            _print(
                f"order {r['order']:>2}: {r['checked']} braces in scope, "
                f"{len(r['failures'])} failures\n"
            )
        if failures:
            _print(f"FAIL: {len(failures)} missing witnesses\n")
        else:
            _print("all primes witnessed\n")
    return EXIT_HARNESS_VIOLATION if failures else EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    handlers = {
        "verify": cmd_verify,
        "analyze": cmd_analyze,
        "cauchy": cmd_cauchy,
        "enumerate": cmd_enumerate,
        "survey": cmd_survey,
        "ybe": cmd_ybe,
        "harness": cmd_harness,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SkewBraceKitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())

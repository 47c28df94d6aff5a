"""Command line front end.

Commands: verify, analyze, cauchy, enumerate, survey, ybe, harness.
Exit codes: 0 success, 1 invalid input (a bad flag too) or failed
validation, 2 a prime witness is missing for a brace in one of the
structured classes the harness command checks (which would signal a bug).

Identical invocations produce byte-identical reports: workers only spread
independent per-order jobs and results are re-sorted before printing. The
process pool is imported only when one is started, so a command that
reads one file never loads multiprocessing.

Each command is declared once, in COMMANDS. When the first argument names
a command and the rest of the line is plain (_read says what that is),
main reads it from COMMANDS alone, builds no parser and never imports
argparse. Any other line goes to argparse: a line that names a command
gets one parser, "sbk <cmd>" with that command's arguments; no
arguments, a leading flag or an unknown command get the parser of every
command, so help and usage errors list them all. Every path reads a
line the same (_read and _parse give the proof), so argparse writes
every help text and error. No parser is built at import or kept between
calls.
"""

from __future__ import annotations

import os
import sys
from functools import cache, partial
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, NoReturn, Optional

from . import serialize
from .bitset import members
from .braces import BraceFlags, classify
from .cauchy import cauchy_report, survey_order
from .enumeration import SUPPORTED_ORDERS, all_skew_braces
from .errors import BadInput, SkewBraceKitError, UnsupportedOrder
from .groups import center, prime_divisors
from .substructure import (
    _carrier_lattice,
    _ideals_among,
    _minimal,
    _opposite_square,
    _soluble_chain,
    brace_square,
    ker_lambda,
)
from .ybe import to_solution

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_HARNESS_VIOLATION = 2


def _default_workers() -> int:
    return max(1, os.cpu_count() or 1)


def _print(text: str) -> None:
    sys.stdout.write(text)


def _flags_lines(flags: dict[str, bool]) -> list[str]:
    return [f"  {k}: {'yes' if v else 'no'}" for k, v in flags.items()]


def cmd_verify(args: SimpleNamespace) -> int:
    B = serialize.load_brace(args.path)
    flags = classify(B).as_dict()
    if args.json:
        _print(serialize.canonical_dumps({"order": B.n, "flags": flags}))
    else:
        _print(f"valid skew brace of order {B.n}\n")
        _print("\n".join(_flags_lines(flags)) + "\n")
    return EXIT_OK


def _analysis_obj(B) -> dict[str, Any]:
    # one lattice per brace: the ideals, minimal ideals, simplicity, the
    # solubility chain and whether Z(B,*) is an ideal are all read from
    # the same carriers; every ideal is among them
    carriers = _carrier_lattice(B)
    ideal_lattice = _ideals_among(B, carriers)
    ideal_list = list(ideal_lattice)
    chain = _soluble_chain(B, ideal_lattice)
    z_mul = center(B.mul)
    return {
        "order": B.n,
        "flags": classify(B).as_dict(),
        "subbraces": list(carriers),
        "ideals": ideal_list,
        "minimal_ideals": _minimal(ideal_list),
        "centers": {
            "add": center(B.add),
            "mul": z_mul,
            "mul_is_ideal": z_mul in ideal_lattice,
        },
        "square": brace_square(B),
        "opposite_square": _opposite_square(B),
        "ker_lambda": ker_lambda(B),
        "simple": len(ideal_list) == 2,
        "soluble": chain is not None,
        "solubility_chain": chain,
    }


def cmd_analyze(args: SimpleNamespace) -> int:
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


def cmd_cauchy(args: SimpleNamespace) -> int:
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


def _normal_path(path: str) -> str:
    """path with empty and '.' components dropped, as POSIX paths print in
    pathlib: 'out/' and 'out/./' read 'out', and a path of no components
    reads '.'. A leading '//' is kept, any other run of leading slashes
    is one."""
    lead = len(path) - len(path.lstrip("/"))
    root = "//" if lead == 2 else "/" if lead else ""
    parts = [p for p in path.split("/") if p not in ("", ".")]
    return root + "/".join(parts) or "."


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_enumerate(args: SimpleNamespace) -> int:
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
        out = _normal_path(args.out)
        try:
            os.makedirs(out, exist_ok=True)
            for i in selected:
                payload = serialize.canonical_dumps(
                    serialize.brace_to_obj(catalog.entries[i])
                )
                _write(os.path.join(out, f"brace_{catalog.order:02d}_{i:03d}.json"), payload)
            _write(os.path.join(out, "manifest.json"), text)
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


def cmd_survey(args: SimpleNamespace) -> int:
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


def cmd_ybe(args: SimpleNamespace) -> int:
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


def cmd_harness(args: SimpleNamespace) -> int:
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


_Argument = tuple[tuple[str, ...], dict[str, Any]]

_PATH: _Argument = (("path",), {})
_JSON: _Argument = (("--json",), {"action": "store_true"})
_TWO_SIDED: _Argument = (("--two-sided",), {"action": "store_true", "dest": "two_sided"})
_BI_SKEW: _Argument = (("--bi-skew",), {"action": "store_true", "dest": "bi_skew"})
_N_MAX: _Argument = (("n_max",), {"type": int})
_WORKERS: _Argument = (("--workers",), {"type": int, "default": _default_workers})


class _Command(NamedTuple):
    help: str
    arguments: tuple[_Argument, ...]  # add_argument's (flags, keywords), in order
    handler: Callable[[SimpleNamespace], int]


# Every command once. A default that is a function is called on each
# call, by _read or when a parser is built, so --workers follows the CPU
# count of each call.
COMMANDS: dict[str, _Command] = {
    "verify": _Command(
        "Validate a brace file and print its flags.", (_PATH, _JSON), cmd_verify
    ),
    "analyze": _Command(
        "Full structure report for a brace file.", (_PATH, _JSON), cmd_analyze
    ),
    "cauchy": _Command(
        "Prime-order subbrace witnesses for a brace file.", (_PATH, _JSON), cmd_cauchy
    ),
    "enumerate": _Command(
        "Enumerate all braces of one order.",
        (
            (("order",), {"type": int}),
            _TWO_SIDED,
            _BI_SKEW,
            (("--out",), {}),
            _JSON,
        ),
        cmd_enumerate,
    ),
    "survey": _Command(
        "Cauchy survey over all orders up to a bound.", (_N_MAX, _JSON, _WORKERS), cmd_survey
    ),
    "ybe": _Command("Yang-Baxter solution of a brace file.", (_PATH, _JSON), cmd_ybe),
    "harness": _Command(
        "Check prime witnesses for the structured classes up to a bound.",
        (_N_MAX, _TWO_SIDED, _BI_SKEW, _JSON, _WORKERS),
        cmd_harness,
    ),
}


# the add_argument keywords _read knows
_READ_KEYWORDS = frozenset({"action", "default", "dest", "type"})


def _read(spec: _Command, rest: list[str]) -> Optional[SimpleNamespace]:
    """rest read from spec alone if it is plain, else None.

    In a plain line every token is an exact option name of the command,
    the value after an option that takes one, or a positional; values
    and positionals do not start with '-'. It has exactly the command's
    positionals, and every type conversion succeeds. argparse reads each
    token of such a line alike: no token is '--', '-h', an abbreviation,
    an '=' form or a dash-leading value, so none is split, matched by
    prefix or read as a negative number. So the values here are those of
    the one-command parser, and the defaults fill in the rest; a default
    that is a function is called on each call, as when a parser is built.
    A command with an argument of any other shape, such as two names or
    an nargs, is left to argparse whatever its line.
    """
    values: dict[str, Any] = {}
    options: dict[str, tuple[str, Optional[Callable[[str], Any]]]] = {}  # no type: a flag
    positionals = []
    for flags, keywords in spec.arguments:
        if (
            len(flags) > 1
            or keywords.keys() - _READ_KEYWORDS
            or keywords.get("action") not in (None, "store_true")
        ):
            return None
        name = flags[0]
        convert = keywords.get("type", str)
        if name[0] != "-":
            positionals.append((name, convert))
            continue
        dest = keywords.get("dest", name.lstrip("-").replace("-", "_"))
        flag = keywords.get("action") == "store_true"
        options[name] = dest, None if flag else convert
        default = keywords.get("default", False if flag else None)
        values[dest] = default() if callable(default) else default
    given = []  # (dest, type, token) of every value, in line order
    positional_tokens = []
    tokens = iter(rest)
    for token in tokens:
        if token[:1] != "-":
            positional_tokens.append(token)
            continue
        if token not in options:
            return None
        dest, convert = options[token]
        if convert is None:
            values[dest] = True
            continue
        value = next(tokens, "-")
        if value[:1] == "-":
            return None
        given.append((dest, convert, value))
    if len(positional_tokens) != len(positionals):
        return None
    given += ((name, convert, token) for (name, convert), token in zip(positionals, positional_tokens))
    try:
        for dest, convert, token in given:
            values[dest] = convert(token)
    except (TypeError, ValueError):
        return None
    return SimpleNamespace(**values)


@cache
def _parser_class() -> type[argparse.ArgumentParser]:
    """The parser class of every parser built here, made on the first
    call, so that argparse is imported only for a line _read does not
    take. It raises BadInput on a usage error, so that ends in one error
    line and exit 1 like any bad input: argparse's own exit 2 is the
    harness violation code. Subparsers are built from the same class."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str) -> NoReturn:
            raise BadInput(f"{self.prog}: {message}")

    return _Parser


def _add_arguments(parser: argparse.ArgumentParser, spec: _Command) -> None:
    for flags, keywords in spec.arguments:
        default = keywords.get("default")
        if callable(default):
            keywords = {**keywords, "default": default()}
        parser.add_argument(*flags, **keywords)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command: one subparser per command, named
    "sbk <cmd>"."""
    parser = _parser_class()(prog="sbk", description="Finite skew brace toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=spec.help), spec)
    return parser


def _parse(argv: list[str]) -> tuple[str, SimpleNamespace]:
    """The command argv names and its parsed arguments.

    When argv[0] names a command, argv[1:] is read by _read if it is
    plain; otherwise only that command's parser is built, and it reads
    argv[1:] as build_parser() reads the whole line. There the
    subparsers action is the top parser's one positional, and argv[0] is
    a positional, so the action's nargs, 'A...', takes argv[0] and every
    argument after it, flags too. The action hands argv[1:] to the
    command's subparser, a parser of the same class named "sbk <cmd>"
    with the same arguments, through parse_known_args: help, usage
    errors and the parsed values come from a parser like the one built
    here. What that call leaves over, the top parser's parse_args
    rejects as "unrecognized arguments" under its own name, "sbk"; so is
    it here.
    """
    if argv and argv[0] in COMMANDS:
        command = argv[0]
        args = _read(COMMANDS[command], argv[1:])
        if args is not None:
            return command, args
        parser = _parser_class()(prog=f"sbk {command}")
        _add_arguments(parser, COMMANDS[command])
        parsed, extras = parser.parse_known_args(argv[1:])
        if extras:
            raise BadInput(f"sbk: unrecognized arguments: {' '.join(extras)}")
        return command, SimpleNamespace(**vars(parsed))
    parsed = build_parser().parse_args(argv)
    return parsed.command, SimpleNamespace(**vars(parsed))


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        command, args = _parse(argv)
        return COMMANDS[command].handler(args)
    except SkewBraceKitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())

import functools
import json
import os
import random
import re
import subprocess
import sys
from itertools import product
from pathlib import Path, PurePosixPath

import pytest

import oracles
from sbk import cli
from sbk.bitset import members
from sbk.braces import from_group, make_skew_brace, opposite
from sbk.cli import _analysis_obj, main
from sbk.enumeration import all_skew_braces
from sbk.groups import cyclic_group, dihedral_group, direct_product
from sbk.serialize import brace_to_obj, canonical_dumps
from sbk.substructure import (
    ideals,
    is_soluble_brace,
    minimal_ideals,
    subbrace_carriers,
)
from test_golden import product_braces

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def write_brace(tmp_path, B, name="brace.json"):
    path = tmp_path / name
    path.write_text(canonical_dumps(brace_to_obj(B)), encoding="utf-8")
    return str(path)


def run_cli(args, **kwargs):
    env = dict(kwargs.pop("env", {}))
    import os

    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = SRC
    full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "sbk", *args],
        capture_output=True,
        text=True,
        env=full_env,
        **kwargs,
    )


def test_verify_trivial_z6(tmp_path, capsys):
    path = write_brace(tmp_path, from_group(cyclic_group(6), "trivial"))
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "valid skew brace of order 6" in out
    assert "trivial: yes" in out


def test_verify_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"order": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 0]]}')
    assert main(["verify", str(path)]) == 1


def test_verify_reports_first_violation(tmp_path, capsys):
    add = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]
    mul = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"order": 4, "add": add, "mul": mul}))
    assert main(["verify", str(path)]) == 1


def test_analyze_json(tmp_path, capsys):
    path = write_brace(tmp_path, from_group(dihedral_group(6), "almost_trivial"))
    assert main(["analyze", path, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["order"] == 6
    assert obj["flags"]["almost_trivial"] is True
    assert obj["simple"] is False
    assert obj["soluble"] is True
    assert len(obj["ideals"]) == 3
    assert obj["ker_lambda"] == 1


def test_analysis_fields_equal_the_standalone_calls():
    for n in range(1, 9):
        for C in all_skew_braces(n).entries:
            for B in (C, opposite(C)):
                obj = _analysis_obj(B)
                assert obj["subbraces"] == subbrace_carriers(B)
                assert obj["ideals"] == ideals(B)
                assert obj["minimal_ideals"] == minimal_ideals(B)
                assert obj["simple"] == (len(ideals(B)) == 2)
                assert obj["solubility_chain"] == is_soluble_brace(B)


def test_analysis_is_equivariant_under_relabeling():
    # relabeling a brace by sigma fixing 0 maps every carrier, ideal, centre,
    # square and ker lambda to its sigma-image and keeps the flags; list
    # order may change, so the lists are compared as sets of masks
    rng = random.Random(7)
    braces = [B for n in range(1, 16) for B in all_skew_braces(n).entries]
    braces += [B for _, B in product_braces()]
    for B in braces:
        n = B.n
        sigma = [0] + rng.sample(range(1, n), n - 1)
        B2 = make_skew_brace(
            oracles.relabel(B.add.table, sigma), oracles.relabel(B.mul.table, sigma)
        )

        def image(mask):
            return sum(1 << sigma[x] for x in members(mask))

        obj, obj2 = _analysis_obj(B), _analysis_obj(B2)
        for key in ("subbraces", "ideals", "minimal_ideals"):
            assert set(obj2[key]) == set(map(image, obj[key])), (n, key)
        for key in ("square", "opposite_square", "ker_lambda"):
            assert obj2[key] == image(obj[key]), (n, key)
        centers, centers2 = obj["centers"], obj2["centers"]
        assert centers2 == {
            "add": image(centers["add"]),
            "mul": image(centers["mul"]),
            "mul_is_ideal": centers["mul_is_ideal"],
        }
        for key in ("flags", "simple", "soluble"):
            assert obj2[key] == obj[key], (n, key)


def test_analyze_json_trivial_brace_on_c2_5(tmp_path, capsys):
    G = cyclic_group(2)
    for _ in range(4):
        G = direct_product(G, cyclic_group(2))
    path = write_brace(tmp_path, from_group(G, "trivial"))
    assert main(["analyze", path, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["subbraces"]) == 374
    assert len(obj["ideals"]) == 374


def test_cauchy_command(tmp_path, capsys):
    path = write_brace(tmp_path, from_group(dihedral_group(6), "almost_trivial"))
    assert main(["cauchy", path, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["all_primes_witnessed"] is True
    assert [e["p"] for e in obj["primes"]] == [2, 3]


def test_ybe_command(tmp_path, capsys):
    path = write_brace(tmp_path, from_group(cyclic_group(4), "trivial"))
    assert main(["ybe", path, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["braid_ok"] and obj["nondegenerate"]
    assert obj["r"][1][2] == [2, 1]


def test_ybe_text(tmp_path, capsys):
    path = write_brace(tmp_path, from_group(dihedral_group(6), "almost_trivial"))
    assert main(["ybe", path]) == 0
    assert capsys.readouterr().out == "order 6: braid relation holds, non-degenerate\n"


def test_enumerate_manifest_counts(tmp_path, capsys):
    assert main(["enumerate", "4", "--out", str(tmp_path / "out")]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["count"] == 4
    assert sorted(p["name"] for p in obj["per_additive_group"]) == ["C2xC2", "C4"]
    files = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert "manifest.json" in files
    assert len(files) == 5


def test_enumerate_filters(tmp_path, capsys):
    assert main(["enumerate", "6", "--two-sided"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["count"] < obj["total_classes"]


def test_survey_past_the_cap_with_workers_is_one_error_line():
    result = run_cli(["survey", "16", "--workers", "2"])
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: order 16 is outside the supported range 1..15\n"


def _one_error_line(result, prefix="error: "):
    assert result.returncode == 1
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(prefix)


@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 100_000], ids=["not_utf8", "nested_100000"]
)
def test_unreadable_file_is_one_error_line(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    result = run_cli(["verify", str(path)])
    _one_error_line(result, f"error: cannot read JSON from {path}: ")


BAD_USAGE = {
    "bad_int": ["survey", "abc"],
    "unknown_flag": ["harness", "5", "--bogus"],
    "missing_order": ["enumerate"],
    "unknown_command": ["frobnicate"],
    "bad_workers": ["survey", "3", "--workers", "x"],
}

COMMAND_NAMES = ["verify", "analyze", "cauchy", "enumerate", "survey", "ybe", "harness"]


# argparse's own exit code 2 would read as a harness violation
@pytest.mark.parametrize("args", list(BAD_USAGE.values()), ids=list(BAD_USAGE))
def test_bad_usage_is_one_error_line_and_exit_1(args):
    _one_error_line(run_cli(args))


def test_help_exits_0():
    result = run_cli(["--help"])
    assert result.returncode == 0
    assert result.stdout.startswith("usage: sbk")


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of main(argv); help exits by SystemExit."""
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# argument lists the top parser's classification of flags could split
# apart: abbreviations, '=' forms of known and unknown flags, '--', extra
# positionals, help after a positional and a repeated flag; {path} is a
# valid brace file
ODD_ARGVS = [
    ["verify", "{path}", "--js"],
    ["analyze", "{path}", "--he"],
    ["verify", "{path}", "--workers=2"],
    ["survey", "1", "--workers=2", "--json"],
    ["enumerate", "2", "--out=x"],
    ["verify", "--", "{path}"],
    ["verify", "--json", "--", "{path}"],
    ["cauchy", "{path}", "extra"],
    ["ybe", "{path}", "-h"],
    ["verify", "{path}", "--json", "--json"],
    ["harness", "1", "--bogus=3"],
]


@pytest.mark.parametrize(
    "argv",
    [*([cmd, "--help"] for cmd in COMMAND_NAMES), *([cmd] for cmd in COMMAND_NAMES)]
    + list(BAD_USAGE.values())
    + ODD_ARGVS,
    ids="_".join,
)
def test_one_command_parser_reads_like_the_full_tree(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_brace(tmp_path, from_group(cyclic_group(4), "trivial"))
    argv = [path if arg == "{path}" else arg for arg in argv]
    made = _count_parsers(monkeypatch)
    alone = _outcome(argv, capsys)
    # a plain line, such as a repeated --json, is read with no parser
    plain = argv[0] in COMMAND_NAMES and cli._read(cli.COMMANDS[argv[0]], argv[1:]) is not None
    assert made == ([] if plain else ["sbk", *(f"sbk {cmd}" for cmd in COMMAND_NAMES)])
    monkeypatch.setattr(cli, "_parse", oracles.full_tree_parse)
    assert _outcome(argv, capsys) == alone
    assert alone[0] in (0, 1)


def test_help_lists_every_command(capsys):
    assert list(cli.COMMANDS) == COMMAND_NAMES
    code, out, err = _outcome(["--help"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: sbk [-h] {" + ",".join(COMMAND_NAMES) + "} ...\n")
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("    ")]
    assert [name for name in listed if name in COMMAND_NAMES] == COMMAND_NAMES


# tokens a line is made of, besides a command's own options: positionals
# valid for some command and for none, abbreviations, '=' forms, '--', a
# lone '-', help flags, an unknown flag and a short one
ODD_TOKENS = ["1", "x", "-1", ""]
ODD_TOKENS += ["--j", "--wo", "--t", "--b", "--o"]
ODD_TOKENS += ["--json=1", "--out=x", "--workers=2", "--workers=x"]
ODD_TOKENS += ["--", "-", "-h", "--he", "--bogus", "-x"]


def _options(cmd):
    return [flags[0] for flags, _ in cli.COMMANDS[cmd].arguments if flags[0][0] == "-"]


def _lines(path):
    """Every line of a command and up to two tokens of its vocabulary,
    every one of three tokens that could be plain, a seeded sample of
    longer ones and lines that name no command."""
    rng = random.Random(7)
    lines = [[], ["frobnicate"], ["-x", "verify"]]
    lines += [[token] for token in ODD_TOKENS]
    for cmd in COMMAND_NAMES:
        vocabulary = [path, *_options(cmd), *ODD_TOKENS]
        for k in range(3):
            lines += ([cmd, *tokens] for tokens in product(vocabulary, repeat=k))
        plain = [path, "1", "x", "", *_options(cmd)]
        lines += ([cmd, *tokens] for tokens in product(plain, repeat=3))
        for _ in range(150):
            lines.append([cmd, *rng.choices(vocabulary, k=rng.randint(3, 5))])
    return lines


def test_reader_matches_argparse(tmp_path, capsys, monkeypatch):
    """main reads every line as the parser of every command does: the same
    exit code, stdout and stderr, and the same arguments reach the
    command. Handlers only record what they get, so no command runs."""
    seen = []

    def recorder(name):
        def handler(args):
            seen.append((name, {k: v for k, v in vars(args).items() if k != "command"}))
            return 0

        return handler

    commands = {name: spec._replace(handler=recorder(name)) for name, spec in cli.COMMANDS.items()}
    monkeypatch.setattr(cli, "COMMANDS", commands)
    # main builds the parser of every command for each line _read does not
    # take; parse_args keeps nothing from one line to the next, so the one
    # that cli.build_parser builds on the first such line reads them all
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", functools.cache(build_parser))
    lines = _lines(str(tmp_path / "brace.json"))

    def readings():
        out = []
        for argv in lines:
            out.append((*_outcome(argv, capsys), seen.pop() if seen else None))
        return out

    ours = readings()
    tree = build_parser()
    monkeypatch.setattr(cli, "_parse", lambda argv: oracles.full_tree_parse(argv, tree))
    theirs = readings()
    for argv, got, want in zip(lines, ours, theirs):
        assert got == want, argv
    # many lines are plain, and most go to argparse
    taken = [a for a in lines if a and a[0] in commands and cli._read(commands[a[0]], a[1:])]
    assert 150 < len(taken) < len(lines) / 10


# the lines perfbench runs, all plain
PLAIN_ARGVS = [
    *([cmd, "--json", "{path}"] for cmd in ("verify", "analyze", "cauchy", "ybe")),
    ["enumerate", "8", "--out", "{path}"],
    ["survey", "15", "--json", "--workers", "2"],
]


@pytest.mark.parametrize("argv", PLAIN_ARGVS, ids="_".join)
def test_reader_takes_the_benchmark_lines(argv, tmp_path):
    argv = [str(tmp_path) if arg == "{path}" else arg for arg in argv]
    args = cli._read(cli.COMMANDS[argv[0]], argv[1:])
    assert args is not None
    want = vars(oracles.full_tree_parse(argv)[1])
    assert vars(args) == {k: v for k, v in want.items() if k != "command"}


@pytest.mark.parametrize(
    "argument",
    [(("-o", "--out"), {}), (("--out",), {"nargs": "?"}), (("--out",), {"action": "append"})],
    ids=["two_names", "nargs", "append"],
)
def test_reader_leaves_other_arguments_to_argparse(argument):
    spec = cli.COMMANDS["verify"]
    spec = spec._replace(arguments=(*spec.arguments, argument))
    assert cli._read(spec, ["x", "--json"]) is None
    assert cli._read(cli.COMMANDS["verify"], ["x", "--json"]) is not None


def test_a_plain_line_imports_no_argparse(tmp_path):
    path = write_brace(tmp_path, from_group(cyclic_group(4), "trivial"))
    code = f"import sys; from sbk.cli import main; assert main(['verify', {path!r}]) == 0"
    added = _new_modules(code) - _new_modules("import sys")
    assert "sbk.cli" in added
    assert added & {"argparse", "gettext"} == set()
    # help still comes from argparse
    result = run_cli(["verify", "--help"])
    assert result.returncode == 0
    assert result.stdout.startswith("usage: sbk verify")


def test_readme_synopsis_names_every_flag():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    named = {}
    for line in block.splitlines():
        cmd = line.split()[1]
        named[cmd] = set(re.findall(r"--[a-z-]+", line))
    assert named == {cmd: set(_options(cmd)) for cmd in COMMAND_NAMES}


def _count_parsers(monkeypatch):
    made = []
    parser_class = cli._parser_class()
    init = parser_class.__init__

    def counting(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(parser_class, "__init__", counting)
    return made


def test_a_plain_line_builds_no_parser(tmp_path, capsys, monkeypatch):
    # none for a plain line, the parser of every command for any other
    path = write_brace(tmp_path, from_group(cyclic_group(4), "trivial"))
    made = _count_parsers(monkeypatch)
    assert main(["verify", path]) == 0
    assert made == []
    assert main(["verify", path, "--js"]) == 0
    assert made == ["sbk", *(f"sbk {cmd}" for cmd in COMMAND_NAMES)]


def test_main_without_argv_reads_sys_argv(tmp_path, capsys, monkeypatch):
    path = write_brace(tmp_path, from_group(cyclic_group(4), "trivial"))
    made = _count_parsers(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["sbk", "verify", path])
    assert main() == 0
    assert "valid skew brace of order 4" in capsys.readouterr().out
    assert made == []


def test_workers_default_follows_the_cpu_count_of_each_call(capsys, monkeypatch):
    # a parser kept from one call to the next would keep the first default
    seen = []

    def record(n_max, workers, job):
        seen.append(workers)
        return []

    monkeypatch.setattr(cli, "_run_per_order", record)
    for cpus in (3, 5):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert main(["survey", "1"]) == 0
    assert seen == [3, 5]


@pytest.mark.parametrize("cmd", COMMAND_NAMES)
def test_module_entry_point_prints_each_command_help(cmd):
    result = run_cli([cmd, "--help"])
    assert result.returncode == 0
    assert result.stderr == ""
    assert any(line.startswith(f"usage: sbk {cmd} ") for line in result.stdout.splitlines())


@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
def test_enumerate_out_blocked_by_a_file_is_one_error_line(tmp_path, below):
    path = tmp_path / "file"
    path.write_text("", encoding="utf-8")
    out = path / "sub" if below else path
    result = run_cli(["enumerate", "3", "--out", str(out)])
    _one_error_line(result, f"error: cannot write to {out}: ")


@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
def test_enumerate_out_with_a_trailing_slash_is_named_without_it(tmp_path, below):
    path = tmp_path / "file"
    path.write_text("", encoding="utf-8")
    out = path / "sub" if below else path
    result = run_cli(["enumerate", "3", "--out", f"{out}/"])
    _one_error_line(result, f"error: cannot write to {out}: ")
    assert f"'{out}/'" not in result.stderr


@pytest.mark.parametrize(
    "given", ["out", "out/", "./out//sub/.", "/out", "//srv/out", "///srv", "./", "/", "//"]
)
def test_out_path_is_named_as_pathlib_prints_it(given):
    assert cli._normal_path(given) == str(PurePosixPath(given))


def test_pool_is_no_larger_than_the_job_count(capsys, monkeypatch):
    sizes = []

    class InlinePool:
        """Records the pool size asked for and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, items):
            return map(fn, items)

    # _run_per_order imports the pool class only when it starts a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    for cmd in ("survey", "harness"):
        assert main([cmd, "3", "--json", "--workers", "1"]) == 0
        inline = capsys.readouterr().out
        assert main([cmd, "3", "--json", "--workers", "8"]) == 0
        assert capsys.readouterr().out == inline
    assert sizes == [3, 3]
    # one job runs in this process
    assert main(["survey", "1", "--workers", "8"]) == 0
    assert capsys.readouterr().out.endswith("1 braces surveyed, 0 without a full witness set\n")
    assert sizes == [3, 3]


@pytest.mark.parametrize(
    "argv", [["survey", "0"], ["survey", "-3"], ["harness", "0"], ["enumerate", "0"]]
)
def test_orders_below_one_are_one_error_line(argv, capsys):
    # every command that takes an order refuses one below the range alike
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: order {argv[1]} is outside the supported range 1..15\n"


def test_zero_workers_is_an_error(capsys):
    for cmd in ("survey", "harness"):
        assert main([cmd, "3", "--workers", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --workers must be at least 1, got 0\n"


def test_survey_command(capsys):
    assert main(["survey", "5", "--json", "--workers", "1"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 8
    assert all(r["all_primes_witnessed"] for r in rows)


def test_harness_two_sided(capsys):
    assert main(["harness", "6", "--two-sided", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "all primes witnessed" in out


def test_harness_two_sided_up_to_12(capsys):
    assert main(["harness", "12", "--two-sided", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "all primes witnessed" in out
    assert "order 12" in out


def test_harness_default_runs_both(capsys):
    assert main(["harness", "4", "--json", "--workers", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["scope"]["two_sided"] and obj["scope"]["bi_skew"]
    assert obj["failures"] == []


def test_cli_subprocess_smoke(tmp_path):
    result = run_cli(["survey", "4", "--json", "--workers", "2"])
    assert result.returncode == 0
    rows = json.loads(result.stdout)
    assert len(rows) == 7
    inline = run_cli(["survey", "4", "--json", "--workers", "1"])
    assert inline.returncode == 0
    assert inline.stdout == result.stdout


def _new_modules(code):
    """Modules that `python -c code` has loaded, in a fresh interpreter that
    finds sbk on its path."""
    import os

    env = dict(os.environ, PYTHONPATH=SRC)
    code += "; print(chr(10).join(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return set(result.stdout.split())


def test_importing_the_cli_loads_no_dataclasses_or_process_pool():
    added = _new_modules("import sys, sbk.cli") - _new_modules("import sys")
    assert "sbk.cli" in added
    heavy = {"dataclasses", "inspect", "multiprocessing", "concurrent.futures.process"}
    assert added & heavy == set()


def test_importing_the_cli_without_site_loads_no_pathlib():
    # site may load pathlib through an installed .pth file, so -S
    code = "import sys, sbk.cli; print('pathlib' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "False\n"


def test_enumerate_byte_identical_manifests(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    ra = run_cli(["enumerate", "6", "--out", str(out_a)])
    rb = run_cli(["enumerate", "6", "--out", str(out_b)])
    assert ra.returncode == rb.returncode == 0
    assert ra.stdout == rb.stdout
    bytes_a = (out_a / "manifest.json").read_bytes()
    bytes_b = (out_b / "manifest.json").read_bytes()
    assert bytes_a == bytes_b
    for name in sorted(p.name for p in out_a.iterdir()):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

import json
import os
import subprocess
import sys
from pathlib import Path, PurePosixPath

import pytest

from sbk import cli
from sbk.braces import from_group, opposite
from sbk.cli import _analysis_obj, main
from sbk.enumeration import all_skew_braces
from sbk.groups import cyclic_group, dihedral_group, direct_product
from sbk.serialize import brace_to_obj, canonical_dumps
from sbk.substructure import (
    ideals,
    is_simple,
    is_soluble_brace,
    minimal_ideals,
    subbrace_carriers,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
                assert obj["simple"] == is_simple(B)
                assert obj["solubility_chain"] == is_soluble_brace(B)


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


# argparse's own exit code 2 would read as a harness violation
@pytest.mark.parametrize(
    "args",
    [
        ["survey", "abc"],
        ["harness", "5", "--bogus"],
        ["enumerate"],
        ["frobnicate"],
        ["survey", "3", "--workers", "x"],
    ],
    ids=["bad_int", "unknown_flag", "missing_order", "unknown_command", "bad_workers"],
)
def test_bad_usage_is_one_error_line_and_exit_1(args):
    _one_error_line(run_cli(args))


def test_help_exits_0():
    result = run_cli(["--help"])
    assert result.returncode == 0
    assert result.stdout.startswith("usage: sbk")


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
    # one job or none runs in this process
    assert main(["survey", "1", "--workers", "8"]) == 0
    assert main(["survey", "0", "--workers", "8"]) == 0
    assert capsys.readouterr().out.endswith(
        "order  index  trivial  almost  abelian  two-sided  bi-skew  witnessed\n"
        "0 braces surveyed, 0 without a full witness set\n"
    )
    assert sizes == [3, 3]


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

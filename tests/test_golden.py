"""Golden digests of the command line's outputs.

Each test runs a fixed set of commands through `sbk.cli.main` and pins the
sha256 digest of everything they print and write: exit codes, stdout,
stderr, and every file `enumerate --out` leaves behind. A refactor that
claims to change no output must leave every digest as it is; when
a change means to alter an output, its digest is updated together with a
note in CHANGES.md saying why.
"""

import hashlib

from sbk.cli import main
from sbk.enumeration import all_skew_braces
from sbk.serialize import brace_to_obj, canonical_dumps

CATALOG_DIGEST = "83fbb63dcfb4632fc196f99db1d3385536564d7bfbb84581019bc0c16a360a7f"
SURVEY_DIGEST = "eef066c320389225a212fd0f537cd357b7741292b2e0f66fc4244a23bf5d4da8"
FILE_COMMANDS_DIGEST = "9f959f945bf974c197d917373d2b9a27ba0086250066c8be497fde0fdf91dc89"
FILE_COMMANDS_TEXT_DIGEST = "2dc0ba93ad44b612d35da79d8255a5fbd67e37220e823c97121bf377d741cfc0"


def _run(h, capsys, argv: list[str]) -> None:
    """Feed one command's name, exit code, stdout and stderr into h."""
    code = main(argv)
    out, err = capsys.readouterr()
    h.update(f"{argv[0]} exit {code}\n".encode())
    h.update(out.encode())
    h.update(b"--stderr--\n")
    h.update(err.encode())


def test_enumerate_out_digest_through_15(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SBK_MAX_ORDER", "15")
    h = hashlib.sha256()
    for n in range(1, 16):
        out = tmp_path / f"n{n:02d}"
        _run(h, capsys, ["enumerate", str(n), "--out", str(out)])
        for path in sorted(out.iterdir()):
            h.update(f"{path.name}\n".encode())
            h.update(path.read_bytes())
    assert h.hexdigest() == CATALOG_DIGEST


def test_survey_15_digest(capsys, monkeypatch):
    monkeypatch.setenv("SBK_MAX_ORDER", "15")
    h = hashlib.sha256()
    _run(h, capsys, ["survey", "15", "--json", "--workers", "1"])
    assert h.hexdigest() == SURVEY_DIGEST


def _file_commands_digest(tmp_path, capsys, n_max: int, flags: list[str]) -> str:
    """Digest of verify, analyze, cauchy and ybe on every catalog brace
    through order n_max, each written to a file first."""
    h = hashlib.sha256()
    for n in range(1, n_max + 1):
        for i, B in enumerate(all_skew_braces(n).entries):
            path = tmp_path / f"brace_{n:02d}_{i:03d}.json"
            path.write_text(canonical_dumps(brace_to_obj(B)), encoding="utf-8")
            for cmd in ("verify", "analyze", "cauchy", "ybe"):
                h.update(f"{path.name} ".encode())
                _run(h, capsys, [cmd, str(path), *flags])
    return h.hexdigest()


def test_file_commands_digest_through_12(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SBK_MAX_ORDER", "12")
    assert _file_commands_digest(tmp_path, capsys, 12, ["--json"]) == FILE_COMMANDS_DIGEST


def test_file_commands_text_digest_through_8(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SBK_MAX_ORDER", "8")
    assert _file_commands_digest(tmp_path, capsys, 8, []) == FILE_COMMANDS_TEXT_DIGEST

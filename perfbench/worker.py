"""Run one pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py SPEC RESULT

SPEC is a JSON file written by run.py: {"src": the checkout's src
directory, "out_dir": where this pass writes, "trace": bool, "ops": [{"id",
"cmd", "argvs"}]}. An op is one or more calls of ``sbk.cli.main``; "{out}"
in an argument stands for the op's own output directory. Only the calls
are timed. Afterwards each op's exit codes, stdout, stderr and any
traceback go to ``out_dir/<id>.json`` and a digest of them, and of the
files the op wrote, goes to RESULT together with the op times, this
process's peak RSS and, when traced, the per-layer counters.

Each op's time is also given in reference units: every call is divided by
the time of a fixed loop (``reference_seconds``) run just before and just
after it. A shared virtual machine can change speed by tens of percent
from one minute to the next; the ratio cancels that, as long as the change
lasts longer than a call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


# The reference loop: pure-Python table lookups like sbk's own inner loops,
# about a millisecond long; it allocates nothing, so the collector never runs.
_REF_TABLE = [[(i + j) % 16 for j in range(16)] for i in range(16)]
_REF_STEPS = 25_000


def reference_seconds() -> float:
    t = _REF_TABLE
    x = 0
    t0 = time.perf_counter()
    for i in range(_REF_STEPS):
        x = t[x][i & 15]
    return time.perf_counter() - t0


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as stop:
            rc = stop.code
        except Exception:  # any escape from sbk is recorded and judged by the checker
            rc = None
            exc = traceback.format_exc()
    return out, err, rc, exc


def digest(record: dict, op_dir: Path) -> str:
    h = hashlib.sha256(json.dumps(record, sort_keys=True).encode("utf-8"))
    if op_dir.is_dir():
        for path in sorted(op_dir.rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(op_dir)).encode("utf-8"))
                h.update(path.read_bytes())
    return h.hexdigest()


def run_pass(spec: dict) -> dict:
    src = Path(spec["src"]).resolve()
    import sbk.cli  # from src, which run.py puts on PYTHONPATH

    if src not in Path(sbk.cli.__file__).resolve().parents:
        raise SystemExit(f"sbk was imported from {sbk.cli.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    clock = time.perf_counter
    ops = []
    reference_seconds()  # warm-up
    ref_before = reference_seconds()
    for op in spec["ops"]:
        op_dir = out_dir / op["id"]
        argvs = [[a.replace("{out}", str(op_dir)) for a in argv] for argv in op["argvs"]]
        calls, seconds, refs = [], 0.0, 0.0
        for argv in argvs:
            t0 = clock()
            calls.append(_call(sbk.cli.main, argv))
            dt = clock() - t0
            ref_after = reference_seconds()
            seconds += dt
            refs += dt / ((ref_before + ref_after) / 2)
            ref_before = ref_after
        record = {
            "calls": [
                {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "exc": exc}
                for out, err, rc, exc in calls
            ]
        }
        (out_dir / f"{op['id']}.json").write_text(json.dumps(record), encoding="utf-8")
        ops.append(
            {
                "id": op["id"],
                "cmd": op["cmd"],
                "seconds": seconds,
                "refs": refs,
                "digest": digest(record, op_dir),
            }
        )
    result = {
        "ops": ops,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = {"metrics": tracer.metrics(), "absent": tracer.absent}
    return result


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = run_pass(spec)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

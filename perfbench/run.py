"""Benchmark of the sbk command line: one workload per run.

    python3 perfbench/run.py --workload {catalog,structure,validate}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; sbk is imported from its ``src``. The
inputs are generated from the seed before timing starts. A pass runs the
workload's whole op list through ``sbk.cli.main`` in a fresh interpreter,
so no in-process cache survives from one pass to the next; passes repeat
until S seconds have gone by, and the last one is finished. The first pass
is checked in full by ``check.py``; every later pass must reproduce its
outputs byte for byte.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it carries the per-layer metrics of the traced passes.
Working files go to ``.perfbench_work/`` and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Launches of a fresh interpreter that imports sbk.cli; setup_s is their median.
SETUP_LAUNCHES = 15
# Op and set-up times are measured in units of the worker's reference loop
# and reported at a fixed speed: one unit is REF_MS, the loop's median time
# on the 2-vCPU machine of the README's figures.
REF_MS = 1.2
PASS_TIMEOUT_S = 100


def child_env(workload: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SBK_MAX_ORDER", None)
    if workload == "catalog":
        env["SBK_MAX_ORDER"] = str(gen.CATALOG_MAX_ORDER)
    return env


def setup_seconds(env: dict[str, str]) -> float:
    """Median time from starting an interpreter until `import sbk.cli`
    returns, at the reference speed: each launch then times the worker's
    reference loop and divides by it. One untimed launch first writes the
    bytecode caches."""
    code = (
        "import time, sys, sbk.cli\n"
        "t1 = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import worker\n"
        "worker.reference_seconds()\n"
        "print(t1, sum(worker.reference_seconds() for _ in range(3)) / 3)\n"
    )
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=60,
        )
        t1, ref = map(float, done.stdout.split())
        if i:
            times.append((t1 - t0) / ref * REF_MS / 1e3)
    return statistics.median(times)


def run_pass(ops: list[dict], out_dir: Path, traced: bool, env: dict[str, str]) -> dict:
    spec = {"src": str(SRC), "out_dir": str(out_dir), "trace": traced, "ops": ops}
    spec_path = out_dir.with_suffix(".spec.json")
    result_path = out_dir.with_suffix(".result.json")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        env=env, cwd=ROOT, check=True, timeout=PASS_TIMEOUT_S,
    )
    return json.loads(result_path.read_text(encoding="utf-8"))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], setup: float) -> dict:
    lat_ms = [op["refs"] * REF_MS for p in passes for op in p["ops"]]
    return {
        "ops_per_s": metric(len(lat_ms) / sum(lat_ms) * 1e3, "1/s"),
        "op_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "peak_rss_mb": metric(max(p["rss_kb"] for p in passes) / 1024, "MB"),
        "setup_s": metric(setup, "s"),
    }


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["trace"] is not None]
    plain = [p for p in passes if p["trace"] is None]
    values: dict[str, list[float]] = {}
    for p in traced:
        for name, v in p["trace"]["metrics"].items():
            values.setdefault(name, []).append(v)
        for cmd in layertrace.COMMANDS:
            ms = sum(op["seconds"] for op in p["ops"] if op["cmd"] == cmd) * 1e3
            values.setdefault(f"cli.{cmd}.ms", []).append(ms)

    def pass_ms(ps):
        return statistics.median(sum(op["seconds"] for op in p["ops"]) for p in ps) * 1e3

    values["trace.overhead_ms"] = [pass_ms(traced) - pass_ms(plain)]
    absent = set(traced[0]["trace"]["absent"])
    if absent:
        print(f"traced functions absent from sbk: {sorted(absent)}", file=sys.stderr)
    return {
        name: metric(statistics.median(values[name]), layertrace.unit(name))
        for name in layertrace.metric_names()
        if name in values
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sbk" / "cli.py").is_file():
        print(f"error: no sbk sources under {SRC}", file=sys.stderr)
        return 2

    env = child_env(args.workload)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops = gen.make_ops(args.workload, args.seed, work / "inputs")
        setup = None if args.trace else setup_seconds(env)
        passes: list[dict] = []
        deadline = time.monotonic() + args.seconds
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(ops, work / f"pass{len(passes)}", traced, env))
            if time.monotonic() >= deadline and len(passes) >= 1 + args.trace:
                break
        problems, failed = check.check_pass(args.workload, ops, work / "pass0")
        first = [op["digest"] for op in passes[0]["ops"]]
        for k, p in enumerate(passes[1:], start=1):
            for op, want in zip(p["ops"], first):
                if op["digest"] != want:
                    problems.append(f"pass {k}: {op['id']} output differs from pass 0")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    metrics = per_layer(passes) if args.trace else end_to_end(passes, setup)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(passes) * len(ops),
                "failed": len(passes) * len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

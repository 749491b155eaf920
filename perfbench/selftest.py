"""Self-test of the benchmark: every workload once, short.

    python3 perfbench/selftest.py

For each workload at its pinned seed it runs ``run.py --seconds 0`` with
tracing off and on, and checks that the run is correct and reports every
metric of BENCHMARK.json with its unit, that the layer spans cover at
least 90% of each traced invocation, and that the exact counts equal
those recorded in baseline.json. It then checks that one corrupted byte
in a copy of an output trips the output gate, and that the benchmark
fails without printing a result when the program's sources are absent.
Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
BASELINE = json.loads((run.HERE / "baseline.json").read_text())
#: Per-layer metrics that are exact counts, compared with baseline.json.
EXACT_SUFFIXES = (".calls", ".bytes", "autodiff.tensors_created", "attention.flops_per_forward")


def _run(workload: str, trace: int, cwd: Path = run.ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0",
         "--trace", str(trace)], cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def check_workload(name: str) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = _run(name, trace)
        result = json.loads(lines[-1]) if code == 0 and lines else {}
        if not result.get("correct") or result.get("failed") != 0:
            problems.append(f"{name} trace {trace}: not correct (exit {code})")
            continue
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                            f"or their units differ from BENCHMARK.json")
        if trace:
            shares = json.loads(next(ln for ln in lines if ln.startswith("layer shares "))[13:])
            if shares["self_share"]["cli"] > 0.10:
                problems.append(f"{name}: layer spans cover only "
                                f"{1 - shares['self_share']['cli']:.1%} of the invocation")
            recorded = BASELINE[name]["exact"]
            measured = {k: v["value"] for k, v in result["metrics"].items()
                        if k.endswith(EXACT_SUFFIXES)}
            changed = sorted(k for k in recorded if measured.get(k) != recorded[k])
            if changed:
                problems.append(f"{name}: exact counts {changed} differ from baseline.json")
    return problems


def check_gate_trips() -> list[str]:
    """A clean scaling run passes the digest gate; a copy of its output
    with one byte changed does not."""
    wl, pin = run.WORKLOADS["scaling_curve"], run.PINS["scaling_curve"]
    work = run.ROOT / ".bench_work" / "selftest-gate"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        it = run.run_iteration(wl, work, pin["seed"], time.perf_counter() + 120)
        run.check_iteration(it, None, pin["digests"])
        if it.errors:
            return [f"clean scaling run failed the gate: {it.errors}"]
        copy = work / "copy"
        shutil.copytree(work / "out", copy)
        data = bytearray((copy / "curve.csv").read_bytes())
        data[len(data) // 2] ^= 0x01
        (copy / "curve.csv").write_bytes(bytes(data))
        if run.output_errors(run.digest_outputs(copy), pin["digests"]) != ["curve.csv"]:
            return ["a corrupted byte in curve.csv did not trip the gate"]
        return []
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory_fails() -> list[str]:
    """In a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero and prints no result."""
    bare = run.ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _run("scaling_curve", 0, cwd=bare)
        if code == 0 or any(ln.startswith("{") for ln in lines):
            return [f"bare directory: exit {code}, output {lines[-1:]}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems = check_bare_directory_fails() + check_gate_trips()
    for name in run.WORKLOADS:
        problems += check_workload(name)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

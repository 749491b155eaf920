"""Benchmark of the capeskit command line.

Runs one workload as fresh ``python -m capeskit.cli`` processes, one at a
time from this single process, checks the bytes of every output, and
prints every metric by name and unit. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

    python3 perfbench/run.py --workload hybrid_generate --seed 13 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs one untraced and one traced iteration and reports the
per-layer metrics; the traced one runs ``perfbench/tracer.py``, which calls
``capeskit.cli.main`` in its own process with spans around each layer.

The program under test is the ``src/`` tree of the checkout this file sits
in. Children run with ``src/`` as their working directory, so ``-m`` finds
that tree first; the benchmark sets no environment variable, so BLAS and
``CAPESKIT_THREADS`` settings apply as found. Scratch files live under
``.bench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = json.loads((HERE / "pins.json").read_text())

#: A run is killed and reported as failed once it has taken this long.
RUN_DEADLINE_S = 170.0
#: Fresh ``capeskit --version`` processes timed for ``setup_s``.
SETUP_REPEATS = 9

AI_LONG_CONFIG = {"nlat": 256, "nlon": 256, "num_domains": 1, "n_init": 32, "n_latent": 1}


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    #: (inputs dir, outputs dir, seed) -> argv of each CLI process of one iteration
    commands: Callable[[Path, Path, int], list[list[str]]]
    #: items one iteration produced, read back from its outputs
    count_items: Callable[[Path], int]
    items: int
    prepare: Optional[Callable[[Path, int], None]] = None
    #: generate config of the backbone workloads, for level probes and the
    #: member-isolation check of the traced run
    model: Optional[dict] = None


def _generate_cmd(mode: str, config: Optional[str] = None):
    def commands(inputs: Path, out: Path, seed: int) -> list[list[str]]:
        argv = ["generate", "--mode", mode, "--seed", str(seed),
                "--out-dir", str(out / "ensemble")]
        if config:
            argv += ["--config", str(inputs / config)]
        return [argv]
    return commands


def _fuse_score_cmds(inputs: Path, out: Path, seed: int) -> list[list[str]]:
    return [
        ["fuse", "--ensemble-dir", str(inputs / "ensemble"), "--alpha", "0.5",
         "--out-field", str(out / "fused.grd"), "--out-weights", str(out / "weights.csv")],
        ["score", "--forecast", str(inputs / "forecast.grd"), "--obs", str(inputs / "obs.grd"),
         "--clim", str(inputs / "clim.grd"), "--out", str(out / "score.csv")],
    ]


def _scaling_cmds(inputs: Path, out: Path, seed: int) -> list[list[str]]:
    return [["scaling", "--seed", str(seed), "--out", str(out / "curve.csv"),
             "--svg", str(out / "curve.svg")]]


def _members_written(out: Path) -> int:
    return sum(1 for p in (out / "ensemble").iterdir() if p.suffix == ".grd")


def _members_fused(out: Path) -> int:
    return len((out / "weights.csv").read_text().splitlines()) - 1


def _trials_scored(out: Path) -> int:
    rows = (out / "curve.csv").read_text().splitlines()[1:]
    return sum(int(r.split(",")[3]) for r in rows)


def _helper(*args: str) -> str:
    """Run perfbench/inputs.py in a child process; returns its stdout."""
    return subprocess.run([sys.executable, str(HERE / "inputs.py"), *args],
                          capture_output=True, text=True, check=True, timeout=60).stdout


def _write_fuse_score_inputs(inputs: Path, seed: int) -> None:
    _helper("fuse_score", str(inputs), str(seed))


def _write_ai_long_config(inputs: Path, seed: int) -> None:
    text = "".join(f"{k} = {v}\n" for k, v in AI_LONG_CONFIG.items())
    (inputs / "ai_long_seq.cfg").write_text(text)


# Why each workload is here is recorded in BENCHMARK.json; the shares of
# each layer at the default seeds are in baseline.json.
WORKLOADS = {
    "hybrid_generate": Workload(
        commands=_generate_cmd("hybrid"), count_items=_members_written, items=1774,
        model={}),
    "fuse_score": Workload(
        commands=_fuse_score_cmds, count_items=_members_fused, items=1774,
        prepare=_write_fuse_score_inputs),
    "scaling_curve": Workload(
        commands=_scaling_cmds, count_items=_trials_scored, items=250),
    "ai_long_seq": Workload(
        commands=_generate_cmd("ai", "ai_long_seq.cfg"), count_items=_members_written, items=32,
        prepare=_write_ai_long_config, model=AI_LONG_CONFIG),
}


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mb: float


def spawn(argv: list[str], log: Path, deadline: float) -> Proc:
    """Run argv with src/ as working directory; time it and take its rusage.

    The child is killed at ``deadline`` (a perf_counter value)."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=SRC, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def run_cli(argv: list[str], log: Path, deadline: float) -> Proc:
    return spawn([sys.executable, "-m", "capeskit.cli", *argv], log, deadline)


# ---------------------------------------------------------------------------
# output checks


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_outputs(out: Path) -> dict[str, str]:
    """SHA-256 of each output under ``out``. A directory's digest is the
    SHA-256 of its ``sha256sum``-style listing, so it covers every file.
    ``*.manifest.json`` sidecars carry wall time and are left out."""
    digests = {}
    for entry in sorted(out.iterdir()):
        if entry.name.endswith(".manifest.json"):
            continue
        if entry.is_dir():
            listing = "".join(f"{_sha256(p)}  {p.name}\n" for p in sorted(entry.iterdir()))
            digests[entry.name] = hashlib.sha256(listing.encode()).hexdigest()
        else:
            digests[entry.name] = _sha256(entry)
    return digests


def output_errors(digests: dict[str, str], reference: Optional[dict[str, str]]) -> list[str]:
    """Names of outputs whose digest differs from the reference, plus any
    output missing on either side."""
    if reference is None:
        return []
    names = sorted(set(digests) | set(reference))
    return [n for n in names if digests.get(n) != reference.get(n)]


@dataclass
class Iteration:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    items: int = 0
    digests: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def run_iteration(wl: Workload, work: Path, seed: int, deadline: float) -> Iteration:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    it = Iteration()
    for argv in wl.commands(work / "inputs", out, seed):
        p = run_cli(argv, work / "stderr.log", deadline)
        it.wall += p.wall
        it.cpu += p.cpu
        it.rss_mb = max(it.rss_mb, p.rss_mb)
        if p.code != 0:
            it.errors.append(f"{argv[0]} exited {p.code}")
    if not it.errors:
        it.items = wl.count_items(out)
        it.digests = digest_outputs(out)
        if it.items != wl.items:
            it.errors.append(f"{it.items} items, expected {wl.items}")
    return it


def check_iteration(it: Iteration, first: Optional[Iteration], pinned: Optional[dict]) -> None:
    """Every iteration of a run must write the same bytes, and at the
    workload's default seed the bytes pinned in pins.json."""
    if it.errors:
        return
    if pinned is not None:
        it.errors += [f"{n} differs from its pinned digest" for n in output_errors(it.digests, pinned)]
    if first is not None and not first.errors:
        it.errors += [f"{n} differs from the first iteration"
                      for n in output_errors(it.digests, first.digests)]


# ---------------------------------------------------------------------------
# traced run


#: Per-layer metrics taken from spans: span name -> stats reported.
SPAN_STATS = {
    "attention.forward": ("calls", "busy_s", "p50_ms", "p99_ms"),
    "ensemble.ai_member": ("calls", "busy_s", "self_s", "p50_ms", "p99_ms"),
    "ensemble.correlated_field": ("calls", "busy_s"),
    "ensemble.surrogate_numerical_member": ("calls", "busy_s"),
    "ensemble.write_ensemble_dir": ("busy_s", "self_s"),
    "ensemble.read_ensemble_dir": ("busy_s", "self_s"),
    "grid.write_grid": ("calls", "busy_s", "p50_ms", "p99_ms"),
    "grid.read_grid": ("calls", "busy_s", "p50_ms", "p99_ms"),
    "grid.anomaly_percent": ("calls", "busy_s"),
    "fusion.member_metrics": ("calls", "busy_s"),
    "fusion.contribution_scores": ("calls", "busy_s"),
    "fusion.fuse": ("calls", "busy_s"),
    "verify.ps_breakdown": ("calls", "busy_s"),
    "verify.acc": ("calls", "busy_s"),
    "scaling.synthetic_benchmark": ("calls", "busy_s"),
    "scaling.subsample": ("calls", "busy_s"),
    "scaling.skill_curve": ("calls", "busy_s"),
    "parallel.map_ordered": ("calls", "busy_s"),
}
STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_ms": "ms", "p99_ms": "ms"}
#: Per-layer metrics the tracer reports directly: name -> unit.
TRACER_METRICS = {
    "grid.write_grid.bytes": "B",
    "grid.read_grid.bytes": "B",
    "attention.tokenize.ms": "ms",
    "attention.window_attention.ms": "ms",
    "attention.cross_variable_attention.ms": "ms",
    "attention.anchor_attention.ms": "ms",
    "attention.flops_per_forward": "flop_computed",
    "autodiff.tensors_created": "count",
    "parallel.workers": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{stat}": STAT_UNITS[stat]
             for name, stats in SPAN_STATS.items() for stat in stats}
    units.update(TRACER_METRICS)
    units.update({"cli.self_s": "s", "trace.overhead_frac": "frac"})
    return units


def _percentile_ms(durations: list[float], q: float) -> float:
    """The q-quantile in ms, or 0.0 when fewer than ten samples lie beyond it."""
    if len(durations) * (1.0 - q) < 10:
        return 0.0
    return 1e3 * statistics.quantiles(durations, n=100, method="inclusive")[round(q * 100) - 1]


def span_stats(spans: list) -> tuple[dict, dict]:
    """Per-name durations and self times, and per-layer busy and self time.

    A span is ``[name, start, end, parent index, invocation id]``. Self time
    is the duration minus the union of the child spans' intervals. A
    layer's busy time sums its outermost spans, those with no ancestor of
    the same layer, so nested calls within a layer count once."""
    children = defaultdict(list)
    for idx, s in enumerate(spans):
        children[s[3]].append(idx)
    per_name = defaultdict(lambda: {"durations": [], "self": 0.0})
    per_layer = defaultdict(lambda: {"busy": 0.0, "self": 0.0})
    for idx, (name, t0, t1, parent, _) in enumerate(spans):
        covered, end = 0.0, t0
        for c0, c1 in sorted((spans[c][1], spans[c][2]) for c in children[idx]):
            if c1 > end:
                covered += c1 - max(c0, end)
                end = c1
        self_time = (t1 - t0) - covered
        per_name[name]["durations"].append(t1 - t0)
        per_name[name]["self"] += self_time
        layer = name.split(".")[0]
        per_layer[layer]["self"] += self_time
        anc = parent
        while anc is not None and spans[anc][0].split(".")[0] != layer:
            anc = spans[anc][3]
        if anc is None:
            per_layer[layer]["busy"] += t1 - t0
    return per_name, per_layer


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> tuple[dict, dict]:
    per_name, per_layer = span_stats(trace["spans"])
    values = {}
    for name, stats in SPAN_STATS.items():
        d = per_name[name]["durations"]
        computed = {
            "calls": len(d), "busy_s": float(sum(d)), "self_s": per_name[name]["self"],
            "p50_ms": _percentile_ms(d, 0.5), "p99_ms": _percentile_ms(d, 0.99),
        }
        values.update({f"{name}.{stat}": computed[stat] for stat in stats})
    values.update(trace["metrics"])
    values["cli.self_s"] = per_name["cli.main"]["self"]
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    cli_total = sum(per_name["cli.main"]["durations"])
    shares = {
        "busy_share": {k: round(v["busy"] / cli_total, 4) for k, v in sorted(per_layer.items())},
        "self_share": {k: round(v["self"] / cli_total, 4) for k, v in sorted(per_layer.items())},
        "trace.overhead_frac": round(values["trace.overhead_frac"], 4),
    }
    return values, shares


def run_traced(wl: Workload, work: Path, seed: int, deadline: float) -> tuple[Iteration, dict, float]:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    job = {
        "src": str(SRC),
        "invocations": wl.commands(work / "inputs", out, seed),
        "model": None if wl.model is None else {"seed": seed, "config": wl.model,
                                                "ensemble_dir": str(out / "ensemble")},
        "result": str(work / "trace.json"),
    }
    (work / "job.json").write_text(json.dumps(job))
    p = spawn([sys.executable, str(HERE / "tracer.py"), str(work / "job.json")],
              work / "stderr.log", deadline)
    it = Iteration(wall=p.wall, cpu=p.cpu, rss_mb=p.rss_mb)
    if p.code != 0:
        it.errors.append(f"tracer exited {p.code}")
        return it, {}, p.wall
    trace = json.loads((work / "trace.json").read_text())
    it.errors += [f"traced {argv[0]} exited {code}"
                  for argv, code in zip(job["invocations"], trace["exit_codes"]) if code != 0]
    if not it.errors:
        it.items = wl.count_items(out)
        it.digests = digest_outputs(out)
    return it, trace, p.wall - trace["post_s"]


# ---------------------------------------------------------------------------
# main


def _report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<42} {value:>16.6g} {unit:<14}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, help="workload seed (default: the pinned seed)")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measuring time; iterations stop before one would overrun it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "capeskit" / "cli.py").is_file():
        print(f"error: {SRC / 'capeskit'} not found; run from a capeskit checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    pin = PINS[args.workload]
    seed = pin["seed"] if args.seed is None else args.seed
    pinned = pin["digests"] if seed == pin["seed"] else None
    deadline = time.perf_counter() + RUN_DEADLINE_S
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        print(f"workload {args.workload} seed {seed} trace {args.trace}")
        print("context " + _helper("context").strip())
        run_cli(["--version"], work / "stderr.log", deadline)  # byte-compile, warm the file cache
        setup = ([] if args.trace else
                 [run_cli(["--version"], work / "stderr.log", deadline).wall
                  for _ in range(SETUP_REPEATS)])
        if wl.prepare is not None:
            wl.prepare(work / "inputs", seed)

        iterations = []
        t0 = time.perf_counter()
        while True:
            started = time.perf_counter()
            it = run_iteration(wl, work, seed, deadline)
            check_iteration(it, iterations[0] if iterations else None, pinned)
            iterations.append(it)
            now = time.perf_counter()
            if args.trace or now - t0 + (now - started) > args.seconds or now > deadline:
                break

        metrics, mismatched, checked = {}, [], 0
        walls = [it.wall for it in iterations]
        if args.trace:
            traced, trace, traced_wall = run_traced(wl, work, seed, deadline)
            check_iteration(traced, iterations[0], pinned)
            iterations.append(traced)
            if trace:
                checked = trace["isolation"]["checked"]
                mismatched = trace["isolation"]["mismatched"]
                values, shares = layer_metrics(trace, traced_wall, walls[0])
                units = per_layer_units()
                metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
                print("layer shares " + json.dumps(shares, sort_keys=True))
        else:
            metrics = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "items_per_s": {"value": sum(it.items for it in iterations) / sum(walls), "unit": "1/s"},
                "cpu_s": {"value": statistics.median(it.cpu for it in iterations), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(it.rss_mb for it in iterations), "unit": "MB"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
            }
        # isolation checks count as attempts of their own
        attempted = len(iterations) + checked
        failed = sum(1 for it in iterations if it.errors) + len(mismatched)

        for i, it in enumerate(iterations):
            status = "; ".join(it.errors) or "ok"
            print(f"iteration {i}: wall {it.wall:.3f} s cpu {it.cpu:.3f} s "
                  f"rss {it.rss_mb:.1f} MB items {it.items} [{status}]")
        if checked:
            print(f"member isolation: {checked} regenerated alone, mismatched {mismatched}")
        if iterations[0].digests:
            print("outputs " + json.dumps(iterations[0].digests, sort_keys=True))
        print(f"metrics (n={len(walls)} iterations"
              f"{'' if args.trace else f', setup n={len(setup)}'}):")
        for name, m in metrics.items():
            _report(name, m["value"], m["unit"])
        _report("failed_frac", failed / attempted, "frac", f"  ({failed} of {attempted})")
        if failed:
            sys.stderr.write((work / "stderr.log").read_text(errors="replace")[-4000:])
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

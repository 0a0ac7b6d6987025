"""Benchmark of the kickedrotor package.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (workloads.py): ``sweep`` (the two width laws over N = 5..18),
``long_orbit`` (four long trajectories) and ``cli_oracle`` (the qkr CLI
in-process plus the dense oracle). ``all`` runs each in its own process.

A run builds the inputs from --seed, then runs passes for --seconds: one
warm-up pass whose time is not reported, then timed passes while the next
one is expected to end inside the window (at least three; with --trace 1,
untraced and traced passes alternate, at least one of each).
Every pass is checked. The run prints its context, each metric by name
and unit, and as its last line one JSON object with the keys correct,
attempted, failed and metrics: end-to-end metrics with --trace 0,
per-layer metrics (spans.py) with --trace 1. The traced run also writes
the spans of its last traced pass to .bench_work/.

End-to-end metrics:
  wall_rel       median over timed passes of the pass wall time divided by
                 the wall time of a fixed numpy reference kernel run just
                 before and just after it (the mean of the two)
  setup_s        median over fresh interpreters of importing the package
                 and building the workload's inputs
  peak_rss_mb    peak resident memory of the benchmark process
  max_abs_error  largest deviation from an exact reference, floored at 1e-12
Operations that raise or fail a check count in ``failed``; failed/attempted
is the failure ratio. The raw median pass wall time (wall_s) and the useful
Floquet periods of one pass over it (periods_per_s) are printed beside the
metrics. wall_rel stands in for wall_s because on a shared host the speed
the machine gives this process drifts by tens of percent over minutes; the
kernel runs at the same moments as the passes and carries the same drift,
so the ratio keeps what the package changes and drops most of the drift.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NAMES = ("sweep", "long_orbit", "cli_oracle")
SETUP_RUNS = 7

#: a fresh interpreter importing the package and building one workload's inputs
SETUP_SNIPPET = """
import sys
root, name, seed = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/bench"]
import workloads
workloads.WORKLOADS[name].inputs(int(seed))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kickedrotor").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def setup_seconds(name: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(ROOT), name, str(seed)],
            check=True,
            timeout=60,
        )
        times.append(time.perf_counter() - t0)
    return times


def reference_kernel() -> float:
    """Wall time of a fixed split-step loop written with numpy alone.

    It runs no package code, so a change to the package cannot move it; it
    moves only with the speed the machine gives this process at the time.
    """
    n = 512
    x = 2 * np.pi * np.arange(n) / n
    psi = np.zeros(n, dtype=complex)
    psi[0] = 1.0
    t0 = time.perf_counter()
    for _ in range(8000):
        psi = np.fft.fft(np.fft.ifft(psi) * np.exp(-0.485j * np.cos(x)))
    return time.perf_counter() - t0


def measure(workload, inputs, seconds: float, trace: bool, work: Path) -> dict:
    import spans

    walls = {"plain": [], "traced": []}
    relative = []
    layers = []
    last_spans = []
    attempted = failed = 0
    failures = {}
    notes = set()
    max_abs_error = 0.0
    reference = [reference_kernel()]

    def one(kind: str) -> float:
        nonlocal attempted, failed, last_spans, max_abs_error
        recorder = spans.Recorder()
        ctx = spans.installed(recorder) if kind == "traced" else contextlib.nullcontext()
        with ctx:
            t0 = time.perf_counter()
            ops = workload.run(inputs, work)
            wall = time.perf_counter() - t0
        reference.append(reference_kernel())
        if kind == "traced":
            layers.append(spans.layer_metrics(recorder.spans))
            last_spans = recorder.spans
        checked = workload.check(inputs, ops)
        if len(checked.verdicts) != workload.operations:
            raise RuntimeError(f"{workload.name} judged {len(checked.verdicts)} operations")
        attempted += workload.operations
        failed += len(checked.failed)
        for op, reason in checked.failed.items():
            failures.setdefault(op, reason)
        notes.update(checked.notes)
        max_abs_error = max(max_abs_error, checked.max_abs_error)
        return wall

    start = time.perf_counter()
    one("plain")  # warm-up: checked, not reported, inside the --seconds window
    kinds = itertools.cycle(("plain", "traced") if trace else ("plain",))
    min_passes = 2 if trace else 3
    lap = []
    while True:
        kind = next(kinds)
        t0 = time.perf_counter()
        wall = one(kind)
        lap.append(time.perf_counter() - t0)
        walls[kind].append(wall)
        if kind == "plain":
            # the kernel runs just before and just after this pass
            relative.append(wall / (0.5 * (reference[-2] + reference[-1])))
        elapsed = time.perf_counter() - start
        if len(lap) >= min_passes and elapsed + statistics.median(lap) > seconds:
            break
    return {
        "walls": walls,
        "relative": relative,
        "reference": reference,
        "layers": layers,
        "spans": last_spans,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "notes": sorted(notes),
        "max_abs_error": max_abs_error,
    }


def end_to_end(result: dict, setup: list[float]) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_rel": (statistics.median(result["relative"]), "1"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "max_abs_error": (result["max_abs_error"], "1"),
    }


def per_layer(result: dict) -> dict:
    """Times as medians over traced passes; counts, which repeat, as read."""
    import spans

    runs = result["layers"]
    out = {}
    for key in runs[-1]:
        values = [r[key] for r in runs]
        unit = spans.unit(key)
        if unit == "s":
            out[key] = (statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                print(f"warning: count {key} differs between traced passes: {values}")
            out[key] = (values[-1], unit)
    overhead = statistics.median(result["walls"]["traced"]) - statistics.median(
        result["walls"]["plain"]
    )
    out["trace.overhead_s"] = (overhead, "s")
    return out


def run_all(args) -> int:
    status = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kickedrotor" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'kickedrotor'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    load_start = os.getloadavg()
    sys.path.insert(0, str(SRC))
    import kickedrotor

    if Path(kickedrotor.__file__).resolve().parent != SRC / "kickedrotor":
        print(f"error: imported kickedrotor from {kickedrotor.__file__}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    setup = setup_seconds(args.workload, args.seed)
    inputs = workload.inputs(args.seed)
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(workload, inputs, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(result)
        spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        import spans

        spans_file.write_text(json.dumps([spans.span_record(s) for s in result["spans"]]))
    else:
        metrics = end_to_end(result, setup)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": {k: v for k, v in inputs.items() if not isinstance(v, list)},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "setup_s": setup,
        "pass_walls_s": result["walls"],
        "reference_s": result["reference"],
    }
    print("context " + json.dumps(context))
    for note in result["notes"]:
        print("note " + note)
    for op, reason in result["failures"].items():
        print(f"FAILED {args.workload}/{op}: {reason}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_ratio {failed / attempted!r} ({failed} of {attempted} operations)")
    for key, (value, unit) in metrics.items():
        print(f"metric {key} {value!r} {unit}")
    if not args.trace:
        wall = statistics.median(result["walls"]["plain"])
        print(f"wall_s {wall!r} s (median pass wall time, not normalised)")
        rate = workload.useful_periods / wall
        print(f"periods_per_s {rate!r} 1/s ({workload.useful_periods} useful periods / wall_s)")
    else:
        baseline = json.loads((BENCH / "baseline.json").read_text())[args.workload]["counts"]
        for key, value in baseline.items():
            print(f"baseline {key} {value!r} now {metrics[key][0]!r}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

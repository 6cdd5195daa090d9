"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload recombining_solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times a closed loop of ops for ``--seconds``
seconds and prints the end-to-end metrics, with every time scaled to
reference speed by a calibration timed next to it; with ``--trace 1`` it
runs each op of a fixed number of whole rounds untraced and then traced,
and prints the per-layer metrics.  Either way it checks every op of its op
list.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
``--workload all`` runs every workload in its own process, one after the
other.  See README.md for what the workloads and metrics mean.
"""
from __future__ import annotations

import os

# One process uses at most one core: pin the BLAS/OpenMP pools before
# numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 9
# Whole rounds in a traced run, about ten seconds per pass on the machine
# described in README.md.  Fixed, so the traced counts repeat exactly.
TRACE_ROUNDS = {"recombining_solve": 2, "full_check_suites": 10, "penalize_dual": 2}
# The tail is the highest percentile with at least this many ops beyond it.
TAIL_BEYOND = 10


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_record() -> dict:
    """CPU, cores, caches, memory and the Python/numpy versions of this run."""
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(index / "size")).strip()
    mem = next((line.split(":", 1)[1].strip() for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), "unknown")
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "l2_per_core": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "ram": mem,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads_pinned": os.environ["OMP_NUM_THREADS"],
    }


def _setup_sample(args) -> float:
    """Seconds from spawning a fresh process until its first op could
    begin, at reference speed: scaled by the calibration that process runs
    once its set-up is done, on the core it ran on."""
    import harness

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    ready, calibration = map(float, done.stdout.split()[-2:])
    return (ready - start) * harness.CALIBRATION_REFERENCE_S / calibration


def _tail(times: list) -> tuple:
    """(value, percentile, ops beyond) of the highest percentile with
    TAIL_BEYOND ops beyond it; the slowest op when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    i = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[i], 100.0 * i / max(n - 1, 1), n - 1 - i


def _verdict(outcomes: list) -> tuple:
    """(correct, failed).  Every failed op counts in ``failed``; a wrong
    answer (an error or a failed check) also makes the run incorrect, a
    vacuous pass (the known ROADMAP item-5 defect) does not."""
    failed = [o for o in outcomes if o.failed]
    for o in failed[:5]:
        reasons = o.problems + ([o.error.strip().splitlines()[-1]] if o.error else []) + (
            [f"vacuous pass: {o.vacuous_nodes} non-finite nodes under an all-pass report"]
            if o.vacuous_nodes else [])
        print(f"failed op {o.op.kind}: {'; '.join(reasons)}\n  config: {o.op.text}",
              file=sys.stderr)
    return not any(o.wrong for o in failed), len(failed)


def _line(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:<42} {value:>14.6g} {unit:<6} {note}".rstrip())


def end_to_end(args, ops) -> dict:
    import harness

    setup = [_setup_sample(args) for _ in range(SETUP_PROBES)]
    outcomes, wall = harness.timed_loop(ops, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = harness.check(ops, outcomes)
    correct, failed = _verdict(checked)

    # Every time is at reference speed (harness.calibrate); the wall-clock
    # figures follow on their own lines.
    times = [o.scaled_seconds for o in outcomes]
    tail, pct, beyond = _tail(times)
    n = len(outcomes)
    metrics = {
        "op_p50_s": (statistics.median(times), "s", f"median of {n} ops"),
        "op_tail_s": (tail, "s", f"p{pct:.1f}, {beyond} ops beyond it"),
        "ops_per_s": (n / math.fsum(times), "1/s", f"{n} ops"),
        "peak_rss_mb": (peak_mb, "MB", "peak resident memory of this process"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {SETUP_PROBES} fresh-process set-ups"),
    }
    for name, (value, unit, note) in metrics.items():
        _line(name, value, unit, note)
    _line("fail_ratio", failed / len(ops), "ratio",
          f"{failed} of the {len(ops)} ops of the list failed")
    wall_times = [o.seconds for o in outcomes]
    _line("wall.op_p50_s", statistics.median(wall_times), "s", "wall clock")
    _line("wall.op_tail_s", _tail(wall_times)[0], "s", "wall clock")
    _line("wall.ops_per_s", n / wall, "1/s",
          f"{n} ops in {wall:.3f} s of loop time, calibrations included")
    _line("calibration_s", statistics.median(o.calibration for o in outcomes), "s",
          f"median; reference {harness.CALIBRATION_REFERENCE_S:g} s")
    return {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()}}


def per_layer(args, ops) -> dict:
    import harness

    ops = ops[:TRACE_ROUNDS[args.workload] * workloads.round_length(args.workload)]
    plain, traced, tracer = harness.traced_pass(ops)
    correct, failed = _verdict(harness.check(ops, plain))
    for a, b in zip(plain, traced):
        if a.digest != b.digest:
            print(f"traced output differs from untraced for {a.op.text}", file=sys.stderr)
            correct = False

    values = tracer.metrics(len(ops))
    values["trace_overhead_s"] = (statistics.median(o.seconds for o in traced)
                                  - statistics.median(o.seconds for o in plain))
    for name, unit in tracing.PER_LAYER.items():
        _line(name, values[name], unit)
    for target in tracer.missing:
        print(f"trace target not found, its metrics read 0: {target}")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-seed{args.seed}.spans.tsv"
    tracer.write(spans)
    print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    return {"correct": correct, "attempted": len(plain), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in tracing.PER_LAYER.items()}}


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other."""
    worst = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        worst = max(worst, subprocess.run(cmd, timeout=900).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes with no known defect (the benchmark's own tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gexpect" / "__init__.py").is_file():
        print(f"error: no gexpect sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    import harness
    sizes = workloads.SMOKE_SIZES if args.smoke else workloads.FULL_SIZES
    ops = workloads.make_ops(args.workload, args.seed, sizes)
    if args.setup_probe:
        ready = time.monotonic()
        print(ready, harness.calibrate())
        return 0

    print("machine: " + json.dumps(machine_record()))
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} round={workloads.round_length(args.workload)} ops"
          f"{' (smoke sizes)' if args.smoke else ''}")
    # Warm-up: every op kind of the workload once at smoke sizes, untimed.
    harness.run_each(workloads.make_ops(args.workload, args.seed,
                                        workloads.SMOKE_SIZES, rounds=1))
    if args.trace:
        result = per_layer(args, ops)
    else:
        result = end_to_end(args, ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

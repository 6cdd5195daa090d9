"""The benchmark's own tests (kept out of the library's test suite).

    python3 -m pytest perfbench/check_bench.py -q
"""
from __future__ import annotations

import collections
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Traced counts that must repeat exactly between two runs of one seed.
EXACT_COUNTS = ("lattice.nodes_reduced", "risk.solve_terminal.calls", "bsde.step.calls",
                "bsde.solution_bytes", "bsde.nonfinite_nodes")


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_op_list(workload):
    ops = workloads.make_ops(workload, 7)
    assert ops == workloads.make_ops(workload, 7)
    assert ops != workloads.make_ops(workload, 8)
    size = workloads.round_length(workload)
    assert len(ops) == workloads.ROUNDS[workload] * size
    # Every round holds the same mix of op kinds, whatever the seed.
    mixes = {tuple(sorted(collections.Counter(op.kind for op in ops[i:i + size]).items()))
             for i in range(0, len(ops), size)}
    assert len(mixes) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_and_prints_the_end_to_end_metrics(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--smoke"))
    assert result["correct"] is True
    # Every op of the list is checked once, however far the loop got.
    assert result["attempted"] == len(workloads.make_ops(workload, 3, workloads.SMOKE_SIZES))
    assert result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_and_repeats_its_counts(workload):
    first, second = (_result(_run("--workload", workload, "--seed", "3", "--trace", "1",
                                  "--smoke")) for _ in range(2))
    assert first["correct"] is True and first["failed"] == 0
    assert {name: m["unit"] for name, m in first["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_vacuous_domination_pass_counts_as_failed():
    import harness

    op = next(op for op in workloads.make_ops("full_check_suites", 0)
              if op.task == "domination")
    outcome = harness.run_each([op])[0]
    assert all(c["status"] == "pass" for c in outcome.report.results["checks"])
    assert harness.check([op], [outcome]) == [outcome]
    assert outcome.vacuous_nodes > 0
    assert outcome.failed and not outcome.wrong


def test_check_covers_unreached_ops_and_compares_repeats():
    import harness

    ops = workloads.make_ops("penalize_dual", 0, workloads.SMOKE_SIZES, rounds=1)
    runs = harness.run_each(ops + ops[:2])
    runs[-1].digest = "not the digest of the first run"
    checked = harness.check(ops, runs)
    assert [o.op for o in checked] == ops
    assert [o.failed for o in checked] == [False, True] + [False] * (len(ops) - 2)
    # Fewer runs than ops: the rest are run here.
    assert not any(o.failed for o in harness.check(ops, harness.run_each(ops[:3])))


def test_scaled_time_follows_the_calibration():
    import harness

    outcome = harness.Outcome(op=None, seconds=0.3,
                              calibration=2 * harness.CALIBRATION_REFERENCE_S)
    assert outcome.scaled_seconds == pytest.approx(0.15)


def test_entropic_closed_form_agrees_across_layouts():
    claim = {"kind": "call", "strike": 0.25}
    full = checks.entropic_root(0.5, claim, 12, "full")
    recombining = checks.entropic_root(0.5, claim, 12, "recombining")
    assert abs(full - recombining) <= 1e-12


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           workloads.WORKLOADS[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout

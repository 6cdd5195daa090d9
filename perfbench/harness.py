"""Running ops: the timed closed loop, the output checks and the traced pass.

One op is done the way a user runs a CLI task: ``cli.parse_config`` ->
``cli.run`` -> ``reporting.render_structured`` plus ``render_csv`` for
every table.  It renders in memory and writes no files, so disk time stays
out of the numbers.  Import this module only after ``src`` of the checkout
is on ``sys.path``.
"""
from __future__ import annotations

import hashlib
import math
import statistics
import time
import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
from gexpect import bsde, claims, cli, dual, lattice, penalization, reporting, risk

from checks import Checker, NonfiniteProbe, all_clear
from tracing import OP, Tracer

MODULES = {"lattice": lattice, "claims": claims, "bsde": bsde, "risk": risk,
           "dual": dual, "penalization": penalization, "cli": cli}


# Calibration: a fixed piece of work that does not use the library, timed
# next to every op.  The machine is a share of a busy host, and its speed
# drifts by up to 2x over seconds to minutes; the calibration time drifts
# with it.  An op's time is reported at reference speed, scaled by
# CALIBRATION_REFERENCE_S / (its calibration time).  The work mixes the two
# kinds the workloads do: a Python loop of small numpy calls (suite glue)
# and passes over arrays larger than L2 (duality sweeps, big reductions).
CALIBRATION_REFERENCE_S = 0.005
_CAL_SMALL = np.linspace(0.0, 1.0, 16)
_CAL_BIG = np.linspace(-1.0, 1.0, 1 << 18)
_CAL_OUT = np.empty_like(_CAL_BIG)


def _calibration_rep() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(80):
        acc += float(np.maximum(_CAL_SMALL * i, 0.25).sum())
    np.exp(_CAL_BIG, out=_CAL_OUT)
    np.maximum(_CAL_OUT, 1.5, out=_CAL_OUT)
    acc += float(_CAL_OUT.sum())
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds the calibration work takes now: five times the median of
    five repetitions, after one untimed repetition that brings the array
    back into cache, so neither an interrupt nor what ran before moves it."""
    _calibration_rep()
    return 5 * statistics.median(_calibration_rep() for _ in range(5))


def _no_span(name):
    return nullcontext()


def run_op(op, span=_no_span):
    """One CLI task, rendered in memory; returns (report, rendered text)."""
    with span("cli.parse_config"):
        cfg = cli.parse_config(op.text)
    with span("cli.run"):
        report = cli.run(cfg)
    with span("reporting.render"):
        parts = [reporting.render_structured(report.as_document())]
        for name, (header, rows) in sorted(report.tables.items()):
            parts.append(reporting.render_csv(header, rows))
        text = "".join(parts)
    return report, text


@dataclass
class Outcome:
    """What one op did: wall time, report and output digest, or the error."""

    op: object
    seconds: float
    report: object = None
    digest: str = ""
    size: int = 0
    error: str = ""
    problems: list = field(default_factory=list)  # wrong answers
    vacuous_nodes: int = 0  # non-finite nodes under an all-pass suite report
    calibration: float = 0.0  # calibration seconds around the op (timed loop)

    @property
    def scaled_seconds(self) -> float:
        """Wall time at reference speed (see ``calibrate``)."""
        return self.seconds * CALIBRATION_REFERENCE_S / self.calibration

    @property
    def wrong(self) -> bool:
        return bool(self.error or self.problems)

    @property
    def failed(self) -> bool:
        return self.wrong or self.vacuous_nodes > 0


def _attempt(op, span=_no_span) -> Outcome:
    start = time.perf_counter()
    try:
        report, text = run_op(op, span)
    # The loop must keep running: a raising op is a failed op.
    except Exception:
        return Outcome(op, time.perf_counter() - start, error=traceback.format_exc())
    seconds = time.perf_counter() - start
    data = text.encode()
    # No check reads the N+1-row profile of a solve; dropping it keeps the
    # retained outcomes from growing the heap, and so peak_rss_mb, per op.
    report.tables.pop("profile", None)
    return Outcome(op, seconds, report, hashlib.sha256(data).hexdigest(), len(data))


def timed_loop(ops: list, seconds: float) -> tuple:
    """Closed loop, one client: run ops back to back until ``seconds`` pass.

    The calibration runs before the first op and after every op; an op's
    ``calibration`` is the geometric mean of the two next to it.  Returns
    the outcomes and the loop's wall time, which ends when the last
    calibration completes.  The op list starts over when it runs out.
    """
    outcomes = []
    start = time.perf_counter()
    deadline = start + seconds
    before = calibrate()
    now = time.perf_counter()
    while now < deadline:
        out = _attempt(ops[len(outcomes) % len(ops)])
        after = calibrate()
        out.calibration = math.sqrt(before * after)
        before = after
        outcomes.append(out)
        now = time.perf_counter()
    return outcomes, now - start


def run_each(ops: list) -> list:
    return [_attempt(op) for op in ops]


def check(ops: list, outcomes: list) -> list:
    """Check every op of the list once; returns one outcome per op.

    ``outcomes`` are the runs of ``ops`` in list order, starting over when
    the list ran out, as the timed loop does them.  An op the runs did not
    reach is run here, untimed.  The first run of each op is checked, and
    every later run must give the same output or the op fails.  All-pass
    suites are re-run once, untimed, under the non-finite probe.
    """
    firsts = list(outcomes[:len(ops)]) + run_each(ops[len(outcomes):])
    for i, out in enumerate(outcomes[len(ops):], len(ops)):
        first = firsts[i % len(ops)]
        if out.error and not first.error:
            first.error = out.error
        elif not out.error and out.digest != first.digest:
            first.problems.append(f"run {i // len(ops) + 1} of the op gave another output")
    checker = Checker()
    for out in firsts:
        if out.error:
            continue
        cfg = out.op.config
        out.problems += checker.problems(cfg, out.report)
        if cfg["task"] in ("axioms", "domination") and all_clear(out.report):
            with NonfiniteProbe(risk) as probe, warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                _, text = run_op(out.op)
            if hashlib.sha256(text.encode()).hexdigest() != out.digest:
                out.problems.append("re-run output differs from the timed run")
            out.vacuous_nodes = probe.nodes
    return firsts


def traced_pass(ops: list) -> tuple:
    """Run each op untraced, then again with every layer wrapped.

    Interleaving the two runs of an op keeps drift in machine speed out of
    the tracing overhead.  Returns (untraced outcomes, traced outcomes,
    tracer).
    """
    tracer = Tracer()
    plain, traced = [], []
    for i, op in enumerate(ops):
        plain.append(_attempt(op))
        tracer.op = i
        tracer.install(MODULES)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                with tracer.span(OP):
                    out = _attempt(op, tracer.span)
        finally:
            tracer.uninstall()
        tracer.count("numeric_warnings",
                     sum(issubclass(w.category, RuntimeWarning) for w in caught))
        tracer.count("report_bytes", out.size)
        if out.report is not None:
            statuses = [c.get("status") for c in out.report.results.get("checks", [])
                        if isinstance(c, dict)]
            tracer.count("checks_skipped", statuses.count("skipped"))
            tracer.count("checks_failed", statuses.count("fail"))
        traced.append(out)
    return plain, traced, tracer

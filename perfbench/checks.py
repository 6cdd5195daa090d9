"""Output checks that decide whether an op counts as failed.

The checks run outside the timed region.  Entropic roots are compared with
a closed form computed here, independently of the library:

    rho(xi) = (1/2 nu) log E[exp(-2 nu xi)],

with log-binomial weights on recombining trees and the mean over all
leaves on full trees.  Explicit-scheme roots are compared with
``references.json`` (written by ``make_references.py``).  Suite reports
must show the verdicts the theory fixes, and a suite that reports no
``fail`` and no ``skipped`` while one of its solves produced non-finite
values is a vacuous pass: the op fails (ROADMAP item 5).
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).with_name("references.json")
REL_TOL = 1e-9
ABS_TOL = 1e-12

# Axiom verdicts the theory fixes for every measure in the workloads.
MUST_PASS = ("time_consistency", "constant_preservation", "translation_invariance",
             "regularity")
PASS_OR_SKIPPED = ("monotonicity", "convexity")


def reference_key(cfg: dict, steps: int | None = None) -> str:
    """Key of an explicit-scheme root in ``references.json``."""
    return json.dumps({
        "task": cfg["task"],
        "layout": cfg["tree"]["layout"],
        "steps": cfg["tree"]["steps"] if steps is None else steps,
        "measure": cfg["measure"],
        "claim": cfg.get("claim"),
    }, sort_keys=True)


def payoff(claim: dict, level: np.ndarray) -> np.ndarray:
    """Terminal payoff of a CLI claim spec as a function of B_T."""
    kind = claim["kind"]
    if kind == "call":
        return claim.get("coef", 1.0) * np.maximum(level - claim.get("strike", 0.0), 0.0)
    if kind == "linear":
        return claim.get("coef", 1.0) * level
    if kind == "indicator":
        return (level >= claim.get("threshold", 0.0)).astype(float)
    raise ValueError(f"no closed form for claim family {kind!r}")


def _logsumexp(a: np.ndarray) -> float:
    m = float(np.max(a))
    return m + math.log(float(np.sum(np.exp(a - m))))


def entropic_root(nu: float, claim: dict, steps: int, layout: str,
                  horizon: float = 1.0) -> float:
    """(1/2 nu) log E[exp(-2 nu xi)] for a path-independent claim."""
    sdt = math.sqrt(horizon / steps)
    if layout == "recombining":
        ups = np.arange(steps + 1)
        log_w = np.array([math.lgamma(steps + 1) - math.lgamma(j + 1)
                          - math.lgamma(steps - j + 1) for j in ups]) - steps * math.log(2.0)
    else:
        leaves = np.arange(2 ** steps)
        ups = np.zeros(leaves.size, dtype=np.int64)
        for bit in range(steps):
            ups += (leaves >> bit) & 1
        log_w = np.full(leaves.size, -steps * math.log(2.0))
    level = (2.0 * ups - steps) * sdt
    return _logsumexp(log_w - 2.0 * nu * payoff(claim, level)) / (2.0 * nu)


def _close(value, ref: float) -> bool:
    return math.isclose(float(value), ref, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _summary_failures(report) -> list:
    return [f"summary check {item['check']} failed"
            for item in report.summary if not item["passed"]]


class Checker:
    """Checks one op's report against the theory and the references."""

    def __init__(self):
        self.references = json.loads(REFERENCES.read_text())["roots"]

    def _root(self, cfg: dict, value, steps: int | None = None,
              exact: bool | None = None) -> list:
        """Compare a root with the closed form (exact entropic solves) or
        with the committed reference (explicit-scheme solves)."""
        n = cfg["tree"]["steps"] if steps is None else steps
        if exact is None:
            exact = cfg["measure"]["kind"] == "entropic"
        if exact:
            ref = entropic_root(cfg["measure"]["nu"], cfg["claim"], n,
                                cfg["tree"]["layout"], cfg["tree"]["horizon"])
            source = "closed form"
        else:
            key = reference_key(cfg, steps)
            if key not in self.references:
                return [f"no committed reference for {key}"]
            ref, source = self.references[key], "reference"
        if not _close(value, ref):
            return [f"root {value!r} at N={n} differs from the {source} {ref!r}"]
        return []

    def problems(self, cfg: dict, report) -> list:
        """Every way the op's output is wrong; empty when it is right."""
        task = cfg["task"]
        if task == "solve":
            out = _summary_failures(report)
            if report.results["monotone_step"] is not True:
                out.append("solve does not report monotone_step true")
            return out + self._root(cfg, report.results["rho_root"])
        if task == "converge":
            out = _summary_failures(report)
            _, rows = report.tables["convergence"]
            for steps, euler, exact, _gap, _ratio in rows:
                out += self._root(cfg, euler, steps, exact=False)
                out += self._root(cfg, exact, steps, exact=True)
            return out
        if task == "axioms":
            status = {c["axiom"]: c["status"] for c in report.results["checks"]}
            expect_fail = cfg.get("params", {}).get("expect_fail", [])
            out = [f"axiom {a} is {status[a]}, not pass"
                   for a in MUST_PASS if status[a] != "pass"]
            out += [f"axiom {a} fails" for a in PASS_OR_SKIPPED if status[a] == "fail"]
            out += [f"axiom {a} passes but the measure violates it"
                    for a in expect_fail if status[a] == "pass"]
            return out
        if task == "domination":
            out = _summary_failures(report)
            return out + [f"domination check {c['check']} is {c['status']}"
                          for c in report.results["checks"]
                          if c["status"] not in ("pass", "skipped")]
        if task == "dual":
            return _summary_failures(report) + self._root(cfg, report.results["rho_root"])
        if task in ("penalize", "represent"):
            return _summary_failures(report)
        raise ValueError(f"no checks for task {task!r}")


def all_clear(report) -> bool:
    """A suite report with no ``fail`` and no ``skipped`` verdict."""
    checks = report.results.get("checks")
    return checks is not None and all(c["status"] == "pass" for c in checks)


class NonfiniteProbe:
    """While active, counts non-finite Y entries of every risk-measure solve.

    Wraps ``DynamicRiskMeasure.solve_terminal``; used to re-run a suite op
    once, untimed, when its report claims an all-pass verdict.
    """

    def __init__(self, risk_module):
        self.cls = risk_module.DynamicRiskMeasure
        self.nodes = 0

    def __enter__(self):
        original = self.cls.solve_terminal
        probe = self

        def solve_terminal(drm, terminal):
            solved = original(drm, terminal)
            probe.nodes += sum(int(np.count_nonzero(~np.isfinite(v)))
                               for v in solved.Y.values)
            return solved

        self._original = original
        self.cls.solve_terminal = solve_terminal
        return self

    def __exit__(self, *exc):
        self.cls.solve_terminal = self._original
        return False

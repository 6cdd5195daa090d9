"""Per-layer tracing from outside the library.

The library binds names with ``from .x import f``, so each function is
wrapped in every module whose callers look it up there, and methods are
wrapped on their class.  A wrapper records a span (name, start, end,
parent, op) in memory; ``write`` saves the spans when the run ends.  Work
the tracer does itself (counting bytes, nodes and non-finite values) runs
in ``trace.hook`` spans, which every layer's times leave out.

Busy time of a layer is the summed duration of its outermost spans, self
time is a span's duration minus that of its direct children.  Every
metric is reported as a mean per op.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import numpy as np

HOOK = "trace.hook"
OP = "op"

# (module, attribute, span name, kind).  kind "call" wraps the callable,
# "factory" wraps the step closures the callable returns.
TARGETS = (
    ("lattice", "backward_reduce", "lattice.backward_reduce", "call"),
    ("bsde", "backward_reduce", "lattice.backward_reduce", "call"),
    ("risk", "backward_reduce", "lattice.backward_reduce", "call"),
    ("lattice", "TreeProcess.__init__", "lattice.TreeProcess", "call"),
    ("risk", "propagate", "lattice.propagate", "call"),
    ("lattice", "cond_expect", "lattice.cond_expect", "call"),
    ("bsde", "euler_step", "bsde.step", "factory"),
    ("bsde", "entropy_step", "bsde.step", "factory"),
    ("risk", "euler_step", "bsde.step", "factory"),
    ("risk", "entropy_step", "bsde.step", "factory"),
    ("cli", "solve_bsde", "bsde.solve", "call"),
    ("cli", "entropy_exact", "bsde.solve", "call"),
    ("risk", "solve_bsde", "bsde.solve", "call"),
    ("risk", "entropy_exact", "bsde.solve", "call"),
    ("bsde", "extract_z", "bsde.extract_z", "call"),
    ("risk", "extract_z", "bsde.extract_z", "call"),
    ("claims", "Claim.evaluate", "claims.evaluate", "call"),
    ("cli", "sample_claims", "claims.sample_claims", "call"),
    ("risk", "sample_claims", "claims.sample_claims", "call"),
    ("dual", "conjugate_values", "generators.conjugate_values", "call"),
    ("dual", "subdifferential_slices", "generators.subdifferential_slices", "call"),
    ("risk", "DynamicRiskMeasure.solve_terminal", "risk.solve_terminal", "call"),
    ("cli", "check_axioms", "risk.check_axioms", "call"),
    ("risk", "check_axioms", "risk.check_axioms", "call"),
    ("cli", "check_domination", "risk.check_domination", "call"),
    ("risk", "check_domination", "risk.check_domination", "call"),
    ("risk", "supermartingale_gap", "risk.supermartingale_gap", "call"),
    ("penalization", "supermartingale_gap", "risk.supermartingale_gap", "call"),
    ("cli", "represent", "risk.represent", "call"),
    ("cli", "verify_duality", "dual.verify_duality", "call"),
    ("dual", "relative_entropy", "dual.relative_entropy", "call"),
    ("dual", "dual_value", "dual.dual_value", "call"),
    ("dual", "gibbs_density", "dual.gibbs_density", "call"),
    ("dual", "TiltedMeasure.__init__", "dual.TiltedMeasure", "call"),
    ("penalization", "solve_penalized", "penalization.solve_penalized", "call"),
    ("cli", "doob_meyer", "penalization.doob_meyer", "call"),
)

# Spans whose returned solution is measured (outermost one only, so a
# solve_terminal that delegates to solve_bsde counts once).
SOLUTION_SPANS = ("risk.solve_terminal", "bsde.solve")

# Per-layer metric -> unit.  Every name here is printed by a traced run.
PER_LAYER = {
    "lattice.backward_reduce.calls": "count",
    "lattice.backward_reduce.busy_s": "s",
    "lattice.backward_reduce.self_s": "s",
    "lattice.nodes_reduced": "count",
    "lattice.TreeProcess.calls": "count",
    "lattice.TreeProcess.busy_s": "s",
    "lattice.TreeProcess.bytes": "B",
    "lattice.propagate.busy_s": "s",
    "lattice.cond_expect.busy_s": "s",
    "bsde.step.calls": "count",
    "bsde.step.busy_s": "s",
    "bsde.solve.calls": "count",
    "bsde.solve.self_s": "s",
    "bsde.extract_z.busy_s": "s",
    "bsde.solve_gap_share": "ratio",
    "bsde.solution_bytes": "B",
    "bsde.nonfinite_nodes": "count",
    "numeric_warnings": "count",
    "claims.evaluate.busy_s": "s",
    "claims.sample_claims.busy_s": "s",
    "generators.conjugate_values.busy_s": "s",
    "generators.subdifferential_slices.busy_s": "s",
    "risk.solve_terminal.calls": "count",
    "risk.solve_terminal.busy_s": "s",
    "risk.check_axioms.self_s": "s",
    "risk.check_domination.self_s": "s",
    "risk.checks_skipped": "count",
    "risk.checks_failed": "count",
    "risk.supermartingale_gap.busy_s": "s",
    "risk.represent.self_s": "s",
    "dual.verify_duality.self_s": "s",
    "dual.relative_entropy.busy_s": "s",
    "dual.dual_value.busy_s": "s",
    "dual.gibbs_density.busy_s": "s",
    "dual.densities": "count",
    "penalization.solve_penalized.calls": "count",
    "penalization.solve_penalized.self_s": "s",
    "penalization.doob_meyer.self_s": "s",
    "reporting.render.busy_s": "s",
    "reporting.bytes": "B",
    "cli.parse_config.busy_s": "s",
    "cli.run.self_s": "s",
    "trace_overhead_s": "s",
}


def _slice_bytes(process) -> int:
    return 8 * sum(map(len, process.values)) if process is not None else 0


class Tracer:
    """Span recorder plus the per-op counters read at layer boundaries."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, op, outermost]
        self._stack: list = []
        self._open: dict = defaultdict(int)
        self._patches: list = []
        self.missing: list = []
        self.op = -1
        self.counts: dict = defaultdict(lambda: defaultdict(float))

    # -- spans ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op,
                           self._open[name] == 0])
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._open[self.spans[idx][0]] -= 1

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def count(self, key: str, amount: float) -> None:
        self.counts[self.op][key] += amount

    def _spanned(self, fn, name: str, after=None):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if after is not None:
                hook = tracer._enter(HOOK)
                try:
                    after(args, out)
                finally:
                    tracer._exit(hook)
            return out

        return wrapper

    # -- counters read at layer boundaries -----------------------------

    def _after(self, name: str):
        if name == "lattice.backward_reduce":
            def after(args, out):
                # Nodes of slices 0..last-1: every slice but the terminal one.
                self.count("nodes_reduced", sum(map(len, out.values[:-1])))
            return after
        if name == "lattice.TreeProcess":
            return lambda args, out: self.count(
                "tree_process_bytes", _slice_bytes(args[0]))
        if name in SOLUTION_SPANS:
            def after(args, out):
                if any(self._open[s] for s in SOLUTION_SPANS):
                    return  # an enclosing solve measures this solution
                size = sum(_slice_bytes(getattr(out, part, None))
                           for part in ("Y", "Z", "residuals"))
                per_op = self.counts[self.op]
                per_op["solution_bytes"] = max(per_op["solution_bytes"], size)
                self.count("nonfinite_nodes", sum(
                    int(np.count_nonzero(~np.isfinite(v))) for v in out.Y.values))
            return after
        return None

    # -- installing the wrappers ---------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every target; ``modules`` maps short names to gexpect modules."""
        self.missing = []
        for module_name, attr, name, kind in TARGETS:
            owner = modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if kind == "factory":
                def factory(*args, _original=original, _name=name, **kwargs):
                    return self._spanned(_original(*args, **kwargs), _name)
                replacement = wraps(original)(factory)
            else:
                replacement = self._spanned(original, name, self._after(name))
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    # -- results -------------------------------------------------------

    def write(self, path) -> None:
        """Save the spans, one tab-separated line each."""
        with open(path, "w") as fh:
            fh.write("op\tname\tstart_s\tend_s\tparent\n")
            for name, start, end, parent, op, _ in self.spans:
                fh.write(f"{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def metrics(self, n_ops: int) -> dict:
        """Per-op means of every per-layer metric except trace_overhead_s."""
        spans = self.spans
        n = len(spans)
        dur = [span[2] - span[1] for span in spans]
        hooks = [0.0] * n      # hook time nested anywhere inside the span
        children = [0.0] * n   # time of the direct children
        reduce = [0.0] * n     # direct backward_reduce children, hooks left out
        extract = [0.0] * n    # direct extract_z children, hooks left out
        for i in range(n - 1, -1, -1):  # children sit after their parent
            name, _, _, parent, _, _ = spans[i]
            if name == HOOK:
                hooks[i] = dur[i]
            if parent < 0:
                continue
            hooks[parent] += hooks[i]
            children[parent] += dur[i]
            if name == "lattice.backward_reduce":
                reduce[parent] += dur[i] - hooks[i]
            elif name == "bsde.extract_z":
                extract[parent] += dur[i] - hooks[i]

        totals: dict = defaultdict(float)
        for i, (name, _, _, _, _, outermost) in enumerate(spans):
            if name == HOOK:
                continue
            busy = dur[i] - hooks[i]
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += dur[i] - children[i]
            if outermost:
                totals[f"{name}.busy_s"] += busy
            if name == "bsde.solve":
                # The solve's own work: all but the reduction and extract_z.
                totals["bsde.solve.own_s"] += busy - reduce[i] - extract[i]
                totals["bsde.solve.gap_s"] += busy - reduce[i]

        counts: dict = defaultdict(float)
        for per_op in self.counts.values():
            for key, value in per_op.items():
                counts[key] += value
        solve_busy = totals["bsde.solve.busy_s"]
        derived = {
            "lattice.nodes_reduced": counts["nodes_reduced"],
            "lattice.TreeProcess.bytes": counts["tree_process_bytes"],
            "bsde.solve.self_s": totals["bsde.solve.own_s"],
            "bsde.solution_bytes": counts["solution_bytes"],
            "bsde.nonfinite_nodes": counts["nonfinite_nodes"],
            "numeric_warnings": counts["numeric_warnings"],
            "risk.checks_skipped": counts["checks_skipped"],
            "risk.checks_failed": counts["checks_failed"],
            "dual.densities": totals["dual.TiltedMeasure.calls"],
            "reporting.bytes": counts["report_bytes"],
        }
        out = {}
        for key in PER_LAYER:
            if key == "trace_overhead_s":
                continue
            if key == "bsde.solve_gap_share":
                # A ratio of sums, so not divided by the op count.
                out[key] = totals["bsde.solve.gap_s"] / solve_busy if solve_busy else 0.0
                continue
            out[key] = derived.get(key, totals[key]) / n_ops
        return out

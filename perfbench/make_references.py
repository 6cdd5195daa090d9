"""Write references.json: the explicit-scheme roots the output checks expect.

    python3 perfbench/make_references.py

It runs, through the CLI, every explicit-scheme op the workloads can
generate at both size sets and records its root (converge ops record the
explicit root at every step count).  Entropic roots need no reference: the
checks compute their closed form.  Regenerate only when a change is meant
to move these roots, and say so in the change.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402

import gexpect  # noqa: E402
import harness  # noqa: E402
import workloads as w  # noqa: E402
from checks import REFERENCES, reference_key  # noqa: E402


def explicit_ops(s: w.Sizes) -> list:
    calls = [{"kind": "call", "strike": k} for k in w.STRIKES]
    ops = [w._config("solve", s.solve_steps, "recombining", measure, claim)
           for measure in (w.QUADRATIC_UPPER, w.SCALED_ABS)
           for claim in calls + [{"kind": "linear"}, {"kind": "indicator"}]]
    ops += [w._config("converge", s.converge_steps[-1], "recombining", w.ENTROPIC, claim,
                      {"n_values": list(s.converge_steps)}) for claim in calls]
    ops += [w._config("dual", s.dual_steps, "full", w.QUADRATIC_UPPER, claim)
            for claim in calls]
    return ops


def main() -> None:
    roots = {}
    for sizes in (w.FULL_SIZES, w.SMOKE_SIZES):
        for cfg in explicit_ops(sizes):
            op = w.Op(cfg["task"], cfg["task"], json.dumps(cfg, sort_keys=True))
            report, _ = harness.run_op(op)
            if cfg["task"] == "converge":
                for steps, euler, *_ in report.tables["convergence"][1]:
                    roots[reference_key(cfg, steps)] = euler
            else:
                roots[reference_key(cfg)] = report.results["rho_root"]
            print(f"{cfg['task']} {cfg['tree']['steps']} {cfg['measure']} "
                  f"{cfg.get('claim')}", flush=True)
    REFERENCES.write_text(json.dumps({
        "written_with": {"gexpect": gexpect.__version__, "numpy": numpy.__version__},
        "roots": dict(sorted(roots.items())),
    }, indent=1) + "\n")
    print(f"{len(roots)} roots written to {REFERENCES.name}")


if __name__ == "__main__":
    main()

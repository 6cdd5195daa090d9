"""Configuration-driven scenario runner.

One subcommand per task.  A run reads a single JSON configuration file,
dispatches to the named task, and writes a structured text report and/or
CSV tables whose numeric content is byte-identical across reruns of the
same configuration (timing is printed to the console only).  Exit status
is 0 when every check in the run passed, 1 otherwise, 2 for configuration
errors.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bsde import entropy_exact, solve_bsde
from .claims import FAMILIES, SAMPLE_KINDS, Claim, from_spec, sample_claims
from .dual import verify_duality
from .generators import BUILTINS, make_builtin
from .lattice import FULL, RECOMBINING, auto_layout, build_tree
from .penalization import DRIFTS, canonical_drift, doob_meyer
from .reporting import render_csv, render_structured
from .risk import (CheckReport, DynamicRiskMeasure, check_axioms, check_domination,
                   entropic, from_generator, represent, rho_solved)

TASKS = ("solve", "axioms", "domination", "dual", "penalize", "represent", "converge")

_TASK_PARAMS = {
    "solve": set(),
    "axioms": {"n_claims", "scale", "claim_kind", "tol", "expect_fail", "depths"},
    "domination": {"mu", "nu", "n_claims", "scale", "thetas", "z_grid", "tol"},
    "dual": {"q_sweep", "n_random", "slack"},
    "penalize": {"z", "mu_bar", "nu_bar", "drift", "n_schedule", "rel_stop",
                 "surplus_tol"},
    "represent": {"z_lo", "z_hi", "z_count", "t_grid", "precheck", "rel_tol"},
    "converge": {"n_values", "ratio_tol"},
}

# Per task, the parameter that names one of a module's conventions.
_TASK_CHOICES = {"axioms": ("claim_kind", SAMPLE_KINDS), "penalize": ("drift", DRIFTS)}


class ConfigError(Exception):
    pass


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key {unknown[0]!r} in {where}; allowed: {sorted(allowed)}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in {where}")
    return section[key]


def _section(raw: dict, key: str, required: bool = False):
    """The config.<key> object (None when optional and absent)."""
    sec = _require(raw, key, "config") if required else raw.get(key)
    if sec is not None and not isinstance(sec, dict):
        raise ConfigError(f"config.{key} must be an object, got {sec!r}")
    return sec


def _number(value, kind, where: str):
    """``kind(value)`` for kind int or float; a ConfigError naming ``where`` otherwise."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}") from None


def _check_kind_params(section: dict, builder, where: str) -> None:
    """Accept exactly the builder's parameters; those without a default are required."""
    params = inspect.signature(builder).parameters
    _reject_unknown(section, set(params) | {"kind"}, where)
    for name, param in params.items():
        if param.default is param.empty:
            _require(section, name, where)


@dataclass
class ScenarioConfig:
    horizon: float
    steps: int
    layout: str
    depth_cap: int | None
    measure: dict
    claim: dict | None
    task: str
    params: dict
    seed: int
    out: str | None

    def echo(self) -> dict:
        return {
            "tree": {"horizon": self.horizon, "steps": self.steps,
                     "layout": self.layout,
                     **({"depth_cap": self.depth_cap} if self.depth_cap else {})},
            "measure": self.measure,
            **({"claim": self.claim} if self.claim else {}),
            "task": self.task,
            "params": self.params,
            "seed": self.seed,
        }


def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse and validate one JSON scenario; all errors carry a location."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{source}: parse error at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be an object")
    _reject_unknown(raw, {"tree", "measure", "claim", "task", "params", "seed", "out"},
                    "config")

    tree_sec = _section(raw, "tree", required=True)
    _reject_unknown(tree_sec, {"horizon", "steps", "layout", "depth_cap"}, "config.tree")
    steps = _number(_require(tree_sec, "steps", "config.tree"), int, "config.tree.steps")
    layout = tree_sec.get("layout", "auto")
    if layout not in ("auto", FULL, RECOMBINING):
        raise ConfigError(f"config.tree.layout must be auto|{FULL}|{RECOMBINING}")

    measure = _section(raw, "measure", required=True)
    kind = _require(measure, "kind", "config.measure")
    # "entropic" is the exact recursion of the risk layer, not a generator kind.
    if kind == "entropic":
        _reject_unknown(measure, {"kind", "nu"}, "config.measure")
    elif kind in BUILTINS:
        _check_kind_params(measure, BUILTINS[kind], "config.measure")
    else:
        raise ConfigError(
            f"unknown measure kind {kind!r}; known: {sorted({'entropic', *BUILTINS})}")

    claim = _section(raw, "claim")
    if claim is not None:
        ckind = _require(claim, "kind", "config.claim")
        if ckind not in FAMILIES:
            raise ConfigError(
                f"unknown claim family {ckind!r}; known: {sorted(FAMILIES)}")
        _check_kind_params(claim, FAMILIES[ckind], "config.claim")

    task = _require(raw, "task", "config")
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; known: {list(TASKS)}")
    params = _section(raw, "params") or {}
    _reject_unknown(params, _TASK_PARAMS[task], f"config.params ({task})")
    key, allowed = _TASK_CHOICES.get(task, (None, ()))
    if key in params and params[key] not in allowed:
        raise ConfigError(
            f"config.params.{key} must be one of {list(allowed)}, got {params[key]!r}")

    return ScenarioConfig(
        horizon=_number(tree_sec.get("horizon", 1.0), float, "config.tree.horizon"),
        steps=steps,
        layout=layout,
        depth_cap=tree_sec.get("depth_cap"),
        measure=measure,
        claim=claim,
        task=task,
        params=params,
        seed=_number(raw.get("seed", 0), int, "config.seed"),
        out=raw.get("out"),
    )


@dataclass
class RunReport:
    config: dict
    results: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    summary: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(item["passed"] for item in self.summary)

    def as_document(self) -> dict:
        return {
            "config": self.config,
            "results": self.results,
            "tables": {
                name: [dict(zip(header, row)) for row in rows]
                for name, (header, rows) in self.tables.items()
            },
            "summary": self.summary,
            "passed": self.passed,
        }


def _build_tree(cfg: ScenarioConfig, claim: Claim | None):
    if cfg.layout == "auto":
        return auto_layout(cfg.horizon, cfg.steps,
                           path_independent=claim.path_independent if claim else True)
    kwargs = {"depth_cap": cfg.depth_cap} if cfg.depth_cap else {}
    return build_tree(cfg.horizon, cfg.steps, cfg.layout, **kwargs)


def _build_measure(cfg: ScenarioConfig, tree) -> DynamicRiskMeasure:
    spec = dict(cfg.measure)
    kind = spec.pop("kind")
    if kind == "entropic":
        return entropic(float(spec.get("nu", 1.0)), tree)
    return from_generator(make_builtin(kind, **spec), tree)


def _build_claim(cfg: ScenarioConfig) -> Claim:
    if cfg.claim is None:
        raise ConfigError(f"task {cfg.task!r} needs a claim section")
    spec = dict(cfg.claim)
    return from_spec(spec.pop("kind"), spec)


# ---------------------------------------------------------------------------
# Task runners: fill results / tables / summary on the report.


def _run_solve(cfg: ScenarioConfig, report: RunReport) -> None:
    claim = _build_claim(cfg)
    tree = _build_tree(cfg, claim)
    drm = _build_measure(cfg, tree)
    solved = rho_solved(drm, claim)
    report.results = {
        "rho_root": solved.root(),
        "scheme": solved.scheme,
        "monotone_step": solved.monotone_step,
        "step_bound": solved.step_bound,
        "warnings": list(solved.warnings),
    }
    header = ["depth", "time", "y_min", "y_max", "z_min", "z_max"]
    rows = []
    for k, ys in enumerate(solved.Y.values):
        zs = solved.Z.values[k] if k < len(solved.Z.values) else None
        rows.append([k, k * tree.dt, float(ys.min()), float(ys.max()),
                     float(zs.min()) if zs is not None else "",
                     float(zs.max()) if zs is not None else ""])
    report.tables["profile"] = (header, rows)
    report.summary.append({"check": "solve_completed", "passed": True})
    report.summary.append({"check": "no_warnings",
                           "passed": not solved.warnings})


def _record_suite(report: RunReport, table: str, prefix: str, rep: CheckReport,
                  expect_fail=()) -> None:
    """Table, results and one summary line per check of a check suite."""
    header = [rep.name_key, "status", "max_gap", "tol", "comparisons"]
    rows = [[c.name, c.status, c.max_gap, c.tol, c.comparisons]
            for c in rep.checks.values()]
    report.tables[table] = (header, rows)
    report.results = rep.as_report()
    for c in rep.checks.values():
        if c.name in expect_fail:
            report.summary.append({"check": f"{prefix}_{c.name}_fails_as_expected",
                                   "passed": c.status == "fail"})
        else:
            report.summary.append({"check": f"{prefix}_{c.name}",
                                   "passed": c.status != "fail"})


def _suite_inputs(cfg: ScenarioConfig, claim_kind: str):
    """Measure and seeded claim suite of an axioms or domination run."""
    tree = _build_tree(cfg, None)
    drm = _build_measure(cfg, tree)
    p = cfg.params
    claims = sample_claims(tree, int(p.get("n_claims", 10)), cfg.seed,
                           kind=claim_kind, scale_to=float(p.get("scale", 0.5)))
    return drm, claims


def _run_axioms(cfg: ScenarioConfig, report: RunReport) -> None:
    p = cfg.params
    drm, claims = _suite_inputs(cfg, p.get("claim_kind", "leaf"))
    depths = tuple(p["depths"]) if "depths" in p else None
    rep = check_axioms(drm, claims, seed=cfg.seed, depths=depths,
                       tol=float(p.get("tol", 1e-10)))
    _record_suite(report, "axioms", "axiom", rep, p.get("expect_fail", ()))


def _run_domination(cfg: ScenarioConfig, report: RunReport) -> None:
    p = cfg.params
    drm, claims = _suite_inputs(cfg, "mixture")
    mu = float(p.get("mu", drm.bounds[0]))
    nu = float(p.get("nu", drm.bounds[1]))
    grids = {k: tuple(float(v) for v in p[k]) for k in ("thetas", "z_grid") if k in p}
    rep = check_domination(drm, mu, nu, claims, seed=cfg.seed,
                           tol=float(p.get("tol", 1e-10)), **grids)
    _record_suite(report, "domination", "domination", rep)


def _run_dual(cfg: ScenarioConfig, report: RunReport) -> None:
    claim = _build_claim(cfg)
    tree = _build_tree(cfg, claim)
    drm = _build_measure(cfg, tree)
    p = cfg.params
    rep = verify_duality(drm, claim,
                         q_sweep=p.get("q_sweep"),
                         n_random=int(p.get("n_random", 3)),
                         slack=float(p.get("slack", 1e-9)),
                         seed=cfg.seed)
    header = ["q_param", "dual_value", "gap", "feasible"]
    rows = [[r["density"], r["value"], r.get("gap", ""), r["feasible"]]
            for r in rep.rows]
    report.tables["dual_sweep"] = (header, rows)
    report.results = rep.as_report()
    report.summary.append({"check": "weak_duality", "passed": rep.weak_duality_ok})
    report.summary.append({"check": "duality_attained", "passed": rep.passed})


def _run_penalize(cfg: ScenarioConfig, report: RunReport) -> None:
    tree = _build_tree(cfg, None)
    drm = _build_measure(cfg, tree)
    p = cfg.params
    z = float(p.get("z", 1.0))
    mu_bar = float(p.get("mu_bar", max(drm.bounds[0], 1.0)))
    nu_bar = float(p.get("nu_bar", drm.bounds[1]))
    drift = p.get("drift", "continuum")
    Y = canonical_drift(mu_bar, nu_bar, z, tree, drift=drift,
                        drm=drm if drift == "exact" else None)
    schedule = p.get("n_schedule")
    dec = doob_meyer(drm, Y, z, n_schedule=schedule,
                     rel_stop=float(p.get("rel_stop", 1e-8)))
    bound = 2.0 * tree.grid.horizon * (mu_bar * abs(z) + nu_bar * z * z)
    a_T = float(dec.A.terminal.max())
    # For the continuum drift the compensator limit is the drift surplus
    # over the measure's own needs at this z (every CLI measure has a driver).
    surplus = None
    if drift == "continuum":
        surplus = (mu_bar * abs(z) + nu_bar * z * z - float(drm.generator(0.0, z))) \
            * tree.grid.horizon
    report.results = {
        "z": z, "mu_bar": mu_bar, "nu_bar": nu_bar, "drift": drift,
        "n_final": dec.n_final,
        "A_terminal_max": a_T,
        "martingale_gap": dec.martingale_gap,
        "compensator_bound": bound,
        "early_stopped": dec.converged,
    }
    header = ["n", "max_gap", "max_Y_minus_y"]
    rows = [[lv["n"], lv["martingale_gap"], lv["max_target_gap"]]
            for lv in dec.levels]
    report.tables["schedule"] = (header, rows)
    report.summary.append({"check": "martingale_gap_nonincreasing",
                           "passed": dec.gaps_nonincreasing})
    report.summary.append({"check": "compensator_bound", "passed": a_T <= bound})
    if surplus is not None:
        report.results["expected_compensator"] = surplus
        tol = float(p.get("surplus_tol", 0.02))
        ok = abs(a_T - surplus) <= tol * max(abs(surplus), tree.dt)
        report.summary.append({"check": "compensator_matches_surplus",
                               "passed": ok})


def _run_represent(cfg: ScenarioConfig, report: RunReport) -> None:
    tree = _build_tree(cfg, None)
    drm = _build_measure(cfg, tree)
    p = cfg.params
    z_grid = np.linspace(float(p.get("z_lo", -2.0)), float(p.get("z_hi", 2.0)),
                         int(p.get("z_count", 41)))
    t_grid = tuple(float(v) for v in p.get("t_grid", (0.0,)))
    ghat = represent(drm, z_grid, t_grid, precheck=bool(p.get("precheck", True)),
                     seed=cfg.seed)
    g = drm.generator  # every CLI measure has a driver: the reference
    rows = []
    max_err, max_rel = 0.0, 0.0
    for t in t_grid:
        for z in z_grid:
            g_hat, ref = float(ghat(t, float(z))), g(t, float(z))
            err = abs(g_hat - ref)
            max_err = max(max_err, err)
            max_rel = max(max_rel, err / max(abs(ref), 1e-12) if ref else 0.0)
            rows.append([t, float(z), g_hat, ref, err])
    report.tables["generator"] = (["t", "z", "g_hat", "g_ref", "abs_err"], rows)
    report.results = {"flags": sorted(ghat.flags), "kind": ghat.kind,
                      "points": len(rows), "max_abs_err": max_err, "max_rel_err": max_rel}
    tol = float(p.get("rel_tol", 0.02))
    report.summary.append({"check": "represent_completed", "passed": True})
    report.summary.append({"check": "matches_reference", "passed": max_rel <= tol})


def _run_converge(cfg: ScenarioConfig, report: RunReport) -> None:
    if cfg.measure.get("kind") != "entropic":
        raise ConfigError("converge compares the explicit scheme against the "
                          "closed-form entropic solution; use an entropic measure")
    claim = _build_claim(cfg)
    p = cfg.params
    n_values = [int(v) for v in p.get("n_values", (64, 128, 256, 512, 1024))]
    ratio_tol = float(p.get("ratio_tol", 0.2))
    gaps = []
    header = ["steps", "euler_root", "exact_root", "gap", "ratio"]
    rows = []
    for n_steps in n_values:
        tree = _build_tree(replace(cfg, steps=n_steps), claim)
        drm = _build_measure(cfg, tree)
        terminal = -claim.evaluate(tree)
        euler = solve_bsde(drm.generator, terminal, tree).root()
        exact = entropy_exact(drm.generator.nu, terminal, tree).root()
        gap = abs(euler - exact)
        ratio = gaps[-1] / gap if gaps and gap > 0 else ""
        rows.append([n_steps, euler, exact, gap, ratio])
        gaps.append(gap)
    report.tables["convergence"] = (header, rows)
    ratios = [r[4] for r in rows if r[4] != ""]
    report.results = {"n_values": n_values, "gaps": gaps, "ratios": ratios}
    ok = all(abs(r - 2.0) <= 2.0 * ratio_tol for r in ratios)
    report.summary.append({"check": "first_order_halving", "passed": ok})


_RUNNERS = {
    "solve": _run_solve,
    "axioms": _run_axioms,
    "domination": _run_domination,
    "dual": _run_dual,
    "penalize": _run_penalize,
    "represent": _run_represent,
    "converge": _run_converge,
}


def run(cfg: ScenarioConfig) -> RunReport:
    report = RunReport(config=cfg.echo())
    start = time.perf_counter()
    _RUNNERS[cfg.task](cfg, report)
    report.elapsed = time.perf_counter() - start
    return report


def emit(report: RunReport, out_dir: Path, base: str, fmt: str) -> list[Path]:
    """Write the report in the requested format(s); returns written paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("structured", "both"):
        path = out_dir / f"{base}.report.txt"
        path.write_text(render_structured(report.as_document()))
        written.append(path)
    if fmt in ("tabular", "both"):
        for name, (header, rows) in sorted(report.tables.items()):
            path = out_dir / f"{base}.{name}.csv"
            path.write_text(render_csv(header, rows))
            written.append(path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gexpect",
        description="Scenario runner for tree-based nonlinear expectations")
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        tp = sub.add_parser(task, help=f"run a {task} scenario")
        tp.add_argument("--config", required=True, type=Path)
        tp.add_argument("--out", type=Path, default=Path("."))
        tp.add_argument("--format", choices=("tabular", "structured", "both"),
                        default="structured")
        tp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)

    try:
        text = args.config.read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text, str(args.config))
        if cfg.task != args.task:
            raise ConfigError(
                f"config names task {cfg.task!r} but subcommand is {args.task!r}")
        if args.seed is not None:
            cfg.seed = args.seed
        report = run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    base = cfg.out or args.config.stem
    written = emit(report, args.out, base, args.format)
    for item in report.summary:
        print(f"[{cfg.task}] {item['check']}: "
              f"{'PASS' if item['passed'] else 'FAIL'}")
    for path in written:
        print(f"wrote {path}")
    print(f"elapsed: {report.elapsed:.3f}s")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

"""Configuration-driven scenario runner.

One subcommand per task.  A run reads a single JSON configuration file,
dispatches to the named task, and writes a structured text report and/or
CSV tables whose numeric content is byte-identical across reruns of the
same configuration (timing is printed to the console only).  Exit status
is 0 when every check in the run passed, 1 otherwise, 2 for configuration
errors.  The library's result types carry results only; the task runners
here lay them out as report sections and tables.
"""
from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .bsde import entropy_step, euler_step
from .claims import FAMILIES, SAMPLE_KINDS, Claim, from_spec, sample_claims
from .dual import DEFAULT_ADMISSIBILITY_MARGIN, verify_duality
from .generators import BUILTINS, CheckReport, Generator, entropy
from .lattice import FULL, RECOMBINING, auto_layout, backward_reduce, build_tree
from .penalization import DRIFTS, canonical_drift, doob_meyer
from .reporting import Table, write_csv, write_structured
from .risk import (AXIOMS, DynamicRiskMeasure, check_axioms, check_domination,
                   entropic, from_generator, represent, rho_solved)

# The default of a key that must be given: a signature's own marker.
_REQUIRED = inspect.Parameter.empty


def _library_defaults(fn, **kinds) -> dict:
    """Table entries whose defaults are those of ``fn``'s keywords of the same name."""
    params = inspect.signature(fn).parameters
    return {name: (kind, params[name].default) for name, kind in kinds.items()}


# Each key of config.tree, and per task each key of config.params, with its
# type and default.  A type is int, float, bool, a tuple of choices, or a
# one-item list [type] for a JSON array of that type.  The runners fill in
# mu, nu, mu_bar and nu_bar from the measure's growth bounds when None.
_TREE = {"horizon": (float, 1.0), "steps": (int, _REQUIRED),
         "layout": (("auto", FULL, RECOMBINING), "auto"), "depth_cap": (int, None)}
_PARAMS = {
    "solve": {},
    "axioms": {"n_claims": (int, 10), "scale": (float, 0.5),
               "claim_kind": (SAMPLE_KINDS, "leaf"), "expect_fail": ([AXIOMS], ()),
               **_library_defaults(check_axioms, tol=float, depths=[int])},
    "domination": {"mu": (float, None), "nu": (float, None), "n_claims": (int, 10),
                   "scale": (float, 0.5),
                   **_library_defaults(check_domination, thetas=[float], z_grid=[float],
                                       tol=float)},
    "dual": _library_defaults(verify_duality, q_sweep=[float], n_random=int, slack=float),
    "penalize": {"z": (float, 1.0), "mu_bar": (float, None), "nu_bar": (float, None),
                 "surplus_tol": (float, 0.02),
                 **_library_defaults(canonical_drift, drift=DRIFTS),
                 **_library_defaults(doob_meyer, n_schedule=[float], rel_stop=float)},
    "represent": {"z_lo": (float, -2.0), "z_hi": (float, 2.0), "z_count": (int, 41),
                  "rel_tol": (float, 0.02),
                  **_library_defaults(represent, t_grid=[float], precheck=bool)},
    "converge": {"n_values": ([int], (64, 128, 256, 512, 1024)), "ratio_tol": (float, 0.2)},
}
TASKS = tuple(_PARAMS)
# The tasks whose runner reads config.claim.
_CLAIM_TASKS = ("solve", "dual", "converge")

# Measure kinds by the builder of their driver, whose parameters a config
# gives: "entropic" is the exact recursion of the entropy driver (nu
# defaults to 1), every other kind its driver under the explicit scheme.
_DRIVERS = {"entropic": partial(entropy, nu=1.0), **BUILTINS}


class ConfigError(Exception):
    pass


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
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


def _convert(value, kind, where: str):
    """``value`` as ``kind`` (see _PARAMS); a ConfigError naming ``where`` otherwise.

    Only a JSON number is a number (not a string, not a boolean); an int
    must be integral and a float finite.  Only true/false is a bool and only
    a JSON array a list.
    """
    if isinstance(kind, list) and isinstance(value, list):
        return [_convert(v, kind[0], f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(kind, tuple) and value in kind or kind is bool and isinstance(value, bool):
        return value
    if kind in (int, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = kind(value)
        except (ValueError, OverflowError):  # int() of a non-finite, float() of a huge int
            pass
        else:
            if number == value if kind is int else math.isfinite(number):
                return number
    expected = ("a list" if isinstance(kind, list) else
                f"one of {list(kind)}" if isinstance(kind, tuple) else
                {int: "an integer", float: "a number", bool: "true or false"}[kind])
    raise ConfigError(f"{where} must be {expected}, got {value!r}")


def _typed(section: dict, table: dict, where: str, scope: str = "") -> dict:
    """Every key of ``table`` (see _PARAMS) read from ``section`` and converted,
    or its default; a key whose default is _REQUIRED must be given."""
    _reject_unknown(section, table, where + scope)
    for name, (_, default) in table.items():
        if default is _REQUIRED:
            _require(section, name, where)
    return {name: _convert(section[name], kind, f"{where}.{name}") if name in section
            else default for name, (kind, default) in table.items()}


def _kind_params(section: dict, kinds: dict, where: str) -> dict:
    """The section's kind and the parameters of its builder, as floats."""
    kind = _convert(_require(section, "kind", where), tuple(sorted(kinds)), f"{where}.kind")
    params = inspect.signature(kinds[kind]).parameters
    return _typed(section, {"kind": (tuple(kinds), _REQUIRED),
                            **{name: (float, p.default) for name, p in params.items()}}, where)


@dataclass
class ScenarioConfig:
    horizon: float
    steps: int
    layout: str
    depth_cap: int | None
    measure: dict  # the kind and its typed parameters
    claim: dict | None
    task: str
    params: dict  # every parameter of the task, typed, defaults filled in
    seed: int
    out: str | None
    given: dict  # the measure, claim and params sections as written

    def echo(self) -> dict:
        return {
            "tree": {"horizon": self.horizon, "steps": self.steps,
                     "layout": self.layout,
                     **({"depth_cap": self.depth_cap} if self.depth_cap else {})},
            "measure": self.given["measure"],
            **({"claim": self.given["claim"]} if self.claim else {}),
            "task": self.task,
            "params": self.given["params"],
            "seed": self.seed,
        }


def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse, convert and validate one JSON scenario; all errors carry a location."""
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

    tree = _typed(_section(raw, "tree", required=True), _TREE, "config.tree")
    for name in ("horizon", "steps", "depth_cap"):
        if tree[name] is not None and not tree[name] > 0:
            raise ConfigError(f"config.tree.{name} must be positive, got {tree[name]}")
    measure = _section(raw, "measure", required=True)
    kind_params = _kind_params(measure, _DRIVERS, "config.measure")
    try:
        _driver(kind_params)
    except ValueError as exc:
        raise ConfigError(f"config.measure must be a valid {kind_params['kind']} measure: "
                          f"{exc}") from None
    claim = _section(raw, "claim")
    task = _convert(_require(raw, "task", "config"), TASKS, "config.task")
    params = _section(raw, "params") or {}
    typed = _typed(params, _PARAMS[task], "config.params", f" ({task})")
    # Counts below these leave a check nothing to compare, or nothing to read.
    for name, least in (("n_claims", 1), ("z_count", 2), ("n_random", 0)):
        if typed.get(name, least) < least:
            raise ConfigError(f"config.params.{name} must be at least {least}, got {typed[name]}")
    if task == "represent" and typed["z_lo"] == typed["z_hi"]:
        raise ConfigError(f"config.params.z_hi must be different from z_lo, got {typed['z_hi']}")
    # Values the library would reject only once the run has started.  A
    # constant density q is admissible while |q| sqrt(dt) <= 1 - the margin.
    sqrt_dt = math.sqrt(tree["horizon"] / tree["steps"])
    q_cap = 1.0 - DEFAULT_ADMISSIBILITY_MARGIN
    for name, ok, expected in (
            ("n_schedule", lambda v: v > 0.0, "positive"),
            ("depths", lambda v: 0 <= v <= tree["steps"], f"in [0, {tree['steps']}]"),
            ("thetas", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
            ("q_sweep", lambda v: abs(v) * sqrt_dt <= q_cap,
             f"at most {q_cap / sqrt_dt:.10g} in absolute value "
             f"(|q| sqrt(dt) <= 1 - {DEFAULT_ADMISSIBILITY_MARGIN:g})")):
        for i, value in enumerate(typed.get(name) or ()):
            if not ok(value):
                raise ConfigError(f"config.params.{name}[{i}] must be {expected}, got {value}")
    for name in ("n_schedule", "t_grid"):
        if typed.get(name) == []:
            raise ConfigError(f"config.params.{name} must be a non-empty list, got []")
    # A zero scale zeroes every claim (a vacuous pass); a tolerance <= 0 fails its check.
    for name in ("scale", "tol", "slack", "rel_tol", "surplus_tol", "ratio_tol"):
        if typed.get(name, 1.0) <= 0.0:
            raise ConfigError(f"config.params.{name} must be positive, got {typed[name]}")
    if task == "converge" and len(typed["n_values"]) < 2:
        raise ConfigError("config.params.n_values must be a list of at least two step counts "
                          f"to form a ratio, got {typed['n_values']}")
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"config.out must be a string, got {out!r}")
    cfg = ScenarioConfig(
        **tree,
        measure=kind_params,
        claim=None if claim is None else _kind_params(claim, FAMILIES, "config.claim"),
        task=task,
        params=typed,
        seed=_convert(raw.get("seed", 0), int, "config.seed"),
        out=out,
        given={"measure": measure, "claim": claim, "params": params},
    )
    # Build the trees the task will run on (a tree holds no slices until read),
    # so a depth cap or a layout the claim cannot ride is a configuration error.
    built = _build_claim(cfg) if task in _CLAIM_TASKS else None
    for steps in typed["n_values"] if task == "converge" else [cfg.steps]:
        try:
            _build_tree(replace(cfg, steps=steps), built)
        except ValueError as exc:
            raise ConfigError(f"config.tree: {exc}") from None
    return cfg


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
            "tables": {name: Table(header, rows)
                       for name, (header, rows) in self.tables.items()},
            "summary": self.summary,
            "passed": self.passed,
        }


def _build_tree(cfg: ScenarioConfig, claim: Claim | None):
    path_independent = claim.path_independent if claim else True
    if cfg.layout == "auto":
        return auto_layout(cfg.horizon, cfg.steps, path_independent, cfg.depth_cap)
    if cfg.layout == RECOMBINING and not path_independent:
        raise ValueError(f"claim {claim.label!r} is path dependent and needs the full layout")
    return build_tree(cfg.horizon, cfg.steps, cfg.layout, cfg.depth_cap)


def _driver(measure: dict) -> Generator:
    """The driver that a measure section's kind and parameters build."""
    spec = dict(measure)
    return _DRIVERS[spec.pop("kind")](**spec)


def _build_measure(cfg: ScenarioConfig, tree) -> DynamicRiskMeasure:
    g = _driver(cfg.measure)
    return entropic(g.nu, tree) if cfg.measure["kind"] == "entropic" else from_generator(g, tree)


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
    solved = rho_solved(drm, claim, keep=0)
    report.results = {
        "rho_root": solved.root(),
        "scheme": solved.scheme,
        "monotone_step": solved.monotone_step,
        "step_bound": solved.step_bound,
        "warnings": list(solved.warnings),
    }
    header = ["depth", "time", "y_min", "y_max", "z_min", "z_max"]
    rows = [[k, k * tree.dt, y_min, y_max, "" if z_min is None else z_min,
             "" if z_max is None else z_max]
            for k, (y_min, y_max, z_min, z_max) in enumerate(solved.profile())]
    report.tables["profile"] = (header, rows)
    report.summary.append({"check": "solve_completed", "passed": True})
    report.summary.append({"check": "no_warnings",
                           "passed": not solved.warnings})


def _record_suite(report: RunReport, table: str, prefix: str, name_key: str,
                  rep: CheckReport, echo: dict, expect_fail=()) -> None:
    """Table, results and one summary line per check of a check suite.

    Each check is one row of the table, and the same row under the same
    keys, with its witness, is its entry in the results; there the check's
    name goes under ``name_key``, and ``echo``, the suite inputs, is printed
    before the verdict."""
    header = [name_key, "status", "max_gap", "tol", "comparisons"]
    rows, checks = [], []
    for c in rep.checks.values():
        rows.append([c.name, c.status, c.max_gap, c.tol, c.comparisons])
        checks.append({**dict(zip(header, rows[-1])),
                       **{f"witness_{k}": v for k, v in (c.witness or {}).items()}})
        if c.name in expect_fail:
            report.summary.append({"check": f"{prefix}_{c.name}_fails_as_expected",
                                   "passed": c.status == "fail"})
        else:
            report.summary.append({"check": f"{prefix}_{c.name}",
                                   "passed": c.status != "fail"})
    report.tables[table] = (header, rows)
    report.results = {"source": rep.label, **echo, "passed": rep.passed, "checks": checks}


def _suite_inputs(cfg: ScenarioConfig, claim_kind: str):
    """Measure and seeded claim suite of an axioms or domination run."""
    tree = _build_tree(cfg, None)
    drm = _build_measure(cfg, tree)
    claims = sample_claims(tree, cfg.params["n_claims"], cfg.seed,
                           kind=claim_kind, scale_to=cfg.params["scale"])
    return drm, claims


def _run_axioms(cfg: ScenarioConfig, report: RunReport) -> None:
    p = cfg.params
    drm, claims = _suite_inputs(cfg, p["claim_kind"])
    rep = check_axioms(drm, claims, seed=cfg.seed, depths=p["depths"], tol=p["tol"])
    _record_suite(report, "axioms", "axiom", "axiom", rep, {}, p["expect_fail"])


def _run_domination(cfg: ScenarioConfig, report: RunReport) -> None:
    p = cfg.params
    drm, claims = _suite_inputs(cfg, "mixture")
    mu = drm.bounds[0] if p["mu"] is None else p["mu"]
    nu = drm.bounds[1] if p["nu"] is None else p["nu"]
    rep = check_domination(drm, mu, nu, claims, thetas=p["thetas"], z_grid=p["z_grid"],
                           tol=p["tol"])
    _record_suite(report, "domination", "domination", "check", rep, {"mu": mu, "nu": nu})


def _run_dual(cfg: ScenarioConfig, report: RunReport) -> None:
    claim = _build_claim(cfg)
    tree = _build_tree(cfg, claim)
    drm = _build_measure(cfg, tree)
    rep = verify_duality(drm, claim, seed=cfg.seed, **cfg.params)
    header = ["q_param", "dual_value", "gap", "feasible"]
    rows = [[r["density"], r["value"], r.get("gap", ""), r["feasible"]]
            for r in rep.rows]
    report.tables["dual_sweep"] = (header, rows)
    report.results = {
        "source": rep.label, "rho_root": rep.rho_root, "penalty": rep.penalty,
        "optimal_gap": rep.optimal_gap, "weak_duality_ok": rep.weak_duality_ok,
        "passed": rep.passed, "sweep": rep.rows,
    }
    report.summary.append({"check": "weak_duality", "passed": rep.weak_duality_ok})
    report.summary.append({"check": "duality_attained", "passed": rep.passed})


def _run_penalize(cfg: ScenarioConfig, report: RunReport) -> None:
    tree = _build_tree(cfg, None)
    drm = _build_measure(cfg, tree)
    p = cfg.params
    z, drift = p["z"], p["drift"]
    mu_bar = max(drm.bounds[0], 1.0) if p["mu_bar"] is None else p["mu_bar"]
    nu_bar = drm.bounds[1] if p["nu_bar"] is None else p["nu_bar"]
    Y = canonical_drift(mu_bar, nu_bar, z, tree, drift=drift,
                        drm=drm if drift == "exact" else None)
    dec = doob_meyer(drm, Y, z, n_schedule=p["n_schedule"], rel_stop=p["rel_stop"])
    bound = 2.0 * tree.grid.horizon * (mu_bar * abs(z) + nu_bar * z * z)
    a_T = float(dec.A.terminal.max())
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
    # For the continuum drift the compensator limit is the drift surplus
    # over the measure's own needs at this z (every CLI measure has a driver).
    if drift == "continuum":
        surplus = (mu_bar * abs(z) + nu_bar * z * z - float(drm.generator(0.0, z))) \
            * tree.grid.horizon
        report.results["expected_compensator"] = surplus
        ok = abs(a_T - surplus) <= p["surplus_tol"] * max(abs(surplus), tree.dt)
        report.summary.append({"check": "compensator_matches_surplus",
                               "passed": ok})


def _run_represent(cfg: ScenarioConfig, report: RunReport) -> None:
    tree = _build_tree(cfg, None)
    drm = _build_measure(cfg, tree)
    p = cfg.params
    z_grid = np.linspace(p["z_lo"], p["z_hi"], p["z_count"])
    ghat = represent(drm, z_grid, p["t_grid"], precheck=p["precheck"], seed=cfg.seed)
    g = drm.generator  # every CLI measure has a driver: the reference
    rows = []
    max_err, max_rel = 0.0, 0.0
    for t in p["t_grid"]:
        for z, g_hat, ref in zip(z_grid.tolist(), ghat(t, z_grid).tolist(), g(t, z_grid).tolist()):
            err = abs(g_hat - ref)
            max_err = max(max_err, err)
            max_rel = max(max_rel, err / max(abs(ref), 1e-12) if ref else 0.0)
            rows.append([t, z, g_hat, ref, err])
    report.tables["generator"] = (["t", "z", "g_hat", "g_ref", "abs_err"], rows)
    report.results = {"flags": sorted(ghat.flags), "kind": ghat.kind,
                      "points": len(rows), "max_abs_err": max_err, "max_rel_err": max_rel}
    report.summary.append({"check": "represent_completed", "passed": True})
    report.summary.append({"check": "matches_reference", "passed": max_rel <= p["rel_tol"]})


def _run_converge(cfg: ScenarioConfig, report: RunReport) -> None:
    if cfg.measure["kind"] != "entropic":
        raise ConfigError("converge compares the explicit scheme against the "
                          "closed-form entropic solution; use an entropic measure")
    claim = _build_claim(cfg)
    n_values, ratio_tol = cfg.params["n_values"], cfg.params["ratio_tol"]
    gaps = []
    header = ["steps", "euler_root", "exact_root", "gap", "ratio"]
    rows = []
    for n_steps in n_values:
        tree = _build_tree(replace(cfg, steps=n_steps), claim)
        drm = _build_measure(cfg, tree)
        terminal = -claim.evaluate(tree)
        # Bare reductions: only the roots are read, so no Z and no profile.
        euler = backward_reduce(tree, terminal, euler_step(drm.generator, tree),
                                keep=0).root()
        exact = backward_reduce(tree, terminal, entropy_step(drm.generator.nu),
                                keep=0).root()
        gap = abs(euler - exact)
        ratio = gaps[-1] / gap if gaps and gap > 0 else ""
        rows.append([n_steps, euler, exact, gap, ratio])
        gaps.append(gap)
    report.tables["convergence"] = (header, rows)
    ratios = [r[4] for r in rows if r[4] != ""]
    report.results = {"n_values": n_values, "gaps": gaps, "ratios": ratios}
    # Every gap 0 (a claim both schemes solve exactly) leaves no ratio, and
    # a check that compared nothing does not pass.
    ok = bool(ratios) and all(abs(r - 2.0) <= 2.0 * ratio_tol for r in ratios)
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
    """Write the report in the requested format(s); returns written paths.
    Each file is written as it is rendered, never held as one string."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("structured", "both"):
        path = out_dir / f"{base}.report.txt"
        with path.open("w") as out:
            write_structured(report.as_document(), out)
        written.append(path)
    if fmt in ("tabular", "both"):
        for name, (header, rows) in sorted(report.tables.items()):
            path = out_dir / f"{base}.{name}.csv"
            with path.open("w") as out:
                write_csv(header, rows, out)
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

"""Golden files: CLI output of every task, byte for byte.

Each ``tests/data/<name>.json`` config runs through ``gexpect`` with
``--format both``; the structured report and every CSV table it writes must
equal the committed ``tests/data/<name>.*`` files.  These configs use the
explicit scheme (no exp/log in the solves).  The four suite configs are
full N=6 trees and between them cover ``fail`` checks with witnesses,
``skipped`` axioms, a ``skipped`` envelope and an envelope ``fail`` with a
witness.  ``dual_call`` sweeps conjugate-penalized dual values on a full
N=6 tree, ``dual_recombining`` on a recombining N=120 tree, where every
row but the selection is a constant density.  ``penalize_recombining``
runs the penalization schedule on a recombining N=40 tree.  ``penalize_full_exact`` and ``penalize_full_stop``
run it on a full N=8 tree and stop early: the exact drift at the first
level with a -0 target gap, the continuum drift at level 256 of the
default schedule.  The two ``solve`` configs write the per-depth
profile of a recombining N=40 solve: ``solve_recombining`` has -0 terminal
values, ``solve_overflow`` an explicit scheme that overflows, so its
profile runs from finite rows through inf to NaN and its certificate bound
is NaN.  The ``represent`` configs read the driver of a measure back on
41 z points at t = 0 and 0.5: ``represent_recombining`` a quadratic
driver on a recombining N=64 tree, ``represent_full_scaled_abs`` the
sublinear |z| driver on a full N=8 tree.

``converge_entropic``, ``represent_entropic``, ``dual_entropic`` (the
entropic sweep on a full N=10 tree, penalized by the discrete relative
entropy, with its random rows and the selection of the exact recursion's
own driver, which attains rho_0 to rounding) and ``solve_entropic`` (the
profile and certificate of an entropic solve on a recombining N=40 tree,
``scheme: entropy_exact``) go through the exact entropic recursion, whose
exp/log may differ in the last bit between numpy builds; their files must
match token for token, numbers to 1e-9 relative.
"""
import re
from contextlib import nullcontext
from pathlib import Path

import pytest

from gexpect.cli import main

DATA = Path(__file__).parent / "data"

# config name -> (subcommand, expected exit code)
CASES = {
    "axioms_fail": ("axioms", 1),
    "axioms_skipped": ("axioms", 1),
    "domination_skipped": ("domination", 0),
    "domination_fail": ("domination", 1),
    "dual_call": ("dual", 0),
    "dual_recombining": ("dual", 0),
    "penalize_recombining": ("penalize", 0),
    "penalize_full_exact": ("penalize", 0),
    "penalize_full_stop": ("penalize", 0),
    "solve_recombining": ("solve", 0),
    "solve_overflow": ("solve", 1),
    "represent_recombining": ("represent", 0),
    "represent_full_scaled_abs": ("represent", 0),
}

# Configs through the exact entropic recursion (see above): config name ->
# subcommand.  Each exits 0.
ROUNDED = {
    "converge_entropic": "converge",
    "represent_entropic": "represent",
    "dual_entropic": "dual",
    "solve_entropic": "solve",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_and_tables_match_golden_files(name, tmp_path):
    task, code = CASES[name]
    # The overflowing scheme meets inf and inf - inf, and numpy warns of both.
    with pytest.warns(RuntimeWarning) if name == "solve_overflow" else nullcontext():
        written = _written(name, task, code, tmp_path)
    for file_name in written:
        assert (tmp_path / file_name).read_bytes() == (DATA / file_name).read_bytes(), \
            file_name


def _written(name, task, code, out_dir):
    """Run one config; the names of the files it writes, which must be the golden ones."""
    assert main([task, "--config", str(DATA / f"{name}.json"),
                 "--out", str(out_dir), "--format", "both"]) == code
    written = sorted(p.name for p in out_dir.iterdir())
    expected = sorted(p.name for p in DATA.glob(f"{name}.*")
                      if p.suffix in (".txt", ".csv"))
    assert written == expected
    return written


_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:e[-+]?\d+)?|nan|inf)")


@pytest.mark.parametrize("name", sorted(ROUNDED))
def test_report_and_tables_match_golden_files_to_rounding(name, tmp_path):
    for file_name in _written(name, ROUNDED[name], 0, tmp_path):
        got, want = ((d / file_name).read_text() for d in (tmp_path, DATA))
        assert _NUMBER.split(got) == _NUMBER.split(want), file_name
        assert [float(x) for x in _NUMBER.findall(got)] == pytest.approx(
            [float(x) for x in _NUMBER.findall(want)], rel=1e-9, abs=0.0), file_name

"""Golden files: CLI output of the check suites, duality and penalization, byte for byte.

Each ``tests/data/<name>.json`` config runs through ``gexpect`` with
``--format both``; the structured report and every CSV table it writes must
equal the committed ``tests/data/<name>.*`` files.  All configs use the
explicit scheme (no exp/log in the solves).  The four suite configs are
full N=6 trees and between them cover ``fail`` checks with witnesses,
``skipped`` axioms, a ``skipped`` envelope and an envelope ``fail`` with a
witness.  ``dual_call`` sweeps conjugate-penalized dual values on a full
N=6 tree; ``penalize_recombining`` runs the penalization schedule on a
recombining N=40 tree.
"""
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
    "penalize_recombining": ("penalize", 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_and_tables_match_golden_files(name, tmp_path):
    task, code = CASES[name]
    assert main([task, "--config", str(DATA / f"{name}.json"),
                 "--out", str(tmp_path), "--format", "both"]) == code
    written = sorted(p.name for p in tmp_path.iterdir())
    expected = sorted(p.name for p in DATA.glob(f"{name}.*")
                      if p.suffix in (".txt", ".csv"))
    assert written == expected
    for file_name in written:
        assert (tmp_path / file_name).read_bytes() == (DATA / file_name).read_bytes(), \
            file_name

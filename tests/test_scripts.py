"""Smoke runs of the scripts under ``scripts/``, each on its smallest setting."""
import csv
import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script: str, *args, cwd: Path) -> None:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_run_matrix_then_iteration_curves(tmp_path):
    matrix = tmp_path / "matrix"
    _run("run_matrix.py", "--out", matrix, "--sizes", "small", "--seeds", 1, "--algos", "init-only", cwd=tmp_path)
    rows = _rows(matrix / "matrix.csv")
    # one mactp and one collecting instance: a run row and an aggregate row each
    assert sorted(row["kind"] for row in rows) == ["aggregate", "aggregate", "run", "run"]
    assert {row["family"] for row in rows} == {"mactp", "collecting"}

    curves = tmp_path / "curves"
    _run("iteration_curves.py", matrix / "mactp-n3-a2-e5-s0.json", "--out", curves, "--seeds", 1, cwd=tmp_path)
    report = json.loads((curves / "seed0" / "report.json").read_text(encoding="utf-8"))
    # the init row, then one row per best-response iteration
    rows = _rows(curves / "curves.csv")
    assert len(rows) == 1 + len(report["iterations"]) > 1
    assert float(rows[-1]["value"]) == report["final_value"]

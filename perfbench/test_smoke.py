"""The benchmark's own tests: smoke mode conforms to BENCHMARK.json, and the
benchmark refuses to run without the program's sources.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "perfbench/run.py"]


def test_smoke_runs_every_workload_and_matches_the_schema():
    p = subprocess.run(RUN + ["--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stdout + p.stderr
    lines = [ln for ln in p.stdout.splitlines() if ln.startswith("smoke ")]
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert len(lines) == 2 * len(workloads)
    assert all(ln.endswith(" ok") for ln in lines), p.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(RUN + ["--workload", "adapted", "--seed", "1", "--seconds", "1",
                              "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout

"""Smoke tests of the benchmark itself, at the ``--smoke`` sizes.

Each runs ``perfbench/run.py`` as the benchmark contract does and checks
the shape of its last output line against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload", [w["name"] for w in DECLARED["workloads"]]
)
def test_traced_smoke_run_reports_every_layer(workload):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in DECLARED["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    # The spans are readable by the repo's own trace tooling.
    from repro.telemetry import read_events

    events = read_events(ROOT / ".perfbench" / f"trace-{workload}-3")
    assert {ev["name"] for ev in events} >= {"leg", "client.submit"}


def test_untraced_smoke_run_reports_end_to_end_metrics():
    done = run_bench("--workload", "paper-mix", "--seed", "4", "--seconds",
                     "1", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    metrics = last_json(done.stdout)["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in DECLARED["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "paper-mix", "--seed", "1", "--seconds",
                     "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

"""The benchmark harness runs every workload BENCHMARK.json declares.

Each workload runs as `benchmarks/run.py` runs it, in a subprocess from
the repository root, for one short seed. The harness is not imported:
it pins the BLAS thread count in os.environ at import, which would leak
into the subprocesses other tests start.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_and_reports_every_metric(workload):
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
    assert {m["name"] for m in BENCHMARK["end_to_end"]} <= set(result["metrics"])

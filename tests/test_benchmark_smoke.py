"""The benchmark harness still runs and checks its answers against the
library: its tracer reads `UniformityReport.subsets` and its workloads read
every `SubsetReport` field, so a change to the report types shows here.
catalog and bush_k3 build arrays through the field constructions and check
`oa verify` against the theory of each construction."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["hadamard_k2", "sign_repair", "catalog",
                                      "bush_k3"])
def test_quick_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result

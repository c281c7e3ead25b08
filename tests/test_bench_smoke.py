"""The benchmark worker's output: one JSON line on stdout per pass.

``bench/run.py`` reads the last stdout line of each worker as its
result, so anything the library prints on stdout breaks the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


# Search node counts at the default seeds; they do not depend on the
# machine.  The embedding counts depend on ``generating_set`` too.
PINNED_COUNTS = {
    "models5": {"oracle.enumerate_axiom_models.nodes": 1_662},
    "large": {
        "oracle.brute_force_embedding.nodes": 62_995,
        "represent.completeness_report.subsets": 2_448,
    },
    "corpus200": {"oracle.brute_force_embedding.nodes": 6_052},
}


@pytest.mark.parametrize("workload, seed", [("models5", 0), ("large", 1), ("corpus200", 74)])
def test_worker_prints_one_json_result(workload, seed):
    result = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 1 and result.stdout == lines[0] + "\n", result.stdout[:500]
    record = json.loads(lines[0])
    assert record["checked"] > 0
    assert record["failures"] == []
    pinned = PINNED_COUNTS[workload]
    assert {key: record["counts"][key] for key in pinned} == pinned

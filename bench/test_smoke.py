"""Schema-only smoke check of the benchmark.

Runs the smallest workload briefly and checks the shape of its result line
against ``BENCHMARK.json``.  It never looks at wall time.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def _run(root: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload",
           "catalog_sweep", "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_spec(trace, section):
    with open(SPEC) as fh:
        spec = json.load(fh)
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    units = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_fails_without_sources(tmp_path):
    shutil.copy(SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(str(tmp_path), 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

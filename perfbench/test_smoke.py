"""Smoke tests of the benchmark itself, at reduced size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*extra: str, cwd: pathlib.Path = ROOT, workload: str = "campaign_clean",
          trace: int = 0) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
        "--seconds", "1", "--trace", str(trace), "--smoke", *extra,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_and_every_check_passes(workload, trace):
    result = result_of(bench(workload=workload, trace=trace))
    kind = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    if not trace:
        assert result["metrics"]["success_share"]["value"] == 1.0


def test_tampered_digest_lowers_success_share(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    expected["smoke"]["campaign_clean"]["11"]["content_digest"] = "0" * 64
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    result = result_of(bench("--expected", str(tampered)))
    assert not result["correct"] and result["failed"] > 0
    # One wrong digest per pass is not diluted by the served responses.
    assert result["metrics"]["success_share"]["value"] < 0.99


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

"""Bench-local tests: a tiny-size run of each workload passes its checks and
prints exactly the metrics BENCHMARK.json declares.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *BENCH["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_checks_and_prints_declared_metrics(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    for key in ("nproc", "numpy", "blas", "blas_threads", "python", "git_revision", "seed"):
        assert key in report["machine"]


def test_declared_names_are_unique_and_well_formed():
    names = [w["name"] for w in BENCH["workloads"]] + \
        [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(m["bound"] <= 0.25 for m in BENCH["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children():
    sys.path.insert(0, str(HERE))
    from spans import Tracer

    t = Tracer("test")
    t.spans = [["bench.step", 0, 100, -1], ["models.forward", 10, 40, 0],
               ["nn.backward", 40, 90, 0], ["nn.inner", 50, 60, 2]]
    assert t.self_ns() == [20, 30, 40, 10]
    assert t.self_s_by_layer() == pytest.approx({"bench": 20e-9, "models": 30e-9, "nn": 50e-9})


def test_tail_has_ten_samples_beyond_it():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from pipeline import tail

    pct, value = tail(list(range(30)))
    assert value == 19 and sum(v > value for v in range(30)) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert tail([3, 1, 2]) == (100.0, 3.0)

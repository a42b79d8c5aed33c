"""Smoke test for the benchmark: tiny runs of every workload, plain and traced.

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(bench: Path, cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(bench), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_every_declared_metric(workload, trace):
    p = run_bench(HERE / "bench.py", ROOT, workload, trace)
    assert p.returncode == 0, p.stdout[-3000:] + p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert m["better"] in ("higher", "lower")
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())

    summary = next(line for line in lines if line.startswith("workload "))
    assert int(re.search(r"(\d+) checks", summary).group(1)) > 0


def test_output_checks_catch_a_wrong_answer(monkeypatch):
    """A counter whose counts rise with kappa must fail the infer workload's checks."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from types import SimpleNamespace

    import workloads as W
    from countgrad.model import CountModel, ModelConfig

    model = CountModel.create(ModelConfig(seed=0))
    original = CountModel.thresholded_count
    monkeypatch.setattr(
        CountModel, "thresholded_count",
        lambda self, image, cat, kappa: original(self, image, cat, kappa) + kappa,
    )
    rt = W.Runner(W.HostProbe())
    ctx = SimpleNamespace(sizes=W.SIZES["tiny"], seed=3, model=model)
    W.infer_request(rt, ctx, 0)
    rt.end_request()
    assert 1 <= rt.failed <= rt.attempted
    assert any("threshold_sweep" in p for p in rt.problems)


def test_fails_without_program_sources(tmp_path):
    """With only BENCHMARK.json and this directory, the run exits non-zero with no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    p = run_bench(tmp_path / HERE.name / "bench.py", tmp_path, WORKLOADS[0], 0)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout

"""The benchmark's own test: every workload on tiny inputs, untraced and traced.

Run with ``python3 -m pytest perfbench``.  It checks the output contract
(every metric named in BENCHMARK.json is printed by name with its unit, the
last line is the result object) and that no operation fails.  Timings are
not checked.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_smoke(workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0"]
    cmd += ["--seconds", "3", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    lines = run_smoke(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        printed = [line for line in lines if line.startswith(f"metric {metric['name']} ")]
        assert len(printed) == 1 and printed[0].split()[3] == metric["unit"]
    assert any(line.startswith("metric failed_share 0.0 share") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"git_sha", "python", "cpu_count", "seed", "loadavg_start", "loadavg_end"} <= set(env)
    if workload == "analyze" and not trace:
        for name in ("latency_p50_ms", "latency_tail_ms"):
            assert any(line.startswith(f"metric {name} ") and line.endswith(" ms") for line in lines)


def test_tracer_lists_missing_names_as_absent():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import difflocal.cli  # noqa: F401  (loads every module the tracer patches)
    import difflocal.exactlin as exactlin
    from tracer import TRACED, Tracer

    original = exactlin.residue
    tracer = Tracer(TRACED + (("exactlin.gone", "difflocal.exactlin", "gone"),))
    tracer.install()
    try:
        assert exactlin.residue is not original
        exactlin.residue(exactlin.reduce([(1, -1, 0)]), (0, 1, -1))
    finally:
        tracer.uninstall()
    assert exactlin.residue is original
    assert tracer.absent == ["exactlin.gone"]
    metrics = tracer.layer_metrics()
    assert metrics["exactlin.residue.calls"] == (1, "count")
    assert not any(name.startswith("exactlin.gone") for name in metrics)

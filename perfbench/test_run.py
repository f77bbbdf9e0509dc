"""The benchmark's own test: smoke-size runs of every workload.

    python3 -m pytest perfbench/test_run.py -q

Each workload runs untraced and traced on 32^3 inputs with three optimizer
iterations a level.  The test checks the result line against
BENCHMARK.json, that every named end-to-end metric is printed with its unit,
that the same seed gives the same inputs, and that the benchmark refuses to
run without the library.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Every end-to-end metric the benchmark prints for each workload, with its unit.
NAMED = {
    "setup_s": "s",
    "register_s.p50": "s",
    "register_s.tail": "s",
    "samples_per_s": "1/s",
    "samples_per_ref": "1/ref",
    "max_tre_mm.p50": "mm",
    "fail_rate": "ratio",
    "train_s": "s",
    "q_evals_per_s": "1/s",
    "train_q_mm2": "mm2",
    "peak_rss_mb": "MB",
    "call_ref.p50": "ref",
    "ref_s.p50": "s",
}


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def runs():
    out = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            proc = _run(w, trace)
            assert proc.returncode == 0, proc.stderr
            out[w, trace] = proc.stdout.splitlines()
    return out


def _result(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_spec(runs, workload, trace, section):
    metrics = _result(runs[workload, trace])["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for v in metrics.values():
        assert isinstance(v["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_printed_with_unit(runs, workload):
    printed = {}
    for line in runs[workload, 0]:
        if line.startswith("metric "):
            _, name, _value, unit = line.split("  (")[0].split(" ")
            printed[name] = unit
    assert printed == NAMED


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(runs, workload):
    inputs = [[line for line in runs[workload, t] if line.startswith("input ")] for t in (0, 1)]
    assert inputs[0] and inputs[0] == inputs[1]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

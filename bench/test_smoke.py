"""Smoke tests of the benchmark itself: all four workloads, traced and
untraced, at tiny trial counts, in well under a minute.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    # Untraced at the reference seed, traced at another seed (invariants only).
    seed = wl.DEFAULT_SEED if trace == 0 else wl.DEFAULT_SEED + 1
    proc = _run(["--smoke", "--workload", workload, "--seed", str(seed),
                 "--seconds", "0", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stdout
    assert result["correct"] is True
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name
        assert f"{name} = " in proc.stdout


def test_layer_map_names_exist():
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        table = json.load(fh)["table"]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert workloads == set(wl.WORKLOADS)
    for row in table:
        assert set(row["layer_metrics"]) <= per_layer, row
        assert set(row["moves"]) <= end_to_end, row
        assert {row["on"], *row["bypass"]} <= workloads, row


def test_wrong_estimate_fails_the_check(tmp_path):
    """A row whose pfa_hat moved far from the reference fails at DEFAULT_SEED."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = wl.Workload("flat-scan", wl.DEFAULT_SEED, str(tmp_path),
                           smoke=False, threads=1)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref_line = json.load(fh)["flat-scan"]["flat_kt.csv"].splitlines()[1]
    assert workload._row_ok(ref_line, ref_line, exact_rows=False)
    row = ref_line.split(",")
    pfa = float(row[8])
    row[8] = repr(1.0 - pfa)
    row[9], row[10] = repr(min(1.0 - pfa, 0.0)), repr(max(1.0 - pfa, 1.0))
    row[14] = repr(1.0 - pfa + float(row[11]))
    assert not workload._row_ok(",".join(row), ref_line, exact_rows=False)


def test_fails_without_the_program(tmp_path):
    """Run where only BENCHMARK.json and the benchmark exist: no result, exit != 0."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "flat-scan", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

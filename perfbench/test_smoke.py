"""Smoke test of the benchmark itself, at a tiny run length.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that BENCHMARK.json is well formed, that every workload prints
exactly the metrics BENCHMARK.json names (each with its unit) in both
modes, that the correctness gate trips on a seeded failure, and that
the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: explore-3pc stays runnable but is not in BENCHMARK.json (see README.md).
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]] + ["explore-3pc"]


def bench(*args: str, cwd: Path = ROOT, timeout: float = 300) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def result_line(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_contract_is_well_formed():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= CONTRACT["run_seconds"] <= 60
    listed = [w["name"] for w in CONTRACT["workloads"]]
    assert 2 <= len(listed) <= 8
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += listed
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {}
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(bounds.values())
    for path in CONTRACT["paths"]:
        assert (ROOT / path).is_dir()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    keep = ("--keep",) if trace == "1" and workload.startswith("commit-") else ()
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, *keep)
    assert done.returncode == 0, done.stdout + done.stderr
    if keep:
        # Every traced site and the client wrote their spans at exit.
        kept = ROOT / ".perfbench-data" / f"{workload}-seed3-trace1"
        try:
            written = sorted(kept.glob("traced/spans-*.json"))
            assert len(written) == 4, written
            for path in written:
                doc = json.loads(path.read_text())
                assert doc["names"] and doc["spans"], path
        finally:
            shutil.rmtree(kept, ignore_errors=True)
    result = result_line(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = CONTRACT["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
    if trace == "0":
        for name, printed in result["metrics"].items():
            assert printed["value"] > 0, name


def test_gate_trips_on_a_no_vote():
    done = bench("--workload", "commit-2pc", "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--vote-no", "2")
    assert done.returncode != 0
    result = result_line(done)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "failed_frac: 1 " in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in CONTRACT["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

"""Smoke test for the end-to-end benchmark on the ``tiny`` preset.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py

Runs every workload once untraced and once traced at ``--scale
smoke`` (well under a minute in total) and checks the benchmark's own
contract: every metric named in ``BENCHMARK.json`` is emitted, finite
and in its unit; every layer the trace attributes time to has metrics;
a corrupted output byte fails the run; and the benchmark refuses to
run without the sources it measures.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"),
         "--scale", "smoke", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _check_metrics(emitted: dict, declared: list) -> None:
    assert set(emitted) == {m["name"] for m in declared}
    for metric in declared:
        value = emitted[metric["name"]]
        assert value["unit"] == metric["unit"], metric["name"]
        assert isinstance(value["value"], (int, float)), metric["name"]
        assert math.isfinite(value["value"]), metric["name"]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "record.json"
    proc = _run("--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return {"last": _last_json(proc.stdout),
            "record": json.loads(out.read_text("utf-8"))}


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "record.json"
    proc = _run("--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text("utf-8"))


def test_every_end_to_end_metric_is_emitted(untraced):
    last = untraced["last"]
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    for workload, result in untraced["record"]["workloads"].items():
        _check_metrics(result["metrics"], BENCH["end_to_end"])
        for metric in result["metrics"].values():
            assert metric["n"] >= 1
            assert metric["value"] > 0, workload


def test_single_workload_prints_the_contract_line():
    proc = _run("--workload", "survey-cold", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    last = _last_json(proc.stdout)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    _check_metrics(last["metrics"], BENCH["end_to_end"])


def test_every_per_layer_metric_is_emitted(traced):
    assert traced["correct"] is True
    assert set(traced["workloads"]) == set(WORKLOADS)
    for result in traced["workloads"].values():
        _check_metrics(result["metrics"], BENCH["per_layer"])


def test_traced_layers_match_the_declared_metrics(traced):
    declared = {m["name"].rsplit(".", 1)[0] for m in BENCH["per_layer"]}
    for workload, result in traced["workloads"].items():
        for table in result["tables"].values():
            layers = set(table) - {"(unattributed)"}
            assert layers <= declared, (workload, layers - declared)
        trace = json.loads(Path(result["trace_path"]).read_text("utf-8"))
        assert trace["traceEvents"], workload
    staged = traced["workloads"]["survey-cold"]
    assert staged["metrics"]["trace.coverage"]["value"] >= 0.9


def test_corrupted_output_fails_the_run():
    proc = _run("--workload", "survey-cold", "--corrupt-output")
    assert proc.returncode != 0
    assert _last_json(proc.stdout)["correct"] is False


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run("--workload", "survey-cold", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_entry_points_stay_callable():
    spec = json.loads((HERE / "spec.json").read_text("utf-8"))
    for dotted in spec["entry_points"]:
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            try:
                target = importlib.import_module(".".join(parts[:split]))
            except ImportError:
                continue
            for attr in parts[split:]:
                target = getattr(target, attr)
            break
        else:
            pytest.fail(f"cannot import {dotted}")
        assert callable(target) or isinstance(target, dict), dotted

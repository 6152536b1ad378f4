"""Smoke tests of the benchmark harness at tiny input sizes.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]}
        assert listed == table


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith(f"workload {workload} ") for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(result["metrics"]) == set(table)
    for name, (unit, _) in table.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines), name


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "lda-chain", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_times_add_up_to_the_root_span():
    t = tracer.Tracer()
    began = time.perf_counter()
    with t.span("root"):
        with t.span("child"):
            time.sleep(0.01)
        time.sleep(0.01)
    wall = time.perf_counter() - began
    assert t.self_s["child"] >= 0.01 and t.self_s["root"] >= 0.01
    assert abs(t.self_s["root"] + t.self_s["child"] - wall) < 0.001


def test_missing_name_is_reported_absent(monkeypatch):
    import importlib

    for module_name, path, _ in tracer.WRAPPED:
        owner = importlib.import_module(f"topicpuzzles.{module_name}")
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))  # undone at teardown
    esa = importlib.import_module("topicpuzzles.esa")
    monkeypatch.delattr(esa, "tfidf_transform")
    t = tracer.Tracer()
    t.install()
    assert t.absent == ["esa.tfidf_transform"]

"""The benchmark's own tests: declarations, span accounting, smoke runs.

Run with ``python3 perfbench/run.py --self-test`` (or ``python3 -m
pytest perfbench``) from the root of a source checkout.
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
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import spans as spanlib  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PREDICTIONS = json.loads((ROOT / "perfbench" / "predictions.json").read_text(encoding="utf-8"))
METRICS = {m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
SCRATCH = ROOT / ".perfbench_out" / "selftest"


def test_declaration_shape():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(DECLARED["workloads"]) <= 8
    for workload in DECLARED["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"]) and "\n" not in workload["why"]
        assert len(workload["why"]) <= 200
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def test_predictions_name_only_declared_metrics_and_workloads():
    workloads = {w["name"] for w in DECLARED["workloads"]}
    layers = {m["name"] for m in DECLARED["per_layer"]}
    for row in PREDICTIONS["predictions"]:
        assert set(row["layers"]) <= layers, row
        assert row["moves"] in METRICS, row
        assert set(row["workloads"]) <= workloads, row
        assert set(row["flat"]) <= workloads, row


def test_self_times_account_for_the_root():
    # root [0, 100] with children [10, 40] (child [20, 30]) and [50, 90].
    spans = [
        ["timed", 0, 100, -1, None, 1],
        ["a", 10, 40, 0, 1, 1],
        ["b", 20, 30, 1, 1, 1],
        ["c", 50, 90, 0, 2, 1],
    ]
    own = spanlib.self_times(spans)
    assert own == [30, 20, 10, 40]
    assert sum(own) == 100
    table = spanlib.by_name(spans)
    assert table["a"]["count"] == 1 and table["a"]["self_s"] == pytest.approx(20e-9)
    trace = spanlib.chrome_trace(spans, 0)
    assert sum(1 for e in trace["traceEvents"] if e["ph"] == "X") == 4


def test_recorder_nests_and_shares_job_ids():
    rec = spanlib.Recorder()
    inner = rec.wrap(lambda: None, "inner")
    outer = rec.wrap(lambda: inner(), "outer", new_job=True)
    outer()
    outer()
    (o1, i1, o2, i2) = rec.spans
    assert i1[spanlib.PARENT] == 0 and i2[spanlib.PARENT] == 2
    assert o1[spanlib.JOB] == i1[spanlib.JOB] != o2[spanlib.JOB] == i2[spanlib.JOB]


def test_hooks_restore_every_patched_attribute():
    from perfbench.hooks import Hooks

    hooks = Hooks(SCRATCH)
    hooks.install()
    patched = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in hooks._saved]
    originals = [(owner, attr, original) for owner, attr, original in hooks._saved]
    hooks.uninstall()
    for (owner, attr, wrapper), (_, _, original) in zip(patched, originals):
        assert owner.__dict__[attr] is original
        assert wrapper is not original


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_smoke(workload):
    proc = _run(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1",
         "--size", "tiny"]
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    assert all(NAME.match(name) for name in result["metrics"])
    spans = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed3-trace1-spans.json").read_text())
    assert any(e["name"] == "timed" for e in spans["traceEvents"])
    report = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed3-trace1.json").read_text())
    manifest = report["manifest"]
    for key in ("code_version", "generator_version", "seed", "workers", "nproc", "python"):
        assert manifest[key] is not None


def test_sources_missing_fails_without_a_result():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(["--workload", "knob_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Tests for the benchmark itself; the workloads run in smoke mode.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric():
    proc = bench("--workload", "cli_staged", "--seed", "1", "--seconds", "0", "--trace", "1",
                 "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    # the file-staged chain reaches every layer except the in-memory dataset helper
    zero = {k for k, v in out["metrics"].items() if v["value"] == 0}
    assert zero <= {"train_eval.prepare_dataset_s", "trace.overhead_pct"}


def test_exits_non_zero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli_staged", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_is_span_minus_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def parent():
        wrapped_leaf()
        wrapped_leaf()
        time.sleep(0.01)

    tracer.wrap("parent", parent)()
    total, own, _ = tracer.totals()
    assert total["parent"] >= total["leaf"] >= 0.02
    assert own["parent"] == pytest.approx(total["parent"] - total["leaf"])
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_install_swaps_every_reference_and_uninstall_restores_them():
    from microdiag import autodiff, cli, simulator, train_eval, types

    originals = (simulator.simulate, cli.simulate, train_eval.simulate,
                 types.TelemetryStream.validate, autodiff.matmul)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.simulate is simulator.simulate is train_eval.simulate
        assert simulator.simulate.__wrapped__ is originals[0]
        a = autodiff.parameter(np.ones((2, 2)))
        loss = autodiff.tsum(autodiff.matmul(a, a))
        autodiff.backward(loss)
    finally:
        tracer.uninstall()
    assert (simulator.simulate, cli.simulate, train_eval.simulate,
            types.TelemetryStream.validate, autodiff.matmul) == originals
    names = {s[0] for s in tracer.spans}
    assert {"autodiff.matmul.fwd", "autodiff.matmul.bwd", "autodiff.tsum.bwd",
            "autodiff.backward"} <= names
    metrics = layer_metrics(tracer)
    assert metrics["autodiff.tape_nodes_per_step"][0] == 3
    assert metrics["simulator.simulate_s"][0] == 0.0


def test_topk_ties_go_to_the_lower_node_index():
    scores = np.array([[1.0, 3.0, 3.0, 0.0], [2.0, 2.0, 2.0, 2.0]])
    assert checks.topk_hits(scores, np.array([2, 0]), 1) == 0.5
    assert checks.topk_hits(scores, np.array([2, 3]), 2) == 0.5
    assert checks.topk_hits(scores, np.array([2, 3]), 4) == 1.0


def test_label_rule_half_window_or_start_inside():
    from microdiag.types import FaultSpec, FaultType

    fault = FaultSpec(target_node=3, fault_type=FaultType.CRASH, start_ms=25_000,
                      duration_ms=60_000, severity=0.9, propagation_factor=0.0)
    assert checks.expected_label(0, 30_000, [fault]) == (True, 3, 3)        # starts inside
    assert checks.expected_label(30_000, 60_000, [fault]) == (True, 3, 3)   # covers it
    assert checks.expected_label(70_000, 100_000, [fault]) == (True, 3, 3)  # exactly half
    assert checks.expected_label(71_000, 101_000, [fault]) == (False, None, None)


def test_split_plan_guards_both_boundaries():
    parts, train_end = checks.split_plan(1_800_000, 30_000, 30_000)
    assert train_end == 1_080_000
    assert [len(parts[k]) for k in ("train", "valid", "test")] == [35, 10, 11]
    assert max(parts["train"]) + 30_000 <= train_end - 30_000
    assert min(parts["valid"]) >= train_end + 30_000

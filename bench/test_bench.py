"""Tests of the benchmark itself: tiny smoke runs, tampering, missing sources.

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from ban import checkpoint, evaluation, training  # noqa: E402
from ban.geometry import Box  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# a few iterations or images through a narrow model, so a run takes seconds
TINY = {"iterations": 2, "train_images": 3, "test_images": 3, "rois_per_image": 24,
        "ohem_keep": 8, "trunk_channels": 32, "roi_feature_channels": 8}
NAMED = {"train": {"train_wall_s", "iter_ms_p50", "iter_ms_tail", "loss_final",
                   "ops_failed_ratio"},
         "detect": {"detect_ms_p50", "detect_ms_tail", "eval_ms", "ops_failed_ratio"}}
# (a span each workload runs, one it never enters)
SPANS = {"train-psroi": ("pooling.psroi_pool_rois.fwd_ms", "geometry.nms.ms"),
         "detect-eval": ("geometry.nms.ms", "training.sgd_step.ms"),
         "train-roi": ("pooling.roi_pool_rois.fwd_ms", "pooling.vote.fwd_ms")}


def tiny(name):
    w = workloads.WORKLOADS[name]
    return replace(w, overrides={**w.overrides, **TINY})


def run_tiny(name, tmp_path, trace=False):
    return workloads.run(name, 5, 0, trace, tmp_path, tiny(name))


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, tmp_path):
    details, line = run_tiny(name, tmp_path, trace)
    assert line["correct"], details["problems"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    assert set(details["named"]) == NAMED[tiny(name).kind]
    json.dumps(line, allow_nan=False)
    if trace:
        # per-layer metrics of spans a workload never enters read zero
        ran, idle = SPANS[name]
        assert line["metrics"][ran]["value"] > 0
        assert line["metrics"][idle]["value"] == 0


def test_mismatched_checkpoint_digest_is_a_failed_op(tmp_path, monkeypatch):
    save = checkpoint.save_checkpoint
    calls = []

    def save_then_corrupt(path, params):
        save(path, params)
        calls.append(path)
        if len(calls) == 2:  # the second repetition's checkpoint
            with open(path, "ab") as fh:
                fh.write(b"\0")

    monkeypatch.setattr(checkpoint, "save_checkpoint", save_then_corrupt)
    details, line = run_tiny("train-psroi", tmp_path)
    assert not line["correct"]
    assert line["failed"] == TINY["iterations"]
    assert details["samples"] == TINY["iterations"]  # only the intact repetition
    assert any("checkpoint.ckpt" in p for p in details["problems"])


def test_out_of_image_detection_is_a_failed_op(tmp_path, monkeypatch):
    detect = evaluation.run_detector

    def shifted(params, dataset, *args, **kwargs):
        dets = detect(params, dataset, *args, **kwargs)
        first = dets[0]
        moved = Box(first.box.cx + 1000.0, first.box.cy, first.box.w, first.box.h)
        return [replace(first, box=moved)] + dets[1:]

    monkeypatch.setattr(evaluation, "run_detector", shifted)
    details, line = run_tiny("detect-eval", tmp_path)
    assert not line["correct"]
    assert line["failed"] >= 2  # one image in each of the two repetitions
    assert "step_ms_p50" not in line["metrics"]
    assert any("outside the image" in p for p in details["problems"])


def test_whole_split_mismatch_is_a_failed_op(tmp_path, monkeypatch):
    detect = evaluation.run_detector

    def drops_one_over_the_split(params, dataset, *args, **kwargs):
        dets = detect(params, dataset, *args, **kwargs)
        return dets[:-1] if len(dataset) > 1 else dets

    monkeypatch.setattr(evaluation, "run_detector", drops_one_over_the_split)
    details, line = run_tiny("detect-eval", tmp_path)
    assert not line["correct"]
    assert line["failed"] == TINY["test_images"]
    assert "step_ms_p50" in line["metrics"]  # the per-image repetitions agree


def test_non_finite_loss_is_reported():
    rows = [training.LossRow(0, 1.0, 0.5, 1.5, 1e-3),
            training.LossRow(1, math.nan, 0.5, math.nan, 1e-3)]
    assert workloads.check_losses(rows, 2) == ["non-finite loss at iteration 1"]
    assert workloads.check_losses(rows[:1], 2) == ["loss log has 1 rows, want 2"]


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train-psroi",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout

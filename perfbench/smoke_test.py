"""Toy-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/smoke_test.py -q

Runs every workload at toy size, traced, and checks that each metric named
in BENCHMARK.json comes out with its unit; forces a failure (a truncated
checkpoint) and checks that it is counted rather than ending the run; checks
that run.py refuses to run without the program's sources or with more than
one BLAS thread.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from spans import unit_of  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TOY_EPOCHS = {"lmm": 1, "freq": 1, "time_ft": 1, "joint_ft": 1, "align": 1}
TOY = {
    "tiny_chain": lambda work: workloads.TinyChain(
        ROOT, work, seed=3, overrides={"epochs": TOY_EPOCHS, "diffusion_steps": 10, "surrogate_epochs": 3}
    ),
    "medium_train": lambda work: workloads.MediumTrain(ROOT, work, seed=3, sizes=workloads.MediumSizes(
        n_classes=4, records_per_class=3, c=8, l=40, n=10, d=16, heads=2, ffn=32, n_t=16, lmm_batch=4,
        lmm_steps=1, hidden=8, freq_batch=4, freq_steps=1, fft_check_trials=2,
    )),
    "generate_eval": lambda work: workloads.GenerateEval(
        ROOT, work, seed=3,
        overrides={"n_classes": 4, "records_per_class": 8, "batch": 16, "diffusion_steps": 5, "T": 4,
                   "surrogate_epochs": 3},
    ),
}

# Per-layer metrics that must be non-zero on each workload: the layers it calls.
CALLED = {
    "tiny_chain": ("pipeline.", "autodiff.", "lmm.", "freq.", "fusion.", "align.", "diffusion.", "metrics.", "data."),
    "medium_train": ("autodiff.", "lmm.", "freq.", "data.generate_synthetic", "data.prepare_units"),
    "generate_eval": ("pipeline.", "autodiff.", "lmm.", "freq.", "fusion.", "align.", "diffusion.", "metrics.", "data."),
}


@pytest.mark.parametrize("name", sorted(TOY))
def test_every_metric_appears_with_its_unit(name, tmp_path):
    result = workloads.measure(TOY[name](tmp_path), seconds=0.0, trace=True)
    assert result["failures"] == []
    assert result["attempted"] >= 1 and result["failed"] == 0

    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == set(want)
    for metric, unit in want.items():
        assert workloads.END_TO_END_UNITS[metric] == unit
        assert math.isfinite(result["metrics"][metric]) and result["metrics"][metric] > 0, metric

    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(result["layers"]) == set(layers)
    for metric, unit in layers.items():
        assert unit_of(metric) == unit, metric
        if metric.startswith(CALLED[name]) and metric != "trace.overhead_s":
            assert result["layers"][metric] > 0, metric
    assert result["layers"]["trace.body_coverage"] >= 0.9


def test_truncated_checkpoint_is_counted_not_raised(tmp_path, monkeypatch):
    train_lmm = workloads.runner.run_train_lmm

    def train_lmm_then_truncate(cfg, paths):
        summary = train_lmm(cfg, paths)
        ckpt = paths.checkpoint("lmm")
        ckpt.write_bytes(ckpt.read_bytes()[:32])
        return summary

    monkeypatch.setattr(workloads.runner, "run_train_lmm", train_lmm_then_truncate)
    result = workloads.measure(TOY["tiny_chain"](tmp_path), seconds=0.0, trace=False)
    assert result["attempted"] == 2 * len(workloads.STAGES)
    # finetune_tfe cannot read the checkpoint; every later stage lacks its prerequisite.
    assert result["failed"] == 2 * 5
    assert any(f.startswith("finetune_tfe:") for f in result["failures"])
    assert set(result["metrics"]) == set(workloads.END_TO_END_UNITS)
    assert result["metrics"]["wall_s"] > 0


def _run_cli(cwd: Path, **env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny_chain", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=cwd, env={**os.environ, **env}, capture_output=True, text=True, timeout=120,
    )


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_cli(tmp_path)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())


def test_refuses_multithreaded_blas():
    out = _run_cli(ROOT, OPENBLAS_NUM_THREADS="2")
    assert out.returncode != 0
    assert "single-threaded" in out.stderr

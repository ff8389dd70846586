"""Traced memory of one LMM and one frequency training step at the benchmark's medium geometry,
or of each pipeline stage at its generate_eval geometry.

Builds the medium-geometry data and models as `perfbench`'s medium_train
set-up does (`MediumSizes`), runs warm-up steps untraced, then one step of each
under `tracemalloc` and prints, per phase, the traced peak above the live set
at the phase's start and the live set after it:

    codewords  `Codebook.assign` over the masked units, as `lmm_step` runs it first
    forward    `lmm_step` (its own codeword assignment included)
    backward   `backward` of the total loss
    adam       `adam_step` and the teacher's EMA update
    freq       one `FreqClassifier` step: forward, `cross_entropy`, `backward`, `adam_step`

It then prints the traced peak of all phases above the live set at the first
one's start and the process's `ru_maxrss`, so a memory change can be checked
without the benchmark harness:

    PYTHONPATH=src python tests/memprobe.py [--seed 1] [--warmup 1]

With --stages it instead runs the eight stages, gen-data through evaluate,
on `perfbench`'s generate_eval configuration (`GENERATE_EVAL_OVERRIDES` over
configs/tiny.json) in a temporary run directory, and prints after each stage
its traced peak and the process's `ru_maxrss` so far, which shows which stage
sets the process's high-water mark.  tracemalloc's own bookkeeping adds to
the resident set; --untraced runs the stages without it and prints
`ru_maxrss` alone:

    PYTHONPATH=src python tests/memprobe.py --stages [--seed 1] [--untraced]
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from brainvis_forge import autodiff, freq, lmm
from brainvis_forge.autodiff.ops import cross_entropy, one_hot_labels
from brainvis_forge.data.synthetic import SyntheticGenSpec, generate_synthetic
from brainvis_forge.pipeline import runner
from brainvis_forge.pipeline.config import PipelineConfig

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import GENERATE_EVAL_OVERRIDES, MediumSizes  # noqa: E402

MB = 1 << 20


def build(seed: int) -> tuple:
    z = MediumSizes()
    records = generate_synthetic(SyntheticGenSpec(
        n_classes=z.n_classes, records_per_class=z.records_per_class, c=z.c, l=z.l,
        sample_rate=z.sample_rate, seed=seed,
    ))
    units = lmm.prepare_units(records, z.n)
    models = lmm.build_lmm_models(
        unit_dim=units.shape[2], n_units=z.n, d=z.d, n_heads=z.heads, ffn_dim=z.ffn,
        sa_blocks=z.sa_blocks, ca_blocks=z.ca_blocks, n_codewords=z.n_t, teacher_momentum=0.99, seed=seed,
    )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBE4C]))
    freq_model = freq.FreqClassifier(z.c, z.hidden, z.n_classes, rng)
    spectra = freq.spectra_matrix(records, z.sample_rate, z.l / 2.0)  # the benchmark's scale
    labels = one_hot_labels(np.array([r.class_label for r in records]), z.n_classes)
    return (z, units, models, models.student_store(), rng,
            (freq_model, autodiff.ParamStore(freq=freq_model), spectra, labels))


def step(z, units, models, store, rng, freq_state, phase) -> None:
    """One LMM step and one frequency step as medium_train's, each phase run through `phase(name, fn)`."""
    idx = rng.choice(len(units), size=z.lmm_batch, replace=False)
    plan = lmm.make_mask_plan(z.n, z.mask_ratio, rng)
    batch = units[idx]
    store.zero_grad()
    phase("codewords", lambda: models.codebook.assign(
        batch[:, plan.masked, :].reshape(len(idx) * len(plan.masked), batch.shape[2])))
    _, _, total = phase("forward", lambda: lmm.lmm_step(models, batch, plan))
    phase("backward", lambda: autodiff.backward(total))

    def adam():
        autodiff.adam_step(store, store.collect_grads(), z.lr, trainable=store.names())
        models.teacher.update(models.encoder)

    phase("adam", adam)
    freq_model, freq_store, spectra, labels = freq_state

    def freq_step():
        idx = rng.choice(len(spectra), size=z.freq_batch, replace=False)
        freq_store.zero_grad()
        autodiff.backward(cross_entropy(freq_model(autodiff.Tensor(spectra[idx])), labels[idx]))
        autodiff.adam_step(freq_store, freq_store.collect_grads(), z.lr)

    phase("freq", freq_step)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def stages(seed: int, traced: bool) -> None:
    """Run the eight stages at generate_eval's geometry, printing each one's traced peak and `ru_maxrss`."""
    cfg = PipelineConfig.load(ROOT / "configs" / "tiny.json").with_overrides(**GENERATE_EVAL_OVERRIDES, seed=seed)
    print(f"the eight stages at generate_eval's geometry, seed {seed}")
    print(f"{'stage':<16} {'traced peak (MB)':>17} {'ru_maxrss (MB)':>15}")
    with tempfile.TemporaryDirectory() as tmp:
        paths = runner.RunPaths(Path(tmp) / "run")
        for stage in runner.STAGES.values():
            if traced:
                tracemalloc.start()
            stage.run(cfg, paths)
            peak = f"{tracemalloc.get_traced_memory()[1] / MB:.2f}" if traced else "-"
            tracemalloc.stop()
            print(f"{stage.command:<16} {peak:>17} {maxrss_mb():>15.1f}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--warmup", type=int, default=1, help="untraced steps before the traced one")
    parser.add_argument("--stages", action="store_true", help="probe each pipeline stage instead of the medium steps")
    parser.add_argument("--untraced", action="store_true", help="with --stages, run without tracemalloc")
    args = parser.parse_args(argv)
    if args.stages:
        stages(args.seed, traced=not args.untraced)
        return
    state = build(args.seed)
    for _ in range(args.warmup):
        step(*state, lambda name, fn: fn())

    rows = []

    def traced(name, fn):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        rows.append((name, start, *tracemalloc.get_traced_memory()))
        return out

    tracemalloc.start()
    step(*state, traced)
    tracemalloc.stop()
    step_start = rows[0][1]
    print(f"medium LMM and frequency steps, seed {args.seed}, after {args.warmup} warm-up step(s); "
          f"live set at step start {step_start / MB:.1f} MB")
    print(f"{'phase':<10} {'peak above start (MB)':>22} {'live after (MB)':>16}")
    for name, start, live, peak in rows:
        print(f"{name:<10} {(peak - start) / MB:>22.1f} {live / MB:>16.1f}")
    print(f"peak of all phases above the starting live set: {(max(row[3] for row in rows) - step_start) / MB:.1f} MB")
    print(f"ru_maxrss: {maxrss_mb():.1f} MB")


if __name__ == "__main__":
    main()

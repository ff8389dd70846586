"""The benchmark's workloads and the loop that measures them.

Each workload drives the engine as one closed-loop caller in one process:
every stage or step starts when the one before it has returned.  A workload
has a set-up (`prepare`, run several times so set-up time is a median) and a
timed body (`body`, repeated until the requested seconds have passed).
Operations of the body that raise, or whose output check fails, are counted
as failed and the run goes on; `measure` returns the counts beside the
metrics.  A set-up that raises ends the run: there is nothing to measure.

Workloads:
  tiny_chain     configs/tiny.json through all eight runner stages.
  medium_train   LMM, LSTM and FFT work at the medium geometry.
  generate_eval  run_generate + run_evaluate on 40 classes x 50 records with
                 the tiny networks; set-up trains them with minimal epochs.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Traced functions are called through their package or module attribute, which
# is what the tracer replaces (spans.py); names bound here at import would not be.
from brainvis_forge import autodiff, data, freq, lmm
from brainvis_forge.autodiff import ParamStore, Tensor
from brainvis_forge.autodiff.ops import cross_entropy
from brainvis_forge.data.synthetic import SyntheticGenSpec
from brainvis_forge.diffusion import read_ppm, sample_filename
from brainvis_forge.freq import FreqClassifier
from brainvis_forge.freq.train import one_hot_labels
from brainvis_forge.lmm import build_lmm_models, make_mask_plan
from brainvis_forge.pipeline import runner
from brainvis_forge.pipeline.config import PipelineConfig

from spans import MIN_BODY_COVERAGE, PIPELINE_STAGES as STAGES, Tracer, layer_metrics

SETUP_REPS = 3
SURROGATE_SPAN = "metrics.train_surrogate"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Ops:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run one operation; returns (ok, result) and never raises."""
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception as exc:  # the benchmark is the boundary: count the failure, keep running
            self.failed += 1
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return False, None

    def check(self, name: str, ok: bool, why: str) -> None:
        """Mark an operation that returned as failed when its output check fails."""
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: output check failed: {why}")


@dataclass
class Rep:
    """One repetition of a workload's timed body."""

    wall_s: float
    started: float = 0.0  # perf_counter() at the start of the timed body
    train_examples: int = 0
    train_s: float = 0.0
    images: int = 0
    gen_s: float = 0.0
    context: dict = field(default_factory=dict)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _train_examples(cfg: PipelineConfig, n_train: int, stages: set[str]) -> int:
    """Examples the optimizer steps of `stages` consume, from the loops' own arithmetic."""
    batch = min(cfg.batch, n_train)
    per_stage = {
        "train_lmm": cfg.epochs["lmm"] * math.ceil(n_train / batch) * batch,
        "train_freq": cfg.epochs["freq"] * n_train,
        "finetune_tfe": (cfg.epochs["time_ft"] + cfg.epochs["joint_ft"]) * n_train,
        "train_align": cfg.epochs["align"] * n_train,
        "train_diffusion": cfg.diffusion_steps * min(cfg.diffusion_batch, n_train),
    }
    return sum(v for k, v in per_stage.items() if k in stages)


def _surrogate_examples(cfg: PipelineConfig) -> int:
    # train_surrogate takes full-batch steps over every target image.
    return cfg.surrogate_epochs * cfg.n_classes * cfg.records_per_class


def _load_config(root: Path, seed: int, overrides: dict) -> PipelineConfig:
    values = json.loads((root / "configs" / "tiny.json").read_text())
    values.update(overrides)
    values["seed"] = seed
    return PipelineConfig.from_dict(values)


def _readable(path: Path, shape: tuple[int, ...]) -> bool:
    try:
        return read_ppm(path).shape == shape
    except (OSError, ValueError):
        return False


def _check_report(ops: Ops, report) -> None:
    try:
        report.validate_ranges()
    except ValueError as exc:
        ops.check("evaluate", False, str(exc))


TRAINING_STAGES = {"train_lmm", "train_freq", "finetune_tfe", "train_align", "train_diffusion"}
# Files whose bytes must repeat across repetitions at one seed, by the stage that writes them.
STABLE_OUTPUTS = {
    "evaluate/report.json": "evaluate",
    "lmm/checkpoint.bvc": "train_lmm",
    "freq/checkpoint.bvc": "train_freq",
    "tfe/checkpoint.bvc": "finetune_tfe",
    "align/checkpoint.bvc": "train_align",
    "diffusion/checkpoint.bvc": "train_diffusion",
}


class TinyChain:
    """configs/tiny.json, all eight stages through the runner's run_* functions.

    Per-op Python overhead dominates (tiny arrays).  Every repetition writes a
    fresh run directory; report.json and every checkpoint must match the first
    repetition byte for byte.
    """

    name = "tiny_chain"
    min_reps = 2
    warmup_reps = 0

    def __init__(self, root: Path, work: Path, seed: int, overrides: dict | None = None):
        self.root, self.work, self.seed = root, work, seed
        self.overrides = overrides or {}
        self._reference: dict[str, tuple[str, str]] | None = None
        self._n_train: int | None = None

    def prepare(self, k: int) -> dict:
        return {"cfg": _load_config(self.root, self.seed, self.overrides)}

    def body(self, ctx: dict, k: int, ops: Ops, tracer: Tracer) -> Rep:
        cfg = ctx["cfg"]
        paths = runner.RunPaths(_fresh(self.work / f"rep{k}"))
        mark = len(tracer.spans)
        stage_s, done, results = {}, set(), {}
        t0 = time.perf_counter()
        for stage in STAGES:
            t = time.perf_counter()
            ok, results[stage] = ops.call(stage, getattr(runner, f"run_{stage}"), cfg, paths)
            stage_s[stage] = time.perf_counter() - t
            if ok:
                done.add(stage)
        wall = time.perf_counter() - t0

        if self._n_train is None and "gen_data" in done:
            self._n_train = len(runner.load_run_data(cfg, paths)[1].train)
        surrogate_s = tracer.seconds(SURROGATE_SPAN, mark) if "evaluate" in done else 0.0
        rep = Rep(
            wall_s=wall,
            started=t0,
            train_examples=_train_examples(cfg, self._n_train or 0, done)
            + (_surrogate_examples(cfg) if "evaluate" in done else 0),
            train_s=sum(stage_s[s] for s in TRAINING_STAGES & done) + surrogate_s,
            images=results["generate"]["samples"] if "generate" in done else 0,
            gen_s=stage_s["generate"],
            context={"stage_s": stage_s},
        )
        if "evaluate" in done:
            report = results["evaluate"]
            _check_report(ops, report)
            rep.context.update(top1_ca=report.top1_ca, fid=report.fid, ga=report.ga)
        self._compare_outputs(paths, done, ops)
        shutil.rmtree(paths.root, ignore_errors=True)
        return rep

    def _compare_outputs(self, paths, done: set[str], ops: Ops) -> None:
        digests = {}
        for rel, stage in STABLE_OUTPUTS.items():
            for name in (rel, rel + ".meta.json"):
                if stage in done and (paths.root / name).exists():
                    digests[name] = (stage, _digest(paths.root / name))
        if self._reference is None:
            self._reference = digests
            return
        for name, (stage, digest) in digests.items():
            if name in self._reference:
                ops.check(stage, digest == self._reference[name][1], f"{name} differs from the first repetition")


GENERATE_EVAL_OVERRIDES = {
    "n_classes": 40,
    "records_per_class": 50,
    "batch": 128,
    "epochs": {"lmm": 1, "freq": 1, "time_ft": 1, "joint_ft": 0, "align": 1},
    "diffusion_steps": 50,
}


class GenerateEval:
    """Inference over the 200 test records of a 40 x 50 set: generate, then evaluate.

    Set-up runs gen-data through train-diffusion with minimal epochs; the
    timed body is run_generate + run_evaluate (200 records x 4 samples x T=50
    batch-1 denoiser calls, one align call per record).
    """

    name = "generate_eval"
    min_reps = 1
    warmup_reps = 0

    def __init__(self, root: Path, work: Path, seed: int, overrides: dict | None = None):
        self.root, self.work, self.seed = root, work, seed
        self.overrides = {**GENERATE_EVAL_OVERRIDES, **(overrides or {})}

    def prepare(self, k: int) -> dict:
        cfg = _load_config(self.root, self.seed, self.overrides)
        if k > 0:
            shutil.rmtree(self.work / f"setup{k - 1}", ignore_errors=True)
        paths = runner.RunPaths(_fresh(self.work / f"setup{k}"))
        for stage in STAGES[:6]:
            getattr(runner, f"run_{stage}")(cfg, paths)
        return {"cfg": cfg, "paths": paths}

    def body(self, ctx: dict, k: int, ops: Ops, tracer: Tracer) -> Rep:
        cfg, paths = ctx["cfg"], ctx["paths"]
        mark = len(tracer.spans)
        t0 = time.perf_counter()
        gen_ok, gen = ops.call("generate", runner.run_generate, cfg, paths)
        t1 = time.perf_counter()
        eval_ok, report = ops.call("evaluate", runner.run_evaluate, cfg, paths)
        t2 = time.perf_counter()

        rep = Rep(wall_s=t2 - t0, started=t0, gen_s=t1 - t0, context={"generate_s": t1 - t0, "evaluate_s": t2 - t1})
        if gen_ok:
            rep.images = gen["samples"]
            self._check_images(cfg, paths, ops)
        if eval_ok:
            rep.train_examples = _surrogate_examples(cfg)
            rep.train_s = tracer.seconds(SURROGATE_SPAN, mark)
            _check_report(ops, report)
            rep.context.update(top1_ca=report.top1_ca, fid=report.fid, ga=report.ga)
        return rep

    @staticmethod
    def _check_images(cfg: PipelineConfig, paths, ops: Ops) -> None:
        _, split = runner.load_run_data(cfg, paths)
        images = paths.root / "generate" / "images"
        expected = (cfg.latent_size, cfg.latent_size, 3)
        bad = [
            name
            for name in (sample_filename(i, s) for i in split.test for s in range(cfg.samples_per_record))
            if not _readable(images / name, expected)
        ]
        rows = (paths.root / "generate" / "provenance.jsonl").read_text().splitlines()
        want = len(split.test) * cfg.samples_per_record
        ops.check("generate", not bad and len(rows) == want,
                  f"{len(bad)} missing or unreadable images, {len(rows)} provenance rows for {want} samples")


@dataclass(frozen=True)
class MediumSizes:
    """The medium geometry: 128 x 440 trials, d=256, 8 heads, ffn 1024, 2+1 blocks, n_t=660."""

    n_classes: int = 32
    records_per_class: int = 8
    c: int = 128
    l: int = 440
    sample_rate: float = 1000.0
    n: int = 110
    d: int = 256
    heads: int = 8
    ffn: int = 1024
    sa_blocks: int = 2
    ca_blocks: int = 1
    n_t: int = 660
    mask_ratio: float = 0.75
    lmm_batch: int = 16
    lmm_steps: int = 4
    hidden: int = 128
    freq_batch: int = 32
    freq_steps: int = 4
    lr: float = 1e-3
    fft_check_trials: int = 16


class MediumTrain:
    """Array-bound training at the medium geometry.

    Body: spectra_matrix over every trial, then a fixed count of LMM steps
    (lmm_step -> backward -> adam_step -> teacher.update) and of frequency
    steps (FreqClassifier -> cross_entropy -> backward -> adam_step).
    """

    name = "medium_train"
    min_reps = 1
    # The first pass pays one-off costs (heap growth, FFT tables) that a
    # training process pays once; it is run, checked and not timed.
    warmup_reps = 1

    def __init__(self, root: Path, work: Path, seed: int, sizes: MediumSizes = MediumSizes()):
        self.root, self.work, self.seed, self.sizes = root, work, seed, sizes

    def prepare(self, k: int) -> dict:
        z = self.sizes
        records = data.generate_synthetic(SyntheticGenSpec(
            n_classes=z.n_classes, records_per_class=z.records_per_class, c=z.c, l=z.l,
            sample_rate=z.sample_rate, seed=self.seed,
        ))
        units = lmm.prepare_units(records, z.n)
        models = build_lmm_models(
            unit_dim=units.shape[2], n_units=z.n, d=z.d, n_heads=z.heads, ffn_dim=z.ffn,
            sa_blocks=z.sa_blocks, ca_blocks=z.ca_blocks, n_codewords=z.n_t,
            teacher_momentum=0.99, seed=self.seed,
        )
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xBE4C]))
        freq_model = FreqClassifier(z.c, z.hidden, z.n_classes, rng)
        freq_store = ParamStore()
        freq_store.register_module("freq", freq_model)
        return {
            "records": records,
            "labels": np.array([r.class_label for r in records], dtype=np.int64),
            "units": units,
            "models": models,
            "store": models.student_store(),
            "freq_model": freq_model,
            "freq_store": freq_store,
            "rng": rng,
            # Peak magnitude of a unit sinusoid over l samples; keeps LSTM inputs near 1.
            "scale": z.l / 2.0,
        }

    def _lmm_step(self, ctx: dict) -> float:
        z, rng, store = self.sizes, ctx["rng"], ctx["store"]
        idx = rng.choice(len(ctx["units"]), size=z.lmm_batch, replace=False)
        plan = make_mask_plan(z.n, z.mask_ratio, rng)
        store.zero_grad()
        _, _, total = lmm.lmm_step(ctx["models"], ctx["units"][idx], plan)
        autodiff.backward(total)
        autodiff.adam_step(store, store.collect_grads(), z.lr, trainable=store.names())
        ctx["models"].teacher.update(ctx["models"].encoder)
        return total.item()

    def _freq_step(self, ctx: dict, spectra: np.ndarray) -> float:
        z, store = self.sizes, ctx["freq_store"]
        idx = ctx["rng"].choice(len(spectra), size=z.freq_batch, replace=False)
        store.zero_grad()
        logits = ctx["freq_model"](Tensor(spectra[idx]))
        loss = cross_entropy(logits, one_hot_labels(ctx["labels"][idx], z.n_classes))
        autodiff.backward(loss)
        autodiff.adam_step(store, store.collect_grads(), z.lr)
        return loss.item()

    def body(self, ctx: dict, k: int, ops: Ops, tracer: Tracer) -> Rep:
        z = self.sizes
        losses = []
        t0 = time.perf_counter()
        rep = Rep(wall_s=0.0, started=t0)
        ok, spectra = ops.call("spectra_matrix", freq.spectra_matrix, ctx["records"], z.sample_rate, ctx["scale"])
        for _ in range(z.lmm_steps):
            t = time.perf_counter()
            ok_step, loss = ops.call("lmm_train_step", self._lmm_step, ctx)
            rep.train_s += time.perf_counter() - t
            if ok_step:
                rep.train_examples += z.lmm_batch
                losses.append(("lmm_train_step", loss))
        for _ in range(z.freq_steps if ok else 0):
            t = time.perf_counter()
            ok_step, loss = ops.call("freq_train_step", self._freq_step, ctx, spectra)
            rep.train_s += time.perf_counter() - t
            if ok_step:
                rep.train_examples += z.freq_batch
                losses.append(("freq_train_step", loss))
        rep.wall_s = time.perf_counter() - t0

        for name, loss in losses:
            ops.check(name, math.isfinite(loss), f"loss {loss}")
        if ok:
            ctx["spectra"] = spectra
        return rep

    def check_run(self, ops: Ops, ctx: dict) -> None:
        """Untimed: the from-scratch FFT against numpy, and the spectra against numpy magnitudes."""
        z = self.sizes
        x = np.stack([r.x for r in ctx["records"]]).astype(np.float64)
        ok, ours = ops.call("fft_check", freq.fft, x[: z.fft_check_trials], -1)
        if ok:
            ref = np.fft.fft(x[: z.fft_check_trials], axis=-1)
            rel = float(np.max(np.abs(ours - ref)) / np.max(np.abs(ref)))
            ops.check("fft_check", rel < 1e-9, f"relative error {rel:.3e} against numpy.fft.fft")
        if "spectra" in ctx:
            ref = np.abs(np.fft.rfft(x, axis=-1)).transpose(0, 2, 1) / ctx["scale"]
            err = float(np.max(np.abs(ctx["spectra"] - ref)) / np.max(np.abs(ref)))
            ops.check("spectra_matrix", err < 1e-5, f"relative error {err:.3e} against numpy magnitudes")


WORKLOADS = {w.name: w for w in (TinyChain, MediumTrain, GenerateEval)}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload, seconds: float, trace: bool, import_s: float = 0.0) -> dict:
    """Set up and run `workload`; returns metrics, counts and per-repetition detail.

    Untraced, the only span recorded is train_surrogate's (one per evaluate),
    since that optimizer loop runs inside run_evaluate.  With `trace`, one more
    set-up and one more body repetition run under the full tracer after the
    untraced ones.
    """
    ops = Ops()
    clock = Tracer(names={SURROGATE_SPAN})
    with clock:
        setup_times, ctx = [], None
        for k in range(SETUP_REPS):
            ctx = None  # let the previous set-up go before the next one allocates
            t = time.perf_counter()
            ctx = workload.prepare(k)
            setup_times.append(time.perf_counter() - t)
        for k in range(workload.warmup_reps):
            workload.body(ctx, k, ops, clock)
        reps: list[Rep] = []
        t_body = time.perf_counter()
        while len(reps) < workload.min_reps or time.perf_counter() - t_body < seconds:
            reps.append(workload.body(ctx, len(reps), ops, clock))
            if len(reps) == 1:
                # Read after a fixed amount of work: the heap keeps growing a
                # little with every repetition, and how many fit in `seconds`
                # depends on the host's speed.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_run = getattr(workload, "check_run", None)
    if check_run is not None:
        check_run(ops, ctx)

    walls = [r.wall_s for r in reps]
    metrics = {
        "setup_s": import_s + _median(setup_times),
        "wall_s": _median(walls),
        "train_samples_per_s": _median([r.train_examples / r.train_s for r in reps if r.train_s > 0]),
        "peak_rss_mb": peak_rss_mb,
    }
    result = {
        "metrics": metrics,
        # Too short on tiny_chain (0.2 s a stage) to hold a bound on this host; reported, not
        # gated.  0 on medium_train, which generates nothing.
        "gen_images_per_s": _median([r.images / r.gen_s for r in reps if r.gen_s > 0]),
        "reps": [r.__dict__ for r in reps],
        "setup_times_s": setup_times,
        "import_s": import_s,
    }
    if trace:
        tracer = Tracer()
        with tracer:
            ctx = workload.prepare(SETUP_REPS)
            tracer.phase = "body"
            traced = workload.body(ctx, len(reps), ops, tracer)
        layers = layer_metrics(tracer, traced.started, traced.wall_s)
        layers["trace.overhead_s"] = traced.wall_s - metrics["wall_s"]
        ops.attempted += 1
        ops.check("trace_coverage", layers["trace.body_coverage"] >= MIN_BODY_COVERAGE,
                  f"top-level spans cover {layers['trace.body_coverage']:.3f} of the body")
        result["layers"] = layers
        result["tracer"] = tracer
    result.update(attempted=ops.attempted, failed=ops.failed, failures=ops.failures)
    return result

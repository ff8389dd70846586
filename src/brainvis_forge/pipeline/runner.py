"""The pipeline's stages over a run directory, and the one table that lists them.

Layout: {run_dir}/{stage}/ holding config.json (snapshot), metrics.jsonl
(per-epoch or per-step log lines), checkpoint.bvc (+ .meta.json sidecar),
and for generation an images/ directory plus provenance.jsonl.

`STAGES` is the chain in run order.  Each row gives the stage's CLI command,
the function that runs it, the file that marks it done and the stages whose
outputs it reads; every stage checks those before doing any work, and an
ablation drops the stages it skips (config.ABLATION_SKIPS) from the chain and
from the prerequisites.  Training stages hand weights on only through
`save_stage` and `load_stage` (key layout in pipeline.checkpoint), each
checkpoint holding the network its stage trained under model/: tfe reads
model/projector.* and model/encoder.* from the lmm checkpoint and
model/encoder.* and spectrum_scale from the freq checkpoint; later stages
read model/* and the tfe spectrum_scale.  Each network has one
builder (`_tfe_model`, `_align_net`, `_denoiser`) for training and loading.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..align.fixtures import generate_fixtures, load_fixtures, lookup, write_fixtures
from ..align.model import AlignmentNet, align
from ..align.train import train_align
from ..autodiff import Tensor, no_grad
from ..autodiff.nn import Linear, LstmEncoder, Module
from ..data.bvd import load_dataset, write_dataset
from ..data.images import make_image_set
from ..data.records import DatasetSplit, EegDataset
from ..data.split import split_by_image
from ..data.synthetic import SyntheticGenSpec, generate_synthetic
from ..diffusion.cascade import CascadeConfig, generate_samples
from ..diffusion.ddpm import train_denoiser
from ..diffusion.denoiser import DenoiserNet
from ..diffusion.ppm import read_ppm, sample_filename, write_ppm
from ..diffusion.schedule import NoiseSchedule
from ..freq.train import freq_classify_train
from ..fusion.model import TfeModel
from ..fusion.train import classify_batch, finetune_tfe, tfe_inputs
from ..lmm.model import UnitProjector, VisibleEncoder
from ..lmm.train import train_lmm
from ..metrics.classification import GaConfig
from ..metrics.report import MetricsReport, classification_block, evaluate_generation
from ..metrics.surrogate import train_surrogate
from .checkpoint import CheckpointArchive, StageError, load_checkpoint, require_stage, save_checkpoint
from .config import ABLATION_SKIPS, PipelineConfig


@dataclass
class RunPaths:
    root: Path

    def __post_init__(self):
        self.root = Path(self.root)

    def stage_dir(self, stage: str) -> Path:
        d = self.root / stage
        d.mkdir(parents=True, exist_ok=True)
        return d

    def checkpoint(self, stage: str) -> Path:
        return self.stage_dir(stage) / "checkpoint.bvc"

    def available_stages(self) -> set[str]:
        return {name for name, stage in STAGES.items() if (self.root / name / stage.marker).exists()}


@dataclass(frozen=True)
class Stage:
    command: str  # CLI subcommand
    help: str
    run: Callable[[PipelineConfig, RunPaths], object]
    marker: str  # file in the stage directory whose presence marks the stage done
    needs: tuple[str, ...]  # earlier stages whose outputs this one reads


def check_prerequisites(stage: str, available: set[str], ablate: str | None = None) -> None:
    """Raise naming the first missing prerequisite of `stage`, ignoring the
    stages the ablation mode `ablate` skips."""
    for dep in STAGES[stage].needs:
        if dep not in available and dep not in ABLATION_SKIPS[ablate]:
            raise StageError(f"stage {stage!r} requires {dep!r}, which has not been run")


def _enter_stage(cfg: PipelineConfig, paths: RunPaths, stage: str) -> Path:
    check_prerequisites(stage, paths.available_stages(), ablate=cfg.ablate)
    d = paths.stage_dir(stage)
    (d / "config.json").write_text(cfg.to_json())
    return d


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def save_stage(
    cfg: PipelineConfig,
    paths: RunPaths,
    stage: str,
    history: list[dict],
    model: Module,
    extras: dict[str, np.ndarray] | None = None,
    meta: dict | None = None,
) -> None:
    """Write the stage's checkpoint (`model` under model/ plus the `extras`
    keys; config snapshot plus `meta` in the sidecar) and its metrics.jsonl."""
    tensors = {**model.state("model/"), **(extras or {})}
    save_checkpoint(paths.checkpoint(stage), CheckpointArchive(tensors, stage, {**cfg.to_dict(), **(meta or {})}))
    _write_jsonl(paths.stage_dir(stage) / "metrics.jsonl", history)


def load_stage(paths: RunPaths, stage: str, model: Module | None = None) -> CheckpointArchive:
    """Read the stage's checkpoint, loading its model/ keys into `model` if given."""
    ckpt = require_stage(load_checkpoint(paths.checkpoint(stage)), stage)
    if model is not None:
        model.load_state(ckpt.tensors, "model/")
    return ckpt


def _synthetic_spec(cfg: PipelineConfig) -> SyntheticGenSpec:
    return SyntheticGenSpec(
        n_classes=cfg.n_classes,
        records_per_class=cfg.records_per_class,
        c=cfg.c,
        l=cfg.l,
        noise_std=cfg.noise_std,
        sample_rate=cfg.sample_rate,
        seed=cfg.seed,
        sinusoids_per_class=cfg.sinusoids_per_class,
        records_per_image=cfg.records_per_image,
        subjects=cfg.subjects,
    )


def load_run_data(cfg: PipelineConfig, paths: RunPaths) -> tuple[EegDataset, DatasetSplit]:
    dataset, _ = load_dataset(paths.root / "data" / "dataset.bvd", normalize=True)
    return dataset, split_by_image(dataset, seed=cfg.seed)


# ---------------------------------------------------------------------------
# stages


def run_gen_data(cfg: PipelineConfig, paths: RunPaths) -> dict:
    stage_dir = _enter_stage(cfg, paths, "data")
    dataset = generate_synthetic(_synthetic_spec(cfg))
    write_dataset(stage_dir / "dataset.bvd", dataset, n_classes=cfg.n_classes, normalized=False)
    fixtures = generate_fixtures(
        cfg.n_classes, cfg.records_per_class, e=cfg.e, seed=cfg.seed, caption_offset=cfg.caption_offset
    )
    write_fixtures(stage_dir / "fixtures.bve", fixtures, e=cfg.e)
    summary = {"records": len(dataset), "images": cfg.n_classes * cfg.records_per_class, "fixtures": len(fixtures)}
    _write_jsonl(stage_dir / "metrics.jsonl", [summary])
    return summary


def run_train_lmm(cfg: PipelineConfig, paths: RunPaths) -> dict:
    _enter_stage(cfg, paths, "lmm")
    dataset, split = load_run_data(cfg, paths)
    train = dataset.take(split.train)
    steps_per_epoch = max(1, -(-len(train) // cfg.batch))
    result = train_lmm(
        train,
        n_units=cfg.n,
        d=cfg.d,
        n_heads=cfg.heads,
        ffn_dim=cfg.ffn,
        sa_blocks=cfg.sa_blocks,
        ca_blocks=cfg.ca_blocks,
        n_codewords=cfg.n_t,
        mask_ratio=cfg.r_m,
        teacher_momentum=cfg.teacher_momentum,
        lr=cfg.lr,
        steps=cfg.epochs["lmm"] * steps_per_epoch,
        batch_size=cfg.batch,
        seed=cfg.seed,
    )
    save_stage(cfg, paths, "lmm", result.history, result.models)
    return {"steps": len(result.history), "final_l_lmm": result.history[-1]["l_lmm"] if result.history else None}


def run_train_freq(cfg: PipelineConfig, paths: RunPaths) -> dict:
    _enter_stage(cfg, paths, "freq")
    dataset, split = load_run_data(cfg, paths)
    result = freq_classify_train(
        dataset,
        split,
        n_classes=cfg.n_classes,
        hidden=cfg.lstm_hidden,
        epochs=cfg.epochs["freq"],
        batch_size=cfg.batch,
        lr=cfg.lr,
        seed=cfg.seed,
    )
    extras = {"spectrum_scale": np.asarray([result.spectrum_scale], dtype=np.float32)}
    save_stage(cfg, paths, "freq", result.history, result.model, extras=extras)
    last = result.history[-1] if result.history else {}
    return {"epochs": len(result.history), "val_acc": last.get("val_acc")}


def _tfe_model(cfg: PipelineConfig, rng: np.random.Generator, use_time: bool, use_freq: bool, spectrum_scale: float) -> TfeModel:
    """The fused classifier's architecture, with fresh weights drawn from `rng`;
    a disabled branch is left out, not built."""
    return TfeModel(
        UnitProjector(cfg.unit_dim, cfg.d, cfg.n, rng) if use_time else None,
        VisibleEncoder(cfg.d, cfg.heads, cfg.ffn, cfg.sa_blocks, rng) if use_time else None,
        LstmEncoder(cfg.c, cfg.lstm_hidden, rng) if use_freq else None,
        Linear(cfg.d + cfg.lstm_hidden, cfg.n_classes, rng),
        spectrum_scale,
    )


def run_finetune_tfe(cfg: PipelineConfig, paths: RunPaths) -> dict:
    """Fine-tune the fused classifier.  A branch starts from its pretraining
    stage's weights whenever the ablation runs that stage: no-time and
    no-pretrain cold-start the time branch, no-freq has no frequency branch."""
    _enter_stage(cfg, paths, "tfe")
    dataset, split = load_run_data(cfg, paths)
    skipped = ABLATION_SKIPS[cfg.ablate]
    use_time = cfg.ablate != "no-time"
    use_freq = "freq" not in skipped
    freq = load_stage(paths, "freq").tensors if use_freq else None
    scale = float(freq["spectrum_scale"][0]) if use_freq else 1.0

    model = _tfe_model(cfg, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x7FE])), use_time, use_freq, scale)
    if "lmm" not in skipped:
        lmm = load_stage(paths, "lmm").tensors
        model.projector.load_state(lmm, "model/projector.")
        model.encoder.load_state(lmm, "model/encoder.")
    if use_freq:
        model.freq_encoder.load_state(freq, "model/encoder.")

    result = finetune_tfe(
        model, dataset, split,
        n_units=cfg.n,
        stage1_epochs=cfg.epochs["time_ft"], stage2_epochs=cfg.epochs["joint_ft"],
        batch_size=cfg.batch, lr=cfg.lr, seed=cfg.seed,
        run_stage2=cfg.ablate != "no-finetune",
    )
    save_stage(
        cfg, paths, "tfe", result.history, model,
        extras={"spectrum_scale": np.asarray([scale], dtype=np.float32)},
        meta={"use_time": use_time, "use_freq": use_freq,
              "stage1_done": result.stage1_done, "stage2_done": result.stage2_done},
    )
    last = result.history[-1] if result.history else {}
    return {"epochs": len(result.history), "train_acc": last.get("train_acc"), "val_acc": last.get("val_acc")}


def _load_tfe(cfg: PipelineConfig, paths: RunPaths) -> TfeModel:
    ckpt = load_stage(paths, "tfe")
    scale = float(ckpt.tensors["spectrum_scale"][0])
    model = _tfe_model(cfg, np.random.default_rng(0), ckpt.config["use_time"], ckpt.config["use_freq"], scale)
    model.load_state(ckpt.tensors, "model/")
    return model


def _align_net(cfg: PipelineConfig, rng: np.random.Generator) -> AlignmentNet:
    """Fused rows (d + h) to the semantic space, fresh weights drawn from `rng`."""
    return AlignmentNet(cfg.d + cfg.lstm_hidden, cfg.e, rng, n_blocks=cfg.align_blocks)


def _denoiser(cfg: PipelineConfig, rng: np.random.Generator) -> DenoiserNet:
    return DenoiserNet(cfg.latent_shape, cfg.e, cfg.n_classes, cfg.denoiser_hidden, rng)


def _load_align(cfg: PipelineConfig, paths: RunPaths) -> AlignmentNet:
    net = _align_net(cfg, np.random.default_rng(0))
    load_stage(paths, "align", net)
    return net


def _tfe_embeddings(cfg: PipelineConfig, model: TfeModel, dataset: EegDataset) -> np.ndarray:
    return model.tfe_embedding(*tfe_inputs(model, dataset, cfg.n))


def run_train_align(cfg: PipelineConfig, paths: RunPaths) -> dict:
    _enter_stage(cfg, paths, "align")
    dataset, split = load_run_data(cfg, paths)
    model = _load_tfe(cfg, paths)
    fixtures, e = load_fixtures(paths.root / "data" / "fixtures.bve")
    if e != cfg.e:
        raise ValueError(f"run_train_align: fixture dim {e} differs from config e={cfg.e}")

    train = dataset.take(split.train)
    embeddings = _tfe_embeddings(cfg, model, train)

    result = train_align(
        embeddings, train.labels, train.image_ids, fixtures,
        e=cfg.e,
        epochs=cfg.epochs["align"],
        batch_size=cfg.batch,
        lr=cfg.lr,
        seed=cfg.seed,
        label_weight=cfg.label_weight,
        net=_align_net(cfg, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xA11]))),
    )
    save_stage(cfg, paths, "align", result.history, result.net)
    return {"epochs": len(result.history), "final_si_loss": result.history[-1]["si_loss"] if result.history else None}


def run_train_diffusion(cfg: PipelineConfig, paths: RunPaths) -> dict:
    _enter_stage(cfg, paths, "diffusion")
    dataset, split = load_run_data(cfg, paths)
    model = _load_tfe(cfg, paths)
    image_set = make_image_set(cfg.n_classes, cfg.records_per_class, size=cfg.latent_size,
                               channels=cfg.latent_channels, seed=cfg.seed)

    train = dataset.take(split.train)
    images = np.stack([image_set[i][0] for i in train.image_ids.tolist()])

    eeg_conditions = None
    if cfg.ablate != "no-semantic":
        eeg_conditions = align(_load_align(cfg, paths), _tfe_embeddings(cfg, model, train))

    schedule = NoiseSchedule.linear(T=cfg.T)
    net = _denoiser(cfg, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xD1F])))
    result = train_denoiser(
        net, schedule, images, train.labels, eeg_conditions,
        steps=cfg.diffusion_steps,
        batch_size=cfg.diffusion_batch,
        lr=cfg.lr,
        seed=cfg.seed,
        class_condition_prob=1.0 if cfg.ablate == "no-semantic" else 0.5,
    )
    save_stage(cfg, paths, "diffusion", result.history, net)
    return {"steps": len(result.history), "final_loss": result.history[-1]["loss"] if result.history else None}


def run_generate(cfg: PipelineConfig, paths: RunPaths) -> dict:
    """Sample `samples_per_record` images for every test record.

    The test records' units and spectra are computed once; their fused rows
    give both the predicted labels and, through one `align` call, the
    semantic conditions.  All records x samples then advance through the
    reverse chain as one batch (T denoiser calls), each sample on its own
    seed stream, and the PPMs and provenance rows are written in
    record-major, sample-minor order.
    """
    stage_dir = _enter_stage(cfg, paths, "generate")
    dataset, split = load_run_data(cfg, paths)
    model = _load_tfe(cfg, paths)
    denoiser = _denoiser(cfg, np.random.default_rng(0))
    load_stage(paths, "diffusion", denoiser)
    schedule = NoiseSchedule.linear(T=cfg.T)
    cascade = CascadeConfig(rho=cfg.rho)
    mode = {"no-refine": "no-refine", "no-semantic": "no-semantic"}.get(cfg.ablate, "cascade")

    test = dataset.take(split.test)
    embeddings = _tfe_embeddings(cfg, model, test)
    with no_grad():
        predicted = np.argmax(model.head(Tensor(embeddings)).data, axis=1)
        if cfg.stage2_condition == "fixture":
            fixtures, _ = load_fixtures(paths.root / "data" / "fixtures.bve")
            class_cond = np.stack([
                lookup(fixtures, int(label), int(label) * cfg.records_per_class).c_label for label in predicted
            ])
        else:
            class_cond = denoiser.class_condition(predicted).data
    if mode == "no-semantic":
        c_eeg = np.zeros((len(test), cfg.e))
    else:
        c_eeg = align(_load_align(cfg, paths), embeddings)

    samples = generate_samples(
        schedule, denoiser,
        record_indices=np.asarray(split.test),
        c_eeg=c_eeg,
        predicted_labels=predicted,
        class_cond=class_cond,
        cascade=cascade,
        n_samples=cfg.samples_per_record,
        master_seed=cfg.seed,
        mode=mode,
    )
    images_dir = stage_dir / "images"
    images_dir.mkdir(exist_ok=True)
    provenance_rows = []
    for latent, prov in samples:
        record = dataset[prov.record_index]
        write_ppm(images_dir / sample_filename(prov.record_index, prov.sample_index), latent)
        row_dict = prov.to_dict()
        row_dict["true_label"] = record.class_label
        row_dict["image_id"] = record.image_id
        provenance_rows.append(row_dict)

    _write_jsonl(stage_dir / "provenance.jsonl", provenance_rows)
    summary = {"samples": len(provenance_rows), "records": len(test), "mode": mode}
    _write_jsonl(stage_dir / "metrics.jsonl", [summary])
    return summary


def run_evaluate(cfg: PipelineConfig, paths: RunPaths) -> MetricsReport:
    stage_dir = _enter_stage(cfg, paths, "evaluate")
    dataset, split = load_run_data(cfg, paths)
    model = _load_tfe(cfg, paths)

    test = dataset.take(split.test)
    logits = classify_batch(model, test, cfg.n)
    cls_block = classification_block(logits, test.labels, cfg.n_classes)

    image_set = make_image_set(cfg.n_classes, cfg.records_per_class, size=cfg.latent_size,
                               channels=cfg.latent_channels, seed=cfg.seed)
    all_images = np.stack([img for img, _ in image_set.values()])
    all_labels = np.array([lab for _, lab in image_set.values()])
    surrogate = train_surrogate(
        all_images, all_labels, cfg.n_classes,
        hidden=cfg.surrogate_hidden, epochs=cfg.surrogate_epochs, lr=3e-3, seed=cfg.seed,
    )

    generated, gen_labels, gt_pairs = [], [], []
    images_dir = paths.root / "generate" / "images"
    for dataset_index, label, image_id in zip(split.test, test.labels.tolist(), test.image_ids.tolist()):
        for s in range(cfg.samples_per_record):
            ppm_path = images_dir / sample_filename(dataset_index, s)
            if not ppm_path.exists():
                raise StageError(f"evaluate: missing generated image {ppm_path.name}; run generate first")
            rgb = read_ppm(ppm_path).astype(np.float64) / 255.0 * 2.0 - 1.0
            generated.append(np.transpose(rgb, (2, 0, 1)))
            gen_labels.append(label)
            gt_pairs.append(image_set[image_id][0])
    generated = np.stack(generated)
    gt_pairs = np.stack(gt_pairs)
    gt_pool = np.stack([image_set[i][0] for i in test.image_ids.tolist()])

    ga_cfg = GaConfig(n_way=cfg.ga_n, top_k=cfg.ga_k, n_trials=cfg.ga_trials, seed=cfg.seed)
    gen_block = evaluate_generation(
        generated, np.array(gen_labels), gt_pool, gt_pairs, surrogate.model, ga_cfg, is_splits=cfg.is_splits
    )

    report = MetricsReport(
        **cls_block, **gen_block, config={**cfg.to_dict(), "surrogate_train_acc": surrogate.train_accuracy}
    )
    report.validate_ranges()
    (stage_dir / "report.json").write_text(report.to_json())
    _write_jsonl(stage_dir / "metrics.jsonl", [json.loads(report.to_json())])
    return report


def run_grad_check(probes: int = 10, seed: int = 2024, tol: float = 1e-4) -> tuple[dict[str, float], bool]:
    from ..autodiff.gradcheck import run_catalog_suite

    worst = run_catalog_suite(probes=probes, seed=seed, tol=tol)
    return worst, all(v < tol for v in worst.values())


STAGES: dict[str, Stage] = {
    "data": Stage("gen-data", "generate the synthetic dataset and semantic fixtures", run_gen_data,
                  "dataset.bvd", ()),
    "lmm": Stage("train-lmm", "masked-latent pretraining of the time branch", run_train_lmm,
                 "checkpoint.bvc", ("data",)),
    "freq": Stage("train-freq", "supervised pretraining of the frequency branch", run_train_freq,
                  "checkpoint.bvc", ("data",)),
    "tfe": Stage("finetune-tfe", "staged fine-tuning of the fused classifier", run_finetune_tfe,
                 "checkpoint.bvc", ("data", "lmm", "freq")),
    "align": Stage("train-align", "train the semantic alignment network", run_train_align,
                   "checkpoint.bvc", ("data", "tfe")),
    "diffusion": Stage("train-diffusion", "train the conditional denoiser", run_train_diffusion,
                       "checkpoint.bvc", ("data", "tfe", "align")),
    "generate": Stage("generate", "sample images for the test records", run_generate,
                      "provenance.jsonl", ("data", "tfe", "align", "diffusion")),
    "evaluate": Stage("evaluate", "score classification and generation, write report.json", run_evaluate,
                      "report.json", ("data", "tfe", "generate")),
}


def run_full_chain(cfg: PipelineConfig, paths: RunPaths) -> MetricsReport:
    """gen-data through evaluate, leaving out the stages the ablation skips."""
    for name, stage in STAGES.items():
        if name not in ABLATION_SKIPS[cfg.ablate]:
            result = stage.run(cfg, paths)
    return result

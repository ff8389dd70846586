"""The pipeline's stages over a run directory, and the one table that lists them.

Layout: {run_dir}/{stage}/ holding config.json (snapshot), metrics.jsonl
(per-epoch or per-step log lines), and checkpoint.bvc, or for generation an
images/ directory plus provenance.jsonl and for evaluate report.json.  Every
array a run stores is in a stage's checkpoint.bvc, a BVC archive (binio):
one file, written only by `save_stage`, whose checksummed header carries the
tag of the stage that wrote it.  Every archive read names the tag it
expects, and `load_checkpoint` refuses any other.  gen-data's archive holds
the trials, the target images and the semantic fixtures (key layout in
pipeline.checkpoint), each built once, there.  Every later stage reads it
once and asks only for the keys it uses: lmm, freq and tfe the trials
(`load_run_data`), the other stages ids and images (`_load_ids`).

`STAGES` is the chain in run order.  Each row gives the stage's CLI command,
the function that runs it, the file that marks it done and the run files it
reads; its prerequisites (`Stage.needs`) are the stages that write those files.
Every stage checks its prerequisites before doing any work and opens run files
only through `RunPaths.read`, which refuses a file the stage's row does not
declare.  An ablation drops the stages it skips (config.ABLATION_SKIPS) from
the chain and from the prerequisites.
Every stage file but the generated images appears whole, through a temporary
file and a rename (`binio.write_whole`), and the marker comes last
(metrics.jsonl before checkpoint.bvc, the images before provenance.jsonl),
and a stage removes its old marker before it writes, so a stage, or a
rerun, that fails mid-write is not done.  Stages hand arrays on only through
`save_stage` and `load_stage` (key layout in pipeline.checkpoint).
A network that later stages only read from runs forward once per split, in
the stage that trained it, and saves its output rows as extras, which later
stages read through `_stored_rows`; only generate rebuilds a network, the
denoiser.

This module builds every network from the config, each through one builder
or constructor (`build_lmm_models`, `FreqClassifier`, `_tfe_model`,
`_align_net`, `_denoiser`, and evaluate's `SurrogateClassifier`), and prepares
its input arrays (`prepare_units`, `train_spectra`, `tfe_inputs`, the stored
rows of earlier stages); every trainer (`train_lmm`, `freq_classify_train`,
`finetune_tfe`, `train_align`, `train_denoiser`, `train_surrogate`) trains the
network it is given in place.  Each stage trainer returns its history, one
dict per step or epoch, which becomes metrics.jsonl; `train_surrogate`
returns the surrogate's train accuracy, which the report records.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from ..align.fixtures import FIXTURE_KEYS, archived_fixtures, generate_fixtures
from ..align.model import AlignmentNet, align
from ..align.train import train_align
from ..autodiff import predict
from ..autodiff.nn import Linear, LstmEncoder, Module
from ..binio import write_whole
from ..data.bvd import load_dataset
from ..data.images import make_image_set
from ..data.records import DatasetSplit, EegDataset, zscore_channels
from ..data.split import split_by_image
from ..data.synthetic import SyntheticGenSpec, generate_synthetic
from ..diffusion.cascade import generate_samples
from ..diffusion.ddpm import train_denoiser
from ..diffusion.denoiser import DenoiserNet
from ..diffusion.ppm import read_ppm, sample_filename, write_ppm
from ..diffusion.schedule import NoiseSchedule
from ..freq.train import FreqClassifier, freq_classify_train, train_spectra
from ..fusion.model import TfeModel
from ..fusion.train import classify_batch, finetune_tfe, tfe_inputs
from ..lmm.model import UnitProjector, VisibleEncoder
from ..lmm.train import build_lmm_models, prepare_units, train_lmm
from ..metrics.report import MetricsReport, classification_block, evaluate_generation
from ..metrics.surrogate import SurrogateClassifier, train_surrogate
from .checkpoint import StageError, load_checkpoint, save_checkpoint
from .config import ABLATION_SKIPS, PipelineConfig


@dataclass
class RunPaths:
    root: Path
    stage: str | None = None  # the stage whose reads `read` checks; None outside any stage

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

    def read(self, path: str) -> Path:
        """The run file at run-relative `path`: refused unless the bound stage's
        row declares it or its directory, and checked to exist."""
        if self.stage and not {path, path.rpartition("/")[0] + "/"} & set(STAGES[self.stage].reads):
            raise StageError(f"stage {self.stage!r} reads {path}, which its STAGES row does not declare")
        if not (self.root / path).is_file():
            reader = f"stage {self.stage!r} reads" if self.stage else "reading"
            raise StageError(f"{reader} {path}, which is missing: stage {path.split('/')[0]!r} writes it")
        return self.root / path


@dataclass(frozen=True)
class Stage:
    command: str  # CLI subcommand
    help: str
    run: Callable[[PipelineConfig, RunPaths], object]
    marker: str  # file in the stage directory whose presence marks the stage done
    reads: tuple[str, ...]  # run-relative files the stage opens; a directory ending in "/" covers its files

    @property
    def needs(self) -> tuple[str, ...]:
        """The stages that write the files this one reads: each run file lies
        under the directory of the stage that writes it."""
        return tuple(dict.fromkeys(path.split("/")[0] for path in self.reads))


def check_prerequisites(stage: str, available: set[str], ablate: str | None = None) -> None:
    """Raise naming the first missing prerequisite of `stage`, ignoring the
    stages the ablation mode `ablate` skips."""
    for dep in STAGES[stage].needs:
        if dep not in available and dep not in ABLATION_SKIPS[ablate]:
            raise StageError(f"stage {stage!r} requires {dep!r}, which has not been run")


def _enter_stage(cfg: PipelineConfig, paths: RunPaths, stage: str) -> RunPaths:
    """Check `stage`'s prerequisites, remove its marker, snapshot the config,
    and return `paths` bound to the stage, so that every read the stage makes
    is checked.  A rerun that fails partway thus leaves the stage not done."""
    check_prerequisites(stage, paths.available_stages(), ablate=cfg.ablate)
    (paths.stage_dir(stage) / STAGES[stage].marker).unlink(missing_ok=True)
    write_whole(paths.stage_dir(stage) / "config.json", [cfg.to_json().encode()])
    return replace(paths, stage=stage)


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    write_whole(path, ((json.dumps(row, sort_keys=True) + "\n").encode() for row in rows))


def save_stage(paths: RunPaths, stage: str, history: list[dict], model: Module | None = None,
               extras: dict[str, np.ndarray] | None = None) -> None:
    """Write the stage's metrics.jsonl, then its checkpoint (`model`, if given,
    under model/ plus the `extras` keys), which marks the stage done."""
    _write_jsonl(paths.stage_dir(stage) / "metrics.jsonl", history)
    state = model.state("model/") if model is not None else {}
    save_checkpoint(paths.checkpoint(stage), {**state, **(extras or {})}, stage)


def load_stage(paths: RunPaths, stage: str, model: Module | None = None,
               keys: Iterable[str] | None = None) -> dict[str, np.ndarray]:
    """The tensors of the stage's checkpoint named in `keys` (all if None), read
    in one pass, its model/ keys loaded into `model` if given."""
    tensors = load_checkpoint(paths.read(f"{stage}/checkpoint.bvc"), stage, keys)
    if model is not None:
        model.load_state(tensors, "model/")
    return tensors


def _stored_rows(paths: RunPaths, stage: str, **n_rows: int) -> list[np.ndarray]:
    """The row arrays `stage` saved under the keys of `n_rows`, each checked
    to hold its given row count: a checkpoint left from another gen-data run
    would otherwise pair rows with the wrong records."""
    tensors = load_stage(paths, stage, keys=n_rows)
    for key, n in n_rows.items():
        found = len(tensors[key])
        if found != n:
            raise StageError(f"stage {paths.stage!r}: {stage} checkpoint key {key!r} has {found} rows for a split of "
                             f"{n} records; rerun {stage!r}")
    return [tensors[key] for key in n_rows]


def _synthetic_spec(cfg: PipelineConfig) -> SyntheticGenSpec:
    return SyntheticGenSpec(
        n_classes=cfg.n_classes, records_per_class=cfg.records_per_class, c=cfg.c, l=cfg.l, noise_std=cfg.noise_std,
        sample_rate=cfg.sample_rate, seed=cfg.seed, sinusoids_per_class=cfg.sinusoids_per_class,
        records_per_image=cfg.records_per_image, subjects=cfg.subjects,
    )


def load_run_data(cfg: PipelineConfig, paths: RunPaths) -> tuple[EegDataset, DatasetSplit]:
    dataset = load_dataset(paths.read("data/checkpoint.bvc"))
    return dataset, split_by_image(dataset.image_ids, seed=cfg.seed)


def _load_ids(cfg: PipelineConfig, paths: RunPaths, *keys: str) -> tuple[dict[str, np.ndarray], DatasetSplit]:
    """`image_ids` and the other `keys` of gen-data's archive, read once without the
    trials, and the split, which is built from the image ids alone."""
    data = load_stage(paths, "data", keys=("image_ids", *keys))
    return data, split_by_image(data["image_ids"], seed=cfg.seed)


# ---------------------------------------------------------------------------
# stages


def run_gen_data(cfg: PipelineConfig, paths: RunPaths) -> dict:
    """Generate the trials, z-score each channel once, build the semantic
    fixtures and the target images, and save them all as the stage's one
    archive; the images and fixtures share one class column, image_labels."""
    paths = _enter_stage(cfg, paths, "data")
    raw = generate_synthetic(_synthetic_spec(cfg))
    dataset = replace(raw, x=zscore_channels(raw.x))
    fixtures = generate_fixtures(
        cfg.n_classes, cfg.records_per_class, e=cfg.e, seed=cfg.seed, caption_offset=cfg.caption_offset
    )
    images, _ = make_image_set(cfg.n_classes, cfg.records_per_class, size=cfg.latent_size,
                               channels=cfg.latent_channels, seed=cfg.seed)
    summary = {"records": len(dataset), "images": len(images), "fixtures": len(fixtures)}
    save_stage(paths, "data", [summary], extras={
        **vars(dataset), "images": images, "image_labels": fixtures.labels, "c_label": fixtures.c_label,
        "c_cap": fixtures.c_cap,
    })
    return summary


def run_train_lmm(cfg: PipelineConfig, paths: RunPaths) -> dict:
    """Saves model/predictor.* too, unread by tfe: each stage saves all it trained."""
    paths = _enter_stage(cfg, paths, "lmm")
    dataset, split = load_run_data(cfg, paths)
    units = prepare_units(dataset, cfg.n)
    models = build_lmm_models(
        unit_dim=cfg.unit_dim, n_units=cfg.n, d=cfg.d, n_heads=cfg.heads, ffn_dim=cfg.ffn, sa_blocks=cfg.sa_blocks,
        ca_blocks=cfg.ca_blocks, n_codewords=cfg.n_t, teacher_momentum=cfg.teacher_momentum, seed=cfg.seed,
    )
    steps_per_epoch = max(1, -(-len(split.train) // cfg.batch))
    history = train_lmm(units, models, rows=split.train, mask_ratio=cfg.r_m, lr=cfg.lr,
                        steps=cfg.epochs["lmm"] * steps_per_epoch, batch_size=cfg.batch, seed=cfg.seed)
    save_stage(paths, "lmm", history, models)
    return {"steps": len(history), "final_l_lmm": history[-1]["l_lmm"] if history else None}


def run_train_freq(cfg: PipelineConfig, paths: RunPaths) -> dict:
    paths = _enter_stage(cfg, paths, "freq")
    dataset, split = load_run_data(cfg, paths)
    spectra, scale = train_spectra(dataset, split)
    # One stream draws the weights, then shuffles every epoch.
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF9E9]))
    model = FreqClassifier(cfg.c, cfg.lstm_hidden, cfg.n_classes, rng)
    history = freq_classify_train(model, spectra, dataset.labels, split, epochs=cfg.epochs["freq"],
                                  batch_size=cfg.batch, lr=cfg.lr, rng=rng)
    save_stage(paths, "freq", history, model,
               extras={"spectrum_scale": np.asarray([scale], dtype=np.float32)})
    return {"epochs": len(history), "val_acc": history[-1]["val_acc"] if history else None}


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
    paths = _enter_stage(cfg, paths, "tfe")
    dataset, split = load_run_data(cfg, paths)
    skipped = ABLATION_SKIPS[cfg.ablate]
    use_time = cfg.ablate != "no-time"
    use_freq = "freq" not in skipped
    freq = load_stage(paths, "freq") if use_freq else None
    scale = float(freq["spectrum_scale"][0]) if use_freq else 1.0

    model = _tfe_model(cfg, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x7FE])), use_time, use_freq, scale)
    if "lmm" not in skipped:
        branches = {"model/projector.": model.projector, "model/encoder.": model.encoder}
        lmm = load_stage(paths, "lmm", keys=[name for prefix, branch in branches.items()
                                             for name, _ in branch.named_parameters(prefix)])
        for prefix, branch in branches.items():
            branch.load_state(lmm, prefix)
    if use_freq:
        model.freq_encoder.load_state(freq, "model/encoder.")

    inputs = tfe_inputs(model, dataset, cfg.n)
    history = finetune_tfe(
        model, *inputs, dataset.labels, split,
        stage1_epochs=cfg.epochs["time_ft"], stage2_epochs=cfg.joint_ft_epochs,
        batch_size=cfg.batch, lr=cfg.lr, seed=cfg.seed,
    )
    train_fused, test_fused = (predict(model.fused, *inputs, rows=rows) for rows in (split.train, split.test))
    save_stage(paths, "tfe", history, model,
               extras={"spectrum_scale": np.asarray([scale], dtype=np.float32), "train_fused": train_fused,
                       "test_fused": test_fused, "test_logits": classify_batch(model, test_fused)})
    last = history[-1] if history else {}
    return {"epochs": len(history), "train_acc": last.get("train_acc"), "val_acc": last.get("val_acc")}


def _align_net(cfg: PipelineConfig, rng: np.random.Generator) -> AlignmentNet:
    """Fused rows (d + h) to the semantic space, fresh weights drawn from `rng`."""
    return AlignmentNet(cfg.d + cfg.lstm_hidden, cfg.e, rng, n_blocks=cfg.align_blocks)


def _denoiser(cfg: PipelineConfig, rng: np.random.Generator) -> DenoiserNet:
    return DenoiserNet(cfg.latent_shape, cfg.e, cfg.n_classes, cfg.denoiser_hidden, rng)


def run_train_align(cfg: PipelineConfig, paths: RunPaths) -> dict:
    paths = _enter_stage(cfg, paths, "align")
    data, split = _load_ids(cfg, paths, "labels", *FIXTURE_KEYS)
    train_fused, test_fused = _stored_rows(paths, "tfe", train_fused=len(split.train), test_fused=len(split.test))

    net = _align_net(cfg, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xA11])))
    history = train_align(
        net, train_fused, data["labels"][split.train], data["image_ids"][split.train], archived_fixtures(data),
        epochs=cfg.epochs["align"], batch_size=cfg.batch, lr=cfg.lr, seed=cfg.seed, label_weight=cfg.label_weight,
    )
    save_stage(paths, "align", history, net,
               extras={"train_c_eeg": align(net, train_fused), "test_c_eeg": align(net, test_fused)})
    return {"epochs": len(history), "final_si_loss": history[-1]["si_loss"] if history else None}


def run_train_diffusion(cfg: PipelineConfig, paths: RunPaths) -> dict:
    paths = _enter_stage(cfg, paths, "diffusion")
    data, split = _load_ids(cfg, paths, "labels", "images")
    train = split.train
    eeg_conditions = (None if cfg.ablate == "no-semantic"
                      else _stored_rows(paths, "align", train_c_eeg=len(train))[0])

    schedule = NoiseSchedule.linear(T=cfg.T)
    net = _denoiser(cfg, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xD1F])))
    history = train_denoiser(
        net, schedule, data["images"][data["image_ids"][train]], data["labels"][train], eeg_conditions,
        steps=cfg.diffusion_steps, batch_size=cfg.diffusion_batch, lr=cfg.lr, seed=cfg.seed,
    )
    save_stage(paths, "diffusion", history, net)
    return {"steps": len(history), "final_loss": history[-1]["loss"] if history else None}


def run_generate(cfg: PipelineConfig, paths: RunPaths) -> dict:
    """Sample `samples_per_record` images for every test record.

    The semantic conditions come from the align stage's test rows and the
    predicted labels from the tfe stage's test logits; `generate_samples`
    embeds those labels as the class condition, which takes over at
    floor(rho * T) (at 0 under no-refine, at T under no-semantic).  All
    records x samples advance through the one reverse chain as one batch (T
    denoiser calls), each sample on its own seed stream, and the PPMs and
    provenance rows are written in record-major, sample-minor order.
    """
    paths = _enter_stage(cfg, paths, "generate")
    stage_dir = paths.stage_dir("generate")
    data, split = _load_ids(cfg, paths, "labels")
    denoiser = _denoiser(cfg, np.random.default_rng(0))
    load_stage(paths, "diffusion", denoiser)
    schedule = NoiseSchedule.linear(T=cfg.T)
    mode = {"no-refine": "no-refine", "no-semantic": "no-semantic"}.get(cfg.ablate, "cascade")

    n_test = len(split.test)
    (logits,) = _stored_rows(paths, "tfe", test_logits=n_test)
    c_eeg = np.zeros((n_test, cfg.e)) if mode == "no-semantic" else _stored_rows(paths, "align", test_c_eeg=n_test)[0]

    predicted = np.argmax(logits, axis=1)
    n_samples = cfg.samples_per_record
    latents, stage1_steps, stage2_steps = generate_samples(
        schedule, denoiser, record_indices=np.asarray(split.test), c_eeg=c_eeg, predicted_labels=predicted,
        rho=cfg.rho, n_samples=n_samples, master_seed=cfg.seed, mode=mode)
    images_dir = stage_dir / "images"
    images_dir.mkdir(exist_ok=True)
    provenance_rows = []
    for row, (i, label, c_vec) in enumerate(zip(split.test, predicted, c_eeg)):
        record = {"record_index": i, "predicted_label": int(label), "stage1_steps": stage1_steps,
                  "stage2_steps": stage2_steps, "mode": mode, "true_label": int(data["labels"][i]),
                  "image_id": int(data["image_ids"][i]),
                  # over the condition's float64 bytes, as the sampler took it
                  "c_eeg_crc32": f"{zlib.crc32(np.asarray(c_vec, dtype='<f8').tobytes()):08x}"}
        for s in range(n_samples):
            write_ppm(images_dir / sample_filename(i, s), latents[row * n_samples + s])
            provenance_rows.append({**record, "sample_index": s})

    summary = {"samples": len(provenance_rows), "records": n_test, "mode": mode}
    _write_jsonl(stage_dir / "metrics.jsonl", [summary])
    _write_jsonl(stage_dir / "provenance.jsonl", provenance_rows)
    return summary


def run_evaluate(cfg: PipelineConfig, paths: RunPaths) -> MetricsReport:
    paths = _enter_stage(cfg, paths, "evaluate")
    stage_dir = paths.stage_dir("evaluate")
    data, split = _load_ids(cfg, paths, "labels", "images", "image_labels")
    test_labels, test_ids = data["labels"][split.test], data["image_ids"][split.test]
    (logits,) = _stored_rows(paths, "tfe", test_logits=len(split.test))
    cls_block = classification_block(logits, test_labels, cfg.n_classes)

    images, labels = data["images"], data["image_labels"]
    surrogate = SurrogateClassifier(images[0].size, cfg.surrogate_hidden, cfg.n_classes,
                                    np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5A9])))
    surrogate_train_acc = train_surrogate(surrogate, images, labels, epochs=cfg.surrogate_epochs, lr=3e-3)

    generated = []
    for dataset_index in split.test:
        for s in range(cfg.samples_per_record):
            rgb = read_ppm(paths.read(f"generate/images/{sample_filename(dataset_index, s)}"))
            generated.append(np.transpose(rgb.astype(np.float64) / 255.0 * 2.0 - 1.0, (2, 0, 1)))
    generated = np.stack(generated)
    gen_labels = np.repeat(test_labels, cfg.samples_per_record)
    gt_pairs = images[np.repeat(test_ids, cfg.samples_per_record)]
    gt_pool = images[test_ids]

    gen_block = evaluate_generation(
        generated, gen_labels, gt_pool, gt_pairs, surrogate,
        n_way=cfg.ga_n, top_k=cfg.ga_k, is_splits=cfg.is_splits,
    )

    report = MetricsReport(
        **cls_block, **gen_block, config={**cfg.to_dict(), "surrogate_train_acc": surrogate_train_acc}
    )
    report.validate_ranges()
    _write_jsonl(stage_dir / "metrics.jsonl", [json.loads(report.to_json())])
    write_whole(stage_dir / "report.json", [report.to_json().encode()])
    return report


STAGES: dict[str, Stage] = {
    "data": Stage("gen-data", "generate the synthetic dataset and semantic fixtures", run_gen_data,
                  "checkpoint.bvc", ()),
    "lmm": Stage("train-lmm", "masked-latent pretraining of the time branch", run_train_lmm,
                 "checkpoint.bvc", ("data/checkpoint.bvc",)),
    "freq": Stage("train-freq", "supervised pretraining of the frequency branch", run_train_freq,
                  "checkpoint.bvc", ("data/checkpoint.bvc",)),
    "tfe": Stage("finetune-tfe", "staged fine-tuning of the fused classifier", run_finetune_tfe,
                 "checkpoint.bvc", ("data/checkpoint.bvc", "lmm/checkpoint.bvc", "freq/checkpoint.bvc")),
    "align": Stage("train-align", "train the semantic alignment network", run_train_align,
                   "checkpoint.bvc", ("data/checkpoint.bvc", "tfe/checkpoint.bvc")),
    "diffusion": Stage("train-diffusion", "train the conditional denoiser", run_train_diffusion,
                       "checkpoint.bvc", ("data/checkpoint.bvc", "align/checkpoint.bvc")),
    "generate": Stage("generate", "sample images for the test records", run_generate, "provenance.jsonl",
                      ("data/checkpoint.bvc", "tfe/checkpoint.bvc", "align/checkpoint.bvc", "diffusion/checkpoint.bvc")),
    "evaluate": Stage("evaluate", "score classification and generation, write report.json", run_evaluate,
                      "report.json",
                      ("data/checkpoint.bvc", "tfe/checkpoint.bvc", "generate/images/")),
}


def run_full_chain(cfg: PipelineConfig, paths: RunPaths) -> MetricsReport:
    """gen-data through evaluate, leaving out the stages the ablation skips."""
    for name, stage in STAGES.items():
        if name not in ABLATION_SKIPS[cfg.ablate]:
            result = stage.run(cfg, paths)
    return result

"""Pipeline configuration: every knob explicit, validated at load time.

Defaults mirror the reference training recipe (128-channel 440-sample trials
split into 110 units, 1024-dim units, 0.75 mask ratio, 660 codewords, 8+4
attention blocks of 16 heads, ffn 4096, lr 1e-3, batch 128, epoch schedule
300/900/80/30/200).  JSON configs may override any field; unknown keys are
errors, not silently ignored, apart from two legacy keys: `ga_trials` and a
`stage2_condition` of "learned".
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..data.split import MIN_IMAGES, SPLIT_RATIOS, _largest_remainder_counts
from ..diffusion.cascade import switch_step
from ..metrics.generation import check_ssim_size

# Stages each ablation mode (None: the full chain) never runs; they drop out
# of the chain and of every later stage's prerequisites.
ABLATION_SKIPS: dict[str | None, tuple[str, ...]] = {
    None: (),
    "no-time": ("lmm",),
    "no-freq": ("freq",),
    "no-pretrain": ("lmm",),
    "no-finetune": (),
    "no-refine": (),
    "no-semantic": ("align",),
}
ABLATION_MODES = tuple(mode for mode in ABLATION_SKIPS if mode is not None)


@dataclass
class PipelineConfig:
    # signal geometry
    c: int = 128
    l: int = 440
    n: int = 110
    d: int = 1024
    # masked modeling
    r_m: float = 0.75
    n_t: int = 660
    heads: int = 16
    ffn: int = 4096
    sa_blocks: int = 8
    ca_blocks: int = 4
    teacher_momentum: float = 0.99
    # frequency branch
    lstm_hidden: int = 128
    # optimization
    lr: float = 0.001
    batch: int = 128
    epochs: dict = field(
        default_factory=lambda: {"lmm": 300, "freq": 900, "time_ft": 80, "joint_ft": 30, "align": 200}
    )
    # semantic space
    e: int = 768
    align_blocks: int = 2
    caption_offset: float = 0.25
    label_weight: float = 1.0
    # diffusion
    T: int = 100
    rho: float = 0.3
    latent_channels: int = 3
    latent_size: int = 16
    denoiser_hidden: int = 256
    diffusion_steps: int = 2000
    diffusion_batch: int = 16
    samples_per_record: int = 4
    # synthetic data
    n_classes: int = 40
    records_per_class: int = 50
    records_per_image: int = 1
    subjects: int = 6
    noise_std: float = 0.1
    sample_rate: float = 1000.0
    sinusoids_per_class: int = 2
    # evaluation (ga_n capped by the surrogate's class count, hence 40 here)
    ga_n: int = 40
    ga_k: int = 1
    is_splits: int = 1
    surrogate_hidden: int = 64
    surrogate_epochs: int = 200
    # run control
    seed: int = 0
    ablate: str | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        def positive(**kv):
            for name, v in kv.items():
                if v <= 0:
                    raise ValueError(f"PipelineConfig: {name} must be positive, got {v}")

        positive(
            c=self.c, l=self.l, n=self.n, d=self.d, n_t=self.n_t, heads=self.heads,
            ffn=self.ffn, sa_blocks=self.sa_blocks, ca_blocks=self.ca_blocks,
            lstm_hidden=self.lstm_hidden, lr=self.lr, batch=self.batch, e=self.e,
            T=self.T, latent_size=self.latent_size,
            denoiser_hidden=self.denoiser_hidden, diffusion_steps=self.diffusion_steps,
            diffusion_batch=self.diffusion_batch, n_classes=self.n_classes,
            records_per_class=self.records_per_class, records_per_image=self.records_per_image,
            sample_rate=self.sample_rate,
            samples_per_record=self.samples_per_record, align_blocks=self.align_blocks,
            surrogate_hidden=self.surrogate_hidden, surrogate_epochs=self.surrogate_epochs,
            is_splits=self.is_splits,
        )
        n_images = self.n_classes * self.records_per_class
        if n_images < MIN_IMAGES:
            raise ValueError(f"PipelineConfig: n_classes * records_per_class = {n_images} images; the split needs "
                             f"at least {MIN_IMAGES}")
        n_test_images = _largest_remainder_counts(n_images, SPLIT_RATIOS)[2]
        n_generated = n_test_images * self.records_per_image * self.samples_per_record
        if self.is_splits > n_generated:
            raise ValueError(f"PipelineConfig: is_splits={self.is_splits} exceeds the {n_generated} images generated "
                             f"for the test split")
        if self.l % self.n != 0:
            raise ValueError(f"PipelineConfig: n={self.n} must divide l={self.l}")
        if not 0.0 < self.r_m < 1.0:
            raise ValueError(f"PipelineConfig: r_m={self.r_m} outside (0, 1)")
        masked = int(np.floor(self.n * self.r_m))
        if masked == 0 or masked == self.n:
            raise ValueError(f"PipelineConfig: mask ratio {self.r_m} degenerate for n={self.n}")
        if self.d % self.heads != 0:
            raise ValueError(f"PipelineConfig: heads={self.heads} must divide d={self.d}")
        if self.latent_channels != 3:
            raise ValueError(f"PipelineConfig: latent_channels={self.latent_channels} must be 3 (RGB PPM output)")
        check_ssim_size(self.latent_size, self.latent_size, f"PipelineConfig: latent_size={self.latent_size} makes images")
        try:
            switch_step(self.rho, self.T)
        except ValueError as exc:
            raise ValueError(f"PipelineConfig: rho={self.rho} with T={self.T}: {exc}") from None
        if not 0.0 <= self.teacher_momentum <= 1.0:
            raise ValueError(f"PipelineConfig: teacher_momentum={self.teacher_momentum} outside [0, 1]")
        if not 2 <= self.ga_n <= self.n_classes:
            raise ValueError(f"PipelineConfig: ga_n={self.ga_n} outside [2, n_classes={self.n_classes}]")
        if not 1 <= self.ga_k < self.ga_n:
            raise ValueError(f"PipelineConfig: ga_k={self.ga_k} outside [1, ga_n)")
        if self.ablate is not None and self.ablate not in ABLATION_MODES:
            raise ValueError(f"PipelineConfig: ablate={self.ablate!r} not one of {ABLATION_MODES}")
        required_epochs = {"lmm", "freq", "time_ft", "joint_ft", "align"}
        if set(self.epochs) != required_epochs:
            raise ValueError(f"PipelineConfig: epochs must have keys {sorted(required_epochs)}")
        for k, v in self.epochs.items():
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"PipelineConfig: epochs[{k}]={v} must be a non-negative int")

    @property
    def unit_dim(self) -> int:
        return self.c * (self.l // self.n)

    @property
    def latent_shape(self) -> tuple[int, int, int]:
        return (self.latent_channels, self.latent_size, self.latent_size)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        # Older configs carry ga_trials, the trial count of the Monte-Carlo GA
        # that is exact now, and stage2_condition, whose "learned" default is
        # the only generate path left; drop both to keep them loading.
        if data.get("stage2_condition", "learned") != "learned":
            raise ValueError(
                f"PipelineConfig: stage2_condition={data['stage2_condition']!r} is no longer supported; the "
                "fixture-conditioned generate path was removed and only the learned class condition remains"
            )
        data = {k: v for k, v in data.items() if k not in ("ga_trials", "stage2_condition")}
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"PipelineConfig: unknown config keys {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def with_overrides(self, **kv) -> "PipelineConfig":
        data = self.to_dict()
        data.update({k: v for k, v in kv.items() if v is not None})
        return self.from_dict(data)

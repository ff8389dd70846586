"""Toy two-stage conditional denoising diffusion."""

from .cascade import CascadeConfig, GenerationProvenance, RowNoise, generate_samples, refine_stage2, sample_stage1
from .ddpm import reverse_step, train_denoiser, x0_estimate
from .denoiser import DenoiserNet, timestep_embedding
from .ppm import latent_to_rgb, read_ppm, sample_filename, write_ppm
from .schedule import NoiseSchedule, forward_diffuse

__all__ = [
    "CascadeConfig",
    "DenoiserNet",
    "GenerationProvenance",
    "NoiseSchedule",
    "RowNoise",
    "forward_diffuse",
    "generate_samples",
    "latent_to_rgb",
    "read_ppm",
    "refine_stage2",
    "reverse_step",
    "sample_filename",
    "sample_stage1",
    "timestep_embedding",
    "write_ppm",
    "x0_estimate",
]

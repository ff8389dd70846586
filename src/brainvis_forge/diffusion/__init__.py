"""Toy two-stage conditional denoising diffusion."""

from .cascade import GenerationProvenance, RowNoise, generate_samples, reverse_chain, switch_step
from .ddpm import reverse_step, train_denoiser, x0_estimate
from .denoiser import DenoiserNet, timestep_embedding
from .ppm import latent_to_rgb, read_ppm, sample_filename, write_ppm
from .schedule import NoiseSchedule, forward_diffuse

__all__ = [
    "DenoiserNet",
    "GenerationProvenance",
    "NoiseSchedule",
    "RowNoise",
    "forward_diffuse",
    "generate_samples",
    "latent_to_rgb",
    "read_ppm",
    "reverse_chain",
    "reverse_step",
    "sample_filename",
    "switch_step",
    "timestep_embedding",
    "write_ppm",
    "x0_estimate",
]

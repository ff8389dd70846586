"""Binary PPM (P6) output for generated latents.

Values are clamped from [-1, 1] to [0, 255] linearly; one file per sample
named {record_id}_{sample_idx}.ppm.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def latent_to_rgb(latent: np.ndarray) -> np.ndarray:
    """(3, H, W) real latent -> (H, W, 3) uint8."""
    latent = np.asarray(latent, dtype=np.float64)
    if latent.ndim != 3 or latent.shape[0] != 3:
        raise ValueError(f"latent_to_rgb: expected (3, H, W), got {latent.shape}")
    clipped = np.clip(latent, -1.0, 1.0)
    scaled = np.round((clipped + 1.0) * 0.5 * 255.0).astype(np.uint8)
    return np.transpose(scaled, (1, 2, 0))


def write_ppm(path, latent: np.ndarray) -> None:
    rgb = latent_to_rgb(latent)
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def read_ppm(path) -> np.ndarray:
    """Parse a P6 file back to (H, W, 3) uint8; evaluate reads every generated image through it."""
    data = Path(path).read_bytes()
    parts = data.split(b"\n", 3)
    if parts[0] != b"P6":
        raise ValueError(f"read_ppm: not a P6 file: {parts[0]!r}")
    w, h = (int(v) for v in parts[1].split())
    if parts[2] != b"255":
        raise ValueError("read_ppm: expected 8-bit maxval 255")
    pixels = np.frombuffer(parts[3][: w * h * 3], dtype=np.uint8)
    return pixels.reshape(h, w, 3).copy()


def sample_filename(record_id: int, sample_idx: int) -> str:
    return f"{record_id}_{sample_idx}.ppm"

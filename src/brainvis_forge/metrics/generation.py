"""Generation quality metrics: Inception-style score, Frechet distance, SSIM.

`ssim` maps (..., C, H, W) pairs to one value per leading index (a float
for one image), each the mean over channels and windows.  It loops over
window positions only, reducing each over axis=(-2, -1) for every image and
channel at once, so each value is bit-equal to scoring its image alone.
"""

from __future__ import annotations

import warnings

import numpy as np

SSIM_WINDOW = 8  # box window side, pixels
SSIM_STRIDE = 4
EIG_CLAMP = -1e-8  # relative floor below which a negative eigenvalue is not rounding debris


def inception_score(probs: np.ndarray, splits: int = 1) -> tuple[float, float]:
    """exp(mean KL(p(y|x) || marginal)), natural log; returns (mean, std) over splits.

    Rows must already be probability vectors; anything off by more than 1e-5
    is rejected rather than renormalized.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or len(probs) == 0:
        raise ValueError(f"inception_score: expected nonempty (n, classes), got {probs.shape}")
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-5):
        raise ValueError("inception_score: rows must sum to 1 within 1e-5")
    if not 1 <= splits <= len(probs):
        raise ValueError(f"inception_score: splits={splits} invalid for {len(probs)} rows")

    def score(block: np.ndarray) -> float:
        marginal = block.mean(axis=0, keepdims=True)
        ratio = np.where(block > 0, block / marginal, 1.0)
        kl = np.sum(np.where(block > 0, block * np.log(ratio), 0.0), axis=1)
        return float(np.exp(np.mean(kl)))

    chunks = np.array_split(probs, splits)
    values = [score(chunk) for chunk in chunks]
    return float(np.mean(values)), float(np.std(values))


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    """Square root of a symmetric PSD matrix via eigendecomposition.

    Eigenvalues in (EIG_CLAMP, 0), relative to the largest magnitude, are
    rounding debris and clamp to zero; anything more negative means the input
    was not PSD and is a real error.
    """
    sym = (mat + mat.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    floor = EIG_CLAMP * max(1.0, float(np.max(np.abs(vals), initial=0.0)))
    if np.any(vals < floor):
        raise ValueError(f"matrix square root: eigenvalue {vals.min():.3e} below tolerance")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def fid_from_moments(mu_a: np.ndarray, sigma_a: np.ndarray, mu_b: np.ndarray, sigma_b: np.ndarray) -> float:
    """||mu_a - mu_b||^2 + Tr(Sa + Sb - 2 (Sa Sb)^{1/2}).

    The cross term uses Tr((Sa^{1/2} Sb Sa^{1/2})^{1/2}), the symmetrized
    form of the product root, so only symmetric eigendecompositions appear.
    """
    mu_a, mu_b = np.asarray(mu_a, dtype=np.float64), np.asarray(mu_b, dtype=np.float64)
    sigma_a, sigma_b = np.asarray(sigma_a, dtype=np.float64), np.asarray(sigma_b, dtype=np.float64)
    if mu_a.shape != mu_b.shape or sigma_a.shape != sigma_b.shape:
        raise ValueError("fid_from_moments: moment shapes differ")
    root_a = _sym_sqrt(sigma_a)
    inner = root_a @ sigma_b @ root_a
    cross = _sym_sqrt(inner)
    diff = mu_a - mu_b
    return float(diff @ diff + np.trace(sigma_a) + np.trace(sigma_b) - 2.0 * np.trace(cross))


def fid_counts_valid(n_a: int, n_b: int, dim: int) -> bool:
    """Whether both sample counts exceed the feature dim, the least that lets
    each sample covariance reach full rank; otherwise the FID is degenerate."""
    return n_a > dim and n_b > dim


def fid(features_a: np.ndarray, features_b: np.ndarray) -> float:
    """Frechet distance between Gaussian fits of two feature sets."""
    a = np.asarray(features_a, dtype=np.float64)
    b = np.asarray(features_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"fid: feature dims differ, {a.shape} vs {b.shape}")
    dim = a.shape[1]
    if not fid_counts_valid(len(a), len(b), dim):
        warnings.warn(
            f"fid: sample counts ({len(a)}, {len(b)}) do not exceed feature dim {dim}; "
            "covariances are rank-deficient",
            stacklevel=2,
        )
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    sigma_a = np.cov(a, rowvar=False)
    sigma_b = np.cov(b, rowvar=False)
    return fid_from_moments(mu_a, np.atleast_2d(sigma_a), mu_b, np.atleast_2d(sigma_b))


def check_ssim_size(height: int, width: int, what: str) -> None:
    """Raise ValueError naming `what` when a height x width image holds no full SSIM window."""
    if height < SSIM_WINDOW or width < SSIM_WINDOW:
        raise ValueError(f"{what} {height}x{width} smaller than the {SSIM_WINDOW}-pixel SSIM window")


def ssim(img_a: np.ndarray, img_b: np.ndarray, dynamic_range: float = 2.0) -> float | np.ndarray:
    """Structural similarity over SSIM_WINDOW-square box windows every
    SSIM_STRIDE pixels (batching: module docstring).

    Values span `dynamic_range` (2 for [-1, 1]).  C1 = (0.01 L)^2,
    C2 = (0.03 L)^2; window variance is the population form.
    """
    # C order fixes each window's summation order, whatever the caller's layout.
    a = np.ascontiguousarray(img_a, dtype=np.float64)
    b = np.ascontiguousarray(img_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"ssim: shapes differ, {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a, b = a[None], b[None]
    *lead, height, width = a.shape
    check_ssim_size(height, width, "ssim: image")
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2

    ys = range(0, height - SSIM_WINDOW + 1, SSIM_STRIDE)
    xs = range(0, width - SSIM_WINDOW + 1, SSIM_STRIDE)
    values = np.empty((*lead, len(ys), len(xs)))
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            wa = a[..., y : y + SSIM_WINDOW, x : x + SSIM_WINDOW]
            wb = b[..., y : y + SSIM_WINDOW, x : x + SSIM_WINDOW]
            mu_a, mu_b = wa.mean(axis=(-2, -1)), wb.mean(axis=(-2, -1))
            var_a, var_b = wa.var(axis=(-2, -1)), wb.var(axis=(-2, -1))
            cov = ((wa - mu_a[..., None, None]) * (wb - mu_b[..., None, None])).mean(axis=(-2, -1))
            values[..., i, j] = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
                (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
            )
    per_image = values.reshape(*lead[:-1], -1).mean(axis=-1)
    return float(per_image) if per_image.ndim == 0 else per_image

"""Aggregate metrics report and the generation evaluation driver."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .classification import f1_macro, n_way_top_k, top_k_accuracy
from .generation import fid, fid_counts_valid, inception_score, ssim
from .surrogate import SurrogateClassifier, surrogate_outputs


@dataclass
class MetricsReport:
    top1_ca: float
    top3_ca: float
    top5_ca: float
    f1_macro: float
    ga: float
    is_mean: float
    is_std: float
    fid: float
    ssim_mean: float
    # Sample counts behind the Frechet statistics; `fid_valid` is false when
    # either does not exceed the feature dim (see fid_counts_valid).
    n_generated: int = 0
    n_reference: int = 0
    fid_valid: bool = False
    per_class: dict[str, float] = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def validate_ranges(self) -> None:
        for name in ("top1_ca", "top3_ca", "top5_ca", "f1_macro", "ga"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"MetricsReport: {name}={v} outside [0, 1]")
        if self.is_mean < 1.0 - 1e-9:
            raise ValueError(f"MetricsReport: is_mean={self.is_mean} below 1")
        if self.fid < -1e-9:
            raise ValueError(f"MetricsReport: fid={self.fid} negative")
        if not -1.0 - 1e-9 <= self.ssim_mean <= 1.0 + 1e-9:
            raise ValueError(f"MetricsReport: ssim_mean={self.ssim_mean} outside [-1, 1]")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        return cls(**json.loads(text))


def classification_block(logits: np.ndarray, labels: np.ndarray, n_classes: int) -> dict:
    """Top-k accuracies (k clamped to the class count), macro F1, per-class recall."""
    preds = np.argmax(logits, axis=1)
    per_class = {}
    for c in range(n_classes):
        mask = labels == c
        per_class[str(c)] = float(np.mean(preds[mask] == c)) if np.any(mask) else 0.0
    return {
        "top1_ca": top_k_accuracy(logits, labels, min(1, n_classes)),
        "top3_ca": top_k_accuracy(logits, labels, min(3, n_classes)),
        "top5_ca": top_k_accuracy(logits, labels, min(5, n_classes)),
        "f1_macro": f1_macro(preds, labels, n_classes),
        "per_class": per_class,
    }


def evaluate_generation(
    generated: np.ndarray,
    generated_labels: np.ndarray,
    ground_truth: np.ndarray,
    gt_pairs: np.ndarray,
    surrogate: SurrogateClassifier,
    *,
    n_way: int,
    top_k: int,
    is_splits: int = 1,
) -> dict:
    """Score generated images against their ground-truth counterparts.

    `generated` and `gt_pairs` are index-aligned (one GT image per sample);
    `ground_truth` is the reference pool for the Frechet statistics; the
    returned `fid_valid` says whether both pools outnumber the feature dim.
    Images span [-1, 1], so SSIM runs at its default dynamic range of 2.
    """
    probs, gen_feats = surrogate_outputs(surrogate, generated)
    _, gt_feats = surrogate_outputs(surrogate, ground_truth)
    ga = n_way_top_k(probs, np.asarray(generated_labels, dtype=np.int64), n_way, top_k)
    is_mean, is_std = inception_score(probs, splits=is_splits)
    fid_value = fid(gen_feats, gt_feats)
    ssim_values = ssim(generated, gt_pairs)
    return {
        "ga": float(ga),
        "is_mean": float(is_mean),
        "is_std": float(is_std),
        "fid": float(fid_value),
        "n_generated": len(gen_feats),
        "n_reference": len(gt_feats),
        "fid_valid": fid_counts_valid(len(gen_feats), len(gt_feats), gen_feats.shape[1]),
        "ssim_mean": float(np.mean(ssim_values)),
    }

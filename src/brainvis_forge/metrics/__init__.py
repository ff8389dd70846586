"""Evaluation battery with brute-force-checkable definitions."""

from .classification import f1_macro, n_way_top_k, top_k_accuracy
from .generation import fid, fid_counts_valid, fid_from_moments, inception_score, ssim
from .report import MetricsReport, classification_block, evaluate_generation
from .surrogate import SurrogateClassifier, surrogate_outputs, train_surrogate

__all__ = [
    "MetricsReport",
    "SurrogateClassifier",
    "classification_block",
    "evaluate_generation",
    "f1_macro",
    "fid",
    "fid_counts_valid",
    "fid_from_moments",
    "inception_score",
    "n_way_top_k",
    "ssim",
    "surrogate_outputs",
    "top_k_accuracy",
    "train_surrogate",
]

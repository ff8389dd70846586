"""Classification metrics: top-K accuracy, macro F1, and N-way top-K hit rate.

Both ranking metrics use r, the count of classes that outrank a row's true
class (a higher score, or an equal one at a lower index): top-K accuracy is
mean(r < K).  N-way top-K generation accuracy (GA, the MinD-Vis protocol) is
exact over every draw of N-1 of the C-1 wrong classes, GA = mean(table[r]):
    table[q] = sum_{x<K} C(q, x) C(C-1-q, N-1-x) / C(C-1, N-1)
When N = C, table[q] = [q < K] and GA is top-K accuracy.
"""

from __future__ import annotations

from math import comb

import numpy as np


def _outranking(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per row, how many classes outrank the true one (r, module docstring)."""
    target = scores[np.arange(len(labels)), labels][:, None]
    lower = np.arange(scores.shape[1]) < labels[:, None]
    return np.sum(scores > target, axis=1) + np.sum((scores == target) & lower, axis=1)


def top_k_accuracy(logits: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Fraction of rows whose true label ranks in the k largest logits.

    Ties rank the lower class index first, so results are deterministic.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = logits.shape[1]
    if not 1 <= k <= n_classes:
        raise ValueError(f"top_k_accuracy: k={k} outside [1, {n_classes}]")
    hits = int(np.count_nonzero(_outranking(logits, labels) < k))
    return hits / max(len(labels), 1)


def f1_macro(predictions: np.ndarray, labels: np.ndarray, n_classes: int) -> float:
    """Unweighted mean over classes of 2PR/(P+R); empty denominators count as 0."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ValueError("f1_macro: label outside [0, n_classes)")
    scores = []
    for c in range(n_classes):
        tp = int(np.sum((predictions == c) & (labels == c)))
        fp = int(np.sum((predictions == c) & (labels != c)))
        fn = int(np.sum((predictions != c) & (labels == c)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return float(np.mean(scores))


def n_way_top_k(probs: np.ndarray, labels: np.ndarray, n_way: int, top_k: int) -> float:
    """Hit rate of the true class in the top K of N classes, exact over every
    draw of the N-1 wrong ones: the mean of table[r] (module docstring)."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = probs.shape[1]
    if n_way < 2:
        raise ValueError(f"n_way_top_k: n_way must be >= 2, got {n_way}")
    if n_way > n_classes:
        raise ValueError(f"n_way_top_k: N={n_way} exceeds {n_classes} available classes")
    if not 1 <= top_k < n_way:
        raise ValueError(f"n_way_top_k: top_k must be in [1, n_way), got {top_k}")
    if len(labels) == 0:
        return 0.0
    draws = comb(n_classes - 1, n_way - 1)
    table = np.array([
        sum(comb(q, x) * comb(n_classes - 1 - q, n_way - 1 - x) for x in range(top_k)) / draws
        for q in range(n_classes)
    ])
    return float(np.mean(table[_outranking(probs, labels)]))

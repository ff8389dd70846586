"""Dual-cosine interpolation objective.

Pulls one embedding toward two anchors at once: coarse label direction and
finer caption direction.  With unit weight the loss is
2 - cos(cap, out) - cos(label, out), bounded in [0, 4], zero only when the
output is positively colinear with both anchors.
"""

from __future__ import annotations

from ..autodiff import Tensor, tmean
from ..autodiff.ops import cosine_similarity
from ..autodiff.tensor import mul, sub


def si_loss(c_eeg: Tensor, c_cap: Tensor, c_label: Tensor, label_weight: float = 1.0) -> Tensor:
    """Semantic interpolation loss for one vector or a batch of rows.

    `label_weight` tilts the interpolation toward the coarse anchor; the
    default weights both cosines equally.  Zero-norm inputs raise (from the
    cosine) rather than being clamped.
    """
    cos_cap = cosine_similarity(c_cap, c_eeg)
    cos_label = cosine_similarity(c_label, c_eeg)
    return tmean(sub(sub(1.0 + label_weight, cos_cap), mul(cos_label, label_weight)))

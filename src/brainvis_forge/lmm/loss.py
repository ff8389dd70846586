"""Joint pretraining objective: feature regression plus codeword classification."""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, as_tensor
from ..autodiff.ops import codeword_nll, mse_loss


def lmm_loss(
    f_m: np.ndarray | Tensor,
    f_mp: Tensor,
    l_m: np.ndarray,
    p_m: Tensor,
) -> tuple[Tensor, Tensor, Tensor]:
    """Returns (regression, classification, total).

    Regression: squared feature error per masked unit scaled by 1/d, i.e. the
    elementwise mean over the (units, d) block.  Classification: negative
    log-probability of the assigned codeword (`l_m`, its index per row of
    `p_m`), averaged over masked units,
    with log clamped at 1e-12 (`ops.codeword_nll`, one tape entry).  Total
    is their exact sum.
    """
    reg = mse_loss(f_mp, as_tensor(f_m, f_mp).detach())
    cls = codeword_nll(p_m, l_m)
    total = reg + cls
    return reg, cls, total

"""Stage checkpoints: BVC archives (format in binio), one file each, whose
checksummed header carries the tag of the stage that wrote them.

Key layout:
    model/{param}    the parameters of the network the stage trained
    {name}           a top-level extra: spectrum_scale (freq, tfe) and the
                     output rows train_fused, test_fused, test_logits (tfe)
                     and train_c_eeg, test_c_eeg (align)
where {param} is a dotted parameter path such as encoder.blocks.0.attn.w_q.
Optimizer state is not saved: no stage resumes from a checkpoint.
Which stage reads which archive is declared in its runner.STAGES row.
gen-data's dataset, fixtures and images archives carry the stage tag "data";
their keys are documented in data.bvd, align.fixtures and data.images.
Every read names the tag it expects, and `load_checkpoint(path, stage)` raises
StageError on an archive another stage wrote.
"""

from __future__ import annotations

from ..binio import StageError, load_checkpoint, save_checkpoint

__all__ = ["StageError", "load_checkpoint", "save_checkpoint"]

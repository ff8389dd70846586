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
"""

from __future__ import annotations

from ..binio import CheckpointArchive, load_checkpoint, save_checkpoint


class StageError(RuntimeError):
    """A stage's inputs are missing or carry the wrong stage tag."""


def require_stage(archive: CheckpointArchive, expected: str) -> CheckpointArchive:
    if archive.stage != expected:
        raise StageError(
            f"checkpoint carries stage {archive.stage!r} but {expected!r} is required here"
        )
    return archive


__all__ = ["CheckpointArchive", "StageError", "load_checkpoint", "require_stage", "save_checkpoint"]

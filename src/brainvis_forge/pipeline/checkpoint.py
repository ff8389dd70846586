"""Stage checkpoints: BVC archives (format in binio), one file each,
<stage>/checkpoint.bvc, whose checksummed header carries the tag of the
stage that wrote them.  Every stage writes its archive through the runner's
`save_stage`, gen-data's data/checkpoint.bvc included.

Key layout:
    model/{param}    the parameters of the network the stage trained
    {name}           a top-level extra: spectrum_scale (freq, tfe) and the
                     output rows train_fused, test_fused, test_logits (tfe)
                     and train_c_eeg, test_c_eeg (align)
where {param} is a dotted parameter path such as encoder.blocks.0.attn.w_q.
gen-data trains no network, so its archive holds extras only:
    x, labels, subjects, image_ids   the trials, (R, c, l) float32, and
                                     their (R,) int64 ids (data.bvd)
    images                           the (I, C, H, W) float32 target images
                                     (data.images)
    image_labels                     the (I,) int64 class of each image,
                                     shared by the images and the fixtures
    c_label, c_cap                   the (I, e) float32 semantic targets
                                     (align.fixtures)
Optimizer state is not saved: no stage resumes from a checkpoint.
Which stage reads which archive is declared in its runner.STAGES row.
Every read names the tag it expects, and `load_checkpoint(path, stage, keys)`
raises StageError on an archive another stage wrote; it reads only `keys`.
"""

from __future__ import annotations

from ..binio import StageError, load_checkpoint, save_checkpoint

__all__ = ["StageError", "load_checkpoint", "save_checkpoint"]

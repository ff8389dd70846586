"""Configuration, checkpointing, stage orchestration, and the CLI."""

from .checkpoint import (
    ABLATION_MODES,
    STAGE_PREREQS,
    CheckpointArchive,
    StageError,
    check_prerequisites,
    load_checkpoint,
    require_stage,
    save_checkpoint,
)
from .config import PipelineConfig
from .runner import RunPaths, run_full_chain

__all__ = [
    "ABLATION_MODES",
    "CheckpointArchive",
    "PipelineConfig",
    "RunPaths",
    "STAGE_PREREQS",
    "StageError",
    "check_prerequisites",
    "load_checkpoint",
    "require_stage",
    "run_full_chain",
    "save_checkpoint",
]

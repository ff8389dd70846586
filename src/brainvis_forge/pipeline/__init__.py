"""Configuration, checkpointing, stage orchestration, and the CLI."""

from .checkpoint import CheckpointArchive, StageError, load_checkpoint, require_stage, save_checkpoint
from .config import ABLATION_MODES, PipelineConfig
from .runner import STAGES, RunPaths, check_prerequisites, run_full_chain

__all__ = [
    "ABLATION_MODES",
    "CheckpointArchive",
    "PipelineConfig",
    "RunPaths",
    "STAGES",
    "StageError",
    "check_prerequisites",
    "load_checkpoint",
    "require_stage",
    "run_full_chain",
    "save_checkpoint",
]

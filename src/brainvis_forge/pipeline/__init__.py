"""Configuration, checkpointing, stage orchestration, and the CLI."""

from .checkpoint import StageError, load_checkpoint, save_checkpoint
from .config import ABLATION_MODES, PipelineConfig
from .runner import STAGES, RunPaths, check_prerequisites, run_full_chain

__all__ = [
    "ABLATION_MODES",
    "PipelineConfig",
    "RunPaths",
    "STAGES",
    "StageError",
    "check_prerequisites",
    "load_checkpoint",
    "run_full_chain",
    "save_checkpoint",
]

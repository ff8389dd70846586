"""Command-line entry point.

One subcommand per pipeline stage plus grad-check and ablate.  The
BRAINVIS_FORGE_THREADS environment variable caps BLAS parallelism; it is
applied before numpy loads, which is why heavy imports live inside the
functions main() calls after applying it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _apply_thread_cap() -> None:
    cap = os.environ.get("BRAINVIS_FORGE_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def build_parser() -> argparse.ArgumentParser:
    from .config import ABLATION_MODES
    from .runner import STAGES

    parser = argparse.ArgumentParser(
        prog="brainvis-forge",
        description="Desk-scale EEG-to-image pipeline: pretraining, fusion, alignment, cascaded diffusion, evaluation.",
    )
    parser.add_argument("--config", help="JSON config file (defaults apply otherwise)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--run-dir", default="runs/run", help="run directory (default: runs/run)")
    parser.add_argument(
        "--ablate",
        choices=ABLATION_MODES,
        default=None,
        help="disable one component (see the ablate command)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES.values():
        sub.add_parser(stage.command, help=stage.help).set_defaults(run=stage.run)
    p = sub.add_parser("grad-check", help="finite-difference verification of every op (nonzero exit on failure)")
    p.add_argument("--probes", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-4)
    sub.add_parser("ablate", help="run the full chain with the --ablate switch applied")
    return parser


def main(argv: list[str] | None = None) -> int:
    _apply_thread_cap()
    args = build_parser().parse_args(argv)

    if args.command == "grad-check":
        from ..autodiff.gradcheck import run_catalog_suite

        worst = run_catalog_suite(probes=args.probes, tol=args.tol)
        ok = all(v < args.tol for v in worst.values())
        for name in sorted(worst):
            status = "ok" if worst[name] < args.tol else "FAIL"
            print(f"{status:4s} {name:24s} max rel err {worst[name]:.3e}")
        print(f"grad-check: {len(worst)} ops, tol {args.tol:g}: {'pass' if ok else 'FAIL'}")
        return 0 if ok else 1

    from .config import PipelineConfig
    from .runner import RunPaths, run_full_chain

    cfg = PipelineConfig.load(args.config) if args.config else PipelineConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.ablate is not None:
        overrides["ablate"] = args.ablate
    if overrides:
        cfg = cfg.with_overrides(**overrides)
    paths = RunPaths(args.run_dir)

    if args.command == "ablate":
        if cfg.ablate is None:
            print("ablate: pass --ablate MODE to select the component to disable", file=sys.stderr)
            return 2
        report = run_full_chain(cfg, paths)
        print(report.to_json())
        return 0

    result = args.run(cfg, paths)
    if hasattr(result, "to_json"):
        print(result.to_json())
    else:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

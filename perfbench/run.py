"""Benchmark entry point.

    python3 perfbench/run.py --workload tiny_chain --seed 1 --seconds 15 --trace 0

Runs one workload (see workloads.py) in this process with single-threaded
BLAS, prints every metric by name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones from an
extra traced set-up and body repetition (spans.py).  The full result, with
the environment, per-repetition times and quality numbers, is also written
under .bench_work/results/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("BRAINVIS_FORGE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _pin_environment() -> None:
    """Pin BLAS to one thread before numpy loads; refuse any other setting.

    Two more settings are pinned, because each made peak RSS move from run to
    run at one seed (by up to 10%):
    - numpy's transparent-hugepage advice is off, since whether a 2 MB page
      is free depends on the host's memory;
    - string hashing is seeded (PYTHONHASHSEED=0), since set order changes
      the order in which the engine frees arrays.  The interpreter reads it
      only at start, so the process re-executes itself once to apply it.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    for var in THREAD_VARS:
        value = os.environ.setdefault(var, "1")
        if value != "1":
            sys.exit(f"run.py: {var}={value}. The benchmark measures single-threaded BLAS only; "
                     f"unset it or set it to 1.")
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy_madvise_hugepage": bool(np._core.multiarray._get_madvise_hugepage()),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main() -> int:
    _pin_environment()
    if not (SRC / "brainvis_forge" / "__init__.py").is_file():
        print(f"run.py: no brainvis_forge sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (imports numpy, so only after the thread cap)
    from spans import unit_of  # noqa: E402

    import_s = time.perf_counter() - T0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time to spend repeating the timed body")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = _environment(args.seed)
    print("environment", json.dumps(env, sort_keys=True))
    bench_dir = ROOT / ".bench_work"
    work = bench_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
    try:
        result = workloads.measure(workload, args.seconds, bool(args.trace), import_s=import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = result["layers"]
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    else:
        metrics = {name: {"value": v, "unit": workloads.END_TO_END_UNITS[name]}
                   for name, v in result["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"{'wall_s samples':36s} {len(result['reps'])}  (median reported; no tail percentile below 20 samples)")
    print(f"{'gen_images_per_s (context)':36s} {result['gen_images_per_s']:.6g} 1/s")
    print(f"{'error_rate':36s} {result['failed']}/{result['attempted']} operations failed")
    for rep in result["reps"]:
        quality = {k: rep["context"][k] for k in ("top1_ca", "fid", "ga") if k in rep["context"]}
        if quality:
            print(f"{'quality (context, not a metric)':36s} {json.dumps(quality)}")
            break
    for failure in result["failures"]:
        print("FAILED", failure)

    results_dir = bench_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write(results_dir / f"{stem}-spans.json")
    (results_dir / f"{stem}.json").write_text(json.dumps({"environment": env, **result}, indent=1, default=str))

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

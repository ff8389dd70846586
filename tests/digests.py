"""Committed output digests of the tiny chain and its six ablations.

`tests/data/tiny_digests.json` holds the sha256 of every file each run
writes, keyed "<mode>/<run-relative path>" ("none" is the full chain), and
one sha256 per run of `generate_samples`' float64 latents before
`write_ppm` quantises them, keyed "<mode>/latents".  Criteria 11 and 12
compare their runs with it, so a change that alters any output fails Tier-1
even when it reruns bit-identically.  The manifest names the numpy version
and BLAS build it was made with; on another build the comparison fails
naming both.

Regenerate it (about half a minute) after a change that means to alter
outputs, and say in CHANGES.md which files changed and why; the script
prints the keys it added, removed and changed against the manifest it
replaces:

    PYTHONPATH=src python tests/digests.py

With `--check` it writes nothing: it prints the same three lists against
the committed manifest and exits 1 if any is non-empty, which shows a change
meant to keep every output byte-identical does so:

    PYTHONPATH=src python tests/digests.py --check
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from brainvis_forge.pipeline import runner
from brainvis_forge.pipeline.config import ABLATION_MODES, PipelineConfig

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "data" / "tiny_digests.json"
TINY = ROOT / "configs" / "tiny.json"


def build() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


@contextlib.contextmanager
def latent_digests():
    """Collect one sha256 per `generate_samples` call over its latents, in order."""
    digests: list[str] = []
    original = runner.generate_samples

    def hashed(*args, **kwargs):
        latents, *steps = original(*args, **kwargs)
        digests.append(hashlib.sha256(np.asarray(latents, dtype=np.float64).tobytes()).hexdigest())
        return latents, *steps

    runner.generate_samples = hashed
    try:
        yield digests
    finally:
        runner.generate_samples = original


def run_digests(mode: str | None, root: Path, latents: list[str]) -> dict[str, str]:
    """sha256 of every file under the run directory `root`, plus its latents digest."""
    key = mode or "none"
    found = {f"{key}/{p.relative_to(root).as_posix()}": hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(root.rglob("*")) if p.is_file()}
    (found[f"{key}/latents"],) = latents
    return found


def assert_matches_manifest(mode: str | None, found: dict[str, str]) -> None:
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["build"] == build(), (
        f"{MANIFEST.name} was made on {manifest['build']}, this run is on {build()}; "
        "regenerate it on this build to compare outputs")
    prefix = f"{mode or 'none'}/"
    want = {k: v for k, v in manifest["digests"].items() if k.startswith(prefix)}
    differ = sorted(k for k in want.keys() | found.keys() if want.get(k) != found.get(k))
    assert not differ, f"{len(differ)} of {len(want)} outputs differ from {MANIFEST.name}: {differ}"


def make_manifest() -> str:
    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for mode in (None, *ABLATION_MODES):
            cfg = PipelineConfig.load(TINY).with_overrides(ablate=mode)
            root = Path(tmp) / (mode or "none")
            with latent_digests() as latents:
                runner.run_full_chain(cfg, runner.RunPaths(root))
            digests.update(run_digests(mode, root, latents))
    return json.dumps({"build": build(), "digests": digests}, indent=1, sort_keys=True) + "\n"


def manifest_diff(old: dict[str, str], new: dict[str, str]) -> dict[str, list[str]]:
    """The keys `new` adds to, removes from and changes in `old`, each sorted."""
    return {"added": sorted(new.keys() - old.keys()), "removed": sorted(old.keys() - new.keys()),
            "changed": sorted(k for k in old.keys() & new.keys() if old[k] != new[k])}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the manifest instead of writing it; exit 1 on any difference")
    check = parser.parse_args(argv).check
    old = json.loads(MANIFEST.read_text())["digests"] if MANIFEST.exists() else {}
    text = make_manifest()
    new = json.loads(text)["digests"]
    if check:
        print(f"checked {len(new)} digests against {MANIFEST.relative_to(ROOT)}", file=sys.stderr)
    else:
        MANIFEST.write_text(text)
        print(f"wrote {MANIFEST.relative_to(ROOT)}: {len(new)} digests", file=sys.stderr)
    diff = manifest_diff(old, new)
    for kind, keys in diff.items():
        print(f"{kind}: {len(keys)}", *(f"  {k}" for k in keys), sep="\n", file=sys.stderr)
    return int(check and any(diff.values()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The golden manifest: digests of the reference configurations' outputs.

``tests/golden.json`` holds, for each reference configuration and variant
in ``RUNS``, the SHA-256 of the trace, summary and topology files that
``execute_run`` writes with ``global_rounds = 2`` and seed 1, one digest
per trace section, and the versions of the numpy and BLAS build that
produced them. ``tests/test_golden.py`` reruns every entry and compares.

A change that moves float results on purpose regenerates the manifest:

    PYTHONPATH=src python tests/golden.py
"""
import hashlib
import json
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from saginfl.cli import execute_run
from saginfl.config import ExperimentConfig, load_config

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden.json")
# each reference configuration with the same four variants: the three
# assignment policies, and gossip, which prices the sync time only
VARIANTS = ("cnasa", "cdo", "gdo", "gossip")
RUNS = {"single_orbit.ini": VARIANTS, "walker.ini": VARIANTS}
NAMES = [f"{ini}:{variant}" for ini, variants in RUNS.items()
         for variant in variants]
SUFFIXES = (".trace.txt", ".summary.csv", ".topology.tsv")


def golden_config(ini: str, variant: str) -> ExperimentConfig:
    """The reference configuration ``ini`` with two global rounds, seed 1,
    and ``variant``: a policy name, or ``gossip`` for the sync algorithm."""
    cfg = load_config(ROOT / "configs" / ini)
    cfg = replace(cfg, training=replace(cfg.training, global_rounds=2),
                  run=replace(cfg.run, seed=1))
    if variant == "gossip":
        return replace(cfg, run=replace(cfg.run, sync_algo="gossip"))
    return replace(cfg, policy=replace(cfg.policy, name=variant))


def environment() -> dict:
    """The builds whose arithmetic the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "machine": platform.machine()}


def trace_sections(text: str) -> dict[str, str]:
    """SHA-256 of each blank-line-separated block of a trace, by its first
    line: the header, then ``[config]``, ``[accuracy]`` and so on."""
    return {block.split("\n", 1)[0]: _sha256(block)
            for block in text.rstrip("\n").split("\n\n")}


def run_digests(cfg: ExperimentConfig, out: Path) -> dict:
    """Run ``cfg`` into ``out``; the digest of each output file by suffix,
    and of each trace section."""
    execute_run(cfg, out)
    texts = {suffix: next(out.glob(f"*{suffix}")).read_text()
             for suffix in SUFFIXES}
    return {"files": {s: _sha256(t) for s, t in texts.items()},
            "trace_sections": trace_sections(texts[".trace.txt"])}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: run_digests(golden_config(*name.split(":")),
                                  Path(tmp) / name) for name in NAMES}
    MANIFEST.write_text(json.dumps(
        {"environment": environment(), "runs": runs}, indent=1) + "\n")
    print(f"wrote {MANIFEST} ({len(runs)} runs)")


if __name__ == "__main__":
    main()

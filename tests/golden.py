"""The golden manifest: digests of the reference configurations' outputs.

``tests/golden.json`` holds one digest set per OpenBLAS kernel, keyed by
the kernel's name. A set holds, for each reference configuration and
variant in ``RUNS``, the SHA-256 of the trace, summary and topology files
that ``execute_run`` writes with ``global_rounds = 2`` and seed 1, one
digest per trace section, and the versions of the numpy and BLAS build and
the kernel that produced them. OpenBLAS picks its kernel when it loads, and
kernels round some float32 products differently, so ``tests/test_golden.py``
reruns every entry of the running kernel's set and compares.

A change that moves float results on purpose regenerates the manifest,
one subprocess per kernel this CPU can run, with ``OPENBLAS_CORETYPE`` set:

    PYTHONPATH=src python tests/golden.py
"""
import ctypes
import hashlib
import json
import os
import platform
import subprocess
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
# the CPU features each kernel of the manifest needs, by numpy's names
KERNEL_FEATURES = {"SkylakeX": ("AVX512_SKX",), "Haswell": ("AVX2", "FMA3")}


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
            "openblas_core": openblas_core(),
            "machine": platform.machine()}


def openblas_core() -> str:
    """The kernel the OpenBLAS bundled with numpy runs on this CPU (or
    under ``OPENBLAS_CORETYPE``), or ``"unknown"`` without that library."""
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        corename = getattr(ctypes.CDLL(str(path)),
                           "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def cpu_runs(kernel: str) -> bool:
    """Whether this CPU has every feature ``kernel`` needs."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return kernel in KERNEL_FEATURES and all(
        __cpu_features__.get(f, False) for f in KERNEL_FEATURES[kernel])


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


def digest_set() -> dict:
    """This process's environment and the digests of every run."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: run_digests(golden_config(*name.split(":")),
                                  Path(tmp) / name) for name in NAMES}
    return {"environment": environment(), "runs": runs}


def main() -> None:
    if sys.argv[1:] == ["--this-kernel"]:
        print(json.dumps(digest_set()))
        return
    kernels = [k for k in KERNEL_FEATURES if cpu_runs(k)]
    if openblas_core() == "unknown" or not kernels:
        sys.exit("need numpy's bundled OpenBLAS and a CPU that runs one of "
                 f"{sorted(KERNEL_FEATURES)}")
    sets = {}
    for kernel in kernels:
        child = subprocess.run(
            [sys.executable, __file__, "--this-kernel"], check=True,
            capture_output=True, text=True,
            env={**os.environ, "OPENBLAS_CORETYPE": kernel})
        sets[kernel] = json.loads(child.stdout.splitlines()[-1])
        got = sets[kernel]["environment"]["openblas_core"]
        if got != kernel:
            sys.exit(f"OPENBLAS_CORETYPE={kernel} loaded the {got} kernel")
    MANIFEST.write_text(json.dumps(sets, indent=1) + "\n")
    print(f"wrote {MANIFEST}: kernels {', '.join(sets)}, {len(NAMES)} runs each")


if __name__ == "__main__":
    main()

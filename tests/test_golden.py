"""Outputs of the reference configurations stay byte-identical.

Each run of the running OpenBLAS kernel's set in ``tests/golden.json`` is
rerun and its files compared by SHA-256; a kernel the manifest has no set
for fails. Another numpy, scipy or BLAS build may round differently; the
test then fails too, and its message names the build the set came from.
Every other kernel of the manifest that this CPU can run is checked in a
subprocess, so a change cannot move one kernel's results unseen.
Regenerate with ``tests/golden.py`` only when results move on purpose.
"""
import json
import os
import subprocess
import sys

import pytest
from golden import (
    MANIFEST,
    NAMES,
    ROOT,
    cpu_runs,
    environment,
    golden_config,
    openblas_core,
    run_digests,
)

GOLDEN = json.loads(MANIFEST.read_text())
KERNEL = openblas_core()


@pytest.mark.parametrize("name", NAMES)
def test_outputs_match_manifest(name, tmp_path):
    if KERNEL not in GOLDEN:
        pytest.fail(f"{MANIFEST.name} has no digest set for the OpenBLAS "
                    f"kernel {KERNEL}; it has {sorted(GOLDEN)}")
    golden = GOLDEN[KERNEL]
    assert sorted(golden["runs"]) == sorted(NAMES), "regenerate the manifest"
    expected = golden["runs"][name]
    got = run_digests(golden_config(*name.split(":")), tmp_path)
    if got == expected:
        return
    differing = [s for s in expected["files"]
                 if got["files"][s] != expected["files"][s]]
    sections = [s for s in {**expected["trace_sections"],
                            **got["trace_sections"]}
                if got["trace_sections"].get(s)
                != expected["trace_sections"].get(s)]
    pytest.fail(
        f"{name}: {', '.join(differing)} differ from {MANIFEST.name}; first "
        f"trace section that differs: {sections[0] if sections else 'none'}. "
        f"The {KERNEL} set was made with {golden['environment']}, this run "
        f"uses {environment()}")


@pytest.mark.parametrize("kernel", sorted(set(GOLDEN) - {KERNEL}))
def test_other_kernel_matches_manifest(kernel):
    if KERNEL == "unknown":
        pytest.skip(f"{kernel}: this numpy build has no scipy-openblas")
    if not cpu_runs(kernel):
        pytest.skip(f"this CPU cannot run the {kernel} kernel")
    path = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    loaded = subprocess.run(
        [sys.executable, "-c", "import golden; print(golden.openblas_core())"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        timeout=60).stdout.strip()
    assert loaded == kernel, f"OPENBLAS_CORETYPE={kernel} loaded {loaded}"
    rerun = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_golden.py::test_outputs_match_manifest"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert rerun.returncode == 0, f"under {kernel}:\n{rerun.stdout[-3000:]}"

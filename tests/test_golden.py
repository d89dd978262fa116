"""Outputs of the reference configurations stay byte-identical.

Each run of ``tests/golden.json`` is rerun and its files compared by
SHA-256. Another numpy, scipy or BLAS build may round differently; the test
then fails too, and its message names the build the manifest came from.
Regenerate with ``tests/golden.py`` only when results move on purpose.
"""
import json

import pytest
from golden import MANIFEST, NAMES, environment, golden_config, run_digests

GOLDEN = json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("name", NAMES)
def test_outputs_match_manifest(name, tmp_path):
    assert sorted(GOLDEN["runs"]) == sorted(NAMES), "regenerate the manifest"
    expected = GOLDEN["runs"][name]
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
        f"The manifest was made with {GOLDEN['environment']}, this run "
        f"uses {environment()}")

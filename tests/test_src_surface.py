"""Every function, class and method in ``src/saginfl`` serves a run.

A definition counts as used when ``src/saginfl`` or ``bench/`` refers to its
name (as a name or an attribute) outside the definition itself. The
benchmark wraps package functions by looking their names up as strings, so
identifier strings in ``bench/`` count too. Dunder methods and the names the
package exports in ``__all__`` are exempt. Helpers that only tests call
belong in ``tests/oracles.py``, not in the package.

Range checks on configured values live in one layer: ``validate_config``
and the command line's argument checks are the only code that raises a
``ConfigurationError``; the building blocks below them trust their inputs.

Importing the command line stays light: it loads no scipy module, and
neither does a run of a reference configuration; scipy serves the tests'
reference implementations only. Importing the configuration loads no part
of the topology, partition, assignment or sync stack. A run loads none of
``concurrent.futures``, ``logging``, ``queue`` and ``heapq``, and
``traceback`` only on failure.
"""
import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import saginfl

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "saginfl"
BENCH = ROOT / "bench"
VALIDATING_MODULES = ("config.py", "cli.py")


def definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def references(tree: ast.AST, strings: bool) -> Counter:
    """Names, attribute names and (optionally) identifier strings in
    ``tree``, with their counts."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()):
            found[node.value] += 1
    return found


def unreferenced(src: Path, bench: Path) -> list[str]:
    src_trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    used = sum((references(tree, strings=False) for tree in src_trees.values()),
               Counter())
    for path in sorted(bench.rglob("*.py")):
        used += references(ast.parse(path.read_text()), strings=True)
    exported = set(saginfl.__all__)
    unused = []
    for module, tree in src_trees.items():
        for qualname, node in definitions(tree):
            name = node.name
            if name in exported or (name.startswith("__") and name.endswith("__")):
                continue
            # references inside the definition itself do not count
            if used[name] - references(node, strings=False)[name] <= 0:
                unused.append(f"{module}:{qualname}")
    return unused


def test_every_src_definition_is_used_by_the_package_or_benchmark():
    assert unreferenced(SRC, BENCH) == []


def test_an_unused_helper_is_flagged(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(
        "def used():\n    return helper_called()\n\n"
        "def helper_called():\n    return 1\n\n"
        "def only_recursive(n):\n    return only_recursive(n - 1)\n\n"
        "class Box:\n    def __init__(self):\n        self.x = 0\n\n"
        "    def dead(self):\n        return self.x\n\n"
        "def wrapped_by_name():\n    return 2\n")
    (src / "caller.py").write_text("from mod import used, Box\nused()\nBox()\n")
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "hooks.py").write_text('SITES = [("mod", "wrapped_by_name")]\n')
    assert unreferenced(src, bench) == ["mod.py:only_recursive",
                                        "mod.py:Box.dead"]


def misplaced_configuration_errors(src: Path) -> list[str]:
    """``module:line`` of each ``raise ConfigurationError`` outside the
    validating modules."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name in VALIDATING_MODULES:
            continue
        raises = [node for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Raise) and node.exc is not None]
        for node in sorted(raises, key=lambda node: node.lineno):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else \
                getattr(exc, "id", None)
            if name == "ConfigurationError":
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_validation_raises_configuration_errors():
    assert misplaced_configuration_errors(SRC) == []


def test_a_configuration_error_below_validation_is_flagged(tmp_path):
    (tmp_path / "config.py").write_text(
        "def check(v):\n    if v < 0:\n"
        "        raise ConfigurationError('[s] k must be >= 0')\n")
    (tmp_path / "topology.py").write_text(
        "import errors\n\n"
        "def build(n):\n    if n < 1:\n"
        "        raise errors.ConfigurationError('n must be >= 1')\n"
        "    raise ValueError(n)\n\n"
        "def plan(k):\n    raise ConfigurationError\n")
    assert misplaced_configuration_errors(tmp_path) == ["topology.py:5",
                                                        "topology.py:9"]


def test_cli_import_and_reference_runs_load_no_scipy(tmp_path):
    # scipy costs start-up time and memory in every command, and the
    # topology stack every configuration check; a fresh interpreter shows
    # what one stray import would bring back
    script = (
        "import sys\nfrom dataclasses import replace\nimport saginfl.config\n"
        "print([m for m in ('saginfl.allreduce', 'saginfl.assignment', "
        "'saginfl.partition', 'saginfl.topology') if m in sys.modules])\n"
        "import saginfl.cli\n"
        "from saginfl.config import load_config\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "for ini in ('single_orbit.ini', 'walker.ini'):\n"
        "    cfg = load_config(sys.argv[1] + '/' + ini)\n"
        "    cfg = replace(cfg, training=replace(cfg.training, global_rounds=1))\n"
        "    saginfl.cli.execute_run(cfg, __import__('pathlib').Path(sys.argv[2]))\n"
        "print(loaded, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "configs"), str(tmp_path)],
        env=env, check=True, capture_output=True, text=True)
    config_loads, scipy_loads = out.stdout.splitlines()
    assert config_loads == "[]"
    assert scipy_loads == "[] []"


def test_cli_run_loads_no_executor_logging_or_traceback(tmp_path):
    # the worker threads are plain threading, started per call with no job
    # queue, and traceback serves the error paths only; each module stays
    # out of every run's memory
    config = tmp_path / "small.ini"
    config.write_text(
        "[topology]\nkind = single\nn_sats = 4\nn_air = 8\n"
        "devices_per_air = 2\n\n[data]\nsamples_per_device = 15\n"
        "test_samples = 300\n\n[training]\ntau1 = 2\ntau2 = 2\n"
        "global_rounds = 2\n\n[policy]\nname = cnasa\nn_geo = 2\n\n"
        "[run]\nseed = 7\noutput_dir = out\n")
    script = (
        "import sys\nimport saginfl.cli\n"
        "rc = saginfl.cli.main(['run', sys.argv[1]])\n"
        "print(rc, [m for m in ('concurrent.futures', 'logging', "
        "'traceback', 'queue', '_queue', 'heapq', '_heapq') "
        "if m in sys.modules])")
    env = dict(os.environ, SAGINFL_OUTPUT_ROOT=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script, str(config)],
                         env=env, check=True, capture_output=True, text=True)
    assert out.stdout.splitlines()[-1] == "0 []"
    assert list((tmp_path / "out").glob("*.trace.txt"))

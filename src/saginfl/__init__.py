"""Hierarchical federated learning over space-air-ground networks.

Builds satellite constellations with air and ground layers, assigns air nodes
to satellites (geographic, class-diversity, or the partitioned
cluster-and-match policy), trains a convex learner on synthetic non-IID data,
synchronizes satellite models by chunked Ring Allreduce, and accounts
end-to-end time per round.

The package root exports the public API: running one configuration, deriving
sweep cells, the convergence diagnostics, the configuration types and
loaders, and the errors. The ``saginfl`` command (``saginfl.cli``) runs,
sweeps and validates configuration files. Building blocks live in their
modules.
"""
from importlib import import_module

from .config import (
    AXES,
    DataConfig,
    ExperimentConfig,
    PolicyConfig,
    RunConfig,
    TopologyConfig,
    TrainingConfig,
    apply_axis,
    load_config,
    parse_config_text,
    validate_config,
    with_seed,
)
from .errors import ConfigurationError, InputError, TopologyError, TrainingError

# the exports that need the run's modules, loaded on first use so that
# importing the configuration leaves the topology and assignment stack out
_LAZY = {"BoundReport": "diagnostics", "check_convergence_bound": "diagnostics",
         "measure_divergence": "diagnostics", "theorem_bound": "diagnostics",
         "TrainingTrace": "simulation", "run_obl": "simulation"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "AXES",
    "BoundReport",
    "ConfigurationError",
    "DataConfig",
    "ExperimentConfig",
    "InputError",
    "PolicyConfig",
    "RunConfig",
    "TopologyConfig",
    "TopologyError",
    "TrainingConfig",
    "TrainingError",
    "TrainingTrace",
    "apply_axis",
    "check_convergence_bound",
    "load_config",
    "measure_divergence",
    "parse_config_text",
    "run_obl",
    "theorem_bound",
    "validate_config",
    "with_seed",
]

__version__ = "0.1.0"

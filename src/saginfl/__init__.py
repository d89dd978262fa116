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
from .diagnostics import (
    BoundReport,
    check_convergence_bound,
    measure_divergence,
    theorem_bound,
    virtual_trajectories,
)
from .errors import ConfigurationError, InputError, TopologyError, TrainingError
from .simulation import TrainingTrace, run_obl

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
    "virtual_trajectories",
    "with_seed",
]

__version__ = "0.1.0"

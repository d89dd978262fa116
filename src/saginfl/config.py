"""Experiment configuration: INI sections parsed into typed blocks.

The file format is plain-text key=value under [topology], [data], [training],
[policy], and [run]. Every key except the seed has a default; the seed is
mandatory so no run can silently float. ``canonical_text`` serializes the
resolved configuration deterministically for trace headers and replay.
"""
from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigurationError
from .learner import make_learner
from .timecost import RoundShape, delivery_terms, price, unit_costs

POLICIES = ("gdo", "cdo", "cnasa")
SYNC_ALGOS = ("ring", "gossip")
# each sweep axis and the [section] key it sets; apply_axis divides an
# n_devices total among the air nodes, and orbits keeps the satellite total
AXES = {"n_geo": ("policy", "n_geo"),
        "tau2": ("training", "tau2"),
        "non_iid": ("data", "classes_per_device"),
        "n_devices": ("topology", "devices_per_air"),
        "n_air": ("topology", "n_air"),
        "n_sats": ("topology", "n_sats"),
        "orbits": ("topology", "n_planes"),
        "sync_algo": ("run", "sync_algo")}


@dataclass(frozen=True)
class TopologyConfig:
    kind: str = "single"               # single | walker
    n_sats: int = 20
    altitude_km: float = 330.0
    n_air: int = 100
    devices_per_air: int = 2
    n_planes: int = 15
    sats_per_plane: int = 16
    inclination_deg: float = 85.0
    air_per_cell: int = 2
    sg_rate_bps: float = 6000e6
    sg_prop_s: float = 0.010
    ga_rate_bps: float = 32e9
    ga_prop_s: float = 0.005
    as_rate_bps: float = 6000e6
    as_prop_s: float = 0.005
    ss_rate_bps: float = 30e9
    ss_prop_s: float = 0.020

    @property
    def n_satellites(self) -> int:
        return self.n_sats if self.kind == "single" else \
            self.n_planes * self.sats_per_plane

    @property
    def n_air_nodes(self) -> int:
        return self.n_air if self.kind == "single" else \
            self.n_satellites * self.air_per_cell


@dataclass(frozen=True)
class DataConfig:
    n_classes: int = 10
    classes_per_device: int = 2
    samples_per_device: int = 50
    feature_dim: int = 10
    test_samples: int = 4000
    blob_scale: float = 2.5
    class_scale_min: float = 0.5
    class_scale_max: float = 2.5
    geo_bin_deg: float = 0.0   # 0 = auto by topology kind (generate_data)


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 0.5
    l2: float = 1e-3
    tau1: int = 10
    tau2: int = 2
    global_rounds: int = 30
    learner: str = "softmax"           # softmax | mlp
    hidden_dim: int = 16
    init_scale: float = 1.0            # scales the initial weights; 0 = zero init (softmax)
    batch_size: int = 0                # 0 = full local dataset per step
    flops_model: float = 1e6
    flops_device: float = 0.665e12
    flops_air: float = 0.665e12
    flops_satellite: float = 0.665e12
    bits_per_param: int = 32


@dataclass(frozen=True)
class PolicyConfig:
    name: str = "cnasa"                # gdo | cdo | cnasa
    n_geo: int = 4


@dataclass(frozen=True)
class RunConfig:
    seed: int = -1                     # mandatory; -1 marks "unset"
    output_dir: str = "out"
    sync_algo: str = "ring"            # ring | gossip (gossip: time model only)
    label: str = "run"


@dataclass(frozen=True)
class ExperimentConfig:
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    data: DataConfig = field(default_factory=DataConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    run: RunConfig = field(default_factory=RunConfig)

    @property
    def mini_batch(self) -> bool:
        """Whether a local step reads a mini-batch, not all local samples."""
        return 0 < self.training.batch_size < self.data.samples_per_device

    def canonical_text(self) -> str:
        lines = []
        for section_name in _SECTION_TYPES:
            block = getattr(self, section_name)
            lines.append(f"[{section_name}]")
            for f in fields(block):
                lines.append(f"{f.name} = {getattr(block, f.name)!r}")
        return "\n".join(lines) + "\n"


_SECTION_TYPES = {f.name: f.default_factory for f in fields(ExperimentConfig)}


def key_type(section: str, key: str) -> type:
    """The type of ``[section] key``."""
    types = {f.name: f.type for f in fields(_SECTION_TYPES[section])}
    if key not in types:
        raise ConfigurationError(f"[{section}] unknown key {key!r}")
    return {"int": int, "float": float, "str": str}[types[key]]


def _coerce(section: str, name: str, raw: str, target_type):
    raw = raw.strip()
    try:
        return target_type(raw)
    except ValueError:
        raise ConfigurationError(
            f"[{section}] {name}: cannot parse {raw!r} as {target_type.__name__}")


def _parse_section(parser: configparser.ConfigParser, section: str):
    if section not in parser:
        raise ConfigurationError(f"missing config section [{section}]")
    return _SECTION_TYPES[section](**{
        name: _coerce(section, name, raw, key_type(section, name))
        for name, raw in parser[section].items()})


# numeric keys by section that must be > 0, and those that must be >= 0
_POSITIVE = {
    "topology": ("altitude_km", "devices_per_air", "sg_rate_bps",
                 "ga_rate_bps", "as_rate_bps", "ss_rate_bps"),
    "data": ("samples_per_device", "test_samples"),
    "training": ("learning_rate", "tau1", "tau2", "global_rounds",
                 "hidden_dim", "bits_per_param", "flops_model",
                 "flops_device", "flops_air", "flops_satellite"),
}
_NON_NEGATIVE = {
    "topology": ("sg_prop_s", "ga_prop_s", "as_prop_s", "ss_prop_s"),
    "data": ("geo_bin_deg", "class_scale_min", "class_scale_max"),
    "training": ("l2",),
}
# topology keys checked under one kind only, with their least value
_KIND_MINIMUM = {"single": {"n_sats": 1, "n_air": 1},
                 "walker": {"n_planes": 2, "sats_per_plane": 3,
                            "air_per_cell": 1}}
# the keys a run never reads, by the setting that leaves them unread
_UNREAD_UNDER = {
    ("topology", "kind", "single"): "n_planes sats_per_plane inclination_deg air_per_cell",
    ("topology", "kind", "walker"): "n_sats n_air",
    ("policy", "name", "gdo"): "n_geo",
    ("policy", "name", "cdo"): "n_geo",
    ("training", "learner", "softmax"): "hidden_dim",
}
# the work a FLOP key prices in the finite-time rule; a rate key prices one
# model transfer
_UNIT_OF = dict(flops_air="one aggregation", flops_satellite="one aggregation",
                flops_model="one local step", flops_device="one local step")
# CNASA's matching solver (assignment._lsap) keeps potentials up to twice and
# path lengths up to three times the largest matching total; a power of two
# above three keeps every one of them finite
_MATCHING_HEADROOM = 4.0


# the longest file name a common file system takes, in bytes; a run writes
# <stem>.topology.tsv, its longest name
_NAME_MAX = 255


def run_stem(cfg: ExperimentConfig) -> str:
    """The name every output file of the run starts with."""
    policy = cfg.policy.name
    if policy == "cnasa":
        policy = f"cnasa-{cfg.policy.n_geo}"
    return f"{cfg.run.label}_{policy}_seed{cfg.run.seed}"


def _is_file_name(name: str) -> bool:
    """Whether ``name`` is one file name of at most ``_NAME_MAX`` bytes in
    the file system's encoding; a name it cannot encode (non-ASCII under an
    ASCII locale) fits in none."""
    try:
        return ("/" not in name and "\0" not in name
                and len(os.fsencode(name)) <= _NAME_MAX)
    except UnicodeEncodeError:
        return False


def _require(section: str, key: str, value, ok: bool, rule: str) -> None:
    if not ok:
        raise ConfigurationError(f"[{section}] {key} must be {rule}, got {value!r}")


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check every key's range and the cross-field constraints, the time
    keys at ``timecost``'s worst-case prices; raises naming ``[section] key``."""
    t, d, tr, p, r = cfg.topology, cfg.data, cfg.training, cfg.policy, cfg.run
    for section in _SECTION_TYPES:
        block = getattr(cfg, section)
        for f in fields(block):
            value = getattr(block, f.name)
            if isinstance(value, float):
                _require(section, f.name, value, math.isfinite(value), "finite")
    for rule, table, ok in (("> 0", _POSITIVE, lambda v: v > 0),
                            (">= 0", _NON_NEGATIVE, lambda v: v >= 0)):
        for section, keys in table.items():
            for key in keys:
                value = getattr(getattr(cfg, section), key)
                _require(section, key, value, ok(value), rule)
    # a narrower bin overflows the longitude bin index in generate_data
    _require("data", "geo_bin_deg", d.geo_bin_deg,
             d.geo_bin_deg == 0 or math.isfinite(360.0 / d.geo_bin_deg),
             "0 or so wide that 360 / geo_bin_deg is finite")
    _require("topology", "kind", t.kind, t.kind in _KIND_MINIMUM, "single|walker")
    for key, least in _KIND_MINIMUM[t.kind].items():
        value = getattr(t, key)
        _require("topology", key, value, value >= least, f">= {least}")
    if t.kind == "walker":
        _require("topology", "inclination_deg", t.inclination_deg,
                 0.0 < t.inclination_deg < 180.0, "in (0, 180)")
    if r.seed < 0:
        raise ConfigurationError("[run] seed is mandatory and must be >= 0")
    _require("policy", "name", p.name, p.name in POLICIES,
             f"one of {POLICIES}")
    _require("policy", "n_geo", p.n_geo,
             p.name != "cnasa" or 1 <= p.n_geo <= t.n_satellites,
             f"in [1, {t.n_satellites}]")
    _require("run", "sync_algo", r.sync_algo, r.sync_algo in SYNC_ALGOS,
             f"one of {SYNC_ALGOS}")
    stem = run_stem(cfg)
    _require("run", "label", r.label, _is_file_name(f"{stem}.topology.tsv"),
             f"free of '/' and NUL, and short enough that "
             f"<label>_<policy>_seed<seed>.topology.tsv fits in {_NAME_MAX} bytes")
    _require("training", "learner", tr.learner,
             tr.learner in ("softmax", "mlp"), "softmax|mlp")
    # a zero MLP never trains its hidden layer: tanh(0) = 0 zeroes its gradient
    if tr.learner == "mlp":
        _require("training", "init_scale", tr.init_scale, tr.init_scale != 0.0,
                 "nonzero under learner = mlp")
    _require("data", "classes_per_device", d.classes_per_device,
             1 <= d.classes_per_device <= d.n_classes, f"in [1, {d.n_classes}]")
    _require("training", "batch_size", tr.batch_size,
             0 <= tr.batch_size <= d.samples_per_device,
             f"in [0, {d.samples_per_device}]")
    _require("data", "feature_dim", d.feature_dim,
             d.feature_dim >= d.n_classes, ">= n_classes")
    m = make_learner(tr, d).n_params
    shape = RoundShape.worst(t)
    for (section, key), cost in unit_costs(cfg, m, shape).items():
        _require(section, key, getattr(getattr(cfg, section), key),
                 math.isfinite(cost),
                 f"{'small' if key == 'flops_model' else 'large'} enough that "
                 f"{_UNIT_OF.get(key, 'one model transfer')} takes finite time")
    _require_bounded(cfg, price(cfg, m, shape)[1], tr.global_rounds,
                     "the run's total time is finite")
    if p.name in ("cdo", "cnasa"):
        _require_bounded(cfg, delivery_terms(cfg, m), _MATCHING_HEADROOM,
                         "the cluster matching's costs stay finite")
    return cfg


def _require_bounded(cfg: ExperimentConfig, terms: dict[tuple[str, str], float],
                     factor: float, what: str) -> None:
    """Reject ``terms`` whose sum times ``factor`` is not finite, naming
    the key with the largest term."""
    section, key = max(terms, key=terms.get)
    _require(section, key, getattr(getattr(cfg, section), key),
             math.isfinite(sum(terms.values()) * factor),
             f"{'small' if key.endswith('_prop_s') else 'large'} enough that {what}")


def parse_config_text(text: str) -> ExperimentConfig:
    # no header names the empty section, so [DEFAULT] is an unknown section
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc
    for section in parser.sections():
        if section not in _SECTION_TYPES:
            raise ConfigurationError(f"unknown config section [{section}]")
    cfg = ExperimentConfig(**{
        section: _parse_section(parser, section) for section in _SECTION_TYPES
    })
    return validate_config(cfg)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def unread_keys(cfg: ExperimentConfig) -> dict[tuple[str, str], str]:
    """Each ``(section, key)`` a run of ``cfg`` never reads, mapped to the
    ``[section] key = value`` setting in that section that leaves it unread."""
    return {(section, unread): f"[{section}] {key} = {value}"
            for (section, key, value), keys in _UNREAD_UNDER.items()
            if getattr(getattr(cfg, section), key) == value
            for unread in keys.split()}


def apply_axis(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """Derive a sweep-cell configuration from the base one.

    The axis sets its ``AXES`` key to ``value``, coerced to the key's type;
    a key that ``unread_keys(cfg)`` lists is an error. The cell's label
    gains ``_<axis>-<value>``, so every cell of a sweep writes its own files.
    """
    if axis not in AXES:
        raise ConfigurationError(f"unknown sweep axis {axis!r}; choose from {tuple(AXES)}")
    section, key = AXES[axis]
    value = key_type(section, key)(value)
    setting = unread_keys(cfg).get((section, key))
    if setting:
        raise ConfigurationError(f"sweep axis {axis} has no effect on {setting}")
    t = cfg.topology
    updates = {key: value}
    if axis == "n_devices":
        if value % t.n_air_nodes != 0:
            raise ConfigurationError(
                f"n_devices {value} not divisible by {t.n_air_nodes} air nodes")
        updates[key] = value // t.n_air_nodes
    elif axis == "orbits":
        if value < 1 or t.n_satellites % value != 0:
            raise ConfigurationError(
                f"orbits {value} does not divide {t.n_satellites} satellites")
        updates["sats_per_plane"] = t.n_satellites // value
    cell = replace(cfg, **{section: replace(getattr(cfg, section), **updates)})
    return replace(cell, run=replace(
        cell.run, label=f"{cfg.run.label}_{axis}-{value}"))


def with_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(cfg, run=replace(cfg.run, seed=seed))

"""Experiment configuration: INI sections parsed into typed blocks.

The file format is plain-text key=value under [topology], [data], [training],
[policy], and [run]. Every key except the seed has a default; the seed is
mandatory so no run can silently float. ``canonical_text`` serializes the
resolved configuration deterministically for trace headers and replay.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigurationError
from .learner import make_learner

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

    def canonical_text(self) -> str:
        lines = []
        for section_name in ("topology", "data", "training", "policy", "run"):
            block = getattr(self, section_name)
            lines.append(f"[{section_name}]")
            for f in fields(block):
                lines.append(f"{f.name} = {getattr(block, f.name)!r}")
        return "\n".join(lines) + "\n"


_SECTION_TYPES = {
    "topology": TopologyConfig,
    "data": DataConfig,
    "training": TrainingConfig,
    "policy": PolicyConfig,
    "run": RunConfig,
}


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
    "data": ("geo_bin_deg",),
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


def _require(section: str, key: str, value, ok: bool, rule: str) -> None:
    if not ok:
        raise ConfigurationError(f"[{section}] {key} must be {rule}, got {value!r}")


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check every key's range and the cross-field constraints; raises
    naming the offending ``[section] key``."""
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
    if t.kind not in _KIND_MINIMUM:
        raise ConfigurationError(f"[topology] kind must be single|walker, got {t.kind!r}")
    for key, least in _KIND_MINIMUM[t.kind].items():
        value = getattr(t, key)
        _require("topology", key, value, value >= least, f">= {least}")
    if t.kind == "walker":
        _require("topology", "inclination_deg", t.inclination_deg,
                 0.0 < t.inclination_deg < 180.0, "in (0, 180)")
    if r.seed < 0:
        raise ConfigurationError("[run] seed is mandatory and must be >= 0")
    if p.name not in POLICIES:
        raise ConfigurationError(f"[policy] name must be one of {POLICIES}, got {p.name!r}")
    if p.name == "cnasa" and not 1 <= p.n_geo <= t.n_satellites:
        raise ConfigurationError(
            f"[policy] n_geo must be in [1, {t.n_satellites}], got {p.n_geo}")
    if r.sync_algo not in SYNC_ALGOS:
        raise ConfigurationError(
            f"[run] sync_algo must be one of {SYNC_ALGOS}, got {r.sync_algo!r}")
    if tr.learner not in ("softmax", "mlp"):
        raise ConfigurationError(f"[training] learner must be softmax|mlp, got {tr.learner!r}")
    # a zero MLP never trains its hidden layer: tanh(0) = 0 zeroes its gradient
    if tr.learner == "mlp":
        _require("training", "init_scale", tr.init_scale, tr.init_scale != 0.0,
                 "nonzero under learner = mlp")
    if not 1 <= d.classes_per_device <= d.n_classes:
        raise ConfigurationError(
            f"[data] classes_per_device must be in [1, {d.n_classes}], "
            f"got {d.classes_per_device}")
    if tr.batch_size < 0 or tr.batch_size > d.samples_per_device:
        raise ConfigurationError(
            f"[training] batch_size must be in [0, {d.samples_per_device}], "
            f"got {tr.batch_size}")
    if d.feature_dim < d.n_classes:
        raise ConfigurationError(
            f"[data] feature_dim must be >= n_classes, got {d.feature_dim}")
    _require_finite_times(cfg)
    return cfg


def _require_finite_times(cfg: ExperimentConfig) -> None:
    """Reject a rate or FLOP count for which one model transfer, one
    aggregation or one local step takes non-finite time, as ``timecost``
    prices it; a shared uplink is split among all its possible senders."""
    t, tr = cfg.topology, cfg.training
    m = make_learner(tr, cfg.data).n_params
    bits = m * tr.bits_per_param
    n_air = t.n_air if t.kind == "single" else t.n_satellites * t.air_per_cell
    for section, key, work, split, rule in (
            ("topology", "sg_rate_bps", bits, 1, "one model transfer"),
            ("topology", "ga_rate_bps", bits, t.devices_per_air,
             "one model transfer"),
            ("topology", "as_rate_bps", bits, n_air, "one model transfer"),
            ("topology", "ss_rate_bps", bits, 1, "one model transfer"),
            ("training", "flops_air", m * t.devices_per_air, 1,
             "one aggregation"),
            ("training", "flops_satellite", m * n_air, 1, "one aggregation")):
        value = getattr(getattr(cfg, section), key)
        rate = value / split
        _require(section, key, value, rate > 0 and math.isfinite(work / rate),
                 f"large enough that {rule} takes finite time")
    work = tr.flops_model * cfg.data.samples_per_device
    _require("training", "flops_model", tr.flops_model, math.isfinite(work),
             "small enough that one local step takes finite time")
    _require("training", "flops_device", tr.flops_device,
             math.isfinite(work / tr.flops_device),
             "large enough that one local step takes finite time")


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc
    cfg = ExperimentConfig(**{
        section: _parse_section(parser, section) for section in _SECTION_TYPES
    })
    return validate_config(cfg)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
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
        n_air = t.n_air if t.kind == "single" else t.n_satellites * t.air_per_cell
        if value % n_air != 0:
            raise ConfigurationError(
                f"n_devices {value} not divisible by {n_air} air nodes")
        updates[key] = value // n_air
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

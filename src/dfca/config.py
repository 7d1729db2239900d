"""Experiment configuration: a flat key=value text file.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Unknown keys are rejected.  A config checks the type and then the range of
every value when it is built (``load_config``, the constructor or
``replace``) with an error message naming the offending key, and cannot be
changed afterwards.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable

from .datagen import _SUPPORTED_K, SyntheticSpec, _n_test

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]

ALGORITHMS = ("dfca", "ifca", "davg")
INIT_MODES = ("gi", "li")
AGGREGATION_MODES = ("batch", "sequential")
# paper-uniform merges 1/(r+1) over self and the r reporting neighbors, with no matrix.
MIXING_KINDS = ("paper-uniform", "metropolis")
DISCONNECTED_POLICIES = ("abort", "proceed")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment description, validated when built and immutable.  Field
    names use ``_`` where the config file uses ``.`` (``topology.p`` ->
    ``topology_p``)."""

    algorithm: str = "dfca"
    n_clients: int = 20
    k: int = 2
    topology_p: float = 0.3
    init_mode: str = "gi"
    aggregation_mode: str = "sequential"
    mixing_kind: str = "paper-uniform"
    gamma: float = 0.1
    tau: int = 5
    batch_size: int = 32
    T: int = 150
    participation_fraction: float = 1.0
    data_n_classes: int = 4
    data_dim: int = 16
    data_samples_per_client: int = 200
    data_test_fraction: float = 0.2
    model_hidden: int = 32
    n_seeds: int = 5
    output_dir: str = "runs"
    on_disconnected: str = "proceed"
    restrict_receive_to_participants: bool = False

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            accepted, _ = _ANNOTATIONS[f.type]
            if not isinstance(value, accepted) or isinstance(value, bool) != (f.type == "bool"):
                raise ConfigError(f"config key {_key(f.name)!r}: must be of type {f.type} (got {value!r})")
            if f.type == "float":  # an int stored as given would write 1, not 1.0, to summary.json
                object.__setattr__(self, f.name, float(value))
        checks: list[tuple[str, bool, str]] = [
            ("algorithm", self.algorithm in ALGORITHMS, f"must be one of {ALGORITHMS}"),
            ("n_clients", self.n_clients >= 1, "must be >= 1"),
            ("k", self.k in _SUPPORTED_K, "must be 1, 2, or 4 (rotation-based clusters)"),
            ("topology.p", 0.0 <= self.topology_p <= 1.0, "must be in [0, 1]"),
            ("init_mode", self.init_mode in INIT_MODES, f"must be one of {INIT_MODES}"),
            (
                "aggregation_mode",
                self.aggregation_mode in AGGREGATION_MODES,
                f"must be one of {AGGREGATION_MODES}",
            ),
            ("mixing_kind", self.mixing_kind in MIXING_KINDS, f"must be one of {MIXING_KINDS}"),
            ("gamma", self.gamma >= 0.0, "must be >= 0"),
            ("tau", self.tau >= 1, "must be >= 1"),
            ("batch_size", self.batch_size >= 1, "must be >= 1"),
            ("T", self.T >= 0, "must be >= 0"),
            (
                "participation_fraction",
                0.0 < self.participation_fraction <= 1.0,
                "must be in (0, 1]",
            ),
            (
                "init_mode",
                self.algorithm != "ifca" or self.init_mode == "gi",
                "must be gi for algorithm = ifca, whose server broadcasts one model set",
            ),
            ("data.n_classes", self.data_n_classes >= 2, "must be >= 2"),
            ("data.dim", self.data_dim >= 2, "must be >= 2"),
            ("data.samples_per_client", self.data_samples_per_client >= 2, "must be >= 2"),
            ("data.test_fraction", 0.0 < self.data_test_fraction < 1.0, "must be in (0, 1)"),
            (
                "data.test_fraction",
                not 0.0 < self.data_test_fraction < 1.0
                or 0 < _n_test(self.data_samples_per_client, self.data_test_fraction)
                < self.data_samples_per_client,
                f"leaves an empty side in a split of {self.data_samples_per_client} samples",
            ),
            ("model.hidden", self.model_hidden >= 0, "must be >= 0"),
            ("n_seeds", self.n_seeds >= 1, "must be >= 1"),
            (
                "on_disconnected",
                self.on_disconnected in DISCONNECTED_POLICIES,
                f"must be one of {DISCONNECTED_POLICIES}",
            ),
        ]
        checks += [
            (_key(f.name), math.isfinite(getattr(self, f.name)), "must be finite")
            for f in fields(self)
            if f.type == "float"
        ]
        for key, ok, hint in checks:
            if not ok:
                raise ConfigError(f"config key {key!r}: {hint} (got {self._raw_value(key)!r})")

    def _raw_value(self, key: str):
        return getattr(self, key.replace(".", "_"))

    @property
    def synthetic_spec(self) -> SyntheticSpec:
        return SyntheticSpec(
            n_classes=self.data_n_classes,
            dim=self.data_dim,
            samples_per_client=self.data_samples_per_client,
        )

    @property
    def n_models(self) -> int:
        """Model slots per client: the no-clustering baseline keeps one."""
        return 1 if self.algorithm == "davg" else self.k

    def replace(self, **updates) -> "ExperimentConfig":
        return dataclasses.replace(self, **updates)

    def to_dict(self) -> dict:
        return {_key(f.name): getattr(self, f.name) for f in fields(self)}


def _key(field_name: str) -> str:
    """Config-file key of a field: ``topology_p`` -> ``topology.p``."""
    for prefix in ("topology_", "data_", "model_"):
        if field_name.startswith(prefix):
            return prefix[:-1] + "." + field_name[len(prefix):]
    return field_name


# Per field annotation (a string, under postponed evaluation): the values the
# field takes and the parser of its config-file text.  A bool is an int to
# isinstance, so only bool fields take one.
_ANNOTATIONS = {"str": (str, str), "int": (int, int), "float": ((int, float), float), "bool": (bool, _bool)}
_FIELD_BY_KEY = {_key(f.name): (f.name, _ANNOTATIONS[f.type][1]) for f in fields(ExperimentConfig)}


def _parse_pairs(lines: Iterable[str], source: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in pairs:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _apply(cfg_kwargs: dict, key: str, value: str, source: str) -> None:
    if key not in _FIELD_BY_KEY:
        raise ConfigError(f"{source}: unknown config key {key!r}")
    field_name, caster = _FIELD_BY_KEY[key]
    try:
        cfg_kwargs[field_name] = caster(value)
    except ValueError as exc:
        raise ConfigError(f"{source}: config key {key!r}: {exc}") from exc


def _parse_overrides(overrides: Iterable[str]) -> dict[str, str]:
    """Parse ``key=value`` strings from the CLI into a pair dict."""
    pairs: dict[str, str] = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        pairs[key] = value
    return pairs


def load_config(path: str | Path, overrides: Iterable[str] = ()) -> ExperimentConfig:
    """Load a config file, apply CLI overrides, and validate the result."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    kwargs: dict = {}
    for key, value in _parse_pairs(text.splitlines(), str(path)).items():
        _apply(kwargs, key, value, str(path))
    for key, value in _parse_overrides(overrides).items():
        _apply(kwargs, key, value, "--set")
    return ExperimentConfig(**kwargs)

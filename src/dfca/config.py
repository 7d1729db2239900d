"""Experiment configuration: a flat key=value text file.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Unknown keys are rejected, and every value is range-checked at load time
with an error message naming the offending key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable

from .datagen import SyntheticSpec, _n_test
from .topology import MIXING_KINDS

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_overrides", "config_keys"]

ALGORITHMS = ("dfca", "ifca", "davg")
INIT_MODES = ("gi", "li")
AGGREGATION_MODES = ("batch", "sequential")
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


@dataclass
class ExperimentConfig:
    """Validated experiment description.  Field names use ``_`` where the
    config file uses ``.`` (``topology.p`` -> ``topology_p``)."""

    algorithm: str = "dfca"
    n_clients: int = 20
    k: int = 2
    topology_p: float = 0.3
    topology_seed: int | None = None
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
    data_class_separation: float = 3.0
    data_noise_std: float = 1.0
    data_test_fraction: float = 0.2
    model_hidden: int = 32
    seed: int = 0
    n_seeds: int = 5
    output_dir: str = "runs"
    on_disconnected: str = "proceed"
    restrict_receive_to_participants: bool = False

    def validate(self) -> None:
        checks: list[tuple[str, bool, str]] = [
            ("algorithm", self.algorithm in ALGORITHMS, f"must be one of {ALGORITHMS}"),
            ("n_clients", self.n_clients >= 1, "must be >= 1"),
            ("k", self.k in (1, 2, 4), "must be 1, 2, or 4 (rotation-based clusters)"),
            ("topology.p", 0.0 <= self.topology_p <= 1.0, "must be in [0, 1]"),
            (
                "topology.seed",
                self.topology_seed is None or self.topology_seed >= 0,
                "must be >= 0",
            ),
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
                "participation_fraction",
                self.algorithm != "ifca" or self.participation_fraction >= 1.0,
                "must be 1 for algorithm = ifca, whose rounds train every client",
            ),
            (
                "init_mode",
                self.algorithm != "ifca" or self.init_mode == "gi",
                "must be gi for algorithm = ifca, whose server broadcasts one model set",
            ),
            ("data.n_classes", self.data_n_classes >= 2, "must be >= 2"),
            ("data.dim", self.data_dim >= 2, "must be >= 2"),
            ("data.samples_per_client", self.data_samples_per_client >= 2, "must be >= 2"),
            ("data.class_separation", self.data_class_separation > 0, "must be > 0"),
            ("data.noise_std", self.data_noise_std > 0, "must be > 0"),
            ("data.test_fraction", 0.0 < self.data_test_fraction < 1.0, "must be in (0, 1)"),
            (
                "data.test_fraction",
                not 0.0 < self.data_test_fraction < 1.0
                or 0 < _n_test(self.data_samples_per_client, self.data_test_fraction)
                < self.data_samples_per_client,
                f"leaves an empty side in a split of {self.data_samples_per_client} samples",
            ),
            ("model.hidden", self.model_hidden >= 0, "must be >= 0"),
            ("seed", self.seed >= 0, "must be >= 0"),
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
            class_separation=self.data_class_separation,
            noise_std=self.data_noise_std,
        )

    @property
    def n_models(self) -> int:
        """Model slots per client: the no-clustering baseline keeps one."""
        return 1 if self.algorithm == "davg" else self.k

    def replace(self, **updates) -> "ExperimentConfig":
        merged = {f.name: getattr(self, f.name) for f in fields(self)}
        merged.update(updates)
        cfg = ExperimentConfig(**merged)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return {_key(f.name): getattr(self, f.name) for f in fields(self)}


def _key(field_name: str) -> str:
    """Config-file key of a field: ``topology_p`` -> ``topology.p``."""
    for prefix in ("topology_", "data_", "model_"):
        if field_name.startswith(prefix):
            return prefix[:-1] + "." + field_name[len(prefix):]
    return field_name


# Field annotations are strings (postponed evaluation); ``int | None`` fields
# are optional only in the dataclass, a config file always gives a number.
_CASTERS = {"str": str, "int": int, "int | None": int, "float": float, "bool": _bool}
_FIELD_BY_KEY = {_key(f.name): (f.name, _CASTERS[f.type]) for f in fields(ExperimentConfig)}


def config_keys() -> list[str]:
    """All recognized config-file keys."""
    return sorted(_FIELD_BY_KEY)


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


def parse_overrides(overrides: Iterable[str]) -> dict[str, str]:
    """Parse ``key=value`` strings from the CLI into a pair dict."""
    pairs: dict[str, str] = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        pairs[key] = value
    return pairs


def load_config(path: str | Path, overrides: Iterable[str] = ()) -> ExperimentConfig:
    """Load and validate a config file, then apply CLI overrides."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    kwargs: dict = {}
    for key, value in _parse_pairs(text.splitlines(), str(path)).items():
        _apply(kwargs, key, value, str(path))
    for key, value in parse_overrides(overrides).items():
        _apply(kwargs, key, value, "--set")
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg

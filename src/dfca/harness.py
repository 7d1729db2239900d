"""Multi-seed experiment driver: trace files, summaries, parameter sweeps.

Output layout::

    <output_root>/<config_name>/seed_<s>/trace.csv
    <output_root>/<config_name>/summary.json
    <output_root>/<config_name>/<key>=<value>/...      (sweeps)
    <output_root>/<config_name>/sweep_<key>.csv

The output root is the config's ``output_dir`` unless the ``DFCA_OUTPUT_ROOT``
environment variable overrides it.  Each seed's trace is written as soon as
that seed finishes, and every file is written to a sibling temporary file
and then renamed into place, so a run that fails leaves the files of the
seeds before it whole and no half-written file.  A run that diverges also
writes a summary of the finished seeds that names the failed one.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from .config import ConfigError, ExperimentConfig, _FIELD_BY_KEY, load_config
from .core import DisconnectedGraphError, run_experiment_states
from .metrics import RoundMetrics, client_mean_test_accuracy, trace_columns, trace_row
from .model import DivergenceError

__all__ = [
    "OUTPUT_ROOT_ENV",
    "SeedOutcome",
    "stabilization_round",
    "write_trace",
    "run_one_seed",
    "cmd_run",
    "cmd_sweep",
]

OUTPUT_ROOT_ENV = "DFCA_OUTPUT_ROOT"

# SeedOutcome fields that summary.json reports per seed and as a mean and std.
_FINALS = (
    "final_test_accuracy",
    "final_clustering_accuracy",
    "final_f_global",
    "stabilization_round",
    "client_mean_test_accuracy",
)


@dataclass
class SeedOutcome:
    """Final numbers for one seed of a run."""

    seed: int
    trace: list[RoundMetrics]
    final_test_accuracy: float | None
    final_clustering_accuracy: float | None
    final_f_global: float | None
    stabilization_round: int | None
    client_mean_test_accuracy: float | None
    connected: bool | None


def stabilization_round(trace: Sequence[RoundMetrics]) -> int:
    """First round index after which no assignment changes (0 if none ever)."""
    last_change = -1
    for m in trace:
        if m.assignments_changed > 0:
            last_change = m.round
    return last_change + 1


def _write_atomically(path: Path, write: Callable[[TextIO], None]) -> None:
    """Write ``path`` through ``write(file)`` on a sibling temporary file that
    then replaces it, so ``path`` is either absent, the old file or whole."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_rows(path: Path, rows: Iterable[Sequence[str]]) -> None:
    _write_atomically(path, lambda fh: csv.writer(fh).writerows(rows))


def write_trace(path: Path, trace: Sequence[RoundMetrics], k: int) -> None:
    _write_rows(path, [trace_columns(k), *map(trace_row, trace)])


def run_one_seed(config: ExperimentConfig, seed: int) -> SeedOutcome:
    """Run ``config`` under master seed ``seed`` and collect its finals."""
    cfg = config.replace(seed=seed)
    try:
        trace, states, info = run_experiment_states(cfg)
    except DivergenceError as exc:
        raise exc.at(seed=seed) from None
    if trace:
        final = trace[-1]
        outcome = dict(
            final_test_accuracy=final.test_accuracy,
            final_clustering_accuracy=final.clustering_accuracy,
            final_f_global=final.f_global,
            stabilization_round=stabilization_round(trace),
            client_mean_test_accuracy=client_mean_test_accuracy(states, info["test_sets"]),
        )
    else:
        outcome = dict.fromkeys(_FINALS)
    return SeedOutcome(seed=seed, trace=trace, connected=info["connected"], **outcome)


def _mean_std(values: list[float | None]) -> tuple[float | None, float | None]:
    present = [v for v in values if v is not None]
    if not present:
        return None, None
    mean = float(np.mean(present))
    std = float(np.std(present, ddof=1)) if len(present) > 1 else 0.0
    return mean, std


def summarize(config: ExperimentConfig, outcomes: list[SeedOutcome]) -> dict:
    per_seed = {name: [getattr(o, name) for o in outcomes] for name in (*_FINALS, "connected")}
    summary = {
        "config": config.to_dict(),
        "seeds": [o.seed for o in outcomes],
        "per_seed": per_seed,
        "mean": {},
        "std": {},
    }
    for name in _FINALS:
        summary["mean"][name], summary["std"][name] = _mean_std(per_seed[name])
    return summary


def _output_root(config: ExperimentConfig) -> Path:
    env = os.environ.get(OUTPUT_ROOT_ENV)
    return Path(env) if env else Path(config.output_dir)


def _write_summary(path: Path, summary: dict) -> None:
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write_atomically(path, lambda fh: fh.write(text))


def _run_into(config: ExperimentConfig, run_dir: Path) -> dict:
    """Run seeds 0..n_seeds-1, writing each seed's trace as it finishes, then
    the summary.  A seed that diverges ends the run: the summary of the seeds
    before it is written with a ``failed`` entry, and the error is raised."""
    outcomes = []
    for seed in range(config.n_seeds):
        try:
            outcome = run_one_seed(config, seed)
        except DivergenceError as exc:
            failed = {"seed": seed, "what": exc.what, "where": exc.where}
            _write_summary(run_dir / "summary.json", {**summarize(config, outcomes), "failed": failed})
            raise
        write_trace(run_dir / f"seed_{seed}" / "trace.csv", outcome.trace, config.n_models)
        outcomes.append(outcome)
    summary = summarize(config, outcomes)
    _write_summary(run_dir / "summary.json", summary)
    return summary


def _exit_codes(command: Callable[..., int]) -> Callable[..., int]:
    """Map the errors a command reports to its exit code: a ``ConfigError``
    to 2, a disconnected graph under ``on_disconnected = abort`` to 3 and
    diverged local SGD to 4."""

    @functools.wraps(command)
    def guarded(*args, **kwargs) -> int:
        try:
            return command(*args, **kwargs)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except DisconnectedGraphError as exc:
            print(f"aborted: {exc}", file=sys.stderr)
            return 3
        except DivergenceError as exc:
            print(f"diverged: {exc}", file=sys.stderr)
            return 4

    return guarded


@_exit_codes
def cmd_run(config_path: str, overrides: Iterable[str] = ()) -> int:
    """Run ``n_seeds`` experiments and write traces plus a summary JSON."""
    config = load_config(config_path, overrides)
    run_dir = _output_root(config) / Path(config_path).stem
    summary = _run_into(config, run_dir)
    mean = summary["mean"]["final_test_accuracy"]
    std = summary["std"]["final_test_accuracy"]
    if mean is not None:
        print(f"{Path(config_path).stem}: final test accuracy {mean:.4f} +/- {std:.4f} "
              f"over {config.n_seeds} seed(s) -> {run_dir}")
    else:
        print(f"{Path(config_path).stem}: empty trace (T=0) -> {run_dir}")
    return 0


def _sanitize(key: str) -> str:
    return key.replace(".", "_")


@_exit_codes
def cmd_sweep(config_path: str, key: str, values: Sequence[str], overrides: Iterable[str] = ()) -> int:
    """One ``cmd_run`` per value of ``key``; emits a combined (value, mean, std) CSV."""
    if key not in _FIELD_BY_KEY:
        raise ConfigError(f"unknown config key {key!r}")
    caster = _FIELD_BY_KEY[key][1]
    if caster not in (int, float):
        raise ConfigError(f"config key {key!r} is not numeric and cannot be swept")
    if key == "seed":
        raise ConfigError(
            "config key 'seed' cannot be swept: dfca run uses seeds 0..n_seeds-1 whatever its "
            "value; sweep n_seeds or topology.seed instead"
        )
    if not values:
        raise ConfigError("sweep needs at least one value")
    parsed = []
    for v in values:
        try:
            parsed.append(caster(v))
        except ValueError as exc:
            raise ConfigError(f"sweep value {v!r} for key {key!r}: {exc}") from exc

    base = load_config(config_path, overrides)
    root = _output_root(base) / Path(config_path).stem
    rows = []
    for value in parsed:
        config = load_config(config_path, list(overrides) + [f"{key}={value}"])
        summary = _run_into(config, root / f"{key}={value}")
        rows.append((value, summary["mean"]["final_test_accuracy"],
                     summary["std"]["final_test_accuracy"]))

    combined = root / f"sweep_{_sanitize(key)}.csv"
    _write_rows(combined, [["value", "mean", "std"]] + [
        [repr(float(value)) if isinstance(value, float) else str(value),
         "" if mean is None else repr(float(mean)),
         "" if std is None else repr(float(std))]
        for value, mean, std in rows
    ])
    print(f"sweep over {key}: {len(rows)} runs -> {combined}")
    return 0

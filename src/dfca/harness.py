"""Multi-seed experiment driver: trace files, summaries, parameter sweeps.

Output layout::

    <output_root>/<config_name>/seed_<s>/trace.csv
    <output_root>/<config_name>/summary.json
    <output_root>/<config_name>/<key>=<value>/...      (sweeps)
    <output_root>/<config_name>/sweep_<field>.csv      (topology.p -> topology_p)

The output root is the config's ``output_dir`` unless the ``DFCA_OUTPUT_ROOT``
environment variable overrides it.  Each seed's trace is written as soon as
that seed finishes, and every file is written to a sibling temporary file
and then renamed into place, so a run that fails leaves the files of the
seeds before it whole and no half-written file.  A run that diverges, or
whose graph is disconnected under ``on_disconnected = abort``, also writes
a summary of the finished seeds that names the failed one.
``run_one_seed`` is the one path from a config to a trace: it samples the
graph, draws the client data, initializes the states and runs the rounds of
``dfca.core``, every stream derived from its ``seed`` argument.
``cmd_diff`` compares the traces of two run directories seed by seed.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from .config import ConfigError, ExperimentConfig, _FIELD_BY_KEY, load_config
from .core import Hyperparams, RoundPlan, initialize, run_round
from .datagen import Dataset, generate_rotated_synthetic, train_test_split
from .metrics import RoundMetrics, trace_columns, trace_row
from .model import DivergenceError, ModelShape, _LocatedError
from .seeding import derive_seed, spawn_rng
from .topology import Topology, generate_erdos_renyi, is_connected

logger = logging.getLogger(__name__)

__all__ = [
    "OUTPUT_ROOT_ENV",
    "DisconnectedGraphError",
    "SeedOutcome",
    "stabilization_round",
    "write_trace",
    "run_one_seed",
    "cmd_run",
    "cmd_sweep",
    "cmd_diff",
]

OUTPUT_ROOT_ENV = "DFCA_OUTPUT_ROOT"


class DisconnectedGraphError(_LocatedError, RuntimeError):
    """Sampled topology is disconnected and the config says abort: ``what``
    names the graph, and :func:`run_one_seed` adds the seed."""


# SeedOutcome attributes that summary.json and the sweep CSV report as a mean and std.
_FINALS = (
    "final_test_accuracy",
    "final_clustering_accuracy",
    "final_f_global",
    "stabilization_round",
)


@dataclass
class SeedOutcome:
    """Final numbers for one seed of a run, each read from its trace's last
    row, or None for an empty trace."""

    seed: int
    trace: list[RoundMetrics]
    connected: bool | None

    @property
    def final_test_accuracy(self) -> float | None:
        return self.trace[-1].test_accuracy if self.trace else None

    @property
    def final_clustering_accuracy(self) -> float | None:
        return self.trace[-1].clustering_accuracy if self.trace else None

    @property
    def final_f_global(self) -> float | None:
        return self.trace[-1].f_global if self.trace else None

    @property
    def stabilization_round(self) -> int | None:
        return stabilization_round(self.trace) if self.trace else None


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
    """Write a ``k``-cluster trace; a row of another cluster count raises
    ``ValueError`` naming its round, and nothing is written."""
    for m in trace:
        if len(m.f_cluster) != k:
            raise ValueError(f"round {m.round} has {len(m.f_cluster)} clusters, the trace {k}")
    _write_rows(path, [trace_columns(k), *map(trace_row, trace)])


def _graph(config: ExperimentConfig, seed: int) -> tuple[Topology, bool]:
    """Sample the configured graph, apply the disconnection policy and return
    the graph with whether it is connected."""
    topo_seed = derive_seed(seed, "topology")
    t = generate_erdos_renyi(config.n_clients, config.topology_p, topo_seed)
    connected = is_connected(t)
    if not connected:
        if config.on_disconnected == "abort":
            raise DisconnectedGraphError(
                f"on_disconnected=abort and the graph (n={config.n_clients}, "
                f"p={config.topology_p}, topology seed {topo_seed}) is disconnected"
            )
        logger.warning(
            "graph (n=%d, p=%g, topology seed %d) is disconnected at seed %d; proceeding per config",
            config.n_clients, config.topology_p, topo_seed, seed,
        )
    return t, connected


def _client_data(config: ExperimentConfig, seed: int) -> tuple[Dataset, Dataset]:
    """The stacked (train, test) splits, each client's written in as it is
    drawn; client i draws from cluster i mod k."""
    spec, center_seed, n = config.synthetic_spec, derive_seed(seed, "centers"), config.n_clients
    stacks = []
    for i in range(n):
        full = generate_rotated_synthetic(spec, k=config.k, client_cluster=i % config.k,
                                          seed=derive_seed(seed, "data", i), center_seed=center_seed)
        splits = train_test_split(full, config.data_test_fraction, derive_seed(seed, "split", i))
        if not stacks:  # shaped after the first client's splits
            stacks = [(np.empty((n, *d.features.shape)), np.empty((n, len(d)), np.int64)) for d in splits]
        for (x, y), d in zip(stacks, splits):
            x[i], y[i] = d.features, d.labels
    return tuple(Dataset(x, y, np.arange(n) % config.k) for x, y in stacks)


def _plan(config: ExperimentConfig, seed: int, round_index: int) -> RoundPlan:
    """Round ``round_index``'s plan: every client, or a fresh sorted sample
    of ``participation_fraction`` of them, and the configured merge."""
    n = config.n_clients
    participants = tuple(range(n))
    if config.participation_fraction < 1.0:
        count = min(n, max(1, int(round(config.participation_fraction * n))))
        rng = spawn_rng(seed, "participation", round_index)
        participants = tuple(sorted(int(i) for i in rng.choice(n, size=count, replace=False)))
    return RoundPlan(
        participants=participants,
        aggregation_mode="server" if config.algorithm == "ifca" else config.aggregation_mode,
        round_seed=derive_seed(seed, "round", round_index),
        round_index=round_index,
        receive_restricted=config.restrict_receive_to_participants,
        metropolis=config.mixing_kind == "metropolis",
    )


def run_one_seed(config: ExperimentConfig, seed: int) -> SeedOutcome:
    """Run ``config``'s T rounds under master seed ``seed`` and collect its
    finals.  Every stream derives from ``seed``, so equal arguments give
    bitwise equal traces.  ``algorithm = ifca`` runs the server merge and
    builds no graph, so its ``connected`` is None."""
    try:
        t, connected = (None, None) if config.algorithm == "ifca" else _graph(config, seed)
        trains, tests = _client_data(config, seed)
        shape = ModelShape(dim=config.data_dim, hidden=config.model_hidden, n_classes=config.data_n_classes)
        states = initialize(k=config.n_models, mode=config.init_mode, model_shape=shape,
                            seed=derive_seed(seed, "init"), datasets=trains, test_sets=tests)
        hp = Hyperparams(gamma=config.gamma, tau=config.tau, batch_size=config.batch_size)
        trace = [run_round(states, t, _plan(config, seed, r), hp)[1] for r in range(config.T)]
    except (DivergenceError, DisconnectedGraphError) as exc:
        raise exc.at(seed=seed) from None
    return SeedOutcome(seed=seed, trace=trace, connected=connected)


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
    the summary.  A seed that diverges or aborts on a disconnected graph ends
    the run: the summary of the seeds before it is written with a ``failed``
    entry, and the error is raised."""
    outcomes = []
    for seed in range(config.n_seeds):
        try:
            outcome = run_one_seed(config, seed)
        except (DivergenceError, DisconnectedGraphError) as exc:
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


@_exit_codes
def cmd_sweep(config_path: str, key: str, values: Sequence[str], overrides: Iterable[str] = ()) -> int:
    """One ``cmd_run`` per value of ``key``; emits a combined CSV: the value,
    the mean and std of each final (test accuracy first, as ``mean,std``) and
    the count of connected seeds.  Every value's config is loaded and checked
    before the first run."""
    if key not in _FIELD_BY_KEY:
        raise ConfigError(f"unknown config key {key!r}")
    field_name = _FIELD_BY_KEY[key][0]
    if not values:
        raise ConfigError("sweep needs at least one value")
    configs = [load_config(config_path, [*overrides, f"{key}={v}"]) for v in values]
    loaded = [getattr(config, field_name) for config in configs]
    for n, (v, value) in enumerate(zip(values, loaded)):
        if value in loaded[:n]:
            first = values[loaded.index(value)]
            raise ConfigError(f"sweep value {v!r} of {key!r} repeats {first!r}: both load as {value}")

    root = _output_root(configs[0]) / Path(config_path).stem
    stats = [f"{name}_{stat}" for name in _FINALS[1:] for stat in ("mean", "std")]
    rows = [["value", "mean", "std", *stats, "connected_seeds"]]
    for config, value in zip(configs, loaded):
        summary = _run_into(config, root / f"{key}={value}")
        connected = summary["per_seed"]["connected"]
        cells = [value, *(summary[stat][name] for name in _FINALS for stat in ("mean", "std")),
                 None if None in connected else connected.count(True)]
        rows.append(["" if c is None else repr(c) if isinstance(c, float) else str(c) for c in cells])
    combined = root / f"sweep_{field_name}.csv"
    _write_rows(combined, rows)
    print(f"sweep over {key}: {len(rows) - 1} runs -> {combined}")
    return 0


def _read_trace(path: Path) -> list[list[str]]:
    """The header and rows of a trace file; a file that cannot be read, has
    no header, or has a row of another width or a cell that is not a number
    raises ``ValueError`` naming it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise ValueError(f"{path} has no header")
    for line, row in enumerate(rows[1:], start=2):
        try:
            if len(row) != len(rows[0]):
                raise ValueError(f"{len(row)} cells under a {len(rows[0])}-column header")
            [float(x) for x in row]
        except ValueError as exc:
            raise ValueError(f"{path}, line {line}: {exc}") from None
    return rows


def _diff_trace(a: list[list[str]], b: list[list[str]]) -> tuple[str | None, dict[str, float]]:
    """Where two traces with one header first differ, None if they are
    identical, and the max |a - b| of each column but ``round`` over the
    rounds both have."""
    header, first = a[0], None
    delta = dict.fromkeys(header[1:], 0.0)
    for ra, rb in itertools.zip_longest(a[1:], b[1:]):
        if ra is None or rb is None:
            first = first or f"round {(ra or rb)[0]}, which only one trace has"
            continue
        for column, x, y in zip(header, ra, rb):
            if x != y:
                first = first or f"round {ra[0]}, column {column}"
                if column in delta:
                    delta[column] = max(delta[column], abs(float(x) - float(y)))
    return first, delta


def cmd_diff(run_a: str, run_b: str) -> int:
    """Compare ``seed_<s>/trace.csv`` of two run directories: per seed, print
    ``identical`` or the first differing round and column with the max |delta|
    per column.  Returns 0 if every trace is identical, 1 if any differs, and
    2 if a seed is missing from one run, the headers differ or a trace cannot
    be read."""
    dirs = (Path(run_a), Path(run_b))
    seeds = [{p.parent.name for p in d.glob("seed_*/trace.csv")} for d in dirs]
    try:
        for d, mine, theirs in zip(dirs, seeds, seeds[::-1]):
            if not mine:
                raise ValueError(f"{d} has no seed_*/trace.csv")
            if theirs - mine:
                raise ValueError(f"{d} has no trace of {', '.join(sorted(theirs - mine))}")
        differs = False
        for seed in sorted(seeds[0], key=lambda name: (len(name), name)):  # seed_2 before seed_10
            a, b = (_read_trace(d / seed / "trace.csv") for d in dirs)
            if a[0] != b[0]:
                raise ValueError(f"{seed}: trace headers differ: {a[0]} against {b[0]}")
            first, delta = _diff_trace(a, b)
            if first is None:
                print(f"{seed}: identical")
                continue
            differs = True
            print(f"{seed}: first difference at {first}")
            print("  max |delta|: " + ", ".join(f"{c} {v:.3g}" for c, v in delta.items()))
    except ValueError as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2
    return 1 if differs else 0

"""dfca benchmark: one workload, one seed, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload desk --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the seed untraced, traced, traced and untraced again and reports
per-layer metrics.  Every run drives the public API (``dfca.config`` ->
``dfca.harness.run_one_seed`` -> ``dfca.harness.write_trace``), checks the
outputs, prints each metric with its unit, and ends with one JSON line::

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

The exit code is 0 only when every output check passed.  See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported.  Only this process's
# environment changes; the machine's settings are left alone.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "dfca").is_dir():  # never measure an installed copy instead
    sys.exit(f"{ROOT / 'src' / 'dfca'} not found: run from the root of a dfca checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import dfca.config  # noqa: E402
import dfca.harness  # noqa: E402
from tracer import AGGREGATE_SPANS, ROUND_SPAN, Tracer  # noqa: E402

BASE_CONFIG = ROOT / "configs" / "desk.cfg"

# Each workload loads a different layer most (shares measured on a 2-core
# Xeon, see README.md).  gossip and crowd shorten T so that two seed runs fit
# in one measurement window; per-round costs do not depend on T.
WORKLOADS = {
    # The paper's reference run; local SGD is ~80% of a round.
    "desk": (),
    # Dense graph, k=4, tau=1: sequential aggregation plus assignment dominate.
    "gossip": ("n_clients=200", "k=4", "tau=1", "data.samples_per_client=40", "T=50"),
    # N=500 at 10% participation, batch Metropolis merge: the metrics path dominates.
    "crowd": (
        "n_clients=500", "k=2", "topology.p=0.05", "participation_fraction=0.1",
        "aggregation_mode=batch", "mixing_kind=metropolis", "tau=1",
        "data.samples_per_client=40", "T=80",
    ),
}

TAIL_PERCENTILE = 90
MIN_ROUND_SAMPLES = 10 * 100 // (100 - TAIL_PERCENTILE)  # >= 10 samples beyond the tail
MIN_SEED_RUNS = 2  # the determinism check needs a second run of the seed
SETUP_REPS = 7
TRACED_RUNS = 2

METRICS_SPANS = ("metrics.f_cluster", "metrics.dispersion", "metrics.cluster_average",
                 "metrics.test_accuracy", "metrics.clustering_accuracy")
SETUP_SPANS = ("topology.generate_erdos_renyi", "topology.build_mixing_matrix",
               "datagen.generate_rotated_synthetic", "datagen.train_test_split", "core.initialize")
# Layers from the benchmark's table; each must be called on its workload.
REQUIRED_SPANS = (
    "core.local_update", "model.sgd_epochs", "model.unflatten_params", *AGGREGATE_SPANS,
    "seeding.spawn_rng", "core.assign_cluster", "model.forward_loss", *METRICS_SPANS,
    ROUND_SPAN, *SETUP_SPANS, "harness.write_trace",
)
# Spans a workload legitimately never calls: paper-uniform runs build no
# mixing matrix, and each run uses one aggregation mode.
NOT_CALLED = {
    "desk": {"topology.build_mixing_matrix", "core.aggregate_batch"},
    "gossip": {"topology.build_mixing_matrix", "core.aggregate_batch"},
    "crowd": {"core.aggregate_sequential"},
}
assert not set.intersection(*NOT_CALLED.values()), "a traced layer would never be called"


# -- environment ------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _os_threads() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {**_blas(), "threads_pinned": int(BLAS_THREADS)},
        "process_threads": _os_threads(),
        "commit": _git_commit(),
    }


# -- one seed run -----------------------------------------------------------


def _finite_trace_problem(trace, T: int) -> str | None:
    if len(trace) != T:
        return f"trace has {len(trace)} rows, expected {T}"
    for m in trace:
        values = [m.f_global, *m.f_cluster, *m.disp, m.clustering_accuracy,
                  m.test_accuracy, *m.avg_drift]
        if not all(math.isfinite(v) for v in values):
            return f"non-finite metric in round {m.round}"
    return None


def seed_run(cfg, seed: int, trace_path: Path) -> dict:
    """Run one seed through the public API and write its trace.

    Returns the wall time, the trace bytes, the final quality, and the first
    output problem found (None when the run is good).
    """
    t0 = time.perf_counter()
    try:
        outcome = dfca.harness.run_one_seed(cfg, seed)
        dfca.harness.write_trace(trace_path, outcome.trace, cfg.n_models)
    except Exception as exc:  # a raising run is a failed run, not a crash
        return {"run_s": time.perf_counter() - t0, "bytes": b"", "quality": {},
                "problem": f"{type(exc).__name__}: {exc}"}
    run_s = time.perf_counter() - t0
    quality = {
        "final_test_acc": outcome.final_test_accuracy,
        "final_clustering_acc": outcome.final_clustering_accuracy,
        "final_f_global": outcome.final_f_global,
    }
    problem = _finite_trace_problem(outcome.trace, cfg.T)
    if problem is None and not all(math.isfinite(v) for v in quality.values()):
        problem = "non-finite final quality"
    return {"run_s": run_s, "bytes": trace_path.read_bytes(), "quality": quality, "problem": problem}


class RunLog:
    """Seed runs of one process: attempts, failures, and the reference trace."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: bytes | None = None

    def record(self, result: dict, label: str) -> None:
        self.attempted += 1
        problem = result["problem"]
        if problem is None and self.reference is not None and result["bytes"] != self.reference:
            problem = "trace.csv differs from the first run of the same seed"
        if self.reference is None and problem is None:
            self.reference = result["bytes"]
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{label}: {problem}")

    def fail(self, problem: str) -> None:
        """Record a check that fails the process but no single seed run."""
        self.problems.append(problem)


# -- calibration ------------------------------------------------------------
#
# The speed of a shared machine drifts by tens of percent over tens of
# seconds, which moves every wall time by the same factor.  A fixed kernel
# that does not touch dfca runs before each round and each set-up run; every
# timing is divided by the kernel time measured next to it and multiplied by
# CALIBRATION_REF_S, so it reads as the time at the reference machine speed.
# Raw wall times are reported alongside.

CALIBRATION_REF_S = 0.002  # kernel time on the reference machine (2-core Xeon)
_CAL_RNG = np.random.default_rng(0)
_CAL_X = _CAL_RNG.standard_normal((32, 16))
_CAL_Y = _CAL_RNG.integers(0, 4, 32)
_CAL_W = _CAL_RNG.uniform(-0.25, 0.25, 676)


def calibrate() -> float:
    """Minibatch SGD steps of a 16-32-4 MLP on a flat parameter vector, written
    here in plain numpy: the op mix of a dfca round, none of dfca's code.
    Its slowdown in a slow phase of the machine tracks dfca's much more
    closely than a matmul loop's does."""
    w, rows = _CAL_W, np.arange(32)
    for _ in range(30):
        w1, b1 = w[:512].reshape(32, 16).copy(), w[512:544].copy()
        w2, b2 = w[544:672].reshape(4, 32).copy(), w[672:].copy()
        finite = all(np.all(np.isfinite(a)) for a in (w1, b1, w2, b2))
        pre = _CAL_X @ w1.T + b1
        act = np.maximum(pre, 0.0)
        z = act @ w2.T + b2
        ez = np.exp(z - z.max(axis=1, keepdims=True))
        g = ez / ez.sum(axis=1, keepdims=True)
        g[rows, _CAL_Y] -= 1.0
        g /= 32
        dact = (g @ w2) * (pre > 0)
        grad = np.concatenate([(dact.T @ _CAL_X).ravel(), dact.sum(axis=0),
                               (g.T @ act).ravel(), g.sum(axis=0)])
        w = w - 0.01 * grad
    return float(w.sum()) + finite


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def calibrated(raw_s: list[float], calib_s: list[float], window: int = 5) -> list[float]:
    """Scale each raw time by the median kernel time of the ``window``
    measurements around it; one kernel time alone can catch an interrupt."""
    half = window // 2
    return [r * CALIBRATION_REF_S / statistics.median(calib_s[max(0, i - half):i + half + 1])
            for i, r in enumerate(raw_s)]


# -- statistics -------------------------------------------------------------


def percentile(samples: list[float], pct: int) -> float:
    return float(np.percentile(np.asarray(samples), pct))


def metric(value: float, unit: str, samples: int | None = None) -> dict:
    out = {"value": float(value), "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def timing_metrics(cfg, round_s: list[float], run_s: list[float], setup_s: list[float]) -> dict:
    return {
        "round_ms_p50": metric(1e3 * percentile(round_s, 50), "ms", len(round_s)),
        f"round_ms_p{TAIL_PERCENTILE}": metric(
            1e3 * percentile(round_s, TAIL_PERCENTILE), "ms", len(round_s)),
        "client_rounds_per_s": metric(cfg.n_clients * len(round_s) / sum(round_s), "1/s",
                                      len(round_s)),
        "run_s": metric(statistics.median(run_s), "s", len(run_s)),
        "setup_s": metric(statistics.median(setup_s), "s", len(setup_s)),
    }


# -- untraced run: end-to-end metrics ----------------------------------------


def run_untraced(cfg, seed: int, seconds: float, workdir: Path, log: RunLog) -> tuple[dict, dict]:
    """End-to-end metrics at reference speed, plus the same timings raw."""
    setup_raw, setup_calib = [], []
    for _ in range(SETUP_REPS):
        setup_calib.append(timed(calibrate))
        setup_raw.append(timed(lambda: dfca.harness.run_one_seed(cfg.replace(T=0), seed)))

    run_raw, run_rounds, quality = [], [], {}
    # One span per round and nothing inside it wrapped: tracing stays off.
    timer = Tracer([ROUND_SPAN], calibrate=calibrate)
    start = time.perf_counter()
    with timer:
        while (len(run_raw) < MIN_SEED_RUNS or len(timer.round_wall_s) < MIN_ROUND_SAMPLES
               or time.perf_counter() - start < seconds):
            first_round = len(timer.calib_s)
            result = seed_run(cfg, seed, workdir / f"run_{len(run_raw)}" / "trace.csv")
            log.record(result, f"seed run {len(run_raw)}")
            if result["problem"] is not None:
                break
            run_raw.append(result["run_s"] - sum(timer.calib_s[first_round:]))
            run_rounds.append(slice(first_round, len(timer.calib_s)))
            quality = quality or result["quality"]
    if not run_raw:
        return {}, quality
    round_cal = calibrated(timer.round_wall_s, timer.calib_s)
    run_cal = []
    for raw_s, rounds in zip(run_raw, run_rounds):
        outside_rounds = raw_s - sum(timer.round_wall_s[rounds])
        scale = CALIBRATION_REF_S / statistics.median(timer.calib_s[rounds])
        run_cal.append(sum(round_cal[rounds]) + outside_rounds * scale)
    metrics = timing_metrics(cfg, round_cal, run_cal, calibrated(setup_raw, setup_calib))
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw = timing_metrics(cfg, timer.round_wall_s, run_raw, setup_raw)
    raw["calibration_ms_p50"] = metric(1e3 * percentile(timer.calib_s, 50), "ms", len(timer.calib_s))
    return metrics, {**quality, "raw": raw}


# -- traced run: per-layer metrics -------------------------------------------


def run_traced(cfg, seed: int, workdir: Path, log: RunLog, workload: str) -> dict:
    """Per-layer metrics from two traced runs between two untraced ones (ABBA)."""
    untraced_rounds, traced_rounds, snapshots = [], [], []
    busy: dict = {"busy": defaultdict(float), "self_s": defaultdict(float),
                  "edges": defaultdict(float)}
    for r, traced in enumerate((False, True, True, False)):
        tracer = Tracer(None if traced else [ROUND_SPAN], calibrate=calibrate)
        with tracer:
            result = seed_run(cfg, seed, workdir / f"run_{r}" / "trace.csv")
        log.record(result, f"{'traced' if traced else 'untraced'} run {r}")
        if not tracer.calib_s:
            continue
        rounds = calibrated(tracer.round_wall_s, tracer.calib_s)
        if not traced:
            untraced_rounds += rounds
            continue
        traced_rounds += rounds
        snapshots.append(tracer.snapshot())
        scale = CALIBRATION_REF_S / statistics.median(tracer.calib_s) / TRACED_RUNS
        for field, totals in busy.items():
            for key, value in getattr(tracer, field).items():
                totals[key] += value * scale
    if len(snapshots) != TRACED_RUNS or not untraced_rounds:
        return {}
    if any(s != snapshots[0] for s in snapshots):
        log.fail("span call counts or computed counts differ between traced runs")
    calls, counts = snapshots[0]["calls"], snapshots[0]["counts"]
    for name in REQUIRED_SPANS:
        if name not in NOT_CALLED[workload] and calls.get(name, 0) == 0:
            log.fail(f"traced layer {name} recorded zero calls; its wrapper missed the lookup")

    def busy_s(name: str) -> float:
        return busy["busy"][name]

    def child_s(name: str) -> float:
        return busy["edges"][(ROUND_SPAN, name)]

    out = {}

    def layer(name: str, with_calls: bool = True) -> None:
        out[f"{name}.busy_s"] = metric(busy_s(name), "s")
        if with_calls:
            out[f"{name}.calls"] = metric(calls.get(name, 0), "count")

    for name in ("core.local_update", "model.sgd_epochs", "model.unflatten_params"):
        layer(name)
    steps = counts.get("sgd.steps", 0)
    out["model.sgd_steps"] = metric(steps, "count")
    out["model.sgd_step_us"] = metric(1e6 * busy_s("model.sgd_epochs") / max(steps, 1), "us")

    aggregate_s = sum(busy_s(n) for n in AGGREGATE_SPANS)
    merges = counts.get("aggregate.merges", 0)
    out["core.aggregate.busy_s"] = metric(aggregate_s, "s")
    out["core.aggregate.calls"] = metric(sum(calls.get(n, 0) for n in AGGREGATE_SPANS), "count")
    out["core.aggregate.merges"] = metric(merges, "count")
    out["core.aggregate.useful_ratio"] = metric(
        counts.get("aggregate.useful_slots", 0) / max(counts.get("aggregate.slots", 0), 1), "ratio")
    out["core.aggregate.bytes_computed"] = metric(merges * counts.get("aggregate.params", 0) * 8, "B")
    out["core.aggregate.merge_us"] = metric(1e6 * aggregate_s / max(merges, 1), "us")
    layer("seeding.spawn_rng")

    layer("core.assign_cluster")
    layer("model.forward_loss")
    out["core.assign.changed_ratio"] = metric(
        counts.get("assign.changed", 0) / max(calls.get("core.assign_cluster", 0), 1), "ratio")

    for name in METRICS_SPANS:
        layer(name)

    round_total = busy_s(ROUND_SPAN)
    out["core.run_round.busy_s"] = metric(round_total, "s")
    out["core.run_round.self_s"] = metric(busy["self_s"][ROUND_SPAN], "s")
    for name in SETUP_SPANS:
        layer(name, with_calls=False)
    layer("harness.write_trace", with_calls=False)
    out["harness.write_trace.bytes"] = metric(counts.get("write_trace.bytes", 0), "B")

    # Shares of round time spent directly under run_round, per layer group.
    shares = {
        "core.local_update.share": child_s("core.local_update"),
        "core.aggregate.share": sum(child_s(n) for n in AGGREGATE_SPANS),
        "core.assign_cluster.share": child_s("core.assign_cluster"),
        "metrics.share": sum(child_s(n) for n in METRICS_SPANS),
    }
    for name, seconds in shares.items():
        out[name] = metric(seconds / round_total if round_total else 0.0, "ratio")
    out["trace.overhead_ratio"] = metric(
        percentile(traced_rounds, 50) / percentile(untraced_rounds, 50), "ratio")
    return out


# -- report -----------------------------------------------------------------


def metric_lines(prefix: str, metrics: dict) -> list[str]:
    width = max((len(n) for n in metrics), default=0)
    lines = []
    for name, m in metrics.items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        lines.append(f"{prefix}{name:{width}s} {m['value']:>14.6g} {m['unit']}{samples}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record to this JSON file")
    args = parser.parse_args(argv)

    cfg = dfca.config.load_config(BASE_CONFIG, WORKLOADS[args.workload])
    env = environment(args.workload, args.seed)
    log = RunLog()
    quality: dict = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        if args.trace:
            metrics = run_traced(cfg, args.seed, Path(tmp), log, args.workload)
        else:
            metrics, quality = run_untraced(cfg, args.seed, args.seconds, Path(tmp), log)
    if not metrics:
        log.fail("no metrics: the seed runs failed")
    raw = quality.pop("raw", {})

    lines = metric_lines("", metrics) + metric_lines("raw wall time, uncalibrated: ", raw)
    lines += [f"{name} {value:.6g}" for name, value in quality.items()]
    lines.append(f"failed_share {log.failed / max(log.attempted, 1):.6g} "
                 f"({log.failed} of {log.attempted} seed runs)")
    shares = {n: m["value"] for n, m in metrics.items() if n.endswith(".share")}
    if shares:
        lines.append(f"largest share: {max(shares, key=shares.get)} "
                     f"(tracing overhead ratio {metrics['trace.overhead_ratio']['value']:.3f})")
    lines += [f"CHECK FAILED: {p}" for p in log.problems]
    for line in lines:
        print(f"{args.workload:6s} {line}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": not log.problems,
        "attempted": max(log.attempted, 1),
        "failed": log.failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        record = {"env": env, "trace": args.trace, "seconds": args.seconds, "metrics": metrics,
                  "raw_wall": raw, "quality": quality, "problems": log.problems, "result": result}
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # Exit through SystemExit on SIGTERM so the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())

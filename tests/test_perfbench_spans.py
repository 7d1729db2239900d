"""Every layer the benchmark times is still called by its workloads, and
its hooks still count what they counted.

``perfbench/run.py --trace 1`` fails when a required span records zero
calls, which happens when a public function it wraps stops being called (say,
because a round calls a private helper instead).  This runs each workload's
overrides for two rounds under the benchmark's tracer and applies the same
check, so such a change fails here first.  The hooks read the arguments of
the functions they wrap by name (``sgd_epochs``'s ``d``, say, counts
``tau * ceil(len(d) / batch_size)`` steps); their counts over those two
rounds are pinned, so an argument that changes its meaning fails here too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HOOKS = ("assign.changed", "sgd.steps", "aggregate.merges", "aggregate.useful_slots",
         "aggregate.slots", "write_trace.bytes")
HOOK_COUNTS = {
    "desk": (16, 10, 208, 77, 80, 426),
    "gossip": (157, 14, 23904, 1600, 1600, 751),
    "crowd": (256, 4, 2560, 1493, 2000, 443),
}


@pytest.fixture
def bench(monkeypatch):
    """``perfbench/run.py`` as a module; the environment variables and
    ``sys.path`` entries it sets on import are undone afterwards."""
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "1")  # records the old value, restored on teardown
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def two_traced_rounds(bench, workload, path):
    """The benchmark's tracer over seed 0 of ``workload`` at T=2."""
    cfg = bench.dfca.config.load_config(bench.BASE_CONFIG, (*bench.WORKLOADS[workload], "T=2"))
    with bench.Tracer() as tracer:
        result = bench.seed_run(cfg, 0, path)
    assert result["problem"] is None
    return tracer


@pytest.mark.parametrize("workload", ["desk", "gossip", "crowd"])
def test_no_required_span_has_zero_calls(bench, workload, tmp_path):
    tracer = two_traced_rounds(bench, workload, tmp_path / "trace.csv")
    uncalled = [
        name for name in bench.REQUIRED_SPANS
        if name not in bench.NOT_CALLED[workload] and tracer.calls.get(name, 0) == 0
    ]
    assert uncalled == []


@pytest.mark.parametrize("workload", ["desk", "gossip", "crowd"])
def test_hook_counts_of_two_rounds_are_pinned(bench, workload, tmp_path):
    tracer = two_traced_rounds(bench, workload, tmp_path / "trace.csv")
    assert dict(zip(HOOKS, HOOK_COUNTS[workload])) == {name: tracer.counts[name] for name in HOOKS}

"""Every layer the benchmark times is still called by its workloads.

``perfbench/run.py --trace 1`` fails when a required span records zero
calls, which happens when a public function it wraps stops being called (say,
because a round calls a private helper instead).  This runs each workload's
overrides for two rounds under the benchmark's tracer and applies the same
check, so such a change fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


@pytest.mark.parametrize("workload", ["desk", "gossip", "crowd"])
def test_no_required_span_has_zero_calls(bench, workload, tmp_path):
    cfg = bench.dfca.config.load_config(bench.BASE_CONFIG, (*bench.WORKLOADS[workload], "T=2"))
    with bench.Tracer() as tracer:
        result = bench.seed_run(cfg, 0, tmp_path / "trace.csv")
    assert result["problem"] is None
    uncalled = [
        name for name in bench.REQUIRED_SPANS
        if name not in bench.NOT_CALLED[workload] and tracer.calls.get(name, 0) == 0
    ]
    assert uncalled == []

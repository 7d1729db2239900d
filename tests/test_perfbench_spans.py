"""Every layer the benchmark times is still called by its workloads, and
its hooks still count what they counted.

``perfbench/run.py --trace 1`` fails when a required span records zero
calls, which happens when a public function it wraps stops being called (say,
because a round calls a private helper instead).  This runs each workload's
overrides for two rounds under the benchmark's tracer, once per workload,
and applies the same check, so such a change fails here first.  The hooks
read the arguments of the functions they wrap by name (``sgd_epochs``'s
``d``, say, counts ``tau * ceil(len(d) / batch_size)`` steps); their counts
over those two rounds are pinned, so an argument that changes its meaning
fails here too.
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


@pytest.fixture(scope="module")
def bench():
    """``perfbench/run.py`` as a module; the environment variables and
    ``sys.path`` entries it sets on import are undone after this module."""
    with pytest.MonkeyPatch.context() as patch:
        for var in BLAS_VARS:
            patch.setenv(var, "1")  # records the old value, restored on exit
        patch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        yield run


@pytest.fixture(scope="module", params=["desk", "gossip", "crowd"])
def traced(bench, request, tmp_path_factory):
    """The workload and the benchmark's tracer over seed 0 of it at T=2,
    one run shared by both tests of each workload."""
    workload = request.param
    cfg = bench.dfca.config.load_config(bench.BASE_CONFIG, (*bench.WORKLOADS[workload], "T=2"))
    with bench.Tracer() as tracer:
        result = bench.seed_run(cfg, 0, tmp_path_factory.mktemp(workload) / "trace.csv")
    assert result["problem"] is None
    return workload, tracer


def test_no_required_span_has_zero_calls(bench, traced):
    workload, tracer = traced
    uncalled = [
        name for name in bench.REQUIRED_SPANS
        if name not in bench.NOT_CALLED[workload] and tracer.calls.get(name, 0) == 0
    ]
    assert uncalled == []


def test_hook_counts_of_two_rounds_are_pinned(traced):
    workload, tracer = traced
    assert dict(zip(HOOKS, HOOK_COUNTS[workload])) == {name: tracer.counts[name] for name in HOOKS}

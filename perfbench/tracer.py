"""Per-layer spans for the dfca benchmark, recorded from outside the package.

A :class:`Tracer` replaces public functions of the dfca modules with timing
wrappers while it is active.  It patches every module attribute that *is*
the original function, not only the defining module, because modules bind
names at import time: ``dfca.core`` calls its own ``sgd_epochs`` binding, so
patching ``dfca.model.sgd_epochs`` alone would miss every call from a round.

For each span name (``<module>.<function>``) the tracer keeps the inclusive
busy time, the self time (busy time minus the spans it called), the call
count, and the busy time of each direct caller/callee edge.  Hooks (counting
merges, SGD steps, assignment changes and trace bytes, and the optional
calibration before each round) run outside the timed part of every open
span, so they do not inflate the busy times.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable

TRACED_MODULES = ("core", "model", "metrics", "seeding", "topology", "datagen", "harness")
ROUND_SPAN = "core.run_round"
AGGREGATE_SPANS = ("core.aggregate_batch", "core.aggregate_sequential")


def public_functions() -> dict[str, Callable]:
    """``{"<module>.<function>": function}`` for the public functions defined
    in each module of :data:`TRACED_MODULES`."""
    found = {}
    for short in TRACED_MODULES:
        mod = sys.modules[f"dfca.{short}"]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                found[f"{short}.{name}"] = obj
    return found


class Tracer:
    """Context manager that traces the named dfca functions while active.

    ``span_names=None`` traces every public function of :data:`TRACED_MODULES`.
    ``calibrate``, when given, runs before every round outside all spans;
    its durations are kept in ``calib_s``, one per entry of ``round_wall_s``.
    """

    def __init__(self, span_names: Iterable[str] | None = None,
                 calibrate: Callable[[], object] | None = None):
        functions = public_functions()
        names = functions if span_names is None else list(span_names)
        self._targets = {name: functions[name] for name in names}
        self._calibrate = calibrate
        self._hooks = {
            "core.assign_cluster": self._hook_assign,
            "model.sgd_epochs": self._hook_sgd,
            "core.aggregate_batch": self._hook_aggregate,
            "core.aggregate_sequential": self._hook_aggregate,
            "harness.write_trace": self._hook_write_trace,
        }
        if calibrate is not None:
            self._hooks[ROUND_SPAN] = self._hook_calibrate
        self._patches: list[tuple[object, str, Callable]] = []
        self._stack: list[list] = []  # open spans: [name, start, child_s, excluded_s]
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.round_wall_s: list[float] = []  # includes tracing cost, for the overhead figure
        self.calib_s: list[float] = []

    # -- patching -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        replacement = {id(fn): self._wrap(name, fn) for name, fn in self._targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dfca" or mod_name.startswith("dfca.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = self._hooks.get(name)
        signature = inspect.signature(fn)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = None
            if hook is not None:
                h0 = clock()
                token = hook(signature.bind(*args, **kwargs).arguments, None, before=True)
                self._exclude(clock() - h0)
            frame = [name, clock(), 0.0, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                wall = end - frame[1]
                busy = wall - frame[3]
                self.busy[name] += busy
                self.self_s[name] += busy - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += busy
                    self.edges[(stack[-1][0], name)] += busy
                if name == ROUND_SPAN:
                    self.round_wall_s.append(wall)
            if hook is not None:
                h0 = clock()
                hook(signature.bind(*args, **kwargs).arguments, token, before=False)
                self._exclude(clock() - h0)
            return result

        return wrapper

    def _exclude(self, seconds: float) -> None:
        for frame in self._stack:
            frame[3] += seconds

    # -- hooks --------------------------------------------------------------

    def _hook_calibrate(self, args, token, before):
        if before:
            t0 = time.perf_counter()
            self._calibrate()
            self.calib_s.append(time.perf_counter() - t0)

    def _hook_assign(self, args, token, before):
        if before:
            return args["c"].assignment
        self.counts["assign.changed"] += int(args["c"].assignment != token)

    def _hook_sgd(self, args, token, before):
        if before:
            n = len(args["d"])
            self.counts["sgd.steps"] += args["tau"] * math.ceil(n / min(args["batch_size"], n))

    def _hook_aggregate(self, args, token, before):
        """Count, before the merge, receiver x cluster x sender merges and the
        receiver x cluster slots that have at least one sender."""
        if not before:
            return
        states, topology, plan = args["states"], args["t"], args.get("plan")
        k = len(states[0].models)
        outbox = [s.outbox[0] if s.outbox is not None else -1 for s in states]
        receivers = plan.participants if plan is not None and plan.receive_restricted else range(len(states))
        merges = useful = 0
        for i in receivers:
            per_cluster = [0] * k
            for m in topology.neighborhoods[i]:
                if outbox[m] >= 0:
                    per_cluster[outbox[m]] += 1
            merges += sum(per_cluster)
            useful += sum(1 for c in per_cluster if c)
        self.counts["aggregate.merges"] += merges
        self.counts["aggregate.useful_slots"] += useful
        self.counts["aggregate.slots"] += len(receivers) * k
        self.counts["aggregate.params"] = states[0].models[0].size

    def _hook_write_trace(self, args, token, before):
        if not before:
            self.counts["write_trace.bytes"] += Path(args["path"]).stat().st_size

    def snapshot(self) -> dict:
        """Exact counts of the spans and hooks recorded so far."""
        return {"calls": dict(self.calls), "counts": dict(self.counts)}

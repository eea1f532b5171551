"""Per-layer tracing: timing spans around each layer's entry points.

The benchmark never edits the program.  For a traced run it replaces
the entry points of every layer with thin wrappers, installed from
this file, that time each call and record it in the program's own
telemetry registry (``repro.telemetry.registry``) under ``bench.*``.
The registry is what the batch runtime already snapshots inside each
pool worker and merges into the parent, so spans taken in forked
workers reach the benchmark process with no extra plumbing.

Each span records its total duration (a telemetry timer: seconds and
call count) and, where asked, its self time: the duration minus the
time covered by wrapped calls made inside it.  A span re-entered under its own name
(``AlertDrainBalancer.select`` calling ``super().select()``) is
recorded once, at the outermost call.

:func:`layer_metrics` turns a registry delta into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional


@contextmanager
def patched(owner: Any, attr: str, value: Any) -> Iterator[Any]:
    """Temporarily replace ``owner.attr``; yields the replaced value."""
    original = owner.__dict__[attr]
    setattr(owner, attr, value)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Installs timing wrappers on layer entry points and removes them.

    Use as a context manager: wrappers are live inside the ``with``
    block only.  ``registry`` is the program's
    ``repro.telemetry.registry.registry`` accessor, resolved on every
    call so a worker's isolated per-run registry receives its spans.
    """

    def __init__(self, registry: Callable[[], Any]):
        self._registry = registry
        #: Child-time accumulators of the spans currently open.
        self._open: List[float] = []
        self._active: set = set()
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        fn: Callable[..., Any],
        on_call: Optional[Callable[[Any, tuple], None]] = None,
        self_time: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span named ``name``.  ``on_call(registry,
        args)`` records extra counts for the call; ``self_time`` also
        records the span's self time."""
        open_spans, active, registry = self._open, self._active, self._registry
        clock = time.perf_counter
        timer_name, self_name = f"bench.{name}", f"bench.{name}.self_s"
        # The metrics of the registry current at the last call: the
        # registry changes only when the runtime isolates a run.
        bound: list = [None, None, None]

        def wrapper(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            open_spans.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = open_spans.pop()
                active.discard(name)
                if open_spans:
                    open_spans[-1] += elapsed
                reg = registry()
                if bound[0] is not reg:
                    bound[:] = [reg, reg.timer(timer_name), reg.counter(self_name)]
                bound[1].add(elapsed)
                if self_time:
                    bound[2].inc(max(0.0, elapsed - children))
                if on_call is not None:
                    on_call(reg, args)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, on_call=None, self_time=False) -> None:
        """Replace ``owner.attr`` (a method or module function) with its
        span-wrapped version until the tracer exits."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self.span(name, original, on_call, self_time))
        self._undo.append(lambda: setattr(owner, attr, original))

    def add_undo(self, undo: Callable[[], None]) -> None:
        self._undo.append(undo)

    def close(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _count_width(reg: Any, args: tuple) -> None:
    """Cohort width of one ``advance_machines(self, machines, ...)``."""
    width = len(args[1])
    reg.counter("bench.thermal.width_sum").inc(width)
    if width == 1:
        reg.counter("bench.thermal.singletons").inc()


def _count_single(reg: Any, args: tuple) -> None:
    """A single-machine integrator advance: a cohort of one."""
    reg.counter("bench.thermal.width_sum").inc()
    reg.counter("bench.thermal.singletons").inc()


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer of the program."""
    from repro.analysis import slo
    from repro.core.injector import IdleInjector
    from repro.cpu.chip import Chip
    from repro.experiments.machine import Machine
    from repro.fleet import cells
    from repro.fleet.balancer import Balancer
    from repro.fleet.machine import FleetMachine
    from repro.health.monitor import HealthTracker
    from repro.runtime import hashing, parallel
    from repro.runtime.cache import ResultCache
    from repro.runtime.parallel import ParallelRunner, register_executor
    from repro.sched.scheduler import Scheduler
    from repro.sim.engine import Simulator
    from repro.thermal.rcnetwork import (
        FleetThermalIntegrator,
        ThermalIntegrator,
        ThermalNetwork,
    )
    from repro.workloads.webserver import WebServer

    wrap = tracer.wrap
    wrap(Simulator, "run", "sim.run", self_time=True)
    wrap(Scheduler, "wake", "sched.wake")
    wrap(IdleInjector, "decide", "core.decide")
    wrap(Chip, "power_segment", "cpu.power_segment")
    wrap(FleetThermalIntegrator, "advance_machines", "thermal.advance", _count_width)
    wrap(ThermalIntegrator, "advance_coefficients", "thermal.advance", _count_single)
    wrap(ThermalNetwork, "step_kernel", "thermal.step_kernel")
    wrap(HealthTracker, "observe", "health.observe")
    wrap(FleetMachine, "run", "fleet.run", self_time=True)
    # Every balancer class that defines its own placement decision
    # (importing repro.fleet imports them all).
    pending = [Balancer]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "select" in cls.__dict__:
            wrap(cls, "select", "fleet.select")
    # Both arrival paths (the server's own loop and a balancer's
    # submit_request) go through one request-admission method.
    wrap(WebServer, "_arrive", "workloads.submit")
    # score_windows and the fingerprints are module functions bound by
    # name at their call sites, so they are wrapped where they are used.
    for module in (slo, cells):
        wrap(module, "score_windows", "analysis.score_windows")
    wrap(Machine, "run", "experiments.machine_run", self_time=True)
    wrap(ParallelRunner, "run", "runtime.run")
    wrap(ResultCache, "get", "runtime.cache_get")
    wrap(ResultCache, "put", "runtime.cache_put")
    wrap(parallel, "spec_key", "runtime.key")
    wrap(hashing, "code_fingerprint", "runtime.fingerprint")
    for module in (hashing, cells):
        wrap(module, "fleet_fingerprint", "runtime.fingerprint")
    kind, executor = cells.RACK_CELL_KIND, cells.run_rack_cell
    register_executor(kind, tracer.span("runtime.cell_exec", executor))
    tracer.add_undo(lambda: register_executor(kind, executor))


# ----------------------------------------------------------------------
# Registry deltas -> per-layer metrics
# ----------------------------------------------------------------------
def flatten(snapshot: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Counters as ``name``, timers as ``name.total``/``name.count``."""
    flat: Dict[str, float] = {}
    for name, entry in snapshot.items():
        value = entry["value"]
        if entry["kind"] == "counter":
            flat[name] = value
        elif entry["kind"] == "timer":
            flat[f"{name}.total"] = value["total"]
            flat[f"{name}.count"] = value["count"]
    return flat


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(d: Dict[str, float], *, jobs: int, kernel_ideal: float, replay_s: float) -> Dict[str, float]:
    """The per-layer metrics from one traced workload's registry delta.

    ``d`` mixes the program's own telemetry counters with the
    ``bench.*`` spans recorded by the wrappers above.  A layer the
    workload never calls reports zero calls and zero seconds.
    """

    def calls(span: str) -> float:
        return d.get(f"bench.{span}.count", 0)

    def seconds(span: str) -> float:
        return d.get(f"bench.{span}.total", 0.0)

    def self_s(span: str) -> float:
        return d.get(f"bench.{span}.self_s", 0.0)

    def counter(name: str) -> float:
        return d.get(name, 0)

    advance_calls = calls("thermal.advance")
    substeps = counter("fleet.substeps") + counter("thermal.rcnetwork.substeps")
    reuses = counter("cpu.chip.power_segments.reuses")
    rebuilds = counter("cpu.chip.power_segments.rebuilds")
    hits = counter("thermal.rcnetwork.expm_cache.hits")
    misses = counter("thermal.rcnetwork.expm_cache.misses")
    cache_hits, cache_misses = counter("runtime.cache.hits"), counter("runtime.cache.misses")
    run_s, cell_exec_s = seconds("runtime.run"), seconds("runtime.cell_exec")
    return {
        "sim.events": counter("sim.engine.events"),
        "sim.run_self_s": self_s("sim.run"),
        "sched.dispatches": counter("sched.scheduler.dispatches"),
        "sched.injected_quanta": counter("sched.scheduler.injected_quanta"),
        "sched.wake_calls": calls("sched.wake"),
        "sched.wake_s": seconds("sched.wake"),
        "core.decide_calls": calls("core.decide"),
        "core.decide_s": seconds("core.decide"),
        "core.inject_ratio": _ratio(
            counter("core.injector.injections"), counter("core.injector.decisions")
        ),
        "cpu.power_segment_calls": calls("cpu.power_segment"),
        "cpu.power_segment_s": seconds("cpu.power_segment"),
        "cpu.segment_reuse_ratio": _ratio(reuses, reuses + rebuilds),
        "thermal.advance_calls": advance_calls,
        "thermal.advance_s": seconds("thermal.advance"),
        "thermal.batch_width_mean": _ratio(counter("bench.thermal.width_sum"), advance_calls),
        "thermal.singleton_ratio": _ratio(counter("bench.thermal.singletons"), advance_calls),
        "thermal.step_kernel_calls": calls("thermal.step_kernel"),
        "thermal.step_kernel_s": seconds("thermal.step_kernel"),
        "thermal.kernel_miss_ratio": _ratio(misses, hits + misses),
        "thermal.substeps_per_s": _ratio(substeps, seconds("thermal.advance")),
        "thermal.kernel_ideal_substeps_per_s": kernel_ideal,
        "health.samples": counter("health.samples"),
        "health.observe_calls": calls("health.observe"),
        "health.observe_s": seconds("health.observe"),
        "fleet.run_self_s": self_s("fleet.run"),
        "fleet.select_calls": calls("fleet.select"),
        "fleet.select_s": seconds("fleet.select"),
        "fleet.migrations": counter("fleet.migrations"),
        "fleet.substeps": counter("fleet.substeps"),
        "workloads.requests": calls("workloads.submit"),
        "workloads.submit_s": seconds("workloads.submit"),
        "analysis.score_windows_s": seconds("analysis.score_windows"),
        "experiments.machine_run_self_s": self_s("experiments.machine_run"),
        "runtime.run_s": run_s,
        "runtime.cell_exec_s": cell_exec_s,
        "runtime.dispatch_overhead_s": jobs * run_s - cell_exec_s if run_s else 0.0,
        "runtime.cache_get_calls": calls("runtime.cache_get"),
        "runtime.cache_get_s": seconds("runtime.cache_get"),
        "runtime.cache_put_calls": calls("runtime.cache_put"),
        "runtime.cache_put_s": seconds("runtime.cache_put"),
        "runtime.cache_hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "runtime.key_s": seconds("runtime.key"),
        "runtime.fingerprint_s": seconds("runtime.fingerprint"),
        "runtime.replay_s": replay_s,
    }


#: Counts two runs of the same code must reproduce exactly, as
#: ``(per-layer metric, program counter(s) that measure the same work)``.
#: The traced pass's wrapper counts must equal its own program counters,
#: and those must equal the untraced pass's.
DETERMINISM_COUNTS = {
    "sim.events": ("sim.engine.events",),
    "fleet.substeps": ("fleet.substeps",),
    "thermal.advance_calls": ("fleet.batched_advances", "thermal.rcnetwork.advances"),
    "cpu.power_segment_calls": (
        "cpu.chip.power_segments.reuses",
        "cpu.chip.power_segments.rebuilds",
    ),
}


def program_counts(d: Dict[str, float]) -> Dict[str, float]:
    """The program-counter side of :data:`DETERMINISM_COUNTS`."""
    return {
        metric: sum(d.get(name, 0) for name in names)
        for metric, names in DETERMINISM_COUNTS.items()
    }

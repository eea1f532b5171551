"""The benchmark's workloads and the checks on their outputs.

Each workload drives the program only through its public Python API:

- ``rack16``: :func:`repro.fleet.fleet_experiment` on the fast preset,
  serial and in-process with no runner or cache: two 16-machine racks
  (baseline, and p=0.65/L=50 ms injection) for 25 s each.
- ``server1``: :func:`repro.fig6_webserver_qos` on the fast preset, a
  baseline plus four (p, L) points, each one :class:`repro.Machine`
  serving the web workload for 100 s.
- ``sweep_cached``: :func:`repro.fleet.scenarios_experiment` over an
  18-cell grid of 2-machine racks through
  ``repro.cli.make_runner(jobs=1, cache_dir=<fresh dir>)``, then the
  same grid again through a new runner on that cache.

An *operation* is one rack cell or one single-machine run.  It fails
if its pass raises or times out, or if it fails an output check.  The
checks are regression checks against this repository, not accuracy
against the paper (EXPERIMENTS.md covers accuracy):

- committed reference outputs for the seeds in ``reference/``;
- invariants that hold for every seed;
- identical outputs on every pass of one benchmark run;
- for the sweep, a cached replay equal to the fresh pass that
  simulates zero cells.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from layers import patched

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Runner width of the sweep workload.  One: with default BLAS
#: threading, two pool workers on a 2-core host stall each other for
#: seconds at a time, so a pooled sweep's timing is not repeatable
#: until BLAS threads are pinned.
SWEEP_JOBS = 1
#: The sweep grid: 3 shapes x 3 policies x p in {0, 0.8} = 18 cells.
SWEEP_GRID = dict(
    shapes=("constant", "bursty", "trace"),
    policies=("round-robin", "migrate", "alert-reactive"),
    p_values=(0.0, 0.8),
)
#: fig6 (p, L) points the server1 workload runs besides its baseline.
SERVER_POINTS = ((0.5, 0.025), (0.75, 0.025), (0.65, 0.050), (0.65, 0.100))
#: fig6's QoS scoring warm-up, seconds (its default).
SERVER_WARMUP_S = 5.0
#: Wall-clock limits: one in-process pass, and one pooled sweep cell.
PASS_TIMEOUT_S = 120.0
CELL_TIMEOUT_S = 60.0
#: Fleet size and step of the ideal-kernel measurement (rack16's rack).
KERNEL_MACHINES = 16
KERNEL_STEPS_PER_CALL = 200
KERNEL_CALLS = 15


def import_program() -> Any:
    """Import the package from the checkout's ``src/`` (no install)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    return repro


class PassTimeout(BaseException):
    """An in-process pass overran :data:`PASS_TIMEOUT_S`.  A
    BaseException, so no ``except Exception`` in the program swallows it."""


class FirstEvent(BaseException):
    """Raised at the first simulated event to end a set-up."""


@contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Raise :class:`PassTimeout` in the block after ``seconds``."""

    def on_alarm(signum, frame):
        raise PassTimeout(f"pass exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Output comparison
# ----------------------------------------------------------------------
#: How each output field is compared with its reference: counts
#: exactly, temperatures within the repository's 1e-9 degC oracle
#: tolerance, energy-like totals and times within 1e-9 relative, and
#: fractions of counts within 1e-12.
FIELD_KINDS = {
    "requests": "count",
    "alerts": "count",
    "critical_alerts": "count",
    "migrations": "count",
    "slo_arrivals": "count",
    "slo_good": "count",
    "slo_tolerable": "count",
    "sched.dispatches": "count",
    "sched.injected_quanta": "count",
    "qos_good": "fraction",
    "qos_tolerable": "fraction",
    "mean_temp": "temp",
    "peak_temp": "temp",
    "temp_reduction": "temp",
    "energy": "relative",
    "work_done": "relative",
    "mean_response": "relative",
    "p95_response": "relative",
    "time_in_critical_s": "relative",
}
TOLERANCE = {"count": 0.0, "fraction": 1e-12, "temp": 1e-9, "relative": 1e-9}


def _plain(value: Any) -> Optional[float]:
    """A JSON-safe number: NaN and infinity (no data) become None."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _matches(kind: str, got: Any, want: Any) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if kind == "count":
        return got == want
    if kind == "relative":
        return abs(got - want) <= TOLERANCE[kind] * abs(want)
    return abs(got - want) <= TOLERANCE[kind]


def compare(outputs: Dict[str, Any], reference: Dict[str, Any]) -> List[str]:
    """Field-by-field mismatches of ``outputs`` against ``reference``."""
    problems = []
    for name in sorted(set(outputs) | set(reference)):
        if name not in outputs or name not in reference:
            problems.append(f"{name}: present on one side only")
        elif not _matches(FIELD_KINDS[name], outputs[name], reference[name]):
            problems.append(
                f"{name}: got {outputs[name]!r}, reference {reference[name]!r}"
            )
    return problems


def load_reference(workload: str, seed: int) -> Optional[Dict[str, Any]]:
    """The committed reference pass for ``seed``, if there is one."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def _basic_invariants(outputs: Dict[str, Any]) -> List[str]:
    """What every rack or machine run must satisfy, for any seed."""
    problems = []
    if outputs["requests"] <= 0:
        problems.append("no requests arrived in the scoring window")
    for name in ("qos_good", "qos_tolerable"):
        value = outputs[name]
        if value is None or not 0.0 <= value <= 1.0:
            problems.append(f"{name} {value!r} is not a fraction")
    for name in ("energy", "work_done"):
        if not (outputs[name] or 0.0) > 0.0:
            problems.append(f"{name} {outputs[name]!r} is not positive")
    if outputs["mean_temp"] is None or outputs["peak_temp"] is None:
        problems.append("temperatures are not finite")
    elif outputs["peak_temp"] < outputs["mean_temp"]:
        problems.append("peak temperature below the window mean")
    return problems


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    """One pass: its simulations' timing and outputs per operation."""

    #: ``(simulated machine-seconds, host seconds)`` of each simulation
    #: run, one per operation, from :func:`timed_simulations`.
    simulations: List[Tuple[float, float]]
    #: Host seconds of the whole pass, construction and scoring included.
    wall_s: float
    #: Operation name -> its outputs.
    ops: Dict[str, Dict[str, Any]]
    #: Outputs of the pass as a whole (scheduler counters).
    totals: Dict[str, Any]
    #: Operation name -> problems found while running the pass.
    problems: Dict[str, List[str]] = field(default_factory=dict)
    #: Host seconds of the cached replay (sweep only).
    replay_s: Optional[float] = None


def _counters() -> Dict[str, float]:
    from repro.telemetry.registry import registry

    return registry().counters()


#: Registry prefix of :func:`timed_simulations`' per-call counters,
#: and the call numbering that keeps their names unique in a process.
SIMULATION_PREFIX = "bench.simulation."
_SIMULATION_CALLS = itertools.count()


@contextmanager
def timed_simulations() -> Iterator[Callable[[], List[Tuple[float, float]]]]:
    """Time every simulation run in the block, in pool workers too.

    Wraps ``FleetMachine.run`` and ``Machine.run``: the call that
    advances simulated time, after the machines are built and before
    results are scored.  Each call records its simulated
    machine-seconds and host seconds as two counters named after its
    process and call number, in the program's telemetry registry, which
    the runner merges from each pool worker into this process.  Yields
    a function returning ``(machine-seconds, host seconds)`` of every
    call made in the block so far.
    """
    from repro.experiments.machine import Machine
    from repro.fleet.machine import FleetMachine
    from repro.telemetry.registry import registry

    def timed(run: Callable[..., None], width: Callable[[Any], int]):
        def timed_run(machine, duration):
            started = time.perf_counter()
            run(machine, duration)
            elapsed = time.perf_counter() - started
            name = f"{SIMULATION_PREFIX}{os.getpid()}.{next(_SIMULATION_CALLS)}"
            reg = registry()
            reg.counter(f"{name}.machine_s").inc(width(machine) * duration)
            reg.counter(f"{name}.host_s").inc(elapsed)

        return timed_run

    before = set(_counters())

    def simulations() -> List[Tuple[float, float]]:
        counters = _counters()
        names = sorted(
            name[: -len(".host_s")]
            for name in counters
            if name.startswith(SIMULATION_PREFIX)
            and name.endswith(".host_s")
            and name not in before
        )
        return [(counters[f"{n}.machine_s"], counters[f"{n}.host_s"]) for n in names]

    fleet_run, machine_run = FleetMachine.__dict__["run"], Machine.__dict__["run"]
    with patched(
        FleetMachine, "run", timed(fleet_run, lambda fleet: fleet.num_machines)
    ), patched(Machine, "run", timed(machine_run, lambda machine: 1)):
        yield simulations


def _sched_totals(before: Dict[str, float]) -> Dict[str, Any]:
    after = _counters()
    return {
        f"sched.{name}": after.get(f"sched.scheduler.{name}", 0)
        - before.get(f"sched.scheduler.{name}", 0)
        for name in ("dispatches", "injected_quanta")
    }


def _rack_outputs(run: Any) -> Dict[str, Any]:
    """The checked outputs of one rack (a fleet ``_FleetRun``)."""
    return {
        "requests": int(run.requests),
        "qos_good": _plain(run.qos_good),
        "qos_tolerable": _plain(run.qos_tolerable),
        "mean_response": _plain(run.mean_response),
        "mean_temp": _plain(run.mean_temp),
        "peak_temp": _plain(run.peak_temp),
        "energy": _plain(run.energy),
        "work_done": _plain(run.work_done),
        "migrations": int(run.migrations),
        "alerts": int(run.alerts),
        "critical_alerts": int(run.critical_alerts),
        "time_in_critical_s": _plain(run.time_in_critical_s),
    }


class Workload:
    """A named workload: its entry point, one timed pass, its checks."""

    name = ""
    #: Simulated machine-seconds in one pass.
    machine_s = 0.0

    def op_names(self) -> List[str]:
        raise NotImplementedError

    def entry(self, config: Any, runner: Any = None) -> Any:
        """Call the program's entry point (in-process when no runner)."""
        raise NotImplementedError

    def run_pass(self, config: Any, scratch: Path) -> PassResult:
        raise NotImplementedError

    def invariants(self, result: PassResult) -> Dict[str, List[str]]:
        raise NotImplementedError


class Rack16(Workload):
    name = "rack16"
    machine_s = 2 * 16 * 25.0  # racks x machines x seconds

    def op_names(self) -> List[str]:
        return ["baseline", "dimetrodon"]

    def entry(self, config, runner=None):
        from repro.fleet import fleet_experiment

        return fleet_experiment(config, runner=runner)

    def run_pass(self, config, scratch):
        before = _counters()
        with timed_simulations() as simulations, deadline(PASS_TIMEOUT_S):
            started = time.perf_counter()
            result = self.entry(config)
            wall_s = time.perf_counter() - started
        return PassResult(
            simulations=simulations(),
            wall_s=wall_s,
            ops={
                "baseline": _rack_outputs(result.baseline),
                "dimetrodon": _rack_outputs(result.injected),
            },
            totals=_sched_totals(before),
        )

    def invariants(self, result):
        problems = {name: _basic_invariants(out) for name, out in result.ops.items()}
        base, injected = result.ops["baseline"], result.ops["dimetrodon"]
        if not injected["mean_temp"] < base["mean_temp"]:
            problems["dimetrodon"].append("injection did not cool the rack")
        if result.totals["sched.injected_quanta"] <= 0:
            problems["dimetrodon"].append("no idle quanta were injected")
        return problems


class Server1(Workload):
    name = "server1"
    machine_s = (1 + len(SERVER_POINTS)) * 100.0

    def op_names(self) -> List[str]:
        return ["baseline"] + [
            f"p{p:.2f}-L{quantum * 1e3:.0f}ms" for p, quantum in SERVER_POINTS
        ]

    def entry(self, config, runner=None):
        from repro import fig6_webserver_qos

        return fig6_webserver_qos(
            config, configs=SERVER_POINTS, warmup=SERVER_WARMUP_S
        )

    def run_pass(self, config, scratch):
        from repro.experiments.machine import Machine
        from repro.workloads.webserver import QOS_GOOD, QOS_TOLERABLE, WebServer

        # fig6 returns only relative figures, so the pass keeps each
        # run's machine and server to read their absolute outputs.
        machines: List[Any] = []
        servers: List[Any] = []
        init = WebServer.__dict__["__init__"]

        def keep_machine(machine, duration):
            run(machine, duration)
            machines.append(machine)

        def keep_server(server, *args, **kwargs):
            init(server, *args, **kwargs)
            servers.append(server)

        before = _counters()
        with timed_simulations() as simulations, patched(
            Machine, "run", keep_machine
        ) as run, patched(WebServer, "__init__", keep_server), deadline(PASS_TIMEOUT_S):
            started = time.perf_counter()
            result = self.entry(config)
            wall_s = time.perf_counter() - started
        names = self.op_names()
        if len(machines) != len(names) or len(servers) != len(names):
            raise RuntimeError(
                f"fig6 ran {len(machines)} machines and {len(servers)} servers, "
                f"expected {len(names)}"
            )
        ops = {}
        reductions = [None] + [point.temp_reduction for point in result.points]
        for name, machine, server, reduction in zip(names, machines, servers, reductions):
            start, end = SERVER_WARMUP_S, machine.now - QOS_TOLERABLE
            log = server.log
            times = machine.templog.times
            outputs = {
                "requests": len(log.requests),
                "qos_good": _plain(log.qos_fraction(QOS_GOOD, start=start, end=end)),
                "qos_tolerable": _plain(
                    log.qos_fraction(QOS_TOLERABLE, start=start, end=end)
                ),
                "mean_response": _plain(log.mean_response_time(start=start, end=end)),
                "mean_temp": _plain(machine.mean_core_temp_over_window()),
                "peak_temp": _plain(machine.templog.samples[times >= start].max()),
                "energy": _plain(machine.energy()),
                "work_done": _plain(machine.total_work_done()),
            }
            if reduction is not None:
                outputs["temp_reduction"] = _plain(reduction)
            ops[name] = outputs
        return PassResult(
            simulations=simulations(),
            wall_s=wall_s,
            ops=ops,
            totals=_sched_totals(before),
        )

    def invariants(self, result):
        problems = {name: _basic_invariants(out) for name, out in result.ops.items()}
        base = result.ops["baseline"]
        for name in self.op_names()[1:]:
            out = result.ops[name]
            if not (out["mean_temp"] < base["mean_temp"] and out["temp_reduction"] > 0):
                problems[name].append("injection did not cool the machine")
        if result.totals["sched.injected_quanta"] <= 0:
            problems[self.op_names()[1]].append("no idle quanta were injected")
        return problems


class SweepCached(Workload):
    name = "sweep_cached"
    machine_s = 18 * 2 * 25.0  # cells x machines x seconds

    def op_names(self) -> List[str]:
        return [
            self._cell(shape, policy, p)
            for shape in SWEEP_GRID["shapes"]
            for policy in SWEEP_GRID["policies"]
            for p in SWEEP_GRID["p_values"]
        ]

    @staticmethod
    def _cell(shape: str, policy: str, p: float) -> str:
        return f"{shape}/{policy}/p{p:g}"

    def entry(self, config, runner=None):
        from repro.fleet import scenarios_experiment

        return scenarios_experiment(config, runner=runner, **SWEEP_GRID)

    def _outputs(self, result) -> Dict[str, Dict[str, Any]]:
        ops = {}
        for row in result.rows:
            outputs = _rack_outputs(row.run)
            outputs.update(
                slo_arrivals=int(row.report.total_arrivals),
                slo_good=int(row.report.total_good),
                slo_tolerable=int(row.report.total_tolerable),
                p95_response=_plain(row.p95_response),
            )
            ops[self._cell(row.shape, row.policy, row.p)] = outputs
        return ops

    def run_pass(self, config, scratch):
        from repro.cli import make_runner

        names = self.op_names()
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        try:
            before = _counters()
            fresh_runner = make_runner(
                jobs=SWEEP_JOBS, cache_dir=cache_dir, timeout=CELL_TIMEOUT_S
            )
            with timed_simulations() as simulations:
                started = time.perf_counter()
                fresh = self.entry(config, fresh_runner)
                wall_s = time.perf_counter() - started
            totals = _sched_totals(before)
            replay_runner = make_runner(
                jobs=SWEEP_JOBS, cache_dir=cache_dir, timeout=CELL_TIMEOUT_S
            )
            started = time.perf_counter()
            replay = self.entry(config, replay_runner)
            replay_s = time.perf_counter() - started
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        ops, replayed = self._outputs(fresh), self._outputs(replay)
        problems: Dict[str, List[str]] = {name: [] for name in names}
        for name in names:
            if name not in ops:
                problems[name].append("the fresh pass returned no row")
            elif replayed.get(name) != ops[name]:
                problems[name].append("the cached replay differs from the fresh pass")
        if fresh_runner.metrics.executed != len(names):
            for name in names:
                problems[name].append(
                    f"fresh pass simulated {fresh_runner.metrics.executed} "
                    f"of {len(names)} cells"
                )
        replay_metrics = replay_runner.metrics
        if replay_metrics.executed != 0 or replay_metrics.cache_hits != len(names):
            for name in names:
                problems[name].append(
                    f"replay simulated {replay_metrics.executed} cells and hit "
                    f"the cache {replay_metrics.cache_hits} times"
                )
        return PassResult(
            simulations=simulations(),
            wall_s=wall_s,
            ops=ops,
            totals=totals,
            problems=problems,
            replay_s=replay_s,
        )

    def invariants(self, result):
        problems = {name: _basic_invariants(out) for name, out in result.ops.items()}
        if result.totals["sched.injected_quanta"] <= 0:
            for name in problems:
                problems[name].append("no idle quanta were injected")
        return problems


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (Rack16(), Server1(), SweepCached())
}


# ----------------------------------------------------------------------
# Set-up and the ideal kernel rate
# ----------------------------------------------------------------------
def set_up(workload: Workload, seed: int) -> None:
    """Everything a workload does before its first simulated event.

    Builds the config, then runs the workload's entry point in-process
    until the first call into the event engine: cell specs are built
    and every cell's cache key computed (code fingerprints included),
    and the first machine is constructed.  The package import is the
    caller's (it happens once per interpreter).
    """
    from repro import fast_config
    from repro.fleet import cells, scenarios
    from repro.sim.engine import Simulator

    run_cells = cells.__dict__["run_cells"]

    def keyed_run_cells(runner, specs):
        keys = [spec.key for spec in specs]
        if not keys:
            raise RuntimeError("a workload built no cell specs")
        return run_cells(None, specs)

    def stop(sim, until=None):
        raise FirstEvent()

    config = fast_config(seed)
    with patched(cells, "run_cells", keyed_run_cells), patched(
        scenarios, "run_cells", keyed_run_cells
    ), patched(Simulator, "run", stop):
        try:
            workload.entry(config)
        except FirstEvent:
            return
    raise RuntimeError(f"{workload.name} finished without a simulated event")


def kernel_ideal_rate(config: Any, machines: int = KERNEL_MACHINES) -> float:
    """Chip-substeps/s of ``FleetThermalIntegrator.advance_machines``
    advancing ``machines`` busy chips as one cohort at a fixed, cached
    step: the kernel's ceiling, to set beside the end-to-end rate.
    Median over :data:`KERNEL_CALLS` calls."""
    import numpy as np

    from repro.cpu.chip import Chip
    from repro.cpu.power import FleetCoefficients
    from repro.thermal.floorplan import build_network
    from repro.thermal.rcnetwork import FleetThermalIntegrator

    network = build_network(config.thermal, config.num_cores)
    columns = []
    for m in range(machines):
        chip = Chip(
            config.power,
            num_cores=config.num_cores,
            smt=config.smt,
            cstate_params=config.cstates,
            c1e_enabled=config.c1e_enabled,
        )
        for i, core in enumerate(chip.cores):
            if (i + m) % 2 == 0:
                core.set_running(object(), 1.0, 0.0)
            else:
                core.set_idle(-100.0)
        columns.append(chip.power_segment(0.0)[1])
    stack = FleetCoefficients.from_coefficients(columns)
    step = config.thermal.max_substep
    integrator = FleetThermalIntegrator(
        network,
        machines,
        initial_temps=np.full(network.num_nodes, config.thermal.ambient_temp),
        max_substep=step,
    )
    everyone = list(range(machines))
    duration = KERNEL_STEPS_PER_CALL * step
    # The integrator's own substep count for this duration.
    substeps = max(1, int(np.ceil(duration / step - 1e-12))) * machines
    integrator.advance_machines(everyone, duration, stack)  # warm the kernel cache
    rates = []
    for _ in range(KERNEL_CALLS):
        started = time.perf_counter()
        integrator.advance_machines(everyone, duration, stack)
        rates.append(substeps / (time.perf_counter() - started))
    return float(np.median(rates))

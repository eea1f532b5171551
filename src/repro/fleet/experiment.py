"""The ``fleet`` CLI experiment: a rack serving the web workload.

Two fleets run back to back on the §3.7 SPECWeb-like workload behind a
round-robin load balancer: a baseline rack (no injection) and a
Dimetrodon rack (global policy ``p``, idle quantum ``L``).  The report
mirrors fig6 — QoS retention vs temperature reduction — but measured
rack-wide, plus the batched-physics throughput actually achieved
(chip-substeps/s from the ``fleet.*`` telemetry counters).

Fleet sizing follows the preset: the fast preset runs a small rack so
CI finishes in seconds, ``--full`` runs hundreds of 4-core servers.
The two racks are independent rack cells (:mod:`repro.fleet.cells`):
handed a :class:`~repro.runtime.parallel.ParallelRunner` they run
through the full pool/cache/journal stack (``--jobs``, ``--cache-dir``,
``--resume`` all apply), and without one they run in-process exactly
as before (see docs/running-experiments.md).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

import numpy as np

from ..experiments.config import ExperimentConfig
from ..experiments.reporting import format_table, percent
from ..health import FleetHealth, HealthParams
from ..sim.rng import RngRegistry
from ..workloads.loadshapes import ArrivalProcess
from ..workloads.webserver import QOS_GOOD, QOS_TOLERABLE, WebServer
from .machine import FleetMachine, FleetNode
from .scheduling.registry import build_policy


@dataclass
class _FleetRun:
    """Measurements from one rack run (baseline or injected)."""

    qos_good: float
    qos_tolerable: float
    mean_response: float
    mean_temp: float
    peak_temp: float
    energy: float
    work_done: float
    requests: int
    migrations: int = 0
    migration_cost_s: float = 0.0
    #: Health-monitor rollups (warning + critical escalations, summed
    #: machine-seconds in each state) and, for the alert-reactive
    #: policy, the controllers' time-weighted throttle dwell.
    alerts: int = 0
    critical_alerts: int = 0
    time_in_warning_s: float = 0.0
    time_in_critical_s: float = 0.0
    throttle_engagements: int = 0
    time_throttled_s: float = 0.0


@dataclass
class FleetResult:
    """The fleet experiment's rack-wide measurements."""

    machines: int
    duration: float
    p: float
    idle_quantum: float
    idle_mean_temp: float
    baseline_rise: float
    temp_reduction: float
    offered_load_per_core: float
    baseline: _FleetRun
    injected: _FleetRun
    chip_substeps_per_s: float
    policy: str = "round-robin"
    #: Per-rack health summaries (JSON-safe) for the manifest.
    baseline_health: Optional[dict] = None
    injected_health: Optional[dict] = None

    def render(self) -> str:
        rows = [
            [
                "baseline",
                0.0,
                0.0,
                self.baseline.mean_temp - self.idle_mean_temp,
                self.baseline.peak_temp - self.idle_mean_temp,
                percent(1.0),
                percent(1.0),
                self.baseline.mean_response,
                self.baseline.alerts,
                self.baseline.time_in_critical_s,
                self.baseline.migrations,
                self.baseline.energy / 1e3,
                self.baseline.work_done,
            ],
            [
                "dimetrodon",
                self.p,
                self.idle_quantum * 1e3,
                self.injected.mean_temp - self.idle_mean_temp,
                self.injected.peak_temp - self.idle_mean_temp,
                percent(self._relative(self.injected.qos_good, self.baseline.qos_good)),
                percent(
                    self._relative(
                        self.injected.qos_tolerable, self.baseline.qos_tolerable
                    )
                ),
                self.injected.mean_response,
                self.injected.alerts,
                self.injected.time_in_critical_s,
                self.injected.migrations,
                self.injected.energy / 1e3,
                self.injected.work_done,
            ],
        ]
        title = (
            f"Fleet: {self.machines} machines x {self.duration:.0f}s web serving "
            f"(policy {self.policy}, load/core {percent(self.offered_load_per_core)}, "
            f"temp reduction {percent(self.temp_reduction)}, "
            f"physics {_rate(self.chip_substeps_per_s)} chip-substeps/s)"
        )
        return format_table(
            [
                "rack",
                "p",
                "L [ms]",
                "rise [C]",
                "peak [C]",
                "QoS good",
                "QoS tol.",
                "mean resp [s]",
                "alerts",
                "crit [s]",
                "migr",
                "energy [kJ]",
                "work [CPU-s]",
            ],
            rows,
            title=title,
        )

    def health_payload(self) -> dict:
        """The manifest's ``health`` section for this experiment."""
        return {
            "baseline": self.baseline_health,
            "dimetrodon": self.injected_health,
        }

    @staticmethod
    def _relative(value: float, base: float) -> float:
        return value / base if base > 0 else 0.0


def _rate(per_second: float) -> str:
    if per_second >= 1e6:
        return f"{per_second / 1e6:.1f}M"
    return f"{per_second / 1e3:.0f}k"


def _peak_temp(fleet: FleetMachine, *, start: float) -> float:
    """Hottest sampled core temperature anywhere in the rack from
    ``start`` on (the rack's worst thermal excursion, fig2's peak
    measured fleet-wide)."""
    peak = -np.inf
    for node in fleet.nodes:
        times = node.templog.times
        if times.size == 0:
            continue
        mask = times >= start
        if np.any(mask):
            peak = max(peak, float(node.templog.samples[mask].max()))
    return peak if np.isfinite(peak) else fleet.idle_mean_temp


@dataclass
class RackMeasurement:
    """One rack run with everything downstream scoring needs: the
    fleet (thermal state, telemetry), the per-node servers (request
    logs — the ``scenarios`` experiment pools them for windowed SLO
    scoring), and the aggregate :class:`_FleetRun` numbers."""

    fleet: FleetMachine
    servers: List[WebServer]
    run: _FleetRun
    health: Optional[FleetHealth] = None

    def pooled_requests(self):
        """Every request logged anywhere in the rack (arrival order is
        per-server; windowed scoring does not need a global sort)."""
        return [r for s in self.servers for r in s.log.requests]


def _measure_rack(
    config: ExperimentConfig,
    *,
    machines: int,
    duration: float,
    warmup: float,
    p: float,
    idle_quantum: float,
    policy: str = "round-robin",
    node_setup: Optional[Callable[[FleetNode], Any]] = None,
    arrivals: Optional[ArrivalProcess] = None,
    health_params: Optional[HealthParams] = None,
) -> RackMeasurement:
    """Build, load-balance, monitor, and run one rack; score its QoS
    window.

    ``policy`` names the scheduling policy (``repro.fleet.scheduling``
    registry).  ``node_setup``, when given, runs once per node before
    the rack starts — the compare experiment uses it to program DVFS or
    TCC and to attach per-node heat-and-run policies; any returned
    object with a ``stop()`` method is stopped after the run.
    ``arrivals`` replaces the front door's fixed-rate Poisson stream
    with a shaped arrival process (see ``repro.workloads.loadshapes``).

    Every rack runs with health monitors attached (``health_params``
    overrides the default :class:`~repro.health.HealthParams`) — the
    production posture: monitoring is not optional, and the
    alert-reactive policy requires it.
    """
    # A finished rack is reference cycles only the cycle collector
    # frees: free the previous one now, so back-to-back racks never
    # hold two racks' memory whenever the collector happens to run.
    gc.collect()
    fleet = FleetMachine(config, machines=machines)
    health = fleet.attach_health(health_params)
    servers: List[WebServer] = [
        WebServer(node.scheduler, node.rng.stream("web"), external_arrivals=True)
        for node in fleet.nodes
    ]
    bundle = build_policy(
        policy,
        fleet,
        servers,
        rate=machines * servers[0].arrival_rate,
        rng=RngRegistry(config.seed).stream("fleet-balancer"),
        arrivals=arrivals,
        health=health,
    )
    attachments = []
    if node_setup is not None:
        for node in fleet.nodes:
            attachment = node_setup(node)
            if attachment is not None and hasattr(attachment, "stop"):
                attachments.append(attachment)
    if p > 0:
        for node in fleet.nodes:
            node.control.set_global_policy(p, idle_quantum)
    fleet.run(duration)
    bundle.stop()
    bundle.finalize(fleet.now)
    health.stop()
    health.finalize()
    for attachment in attachments:
        attachment.stop()

    # Rack-wide QoS over the same window fig6 scores per machine:
    # requests arriving in [warmup, duration - QOS_TOLERABLE), pooled
    # across every server (unanswered requests count as failures).  A
    # windowless rack (possible under a trough-heavy shape) scores NaN,
    # the same no-data convention as RequestLog.qos_fraction.
    start, end = warmup, duration - QOS_TOLERABLE
    window = [r for s in servers for r in s.log.arrived_in(start, end)]
    answered = [r.response_time for r in window if r.response_time is not None]
    count = len(window)
    good = sum(1 for t in answered if t <= QOS_GOOD)
    tolerable = sum(1 for t in answered if t <= QOS_TOLERABLE)
    run = _FleetRun(
        qos_good=good / count if count else float("nan"),
        qos_tolerable=tolerable / count if count else float("nan"),
        mean_response=float(np.mean(answered)) if answered else float("inf"),
        mean_temp=fleet.mean_core_temp_over_window(),
        peak_temp=_peak_temp(fleet, start=warmup),
        energy=fleet.total_energy(),
        work_done=fleet.total_work_done(),
        requests=count,
        migrations=bundle.migrations,
        migration_cost_s=bundle.migration_cost_seconds,
        alerts=health.alerts,
        critical_alerts=health.critical_alerts,
        time_in_warning_s=health.time_in_warning,
        time_in_critical_s=health.time_in_critical,
        throttle_engagements=bundle.throttle_engagements,
        time_throttled_s=bundle.time_throttled_seconds,
    )
    return RackMeasurement(fleet=fleet, servers=servers, run=run, health=health)


def fleet_experiment(
    config: ExperimentConfig,
    *,
    machines: Optional[int] = None,
    duration: Optional[float] = None,
    p: float = 0.65,
    idle_quantum: float = 0.050,
    warmup: float = 5.0,
    policy: str = "round-robin",
    health_params: Optional[HealthParams] = None,
    runner: Optional[Any] = None,
) -> FleetResult:
    """Rack-wide QoS vs temperature reduction under idle injection.

    ``machines``/``duration`` default by preset: the fast preset runs a
    16-machine rack for ``warmup + measure_window + 5`` seconds,
    ``--full`` a 256-machine rack (the "hundreds of servers" scale) for
    its longer measurement window.  Every machine is a 4-core server
    from the shared config, node ``j`` seeded ``config.seed + j``.

    ``policy`` selects the scheduling policy (``--policy`` on the CLI;
    see :data:`repro.fleet.scheduling.POLICY_NAMES`) used by *both*
    racks, so the report shows what injection buys under that policy.
    The default reproduces the original round-robin experiment exactly.
    ``health_params`` overrides the monitoring thresholds (the CLI's
    ``--health-*`` flags); both racks share them.

    ``runner`` is an optional
    :class:`~repro.runtime.parallel.ParallelRunner`: the two racks are
    independent rack cells (:mod:`repro.fleet.cells`) and go through
    its pool/cache/journal stack when one is attached; without one they
    run in-process, in order, with identical results.
    """
    # Imported here, not at module top: cells.py imports _measure_rack
    # from this module, so the module-level edge must point that way.
    from .cells import rack_cell_spec, require_cells, run_cells

    if machines is None:
        # The presets differ only in timing; the longer paper-faithful
        # characterization also gets the paper-scale rack.
        machines = 256 if config.characterization_duration >= 300.0 else 16
    if duration is None:
        duration = warmup + config.measure_window + QOS_TOLERABLE

    common = dict(
        machines=machines,
        duration=duration,
        warmup=warmup,
        idle_quantum=idle_quantum,
        policy=policy,
    )
    if health_params is not None:
        common["health"] = health_params
    cells = run_cells(
        runner,
        [
            rack_cell_spec(config, p=0.0, **common),
            rack_cell_spec(config, p=p, **common),
        ],
    )
    require_cells("fleet", ["baseline", "dimetrodon"], cells)
    base_cell, injected_cell = cells
    baseline, injected = base_cell.run, injected_cell.run

    idle_mean = base_cell.idle_mean_temp
    baseline_rise = baseline.mean_temp - idle_mean
    reduction = (
        (baseline.mean_temp - injected.mean_temp) / baseline_rise
        if baseline_rise > 0
        else 0.0
    )
    # Physics throughput actually achieved, wherever the cells ran:
    # each cell carries its own substeps/wall deltas (a cached cell
    # replays the numbers measured when it executed).
    substeps = base_cell.substeps + injected_cell.substeps
    wall = base_cell.advance_wall_s + injected_cell.advance_wall_s
    return FleetResult(
        machines=machines,
        duration=duration,
        p=p,
        idle_quantum=idle_quantum,
        idle_mean_temp=idle_mean,
        baseline_rise=baseline_rise,
        temp_reduction=reduction,
        offered_load_per_core=_offered_load(config),
        baseline=baseline,
        injected=injected,
        chip_substeps_per_s=substeps / wall if wall > 0 else 0.0,
        policy=policy,
        baseline_health=base_cell.health,
        injected_health=injected_cell.health,
    )


def _offered_load(config: ExperimentConfig) -> float:
    """The web workload's offered utilisation per core (fig6's number),
    computed from the default server parameters without building one."""
    connections, think_time = 440, 11.0
    service_mean, kernel_overhead = 0.025, 0.0002
    return (connections / think_time) * (service_mean + kernel_overhead) / config.num_cores

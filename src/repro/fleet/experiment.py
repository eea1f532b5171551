"""The ``fleet`` CLI experiment: a rack serving the web workload.

Two fleets run back to back on the §3.7 SPECWeb-like workload behind a
round-robin load balancer: a baseline rack (no injection) and a
Dimetrodon rack (global policy ``p``, idle quantum ``L``).  The report
mirrors fig6 — QoS retention vs temperature reduction — but measured
rack-wide.  The batched-physics throughput actually achieved
(chip-substeps/s from the ``fleet.*`` telemetry counters) is a
wall-clock figure, so it stays out of the table and the CLI prints it
on its status line.

Fleet sizing follows the preset: the fast preset runs a small rack so
CI finishes in seconds, ``--full`` runs hundreds of 4-core servers.
The two racks are independent rack cells (:mod:`repro.fleet.cells`):
handed a :class:`~repro.runtime.parallel.ParallelRunner` they run
through the full pool/cache/journal stack (``--jobs``, ``--cache-dir``,
``--resume`` all apply), and without one they run in-process exactly
as before (see docs/running-experiments.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..experiments.config import ExperimentConfig
from ..experiments.reporting import format_table, percent
from ..health import HealthParams
from .cells import IDLE_QUANTUM, INJECTION_P, WARMUP, RackGrid, _FleetRun

#: Rack size by preset, ``(fast, full)``: ``--full`` runs the "hundreds
#: of servers" scale.
RACK_MACHINES = (16, 256)


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
    #: Physics throughput, chip-substeps per wall second: measured on
    #: the host, so it is reported beside the table, never in it.
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
            f"temp reduction {percent(self.temp_reduction)})"
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


def fleet_experiment(
    config: ExperimentConfig,
    *,
    machines: Optional[int] = None,
    duration: Optional[float] = None,
    p: float = INJECTION_P,
    idle_quantum: float = IDLE_QUANTUM,
    warmup: float = WARMUP,
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
    grid = RackGrid.sized(
        config,
        RACK_MACHINES,
        machines=machines,
        duration=duration,
        warmup=warmup,
        idle_quantum=idle_quantum,
        health=health_params,
    )
    cells, idle_mean = grid.run(
        runner,
        "fleet",
        [
            ("baseline", grid.spec(0.0, policy)),
            ("dimetrodon", grid.spec(p, policy)),
        ],
        required=("baseline", "dimetrodon"),
    )
    (_, base_cell), (_, injected_cell) = cells
    baseline, injected = base_cell.run, injected_cell.run

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
        machines=grid.machines,
        duration=grid.duration,
        p=p,
        idle_quantum=idle_quantum,
        idle_mean_temp=idle_mean,
        baseline_rise=baseline_rise,
        temp_reduction=reduction,
        offered_load_per_core=grid.offered_load_per_core,
        baseline=baseline,
        injected=injected,
        chip_substeps_per_s=substeps / wall if wall > 0 else 0.0,
        policy=policy,
        baseline_health=base_cell.health,
        injected_health=injected_cell.health,
    )

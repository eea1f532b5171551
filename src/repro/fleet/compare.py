"""The ``fleet-compare`` CLI experiment: thermal techniques, rack-wide.

Figure 4 compares Dimetrodon against DVFS and p4tcc on one machine.
This experiment re-stages that comparison at rack scale and adds the
techniques only a cluster has: thermal-aware placement and inter-chip
migration (``repro.fleet.scheduling``), plus intra-chip heat-and-run
(:class:`~repro.core.migration.ThermalMigrationPolicy`, attached
per node through its sim view).  Every technique serves the same §3.7
web workload on an identical rack; the report scores each by
temperature (mean and peak rise over idle) against QoS retention, and
marks the Pareto-efficient techniques via
:func:`~repro.core.pareto.pareto_boundary` — the same non-domination
analysis §3.4 applies to parameter sweeps, applied across techniques.

Expectations mirror the paper's: DVFS trades throughput steeply but
wins deep reductions; TCC pays QoS for little cooling (§3.4, "failing
to achieve even 1:1"); placement/migration are nearly QoS-free but
shallow (they spread heat, they don't remove it); injection sits in
between; and injection + migration compose.  The ``alert-reactive``
row is the §1 contrast made concrete: a monitor-driven DTM daemon that
throttles only *after* a critical alert fires — its alert count and
time-in-critical columns show the emergencies preventive injection
never lets happen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Tuple

from ..core.pareto import TradeoffPoint, pareto_boundary
from ..experiments.config import ExperimentConfig
from ..experiments.reporting import format_table, percent
from ..health import HealthParams
from ..runtime.parallel import RunSpec
from ..telemetry.registry import registry as _metrics_registry
from .cells import IDLE_QUANTUM, INJECTION_P, WARMUP, RackGrid, _FleetRun

#: Rack size by preset, ``(fast, full)``: smaller than the plain
#: ``fleet`` rack, since the comparison runs one rack per technique.
RACK_MACHINES = (4, 64)


@dataclass(frozen=True)
class Technique:
    """One row of the comparison: how a rack is configured."""

    name: str
    policy: str = "round-robin"
    p: float = 0.0
    #: Per-node technique knobs, as :func:`~repro.fleet.cells.run_rack_cell`
    #: keywords; only knobs that differ from the executor defaults appear.
    knobs: Mapping[str, Any] = field(default_factory=dict)


def techniques(p: float) -> List[Technique]:
    """The comparison roster (baseline first; ``p`` is the injection
    probability for the Dimetrodon rows)."""
    return [
        Technique("baseline"),
        Technique("dimetrodon", p=p),
        Technique("dvfs-min", knobs={"dvfs_min": True}),
        Technique("tcc-50", knobs={"tcc_duty": 0.5}),
        Technique("alert-reactive", policy="alert-reactive"),
        Technique("heat-and-run", knobs={"heat_and_run": True}),
        Technique("coolest", policy="coolest"),
        Technique("migrate", policy="migrate"),
        Technique("dimetrodon+migrate", policy="migrate", p=p),
    ]


@dataclass
class TechniqueRow:
    """One technique's rack-wide measurements."""

    technique: Technique
    run: _FleetRun
    #: Intra-chip heat-and-run migrations summed over nodes (the
    #: inter-chip count lives in ``run.migrations``).
    core_migrations: int = 0
    #: This rack's health summary (JSON-safe) for the manifest.
    health: Optional[dict] = None

    def tradeoff(self, baseline: _FleetRun, idle_mean: float) -> TradeoffPoint:
        """Temperature reduction vs QoS-good reduction, fig4-style."""
        baseline_rise = baseline.mean_temp - idle_mean
        rise = self.run.mean_temp - idle_mean
        reduction = (
            (baseline_rise - rise) / baseline_rise if baseline_rise > 0 else 0.0
        )
        qos_reduction = (
            1.0 - self.run.qos_good / baseline.qos_good
            if baseline.qos_good > 0
            else 0.0
        )
        return TradeoffPoint(
            temp_reduction=reduction,
            throughput_reduction=qos_reduction,
            params={"technique": self.technique.name},
        )


@dataclass
class FleetCompareResult:
    """Cross-technique comparison over identical racks."""

    machines: int
    duration: float
    p: float
    idle_quantum: float
    idle_mean_temp: float
    offered_load_per_core: float
    rows: List[TechniqueRow] = field(default_factory=list)

    @property
    def baseline(self) -> _FleetRun:
        return self.rows[0].run

    def tradeoffs(self) -> List[TradeoffPoint]:
        """One point per non-baseline technique."""
        return [
            row.tradeoff(self.baseline, self.idle_mean_temp)
            for row in self.rows[1:]
        ]

    def pareto_names(self) -> List[str]:
        """Techniques on the (temp reduction, QoS reduction) frontier."""
        return [
            str(point.params["technique"])
            for point in pareto_boundary(
                [pt for pt in self.tradeoffs() if pt.temp_reduction >= 0]
            )
        ]

    def render(self) -> str:
        efficient = set(self.pareto_names())
        baseline = self.baseline
        table_rows = []
        for row in self.rows:
            run = row.run
            rel_good = run.qos_good / baseline.qos_good if baseline.qos_good else 0.0
            rel_tol = (
                run.qos_tolerable / baseline.qos_tolerable
                if baseline.qos_tolerable
                else 0.0
            )
            table_rows.append(
                [
                    row.technique.name,
                    run.mean_temp - self.idle_mean_temp,
                    run.peak_temp - self.idle_mean_temp,
                    percent(rel_good),
                    percent(rel_tol),
                    run.alerts,
                    run.time_in_critical_s,
                    run.time_throttled_s,
                    run.migrations + row.core_migrations,
                    run.energy / 1e3,
                    "*" if row.technique.name in efficient else "",
                ]
            )
        title = (
            f"Fleet technique comparison: {self.machines} machines x "
            f"{self.duration:.0f}s web serving (p={self.p}, "
            f"load/core {percent(self.offered_load_per_core)}; "
            f"* = Pareto-efficient)"
        )
        return format_table(
            [
                "technique",
                "rise [C]",
                "peak [C]",
                "QoS good",
                "QoS tol.",
                "alerts",
                "crit [s]",
                "thr [s]",
                "migr",
                "energy [kJ]",
                "pareto",
            ],
            table_rows,
            title=title,
        )

    def health_payload(self) -> dict:
        """Per-technique health summaries for the manifest."""
        return {row.technique.name: row.health for row in self.rows}


def technique_specs(grid: RackGrid, p: float) -> List[Tuple[Technique, RunSpec]]:
    """The comparison's rack cells: one ``(technique, spec)`` pair per
    technique, in roster (= submission = report) order.

    A technique's knobs are only those that differ from the executor
    defaults, so a plain cell (the baseline) keys identically to the
    same rack run built by any other experiment and shares its cache
    entry.  ``tools/profile_run.py --cell`` builds a single technique's
    spec through this function too.
    """
    return [
        (technique, grid.spec(technique.p, technique.policy, **technique.knobs))
        for technique in techniques(p)
    ]


def fleet_compare_experiment(
    config: ExperimentConfig,
    *,
    machines: Optional[int] = None,
    duration: Optional[float] = None,
    p: float = INJECTION_P,
    idle_quantum: float = IDLE_QUANTUM,
    warmup: float = WARMUP,
    health_params: Optional[HealthParams] = None,
    runner: Optional[Any] = None,
) -> FleetCompareResult:
    """Rack-wide cross-technique comparison (fig4 at fleet scale).

    Each technique gets a fresh, identically seeded rack, so rows
    differ only by the technique.  The comparison rack is smaller than
    the plain ``fleet`` experiment's (8 racks run back to back): 4
    machines on the fast preset, 64 with ``--full``.

    The techniques are independent rack cells: with a
    :class:`~repro.runtime.parallel.ParallelRunner` attached they fan
    out through its pool/cache/journal stack (bit-identical to the
    serial loop); without one they run in-process, in roster order.
    Under ``--keep-going`` a failed non-baseline cell drops its row
    (the failure report names it); a lost baseline is an error, since
    every other row is scored against it.
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
        runner, "fleet-compare", technique_specs(grid, p), required=("baseline",)
    )
    _metrics_registry().scope("fleet").counter("compare.racks").inc(len(cells))
    return FleetCompareResult(
        machines=grid.machines,
        duration=grid.duration,
        p=p,
        idle_quantum=idle_quantum,
        idle_mean_temp=idle_mean,
        offered_load_per_core=grid.offered_load_per_core,
        rows=[
            TechniqueRow(
                technique=technique,
                run=cell.run,
                core_migrations=cell.core_migrations,
                health=cell.health,
            )
            for technique, cell in cells
        ],
    )

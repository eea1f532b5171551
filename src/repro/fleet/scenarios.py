"""The ``scenarios`` CLI experiment: injection × load shape × policy.

The paper evaluates the web workload at one operating point — a fixed
Poisson arrival rate (§3.7).  Production traffic is not flat, and the
regimes where preventive injection's "defer work now" trade-off bites
are exactly the time-varying ones: a diurnal trough gives injection
free thermal headroom, a flash crowd punishes any deferred capacity,
and heavy-tailed bursts stress the backlog the paper warns about
("deferring idle cycles ... increases processor load and heat").

This experiment sweeps injection probability × load shape across the
scheduling-policy registry (:mod:`repro.fleet.scheduling`), serving
every cell on an identically seeded rack.  Each run is scored with the
windowed SLO scorer (:mod:`repro.analysis.slo`): per-window
good/tolerable/failed fractions over half-open windows, worst-window
and time-in-violation summaries — the numbers a whole-run average
hides.  Per shape, the non-baseline cells form a QoS-vs-temperature
Pareto frontier (:func:`~repro.core.pareto.pareto_boundary`), and the
full per-window series lands in the run manifest via
:meth:`ScenariosResult.manifest_payload` (``--metrics``).

Load shapes (registry: :data:`SCENARIO_SHAPES`):

``constant``   the paper's fixed-rate reference point;
``diurnal``    one sinusoidal day/night cycle compressed into the run;
``surge``      a flash crowd: 2x the nominal rate for the middle fifth;
``bursty``     Poisson baseline + Pareto-sized request bursts;
``trace``      a frozen trace synthesized once from a composed
               diurnal+surge shape and replayed bit-identically for
               every policy and ``p`` (trace-driven arrivals).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..analysis.slo import SloReport
from ..core.pareto import TradeoffPoint, pareto_boundary
from ..errors import ConfigurationError
from ..experiments.config import ExperimentConfig
from ..experiments.reporting import format_table, percent
from ..health import HealthParams
from ..telemetry.registry import registry as _metrics_registry
from ..workloads.webserver import CONNECTIONS, QOS_GOOD, QOS_TOLERABLE, THINK_TIME
# ``run_cells`` is not called here (the grid runs its cells), but it
# stays bound: perfbench's set-up patches it in this module too.
from .cells import (  # noqa: F401
    IDLE_QUANTUM,
    SCENARIO_SHAPES,
    WARMUP,
    RackGrid,
    _FleetRun,
    run_cells,
)
from .scheduling.registry import check_policy

#: Rack size by preset, ``(fast, full)``: the grid is the cost driver,
#: not the rack.
RACK_MACHINES = (2, 16)

#: Default policy subset for the sweep (the full registry makes the
#: grid 5x larger for little extra signal; ``--policy`` narrows to one).
DEFAULT_POLICIES = ("round-robin", "coolest", "migrate")

#: Default injection probabilities (0 is the per-shape baseline and is
#: always included even if the caller drops it).
DEFAULT_P_VALUES = (0.0, 0.4, 0.8)


@dataclass
class ScenarioRow:
    """One cell of the sweep: a rack run under (shape, policy, p)."""

    shape: str
    policy: str
    p: float
    run: _FleetRun
    report: SloReport
    #: Whole-run p95 response time over answered requests in the
    #: scoring span, seconds (None when nothing was answered).
    p95_response: Optional[float] = None
    #: This cell's compact health summary (JSON-safe, no per-machine
    #: detail — the grid would multiply it by machines × cells).
    health: Optional[Dict[str, object]] = None


def _tradeoff(
    row: ScenarioRow, baseline: ScenarioRow, idle_mean: float
) -> Optional[TradeoffPoint]:
    """Temperature reduction vs QoS-good reduction against the shape's
    baseline cell, or None when either side carries no data."""
    good = row.report.good_fraction
    base_good = baseline.report.good_fraction
    if good is None or base_good is None or base_good <= 0:
        return None
    baseline_rise = baseline.run.mean_temp - idle_mean
    rise = row.run.mean_temp - idle_mean
    reduction = (baseline_rise - rise) / baseline_rise if baseline_rise > 0 else 0.0
    return TradeoffPoint(
        temp_reduction=reduction,
        throughput_reduction=1.0 - good / base_good,
        params={"policy": row.policy, "p": row.p},
    )


@dataclass
class ScenariosResult:
    """The full sweep: one :class:`ScenarioRow` per grid cell, plus the
    per-shape Pareto frontiers and manifest serialization."""

    machines: int
    duration: float
    warmup: float
    window: float
    idle_quantum: float
    idle_mean_temp: float
    offered_load_per_core: float
    shapes: List[str]
    policies: List[str]
    p_values: List[float]
    rows: List[ScenarioRow] = field(default_factory=list)

    # ------------------------------------------------------------------
    def shape_rows(self, shape: str) -> List[ScenarioRow]:
        return [row for row in self.rows if row.shape == shape]

    def baseline_for(self, shape: str) -> Optional[ScenarioRow]:
        """The shape's reference cell (first policy at ``p=0``), or
        None when it is absent — possible only under ``--keep-going``
        when the baseline cell failed terminally."""
        for row in self.shape_rows(shape):
            if row.policy == self.policies[0] and row.p == 0.0:
                return row
        return None

    def tradeoffs(self, shape: str) -> List[TradeoffPoint]:
        """One (temp reduction, QoS reduction) point per non-baseline
        cell of ``shape`` that carries data (empty without a baseline
        to score against)."""
        baseline = self.baseline_for(shape)
        if baseline is None:
            return []
        points = []
        for row in self.shape_rows(shape):
            if row is baseline:
                continue
            point = _tradeoff(row, baseline, self.idle_mean_temp)
            if point is not None:
                points.append(point)
        return points

    def pareto(self, shape: str) -> List[TradeoffPoint]:
        """The shape's Pareto-efficient cells (cooling >= 0 only)."""
        return pareto_boundary(
            [pt for pt in self.tradeoffs(shape) if pt.temp_reduction >= 0]
        )

    def _efficient_keys(self) -> set:
        keys = set()
        for shape in self.shapes:
            for point in self.pareto(shape):
                keys.add((shape, point.params["policy"], point.params["p"]))
        return keys

    # ------------------------------------------------------------------
    def render(self) -> str:
        efficient = self._efficient_keys()
        table_rows = []
        for row in self.rows:
            summary = row.report.summary()
            worst = summary["worst_window_good"]
            table_rows.append(
                [
                    row.shape,
                    row.policy,
                    row.p,
                    row.run.mean_temp - self.idle_mean_temp,
                    row.run.peak_temp - self.idle_mean_temp,
                    _pct(summary["good_fraction"]),
                    _pct(summary["tolerable_fraction"]),
                    _pct(worst),
                    summary["time_in_violation_s"],
                    "n/a" if row.p95_response is None else row.p95_response,
                    row.run.alerts,
                    row.run.time_in_critical_s,
                    row.run.migrations,
                    "*" if (row.shape, row.policy, row.p) in efficient else "",
                ]
            )
        title = (
            f"Scenarios: {self.machines} machines x {self.duration:.0f}s, "
            f"{len(self.shapes)} shapes x {len(self.policies)} policies x "
            f"{len(self.p_values)} p values "
            f"(window {self.window:.1f}s, nominal load/core "
            f"{percent(self.offered_load_per_core)}; * = Pareto-efficient "
            f"within its shape)"
        )
        parts = [
            format_table(
                [
                    "shape",
                    "policy",
                    "p",
                    "rise [C]",
                    "peak [C]",
                    "QoS good",
                    "QoS tol.",
                    "worst win",
                    "viol [s]",
                    "p95 [s]",
                    "alerts",
                    "crit [s]",
                    "migr",
                    "pareto",
                ],
                table_rows,
                title=title,
            )
        ]
        for shape in self.shapes:
            frontier = self.pareto(shape)
            if not frontier:
                continue
            cells = ", ".join(
                f"{pt.params['policy']}@p={pt.params['p']:g} "
                f"(cool {percent(pt.temp_reduction)}, "
                f"QoS cost {percent(pt.throughput_reduction)})"
                for pt in frontier
            )
            parts.append(f"pareto[{shape}]: {cells}")
        return "\n".join(parts)

    # ------------------------------------------------------------------
    def manifest_payload(self) -> Dict[str, object]:
        """JSON-safe artifact for the run manifest: per-cell window
        series + summaries and the per-shape Pareto tables.

        Contains no NaN/Inf anywhere (``None`` is the no-data marker),
        so the manifest stays strict JSON (``allow_nan=False`` clean).
        """
        runs = []
        for row in self.rows:
            runs.append(
                {
                    "shape": row.shape,
                    "policy": row.policy,
                    "p": row.p,
                    "summary": row.report.summary(),
                    "series": row.report.series(),
                    "mean_temp": _json_safe(row.run.mean_temp),
                    "peak_temp": _json_safe(row.run.peak_temp),
                    "rise": _json_safe(row.run.mean_temp - self.idle_mean_temp),
                    "energy": _json_safe(row.run.energy),
                    "requests": row.run.requests,
                    "migrations": row.run.migrations,
                    "p95_response": _json_safe(row.p95_response),
                    "alerts": row.run.alerts,
                    "critical_alerts": row.run.critical_alerts,
                    "time_in_warning_s": _json_safe(row.run.time_in_warning_s),
                    "time_in_critical_s": _json_safe(row.run.time_in_critical_s),
                }
            )
        pareto: Dict[str, list] = {}
        for shape in self.shapes:
            efficient = {
                (pt.params["policy"], pt.params["p"]) for pt in self.pareto(shape)
            }
            pareto[shape] = [
                {
                    "policy": pt.params["policy"],
                    "p": pt.params["p"],
                    "temp_reduction": _json_safe(pt.temp_reduction),
                    "qos_reduction": _json_safe(pt.throughput_reduction),
                    "efficient": (pt.params["policy"], pt.params["p"]) in efficient,
                }
                for pt in self.tradeoffs(shape)
            ]
        return {
            "machines": self.machines,
            "duration": self.duration,
            "warmup": self.warmup,
            "window": self.window,
            "idle_quantum": self.idle_quantum,
            "idle_mean_temp": _json_safe(self.idle_mean_temp),
            "good_threshold": QOS_GOOD,
            "tolerable_threshold": QOS_TOLERABLE,
            "shapes": list(self.shapes),
            "policies": list(self.policies),
            "p_values": list(self.p_values),
            "runs": runs,
            "pareto": pareto,
        }

    def health_payload(self) -> Dict[str, object]:
        """Compact per-cell health section for the manifest: the shared
        monitoring config once, then one totals row per grid cell."""
        config = None
        cells = []
        for row in self.rows:
            if row.health is None:
                continue
            if config is None:
                config = row.health.get("config")
            cells.append(
                {
                    "shape": row.shape,
                    "policy": row.policy,
                    "p": row.p,
                    "totals": row.health.get("totals"),
                }
            )
        return {"config": config, "cells": cells}


def _pct(fraction: Optional[float]) -> str:
    return "n/a" if fraction is None else percent(fraction)


def _json_safe(value: Optional[float]) -> Optional[float]:
    """NaN/Inf become None (JSON null), everything else passes through."""
    if value is None:
        return None
    value = float(value)
    return value if np.isfinite(value) else None


def scenarios_experiment(
    config: ExperimentConfig,
    *,
    machines: Optional[int] = None,
    duration: Optional[float] = None,
    shapes: Optional[Sequence[str]] = None,
    policies: Sequence[str] = DEFAULT_POLICIES,
    p_values: Sequence[float] = DEFAULT_P_VALUES,
    idle_quantum: float = IDLE_QUANTUM,
    warmup: float = WARMUP,
    window: Optional[float] = None,
    policy: Optional[str] = None,
    health_params: Optional[HealthParams] = None,
    runner: Optional[Any] = None,
) -> ScenariosResult:
    """Sweep injection probability × load shape × scheduling policy.

    Every cell runs a fresh, identically seeded rack, so cells differ
    only by (shape, policy, p).  The fast preset runs a 2-machine rack
    (the grid is the cost driver, not the rack), ``--full`` 16
    machines.  ``policy`` (the CLI ``--policy``) narrows the policy
    axis to one name; otherwise :data:`DEFAULT_POLICIES` is swept.
    ``p = 0`` is always included — it is each shape's QoS/thermal
    baseline for the Pareto frontier.

    Scoring: requests arriving in ``[warmup, duration - 5s)`` are
    pooled rack-wide and scored in half-open windows of ``window``
    seconds (default: a fifth of the scoring span) *inside each cell*,
    so only the window series — never the raw request log — crosses a
    process boundary.

    The grid cells are independent rack cells
    (:mod:`repro.fleet.cells`): with a ``runner`` attached they fan
    out through its pool/cache/journal stack (``--jobs`` results are
    bit-identical to serial; a cached re-run replays the whole grid
    without simulating), and under ``--keep-going`` a failed cell
    drops its row — the frontier of a shape that lost its baseline is
    simply empty.
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
    score_start, score_end = warmup, grid.duration - QOS_TOLERABLE
    if score_end <= score_start:
        raise ConfigurationError(
            f"duration {grid.duration}s leaves no scoring span past the "
            f"{warmup}s warmup and {QOS_TOLERABLE}s drain"
        )
    if window is None:
        window = max(1.0, (score_end - score_start) / 5.0)
    if policy is not None:
        policies = (policy,)
    for name in policies:
        check_policy(name)
    shapes = tuple(shapes) if shapes is not None else SCENARIO_SHAPES
    p_values = tuple(p_values)
    if 0.0 not in p_values:
        p_values = (0.0,) + p_values

    # Nominal aggregate rate the rack is sized for (what one balancer
    # feeds round-robin in the plain fleet experiment).
    rate = grid.machines * CONNECTIONS / THINK_TIME

    # One cell per (shape, policy, p); grid order = submission order =
    # report order.  Each cell rebuilds its shape from the registry (the
    # trace shape resynthesizes the identical frozen trace from the
    # config seed) and scores its own SLO windows.
    cells, idle_mean = grid.run(
        runner,
        "scenarios",
        [
            (
                (shape_name, policy_name, p),
                grid.spec(
                    p,
                    policy_name,
                    shape=shape_name,
                    rate=rate,
                    health_per_machine=False,
                    slo_window=(score_start, score_end, window),
                ),
            )
            for shape_name in shapes
            for policy_name in policies
            for p in p_values
        ],
    )

    metrics = _metrics_registry().scope("scenarios")
    result = ScenariosResult(
        machines=grid.machines,
        duration=grid.duration,
        warmup=warmup,
        window=window,
        idle_quantum=idle_quantum,
        idle_mean_temp=idle_mean,
        offered_load_per_core=grid.offered_load_per_core,
        shapes=list(shapes),
        policies=list(policies),
        p_values=list(p_values),
    )
    for (shape_name, policy_name, p), cell in cells:
        result.rows.append(
            ScenarioRow(
                shape=shape_name,
                policy=policy_name,
                p=p,
                run=cell.run,
                report=cell.slo,
                p95_response=cell.p95_response,
                health=cell.health,
            )
        )
        metrics.counter("racks").inc()
        metrics.counter("windows").inc(len(cell.slo.windows))
        metrics.counter("requests").inc(cell.slo.total_arrivals)
    return result

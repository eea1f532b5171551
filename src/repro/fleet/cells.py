"""Rack cells: fleet rack runs as batchable, cacheable units of work.

The fleet experiments (``fleet``, ``fleet-compare``, ``scenarios``)
are grids of *fully independent* rack simulations — each cell builds
its own :class:`~repro.fleet.machine.FleetMachine` from its own
config and shares no state with any other cell.  Historically they
ran those cells in a bare serial loop, bypassing the
:mod:`repro.runtime` batch layer the figure sweeps use.  This module
closes that gap by expressing one rack run as the runtime's unit of
work:

- :func:`rack_cell_spec` builds a picklable
  :class:`~repro.runtime.parallel.RunSpec` (kind ``"rack-cell"``)
  whose cache key covers the experiment config, every cell parameter
  (policy, load shape, injection, health thresholds, scoring windows),
  the base physics fingerprint, *and* the fleet/health/analysis code
  fingerprint (:func:`~repro.runtime.hashing.fleet_fingerprint`) — so
  editing a scheduling policy invalidates exactly the rack cells, not
  the figure sweeps;
- :func:`run_rack_cell` is the registered executor: it rebuilds the
  rack from the declarative parameters (arrival shapes come from the
  shape registry, node programming from scalar flags — nothing
  unpicklable crosses a process boundary), runs it through
  :func:`~repro.fleet.experiment._measure_rack`, and distils the
  result into a :class:`RackCellResult`;
- :class:`RackCellResult` is the serialisable cell result — the
  :class:`~repro.fleet.experiment._FleetRun` measurement, the health
  rollup, the windowed SLO report, and the cell's physics telemetry —
  registered with the result cache's JSON codec so cached replay is
  bit-identical to execution.

Because each cell rebuilds its rack from ``(config, params)`` alone,
a ``jobs=N`` fan-out is bit-identical to the old serial loop, and the
pool/cache/journal/retry/timeout stack (``--jobs``, ``--cache-dir``,
``--resume``, ``--timeout``, ``--keep-going``) applies to fleet
experiments exactly as it does to figure sweeps.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.slo import SloReport, WindowScore, score_windows
from ..core.migration import ThermalMigrationPolicy
from ..cpu.tcc import TccSetting
from ..errors import ExecutionError
from ..health import HealthParams
from ..runtime.cache import register_result_codec
from ..runtime.hashing import fleet_fingerprint
from ..runtime.parallel import ParallelRunner, RunSpec, execute_spec, register_executor
from ..sim.rng import RngRegistry
from ..telemetry.registry import registry as _metrics_registry
from .experiment import _FleetRun, _measure_rack
from .machine import FleetNode

#: The executor kind rack cells run under (see ``repro.runtime``).
RACK_CELL_KIND = "rack-cell"


# ----------------------------------------------------------------------
# The serialisable cell result
# ----------------------------------------------------------------------
@dataclass
class RackCellResult:
    """Everything downstream scoring needs from one rack run, in plain
    picklable/JSON-codable data (no live fleet, no request logs)."""

    #: The rack-wide measurement (QoS, temperatures, energy, alerts).
    run: _FleetRun
    #: The rack's idle baseline (°C) — identical for every cell of a
    #: grid that shares a config, carried per cell for self-containment.
    idle_mean_temp: float
    #: Intra-chip heat-and-run migrations summed over nodes (the
    #: inter-chip count lives in ``run.migrations``).
    core_migrations: int = 0
    #: Health-monitor summary (JSON-safe) for the manifest.
    health: Optional[Dict[str, Any]] = None
    #: Windowed SLO report (only when the cell was asked to score one).
    slo: Optional[SloReport] = None
    #: Whole-run p95 response time over answered requests in the
    #: scoring span, seconds (None when not scored or nothing answered).
    p95_response: Optional[float] = None
    #: This cell's physics telemetry: chip-substeps advanced and the
    #: wall seconds they took (from the ``fleet.*`` counters).  Cached
    #: cells replay the numbers measured when they actually executed.
    substeps: float = 0.0
    advance_wall_s: float = 0.0

    # -- cache codec ---------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        if self.slo is not None:
            payload["slo"] = {
                "windows": [dataclasses.asdict(w) for w in self.slo.windows],
                "good_threshold": self.slo.good_threshold,
                "tolerable_threshold": self.slo.tolerable_threshold,
                "window_length": self.slo.window_length,
            }
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "RackCellResult":
        data = dict(payload)
        data["run"] = _FleetRun(**data["run"])
        if data.get("slo") is not None:
            slo = data["slo"]
            data["slo"] = SloReport(
                windows=[WindowScore(**w) for w in slo["windows"]],
                good_threshold=slo["good_threshold"],
                tolerable_threshold=slo["tolerable_threshold"],
                window_length=slo["window_length"],
            )
        return cls(**data)


register_result_codec(
    RACK_CELL_KIND,
    RackCellResult,
    encode=RackCellResult.to_payload,
    decode=RackCellResult.from_payload,
)


# ----------------------------------------------------------------------
# Spec construction
# ----------------------------------------------------------------------
def rack_cell_spec(config: Any, **params: Any) -> RunSpec:
    """A :class:`RunSpec` for one rack cell.

    ``params`` are :func:`run_rack_cell` keyword arguments; every one
    of them participates in the cache key, alongside the config, the
    physics fingerprint, and the fleet code fingerprint.
    """
    return RunSpec(
        kind=RACK_CELL_KIND,
        config=config,
        params=params,
        extra_code=fleet_fingerprint(),
    )


def run_cells(
    runner: Optional[ParallelRunner], specs: Sequence[RunSpec]
) -> List[Optional[RackCellResult]]:
    """Execute rack cells through ``runner`` (pool + cache + journal +
    retries), or in-process in submission order when no runner is
    attached (library callers; identical results by construction)."""
    if runner is not None:
        return runner.run(list(specs))
    return [execute_spec(spec) for spec in specs]


def require_cells(
    experiment: str, names: Sequence[str], results: Sequence[Optional[RackCellResult]]
) -> None:
    """Fail loudly when essential cells were abandoned (``--keep-going``
    leaves ``None`` in a terminally failed cell's slot)."""
    missing = [name for name, result in zip(names, results) if result is None]
    if missing:
        raise ExecutionError(
            f"{experiment}: required rack cell(s) failed terminally and "
            f"left no result: {', '.join(missing)} (see the failure report)"
        )


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
def _plain(value: Any) -> Any:
    """Collapse numpy scalars so executed and cache-replayed results
    are structurally identical (the cache stores JSON numbers)."""
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _node_setup(
    *,
    dvfs_min: bool,
    tcc_duty: Optional[float],
    heat_and_run: bool,
    core_policies: List[ThermalMigrationPolicy],
):
    """Per-node configuration hook built from declarative flags (the
    compare experiment's technique knobs), or None when nothing is
    asked for.  Mirrors the management-plane convention: heat-and-run
    reads only the node's sampled telemetry, never live physics."""
    if not (dvfs_min or tcc_duty is not None or heat_and_run):
        return None

    def setup(node: FleetNode):
        if dvfs_min:
            node.chip.set_operating_point(node.chip.dvfs_table.min_point)
        if tcc_duty is not None:
            node.chip.set_tcc(TccSetting(duty=tcc_duty))
        if heat_and_run:
            def read_temps(node=node):
                sample = node.templog.latest()
                return node.idle_core_temps if sample is None else sample

            policy = ThermalMigrationPolicy(
                node.sim, node.scheduler, read_temps, period=1.0, min_delta=0.5
            )
            core_policies.append(policy)
            return policy
        return None

    return setup


def run_rack_cell(
    config: Any,
    *,
    machines: int,
    duration: float,
    warmup: float,
    p: float,
    idle_quantum: float,
    policy: str = "round-robin",
    shape: Optional[str] = None,
    rate: Optional[float] = None,
    dvfs_min: bool = False,
    tcc_duty: Optional[float] = None,
    heat_and_run: bool = False,
    health: Optional[HealthParams] = None,
    health_per_machine: bool = True,
    slo_window: Optional[Tuple[float, float, float]] = None,
) -> RackCellResult:
    """Build, run, and score one rack — the ``rack-cell`` executor.

    ``shape`` names a load shape from the scenarios registry
    (``rate`` is the aggregate requests/s envelope it is sized for);
    None keeps the web servers' default fixed-rate Poisson front door.
    ``dvfs_min``/``tcc_duty``/``heat_and_run`` are the compare
    experiment's per-node technique knobs.  ``slo_window`` is
    ``(start, end, window)``: when given, the rack's pooled requests
    are scored with the windowed SLO scorer *inside the cell*, so only
    the report — not the request log — crosses the process boundary.
    """
    arrivals = None
    if shape is not None:
        # Imported lazily: scenarios.py builds specs through this
        # module, so the module-level edge must point the other way.
        from .scenarios import build_scenario_arrivals

        if rate is None:
            raise ExecutionError("a shaped rack cell needs an aggregate rate")
        # A fresh, identically seeded stream per cell: the trace shape
        # synthesizes the same frozen trace in every cell (bit-identical
        # replay), and the live shapes draw from the balancer's own
        # per-rack stream at run time.
        trace_rng = RngRegistry(config.seed).stream("scenario-trace")
        arrivals = build_scenario_arrivals(
            shape, rate=rate, duration=duration, rng=trace_rng
        )

    metrics = _metrics_registry()

    def _physics() -> Tuple[float, float]:
        wall = metrics.value("fleet.advance_wall", {"total": 0.0})["total"]
        return float(metrics.value("fleet.substeps", 0)), float(wall)

    core_policies: List[ThermalMigrationPolicy] = []
    substeps0, wall0 = _physics()
    measurement = _measure_rack(
        config,
        machines=machines,
        duration=duration,
        warmup=warmup,
        p=p,
        idle_quantum=idle_quantum,
        policy=policy,
        node_setup=_node_setup(
            dvfs_min=dvfs_min,
            tcc_duty=tcc_duty,
            heat_and_run=heat_and_run,
            core_policies=core_policies,
        ),
        arrivals=arrivals,
        health_params=health,
    )
    substeps1, wall1 = _physics()
    metrics.scope("fleet").counter("cells").inc()

    slo: Optional[SloReport] = None
    p95: Optional[float] = None
    if slo_window is not None:
        start, end, window = slo_window
        pooled = measurement.pooled_requests()
        slo = score_windows(pooled, start=start, end=end, window=window)
        answered = sorted(
            r.response_time
            for r in pooled
            if start <= r.arrival < end and r.response_time is not None
        )
        p95 = float(np.percentile(answered, 95.0)) if answered else None

    run = _FleetRun(
        **{
            f.name: _plain(getattr(measurement.run, f.name))
            for f in dataclasses.fields(_FleetRun)
        }
    )
    return RackCellResult(
        run=run,
        idle_mean_temp=float(measurement.fleet.idle_mean_temp),
        core_migrations=int(sum(hr.migrations for hr in core_policies)),
        health=_plain(measurement.health.summary(per_machine=health_per_machine)),
        slo=slo,
        p95_response=p95,
        substeps=substeps1 - substeps0,
        advance_wall_s=wall1 - wall0,
    )


register_executor(RACK_CELL_KIND, run_rack_cell)
